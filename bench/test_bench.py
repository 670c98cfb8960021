"""Quick test of the benchmark itself, at 2-3 relays and one-second runs.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SEED = 3

# Per-call timings each workload prints by name besides the gated metrics.
PRINTED = {
    "cli_cold6": {"cli_check_p50_s": "s", "cli_check_layered_p50_s": "s",
                  "cli_solve_p50_s": "s"},
    "cli_floors6": {"cli_floors_p50_s": "s"},
    "sweep_warm5": {"sweep_targets_per_s": "1/s", "sweep_target_p50_ms": "ms",
                    "sweep_target_p90_ms": "ms"},
    "atlas_export": {"cli_export_p50_s": "s"},
    "atlas_vertices3": {"cli_export_vertices_p50_s": "s"},
}
PRINTED_EVERYWHERE = {"setup_s": "s", "session_s": "s", "reference_s": "s",
                      "session_over_ref": "ratio", "peak_rss_mb": "MB", "failed_frac": "ratio"}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )
    return proc


def last_result(proc) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_nothing_failed(workload):
    lines, result = last_result(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())

    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, _ = line.split()
            printed[name] = (float(value), unit)
    assert {k: u for k, (_, u) in printed.items()} == {**PRINTED_EVERYWHERE, **PRINTED[workload]}
    assert printed["failed_frac"][0] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    _, first = last_result(run_bench(workload, 1))
    _, second = last_result(run_bench(workload, 1))
    per_layer = declared("per_layer")
    assert {k: v["unit"] for k, v in first["metrics"].items()} == per_layer
    assert first["failed"] == 0 and second["failed"] == 0
    counts = [name for name, unit in per_layer.items() if unit in ("count", "bytes")]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts}
    assert first["metrics"]["probability.entropy.calls"]["value"] > 0


def test_wrong_expected_result_counts_as_failure(monkeypatch, tmp_path):
    import workloads

    monkeypatch.setitem(workloads.EXPECTED_EXIT, "solve", 1)
    result = workloads.run_workload("cli_cold6", SEED, 0.2, False, "smoke", tmp_path)
    solves = result.metrics["cli_solve_p50_s"][2]
    assert solves >= 1
    assert result.checks.failed == solves
    assert result.metrics["failed_frac"][0] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
