"""Run one benchmark workload of cflayers and print its metrics.

    python3 bench/run.py --workload cli_cold6 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from `src/`.  With
`--trace 0` the last line is one JSON object holding every end-to-end metric
named in BENCHMARK.json; with `--trace 1` it holds every per-layer metric, from
a traced repeat of one session of calls.  Lines before it list the
per-call timings with their sample counts, the per-layer table, the inputs
(shift histogram, minimum outer slack) and the machine.  The full record goes
to `bench/out/`.  `--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

# One BLAS/OpenMP thread: the client is single-threaded and the machine small.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli_cold6", "cli_floors6", "sweep_warm5", "atlas_export", "atlas_vertices3")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: 2-3 relays, for the benchmark's own test")
    return p.parse_args(argv)


def machine_record() -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def select(metrics: dict, wanted: dict[str, str]) -> dict:
    """The declared metrics, in declared order, each with its declared unit."""
    out = {}
    for name, unit in wanted.items():
        value, got_unit = metrics[name][:2]
        if got_unit != unit:
            raise ValueError(f"metric {name} is in {got_unit}, BENCHMARK.json says {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale, Path(tmp))

    record = machine_record()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} scale {args.scale}")
    print("# machine " + json.dumps(record, sort_keys=True))
    print("# inputs " + json.dumps(result.inputs, sort_keys=True))
    for problem in result.checks.problems:
        print(f"# FAILED {problem}")
    for name, (value, unit, n) in result.metrics.items():
        print(f"metric {name} {value:.6g} {unit} n={n}")
    if result.layers is not None:
        for name, (value, unit) in sorted(result.layers.items()):
            print(f"layer {name} {value:.6g} {unit}")

    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "machine": record, "inputs": result.inputs,
        "attempted": result.checks.attempted, "failed": result.checks.failed,
        "problems": result.checks.problems,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in result.metrics.items()},
        "call_seconds": result.samples,
        "reference_seconds": result.reference,
    }
    if result.layers is not None:
        full["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in result.layers.items()}
        result.tracer.save(out_dir / f"{stem}-spans.npz")
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")

    if args.trace:
        metrics = select(result.layers, declared("per_layer"))
    else:
        metrics = select(result.metrics, declared("end_to_end"))
    print(json.dumps({
        "correct": result.checks.failed == 0,
        "attempted": result.checks.attempted,
        "failed": result.checks.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    if not (ROOT / "src" / "cflayers" / "__init__.py").is_file():
        print(f"error: no cflayers sources under {ROOT / 'src'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
