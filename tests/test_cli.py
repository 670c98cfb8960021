"""Exit codes, output formats, and determinism of the command-line front end."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cflayers as cf
from cflayers.cli import main

from _factor_oracle import FactorOracle
from conftest import SYMMETRIC_FAMILIES, symmetric_family, thin_spec
from test_layering import BAD_LAYERING_TOKENS
from test_probability import NON_NUMBER_SPEC_EDITS, mixed_specs, nudged_spec_obj
from test_region import MISTYPED_RATE_FILES
from test_solver import TWO_SHIFT_RATES

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def demo2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("chan") / "demo2.json"
    cf.demo_spec(2, 7).save(path)
    return str(path)


@pytest.fixture(scope="module")
def demo3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("chan") / "demo3.json"
    cf.demo_spec(3, 3).save(path)
    return str(path)


def write_rates(tmp_path, rates):
    path = tmp_path / "rates.json"
    path.write_text(json.dumps({"rates": {str(k): v for k, v in rates.items()}}))
    return str(path)


class TestLayerings:
    def test_two_relays_text(self, capsys):
        assert main(["layerings", "--count", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["2,3", "2|3", "3|2", "total 3"]

    def test_three_relays_count(self, capsys):
        assert main(["layerings", "--count", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 14 and lines[-1] == "total 13"

    def test_one_relay(self, capsys):
        assert main(["layerings", "--count", "1"]) == 0
        assert capsys.readouterr().out.strip().splitlines() == ["2", "total 1"]

    def test_json(self, capsys):
        assert main(["layerings", "--count", "2", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == [[[2, 3]], [[2], [3]], [[3], [2]]]

    def test_over_cap(self, capsys):
        assert main(["layerings", "--count", "9"]) == 2

    def test_huge_count_exits_two_at_once(self, capsys):
        assert main(["layerings", "--count", str(10**12)]) == 2
        assert "enumeration cap of 6" in capsys.readouterr().err

    def test_zero_count(self, capsys):
        assert main(["layerings", "--count", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestCheck:
    def test_member_exit_zero(self, demo2_file, tmp_path, capsys):
        rates = write_rates(tmp_path, {2: 0.0, 3: 0.0})
        assert main(["check", "--channel", demo2_file, "--rates", rates]) == 0
        assert "member: yes" in capsys.readouterr().out

    def test_negative_zero_rate_sums_to_zero(self, demo2_file, tmp_path, capsys):
        rates = tmp_path / "rates.json"
        rates.write_text('{"rates": {"2": -0.0, "3": 0.0}}')
        argv = ["check", "--channel", demo2_file, "--rates", str(rates), "--format", "json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert [e["rate_sum"] for e in json.loads(out)["subsets"]] == [0.0, 0.0, 0.0]
        assert '"rate_sum": 0.0' in out and "-0.0" not in out

    def test_violator_exit_one_and_listed(self, demo2_file, tmp_path, capsys):
        rates = write_rates(tmp_path, {2: 5.0, 3: 0.0})
        code = main(
            ["check", "--channel", demo2_file, "--rates", rates, "--format", "json"]
        )
        assert code == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["member"] is False
        violated = [e["subset"] for e in obj["subsets"] if not e["satisfied"]]
        assert [2] in violated

    def test_layered_check(self, demo2_file, tmp_path, capsys):
        rates = write_rates(tmp_path, {2: 0.0, 3: 0.0})
        code = main(
            ["check", "--channel", demo2_file, "--rates", rates, "--layering", "2|3"]
        )
        assert code == 0
        capsys.readouterr()

    def test_bad_layering_text(self, demo2_file, tmp_path, capsys):
        rates = write_rates(tmp_path, {2: 0.0, 3: 0.0})
        code = main(
            ["check", "--channel", demo2_file, "--rates", rates, "--layering", "2|9"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, token", BAD_LAYERING_TOKENS)
    def test_misspelled_layering_node(self, demo2_file, tmp_path, capsys, text, token):
        rates = write_rates(tmp_path, {2: 0.0, 3: 0.0})
        code = main(["check", "--channel", demo2_file, "--rates", rates, "--layering", text])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: layering {text!r} has a bad node {token!r}\n"

    def test_node_repeated_in_one_layer(self, demo2_file, tmp_path, capsys):
        rates = write_rates(tmp_path, {2: 0.0, 3: 0.0})
        code = main(["check", "--channel", demo2_file, "--rates", rates, "--layering", "2,2|3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: layering '2,2|3' repeats node 2 in one layer\n"

    def test_malformed_rates_exit_two(self, demo2_file, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"rates": {"2": 0.1,')
        code = main(["check", "--channel", demo2_file, "--rates", str(path)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_missing_channel_file(self, tmp_path, capsys):
        rates = write_rates(tmp_path, {2: 0.0, 3: 0.0})
        assert main(["check", "--channel", "/nonexistent.json", "--rates", rates]) == 2
        capsys.readouterr()

    def test_rates_without_rates_key(self, demo2_file, tmp_path, capsys):
        path = tmp_path / "norates.json"
        path.write_text('{"levels": {"2": 0.1}}')
        assert main(["check", "--channel", demo2_file, "--rates", str(path)]) == 2
        capsys.readouterr()


class TestBadNumbers:
    """Non-finite numbers and missing alphabets are input errors, never a verdict."""

    def spec_file(self, tmp_path, edit):
        obj = cf.demo_spec(2, 7).to_json_obj()
        edit(obj)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj))
        return str(path)

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_nan_in_spec_table(self, tmp_path, capsys, command):
        def poison(obj):
            obj["channel"][0][0][0][0][0][0] = float("nan")

        chan = self.spec_file(tmp_path, poison)
        rates = write_rates(tmp_path, {2: 0.0, 3: 0.0})
        assert main([command, "--channel", chan, "--rates", rates]) == 2
        assert "[range] channel" in capsys.readouterr().err

    @pytest.mark.parametrize("part, field", [("source", "alphabet"), ("destination", "y_alphabet")])
    def test_missing_alphabet(self, tmp_path, capsys, part, field):
        chan = self.spec_file(tmp_path, lambda o: o[part].pop(field))
        assert main(["floors", "--channel", chan]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rates(self, demo2_file, tmp_path, capsys, command, bad):
        rates = write_rates(tmp_path, {2: bad, 3: 0.0})
        assert main([command, "--channel", demo2_file, "--rates", rates]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite" in captured.err

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_rates_without_finite_total(self, demo2_file, tmp_path, capsys, command):
        # each rate is finite, but their sum is inf, which JSON cannot print
        rates = write_rates(tmp_path, {2: 1e308, 3: 1e308})
        code = main([command, "--channel", demo2_file, "--rates", rates, "--format", "json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_nan_epsilon(self, demo2_file, tmp_path, capsys, command):
        rates = write_rates(tmp_path, {2: 0.0, 3: 0.0})
        code = main([command, "--channel", demo2_file, "--rates", rates, "--epsilon", "nan"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "epsilon" in captured.err


class TestMalformedInput:
    """Mistyped JSON is an input error (exit 2), never a crash (exit 1)."""

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("text", MISTYPED_RATE_FILES)
    def test_mistyped_rate_file(self, demo2_file, tmp_path, capsys, command, text):
        path = tmp_path / "rates.json"
        path.write_text(text)
        assert main([command, "--channel", demo2_file, "--rates", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "part, field, bad",
        [(None, "relays", 5), ("source", "alphabet", 2.5), ("destination", "y_alphabet", 2.5)],
    )
    def test_mistyped_spec_field(self, tmp_path, capsys, part, field, bad):
        obj = cf.demo_spec(2, 7).to_json_obj()
        (obj if part is None else obj[part])[field] = bad
        chan = tmp_path / "edited.json"
        chan.write_text(json.dumps(obj))
        rates = write_rates(tmp_path, {2: 0.0, 3: 0.0})
        assert main(["check", "--channel", str(chan), "--rates", rates]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and field in captured.err

    @pytest.mark.parametrize("which", ["channel", "rates"])
    def test_deeply_nested_file(self, demo2_file, tmp_path, capsys, which):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        files = {"channel": demo2_file, "rates": write_rates(tmp_path, {2: 0.0, 3: 0.0})}
        files[which] = str(deep)
        assert main(["check", "--channel", files["channel"], "--rates", files["rates"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "nested too deeply" in captured.err

    @pytest.mark.parametrize("field, edit", NON_NUMBER_SPEC_EDITS)
    def test_non_number_in_spec(self, tmp_path, capsys, field, edit):
        obj = cf.demo_spec(2, 7).to_json_obj()
        edit(obj)
        chan = tmp_path / "edited.json"
        chan.write_text(json.dumps(obj))
        rates = write_rates(tmp_path, {2: 0.0, 3: 0.0})
        assert main(["check", "--channel", str(chan), "--rates", rates]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and field in captured.err

    def test_validated_spec_runs(self, tmp_path, capsys):
        # every table within the validation tolerance, the joint's mass beyond it
        chan = tmp_path / "nudged.json"
        chan.write_text(json.dumps(nudged_spec_obj()))
        assert main(["floors", "--channel", str(chan)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["check", "floors"])
    def test_edge_spec_runs_on_either_joint(self, tmp_path, capsys, command):
        # all eight factors at the edge: check reads the relay joint, floors the full one
        chan = tmp_path / "edge.json"
        chan.write_text(json.dumps(nudged_spec_obj(rows=True)))
        argv = [command, "--channel", str(chan)]
        if command == "check":
            argv += ["--rates", write_rates(tmp_path, {2: 0.0, 3: 0.0, 4: 0.0})]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_eight_relays_over_cell_cap(self, tmp_path, capsys):
        chan = tmp_path / "eight.json"
        chan.write_text(json.dumps(thin_spec(8, letters=2).to_json_obj()))  # 4 MB, 33 MB indented
        rates = write_rates(tmp_path, {i: 0.0 for i in range(2, 10)})
        assert main(["check", "--channel", str(chan), "--rates", rates]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: joint table needs 67108864 cells, above the cap of 16777216\n"
        )


class TestRelayJointOnly:
    """check and solve read the relay joint, floors an X1-free one; export needs the full one."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "command", [["check"], ["check", "--layering", "2,4|3"], ["solve"]],
        ids=["check", "check_layered", "solve"],
    )
    def test_never_builds_full_joint(self, demo3_file, tmp_path, capsys, no_full_joint,
                                     command, fmt):
        rates = write_rates(tmp_path, TWO_SHIFT_RATES)
        argv = command + ["--channel", demo3_file, "--rates", rates, "--format", fmt]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""

    @pytest.mark.parametrize("command", [["export"], ["export", "--vertices"]])
    def test_floors_and_export_build_it(self, demo3_file, no_full_joint, command):
        with pytest.raises(AssertionError, match="full joint"):
            main(command + ["--channel", demo3_file])


class TestSolve:
    def test_interior_point_achieves(self, demo3_file, tmp_path, capsys):
        rates = write_rates(tmp_path, TWO_SHIFT_RATES)
        code = main(
            ["solve", "--channel", demo3_file, "--rates", rates, "--format", "json"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["status"] == "achieved"
        assert obj["layering"] == [[2, 4], [3]]
        assert obj["trace"][-1]["status"] == "achieved"

    def test_outside_outer_exit_one(self, demo2_file, tmp_path, capsys):
        rates = write_rates(tmp_path, {2: 5.0, 3: 5.0})
        code = main(["solve", "--channel", demo2_file, "--rates", rates])
        assert code == 1
        assert "outside the outer region" in capsys.readouterr().out

    def test_iteration_guard_exit_three(self, demo3_file, tmp_path, capsys):
        rates = write_rates(tmp_path, TWO_SHIFT_RATES)
        code = main(
            ["solve", "--channel", demo3_file, "--rates", rates, "--max-iter", "1"]
        )
        assert code == 3
        assert "not converged" in capsys.readouterr().out


class TestExport:
    def test_deterministic_bytes(self, demo2_file, capsys):
        assert main(["export", "--channel", demo2_file, "--vertices"]) == 0
        first = capsys.readouterr().out
        assert main(["export", "--channel", demo2_file, "--vertices"]) == 0
        second = capsys.readouterr().out
        assert first == second
        obj = json.loads(first)
        assert len(obj["layerings"]) == 3

    @pytest.mark.parametrize("n", range(2, 6))
    def test_blocks_hold_check_caps(self, tmp_path, capsys, n):
        # export's outer block holds check's (subset, rhs) pairs, and a layered block
        # those of check --layering: one layer, one relay per layer, and a seeded one
        nodes = range(2, n + 2)
        layerings = cf.enumerate_layerings(nodes)
        rates = write_rates(tmp_path, {i: 0.0 for i in nodes})
        for seed in (1, 7, 301):
            path = tmp_path / f"demo{n}_{seed}.json"
            cf.demo_spec(n, seed).save(path)
            assert main(["export", "--channel", str(path)]) == 0
            atlas = json.loads(capsys.readouterr().out)
            blocks = {str(e["layers"]): e["halfspaces"] for e in atlas["layerings"]}
            picked = layerings[np.random.default_rng(seed).integers(len(layerings))]
            texts = [",".join(map(str, nodes)), "|".join(map(str, reversed(nodes))),
                     picked.to_text()]
            for text in [None] + texts:
                flags = [] if text is None else ["--layering", text]
                assert main(["check", "--channel", str(path), "--rates", rates,
                             "--format", "json"] + flags) in (0, 1)
                check = json.loads(capsys.readouterr().out)["subsets"]
                block = (atlas["outer"]["halfspaces"] if text is None else
                         blocks[str([sorted(g) for g in cf.parse_layering(text).layers])])
                assert [(h["subset"], h["rhs"]) for h in block] == [
                    (c["subset"], c["rhs"]) for c in check]

    def test_out_file(self, demo2_file, tmp_path, capsys):
        out = tmp_path / "atlas.json"
        assert main(["export", "--channel", demo2_file, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["dimension"] == 2
        assert main(["export", "--channel", demo2_file]) == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("n, vertices", [(1, False), (2, False), (3, False), (4, False),
                                             (1, True), (2, True), (3, True)])
    def test_streams_the_atlas_bytes(self, tmp_path, capsys, n, vertices):
        path = tmp_path / "demo.json"
        cf.demo_spec(n, 7).save(path)
        assert main(["export", "--channel", str(path)] + ["--vertices"] * vertices) == 0
        atlas = cf.export_atlas(cf.build_joint(cf.load_spec(path)), with_vertices=vertices)
        assert capsys.readouterr().out == atlas.dumps()

    def test_export_holds_no_atlas(self, tmp_path, monkeypatch):
        path = tmp_path / "demo5.json"
        cf.demo_spec(5, 7).save(path)
        # what an export holds does not depend on how its caps are found, and the
        # real caps of 541 layerings take 8 s under tracemalloc: each layering
        # gets fresh copies of the outer half-spaces
        outer = cf.outer_h_rep(cf.build_relay_joint(cf.load_spec(path)))
        monkeypatch.setattr(cf.geometry, "h_rep", lambda joint, layering: tuple(
            cf.HalfSpace(hs.subset, hs.rhs) for hs in outer))
        tracemalloc.start()
        try:
            assert main(["export", "--channel", str(path), "--out", str(tmp_path / "a.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 8.7 MiB with the whole atlas built before its first byte is written;
        # 2.7 MiB streamed, most of it the spec and the 1 MiB joint
        assert peak < 5 * 2**20

    def test_vertices_beyond_three_relays(self, tmp_path, capsys, no_table):
        path = tmp_path / "demo4.json"
        cf.demo_spec(4, 0).save(path)
        out = tmp_path / "atlas.json"
        for to_file in ([], ["--out", str(out)]):
            assert main(["export", "--channel", str(path), "--vertices"] + to_file) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "vertices are available for up to 3 relays, got 4" in captured.err
        assert not out.exists()  # every input check runs before the first byte

    def test_seven_relays_exit_two_before_any_entropy(self, tmp_path, capsys, no_entropy,
                                                       no_table):
        path = tmp_path / "seven.json"
        thin_spec(7).save(path)
        out = tmp_path / "atlas.json"
        for to_file in ([], ["--out", str(out)]):
            assert main(["export", "--channel", str(path)] + to_file) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "7 relays exceeds the enumeration cap of 6" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("vertices", [False, True])
    def test_limits_come_before_validation(self, tmp_path, capsys, no_table, vertices):
        obj = thin_spec(7).to_json_obj()
        obj["source"]["p_x1"] = [0.5, 0.25]  # sums to 3/4: a table would refuse it
        path = tmp_path / "seven.json"
        path.write_text(json.dumps(obj))
        assert main(["export", "--channel", str(path)] + ["--vertices"] * vertices) == 2
        assert "7 relays exceeds the enumeration cap of 6" in capsys.readouterr().err


class TestDemo:
    def test_deterministic_bytes(self, capsys):
        assert main(["demo", "--relays", "2", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["demo", "--relays", "2", "--seed", "7"]) == 0
        assert first == capsys.readouterr().out

    def test_one_relay_gives_d3(self, capsys):
        assert main(["demo", "--relays", "1", "--seed", "5"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["d"] == 3

    def test_generated_spec_validates(self, tmp_path):
        out = tmp_path / "gen.json"
        assert main(["demo", "--relays", "3", "--seed", "9", "--out", str(out)]) == 0
        assert cf.validate_spec(cf.load_spec(out)) == []

    def test_out_file_matches_stdout_and_dumps(self, tmp_path, capsys):
        out = tmp_path / "chan.json"
        assert main(["demo", "--relays", "2", "--seed", "7", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["demo", "--relays", "2", "--seed", "7"]) == 0
        expected = cf.demo_spec(2, 7).dumps()
        assert capsys.readouterr().out == expected
        assert out.read_text() == expected

    @pytest.mark.parametrize("relays, cells", [(8, "2^26"), (10**12, "2^3000000000002")])
    def test_over_cell_cap_exits_two_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                    relays, cells):
        def refuse(*args):
            raise AssertionError("a table was drawn")

        monkeypatch.setattr(cf.demo, "_dithered", refuse)
        out = tmp_path / "big.json"
        assert main(["demo", "--relays", str(relays), "--seed", "1", "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"joint table needs {cells} cells, above the cap of 16777216" in captured.err

    def test_seven_relays_still_emitted(self, tmp_path):
        out = tmp_path / "seven.json"
        assert main(["demo", "--relays", "7", "--seed", "1", "--out", str(out)]) == 0
        assert cf.load_spec(out).d == 9


class TestFloors:
    def test_demo_consistent(self, demo2_file, capsys):
        assert main(["floors", "--channel", demo2_file, "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["consistent"] is True
        assert set(obj["floors"]) == {"2", "3"}
        for entry in obj["subsets"]:
            assert abs(entry["window"] - entry["mi_gap"]) <= 1e-9

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_no_table_of_full_size(self, demo3_file, capsys, monkeypatch, summed_sizes, fmt):
        # X1 is summed out inside the build: no table of the full joint's size
        # is constructed or summed
        full_size = cf.build_joint(cf.demo_spec(3, 3)).table.size
        summed_sizes.clear()  # the sum of that table to the relay table it keeps
        built = []
        init = cf.JointPmf._init  # every joint, built, a part or constructed, passes here

        def counted(self, variables, table):
            built.append(table.size)
            init(self, variables, table)

        monkeypatch.setattr(cf.JointPmf, "_init", counted)
        assert main(["floors", "--channel", demo3_file, "--format", fmt]) == 0
        assert built and summed_sizes
        assert max(built + summed_sizes) == full_size // 2  # the X1-free joint
        assert capsys.readouterr().err == ""

    def test_no_memo_key_summed_twice(self, demo3_file, monkeypatch, capsys):
        missed = []
        entropy = cf.JointPmf._entropy

        def counted(self, mask, *args, **kwargs):  # queries of joints and of walked tables
            if mask not in self._memo:
                missed.append(mask)
            return entropy(self, mask, *args, **kwargs)

        monkeypatch.setattr(cf.JointPmf, "_entropy", counted)
        assert main(["floors", "--channel", demo3_file]) == 0
        assert missed and len(missed) == len(set(missed))

    def test_matches_library(self, tmp_path, capsys):
        def close(got, want):  # printed at 12 digits, and summed from other tables
            return abs(got - want) <= max(1e-12, 1e-11 * abs(want))

        for k, spec in enumerate(mixed_specs()):
            path = tmp_path / f"mixed{k}.json"
            spec.save(path)
            assert main(["floors", "--channel", str(path), "--format", "json"]) == 0
            obj = json.loads(capsys.readouterr().out)
            full = cf.build_joint(spec)
            floors = cf.compression_floor(full)
            assert obj["floors"].keys() == {str(i) for i in floors}
            assert all(close(obj["floors"][str(i)], f) for i, f in floors.items())
            caps = list(cf.region.region_caps(cf.build_relay_joint(spec), None))
            assert [e["subset"] for e in obj["subsets"]] == [sorted(s) for s, _ in caps]
            for e, (s, cap) in zip(obj["subsets"], caps):
                assert close(e["boundary_rhs"], cap)
                assert close(e["mi_gap"], cf.mi_gap(full, s))
                assert close(e["floor_sum"], cf.region.floor_sum(floors, s))

    def test_ternary_y_matches_library_unrounded(self, tmp_path, capsys, monkeypatch):
        # floors read the singleton subset tables T({i}) and windows the one-axis walk,
        # the library the full joint: without the printed rounding they agree to 1e-12
        monkeypatch.setattr(cf.region, "fmt12", float)
        one_axis = []
        sum_table = cf.probability._sum_table

        def summing(table, bits, mask):
            dropped = [size for size, bit in zip(table.shape, bits) if not mask & bit]
            if len(dropped) == 1:
                one_axis.append(dropped[0])
            return sum_table(table, bits, mask)

        monkeypatch.setattr(cf.probability, "_sum_table", summing)
        for k, spec in enumerate(mixed_specs()):
            path = tmp_path / f"mixed{k}.json"
            spec.save(path)
            assert main(["floors", "--channel", str(path), "--format", "json"]) == 0
            obj = json.loads(capsys.readouterr().out)
            full = cf.build_joint(spec)
            floors = cf.compression_floor(full)
            assert obj["floors"].keys() == {str(i) for i in floors}
            assert all(abs(obj["floors"][str(i)] - f) <= 1e-12 for i, f in floors.items())
            for e in obj["subsets"]:
                assert abs(e["mi_gap"] - cf.mi_gap(full, e["subset"])) <= 1e-12
        assert 3 in one_axis  # a ternary Y or Yh summed away in one step

    @pytest.mark.parametrize("n", range(1, 7))
    def test_boundary_rhs_is_check_rhs(self, tmp_path, capsys, n):
        # the X1-free joint keeps the relay table `check` reads, and the window walk
        # leaves the caps' memo entries alone: every printed cap is `check`'s
        for seed in (1, 7, 301):
            spec = cf.demo_spec(n, seed)
            path = tmp_path / f"demo{n}_{seed}.json"
            spec.save(path)
            rates = write_rates(tmp_path, {i: 0.0 for i in range(2, n + 2)})
            assert main(["floors", "--channel", str(path), "--format", "json"]) == 0
            floors = json.loads(capsys.readouterr().out)["subsets"]
            assert main(["check", "--channel", str(path), "--rates", rates,
                         "--format", "json"]) == 0
            check = json.loads(capsys.readouterr().out)["subsets"]
            x1_free = cf.probability._build(spec, lambda v: v.label != "X1")
            relay = x1_free.relay_joint()
            assert np.array_equal(relay.table, cf.build_relay_joint(spec).table)
            caps = cf.region.region_caps(relay, None)
            assert [(e["subset"], e["boundary_rhs"]) for e in floors] == [
                (sorted(s), cf.region.fmt12(cap)) for s, cap in caps]
            assert [(f["subset"], f["boundary_rhs"]) for f in floors] == [
                (c["subset"], c["rhs"]) for c in check]

    def test_caps_from_region_caps(self, demo3_file, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("boundary_rhs was called")

        monkeypatch.setattr(cf.region, "boundary_rhs", refuse)
        assert main(["floors", "--channel", demo3_file]) == 0
        assert capsys.readouterr().err == ""

    def test_report_is_the_json_output(self, demo3_file, capsys):
        assert main(["floors", "--channel", demo3_file, "--format", "json"]) == 0
        report = cf.region.floors_report(cf.load_spec(demo3_file))
        assert json.loads(capsys.readouterr().out) == report

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_inconsistent_subset_exits_one(self, demo3_file, capsys, monkeypatch, fmt):
        # one gap moved past the 1e-9 rule: that subset, and only it, is inconsistent
        mi_gap = cf.region._mi_gap

        def moved(joint, s, h):
            return mi_gap(joint, s, h) + (1e-6 if s == {2, 4} else 0.0)

        monkeypatch.setattr(cf.region, "_mi_gap", moved)
        assert main(["floors", "--channel", demo3_file, "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert err == ("internal-consistency failure: window and mutual-information forms "
                       "disagree\n")
        if fmt == "json":
            obj = json.loads(out)
            assert obj["consistent"] is False
            assert [e["subset"] for e in obj["subsets"] if not e["consistent"]] == [[2, 4]]
        else:
            lines = [line for line in out.splitlines() if line.startswith("S=")]
            assert len(lines) == 7
            assert [line for line in lines if line.endswith(" INCONSISTENT")] == [
                line for line in lines if line.startswith("S={2,4} ")]

    def test_constant_compression_floors_zero(self, tmp_path, capsys):
        from test_probability import unit_spec

        path = tmp_path / "const.json"
        unit_spec(p_x1=(0.5, 0.5)).save(path)
        assert main(["floors", "--channel", str(path), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["floors"]["2"] == 0.0

    def test_noisy_channel_window_empty(self, tmp_path, capsys):
        from test_probability import unit_spec

        # identity compression of pure noise: floor 1 bit, boundary cap 0
        path = tmp_path / "noise.json"
        unit_spec(p_x1=(0.5, 0.5), yhat="copy").save(path)
        assert main(["floors", "--channel", str(path), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert all(not e["window_nonempty"] for e in obj["subsets"])


STRUCTURED = [(family, n) for family in SYMMETRIC_FAMILIES for n in range(1, 6)
              if family != "mixed" or n >= 2]


class TestStructuredFloors:
    """`floors` on channels of binary symmetric pieces, some with exact zeros."""

    @pytest.mark.parametrize("family, n", STRUCTURED)
    def test_matches_library_and_factor_oracle(self, tmp_path, capsys, monkeypatch, family, n):
        monkeypatch.setattr(cf.region, "fmt12", float)  # the printed numbers unrounded
        spec = symmetric_family(family, n)
        spec.save(tmp_path / "chan.json")
        assert main(["floors", "--channel", str(tmp_path / "chan.json"), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["consistent"] is True
        full, oracle = cf.build_joint(spec), FactorOracle(spec)
        floors = cf.compression_floor(full)
        assert obj["floors"] == {str(i): pytest.approx(f, abs=1e-12) for i, f in floors.items()}
        assert len(obj["subsets"]) == 2 ** n - 1
        for e in obj["subsets"]:
            assert e["mi_gap"] == pytest.approx(cf.mi_gap(full, e["subset"]), abs=1e-12)
            assert e["boundary_rhs"] == pytest.approx(oracle.outer_cap(e["subset"]), abs=1e-12)

    def test_walk_reads_exact_zeros(self, tmp_path, capsys, monkeypatch):
        # a walked table's entropy drops the cells at or below ZERO_MASS
        asked, zeros = [], []
        sum_table, entropy = cf.probability._sum_table, cf.JointPmf._entropy

        def entropy_of(self, mask, variables=None, at=None):
            asked.append(None if at is None else at[0])
            try:
                return entropy(self, mask, variables, at)
            finally:
                asked.pop()

        def summing(table, bits, mask):
            out = sum_table(table, bits, mask)
            if asked and table is asked[-1] and out.min() <= cf.probability.ZERO_MASS:
                zeros.append(out.size)
            return out

        monkeypatch.setattr(cf.JointPmf, "_entropy", entropy_of)
        monkeypatch.setattr(cf.probability, "_sum_table", summing)
        symmetric_family("noiseless", 3).save(tmp_path / "chan.json")
        assert main(["floors", "--channel", str(tmp_path / "chan.json")]) == 0
        assert "INCONSISTENT" not in capsys.readouterr().out
        assert zeros


class TestStructuredExport:
    """`export` on channels of binary symmetric pieces, whose joints `build_joint`
    multiplies from factors with exact zeros and tied entries."""

    @pytest.mark.parametrize("family, n", [(f, n) for f, n in STRUCTURED if n <= 4])
    def test_export_is_deterministic(self, tmp_path, capsys, family, n):
        symmetric_family(family, n).save(tmp_path / "chan.json")
        for extra in ([], ["--vertices"]) if n <= 3 else ([],):
            texts = []
            for _ in range(2):
                assert main(["export", "--channel", str(tmp_path / "chan.json"), *extra]) == 0
                texts.append(capsys.readouterr().out)
            assert texts[0] == texts[1]


class TestUsage:
    def test_key_error_is_a_bug(self, monkeypatch):
        def broken(relays, seed):
            raise KeyError("x")

        monkeypatch.setattr("cflayers.cli.demo_spec", broken)
        with pytest.raises(KeyError):
            main(["demo", "--relays", "2", "--seed", "7"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv", [["export", "--format", "text"], ["check", "--rates", "r.json", "--out", "x"]]
    )
    def test_flag_of_another_command(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--channel", "unused.json"])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


    def test_back_to_back_calls_print_what_fresh_processes_print(self, demo3_file, tmp_path,
                                                                 capsys):
        # the parser is built once per process: no option of one call reaches the next
        rates = write_rates(tmp_path, TWO_SHIFT_RATES)
        chan = ["--channel", demo3_file, "--rates", rates]
        calls = [["check", *chan, "--layering", "4|3|2", "--format", "json"],
                 ["check", *chan],
                 ["demo", "--relays", "1", "--seed", "3", "--out", str(tmp_path / "d.json")],
                 ["demo", "--relays", "1", "--seed", "3"],
                 ["layerings", "--count", "2", "--format", "json"],
                 ["solve", *chan]]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "cflayers.cli", *argv], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout,
                                                          fresh.stderr)


class TestOutputStep:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["layerings", "--count", "3"], 0),
            (["check", "--rates", "{two_shift}"], 0),
            (["solve", "--rates", "{two_shift}"], 0),
            (["solve", "--rates", "{two_shift}", "--max-iter", "1"], 3),
            (["solve", "--rates", "{outside}"], 1),
            (["floors"], 0),
        ],
        ids=["layerings", "check", "solve", "not_converged", "outside_outer", "floors"],
    )
    def test_json_formats_no_text_line(self, demo3_file, tmp_path, capsys, monkeypatch,
                                       argv, code):
        def refuse(*args):
            raise AssertionError("a text line was formatted")
            yield

        for name in vars(cf.cli):
            if name.startswith("_") and name.endswith("_lines"):
                monkeypatch.setattr(cf.cli, name, refuse)
        rates = {
            "{two_shift}": write_rates(tmp_path, TWO_SHIFT_RATES),
            "{outside}": str(tmp_path / "outside.json"),
        }
        (tmp_path / "outside.json").write_text('{"rates": {"2": 5.0, "3": 5.0, "4": 5.0}}')
        if argv[0] != "layerings":
            argv = argv + ["--channel", demo3_file]
        assert main([rates.get(a, a) for a in argv] + ["--format", "json"]) == code
        assert json.loads(capsys.readouterr().out)
