"""Exit codes, output formats, and determinism of the command-line front end."""

import json

import pytest

import cflayers as cf
from cflayers.cli import main

from conftest import thin_spec
from test_layering import BAD_LAYERING_TOKENS
from test_probability import NON_NUMBER_SPEC_EDITS, mixed_specs, nudged_spec_obj
from test_region import MISTYPED_RATE_FILES
from test_solver import TWO_SHIFT_RATES


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
    """check and solve read the relay joint; floors and export need the full one."""

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

    @pytest.mark.parametrize("command", [["floors"], ["export"], ["export", "--vertices"]])
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

    def test_out_file(self, demo2_file, tmp_path, capsys):
        out = tmp_path / "atlas.json"
        assert main(["export", "--channel", demo2_file, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["dimension"] == 2
        assert main(["export", "--channel", demo2_file]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_vertices_beyond_three_relays(self, tmp_path, capsys):
        path = tmp_path / "demo4.json"
        cf.demo_spec(4, 0).save(path)
        code = main(["export", "--channel", str(path), "--vertices"])
        assert code == 2
        capsys.readouterr()

    def test_seven_relays_exit_two_before_any_entropy(self, tmp_path, capsys, no_entropy):
        path = tmp_path / "seven.json"
        thin_spec(7).save(path)
        assert main(["export", "--channel", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "7 relays exceeds the enumeration cap of 6" in captured.err


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

    @pytest.mark.parametrize("relays, cells", [(8, "2^26"), (10**12, "2^3000000000002")])
    def test_over_cell_cap_exits_two_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                    relays, cells):
        def refuse(*args):
            raise AssertionError("a table was drawn")

        monkeypatch.setattr(cf.demo, "_dithered_row", refuse)
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
    def test_full_table_summed_once(self, demo3_file, capsys, summed_sizes, fmt):
        # once down to the X1-free joint; every later query sums a smaller table
        full_size = cf.build_joint(cf.demo_spec(3, 3)).table.size
        assert main(["floors", "--channel", demo3_file, "--format", fmt]) == 0
        assert summed_sizes.count(full_size) == 1
        assert capsys.readouterr().err == ""

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

    def test_caps_from_region_caps(self, demo3_file, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("boundary_rhs was called")

        monkeypatch.setattr(cf.region, "boundary_rhs", refuse)
        assert main(["floors", "--channel", demo3_file]) == 0
        assert capsys.readouterr().err == ""

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


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
