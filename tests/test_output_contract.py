"""Golden output of the command-line front end on small demo channels.

`tests/data/output_contract.json` holds, for 96 command lines, the exit code,
stderr and stdout (split at newlines).  Exit code and stderr must match exactly; stdout must match
exactly once every number is masked.  Integers must then match exactly, and a
float may differ from its golden value by at most max(1e-12, 1e-11 |x|), so a
numpy with another summation order still passes.

The channels are `demo_spec(n, s)` for n = 1..3 and s = 1, 7.  The "inside"
rates lie at 0.97 of the outer boundary along a seeded Dirichlet direction;
the "outside" rates are 5.0 per relay.  The rate vectors are stored in the
fixture, so every run reads the same files.

Regenerate the fixture with `PYTHONPATH=src python tests/test_output_contract.py`,
and only for an intended change of the output.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import cflayers as cf
from cflayers.cli import main

FIXTURE = Path(__file__).parent / "data" / "output_contract.json"
RELAYS = (1, 2, 3)
SEEDS = (1, 7)

# a number is a maximal run that is not part of a word, e.g. "p_x1" or a hex digest
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")
DIGEST = re.compile(r'"channel_digest": "([0-9a-f]{64})"')


def _name(n, s):
    return f"{n}_{s}"


def _inside_rates(n, s) -> dict:
    joint = cf.build_joint(cf.demo_spec(n, s))
    nodes = sorted(joint.relays)
    direction = dict(zip(nodes, np.random.default_rng(1000 * n + s).dirichlet(np.ones(n))))
    caps = cf.region.region_caps(joint, None)
    scale = min(cap / sum(direction[i] for i in sub) for sub, cap in caps)
    return {str(i): 0.97 * scale * float(direction[i]) for i in nodes}


def _command_lines(n, s) -> list:
    chan = ["--channel", f"{{dir}}/demo{_name(n, s)}.json"]
    inside = ["--rates", f"{{dir}}/inside{_name(n, s)}.json"]
    outside = ["--rates", f"{{dir}}/outside{_name(n, s)}.json"]
    one_per_layer = "|".join(str(i) for i in range(2, n + 2))
    lines = []
    for fmt in ("text", "json"):
        tail = ["--format", fmt]
        lines += [
            ["check", *chan, *inside, *tail],
            ["check", *chan, *inside, "--layering", one_per_layer, *tail],
            ["solve", *chan, *inside, *tail],
            ["solve", *chan, *outside, *tail],
            ["solve", *chan, *inside, "--max-iter", "1", *tail],
            ["floors", *chan, *tail],
        ]
    lines += [
        ["export", *chan],
        ["export", *chan, "--vertices"],
        ["demo", "--relays", str(n), "--seed", str(s)],
    ]
    return lines


def _write_inputs(directory: Path, rates: dict) -> None:
    for n in RELAYS:
        for s in SEEDS:
            cf.demo_spec(n, s).save(directory / f"demo{_name(n, s)}.json")
    for name, vec in rates.items():
        (directory / f"{name}.json").write_text(json.dumps({"rates": vec}))


def _run(argv: list, directory: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{dir}", str(directory)) for a in argv])
    return {"exit": code, "stderr": err.getvalue(), "stdout": out.getvalue().split("\n")}


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {"rates": {}, "cases": []}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("contract")
    _write_inputs(directory, GOLDEN["rates"])
    return directory


def _masked(text: str) -> tuple[str, list[str]]:
    """The text with every number as "#" and the digest as "<digest>", and the numbers."""
    text = DIGEST.sub('"channel_digest": "<digest>"', text)
    return NUMBER.sub("#", text), NUMBER.findall(text)


def _same_number(got: str, want: str) -> bool:
    if re.fullmatch(r"-?\d+", want):
        return got == want
    x, y = float(got), float(want)
    return math.isclose(x, y, rel_tol=0.0, abs_tol=max(1e-12, 1e-11 * abs(y)))


def test_fixture_size():
    assert len(GOLDEN["cases"]) == 96
    numbers = sum(len(_masked("\n".join(c["stdout"]))[1]) for c in GOLDEN["cases"])
    assert numbers > 4000


@pytest.mark.parametrize(
    "case",
    GOLDEN["cases"],
    ids=[" ".join(c["argv"]).replace("{dir}/", "") for c in GOLDEN["cases"]],
)
def test_output_matches_golden(case, inputs):
    got = _run(case["argv"], inputs)
    assert got["exit"] == case["exit"]
    assert got["stderr"] == case["stderr"]
    got_text, got_numbers = _masked("\n".join(got["stdout"]))
    want_text, want_numbers = _masked("\n".join(case["stdout"]))
    assert got_text == want_text
    bad = [(g, w) for g, w in zip(got_numbers, want_numbers) if not _same_number(g, w)]
    assert not bad, f"{len(bad)} numbers differ, first {bad[:3]}"
    for digest in DIGEST.findall("\n".join(got["stdout"])):
        channel = case["argv"][case["argv"].index("--channel") + 1]
        joint = cf.build_joint(cf.load_spec(channel.replace("{dir}", str(inputs))))
        assert digest == cf.geometry.channel_digest(joint)


def _generate() -> dict:
    rates = {}
    for n in RELAYS:
        for s in SEEDS:
            rates[f"inside{_name(n, s)}"] = _inside_rates(n, s)
            rates[f"outside{_name(n, s)}"] = {str(i): 5.0 for i in range(2, n + 2)}
    argvs = [
        ["layerings", "--count", str(n), "--format", fmt] for n in RELAYS for fmt in ("text", "json")
    ]
    argvs += [argv for n in RELAYS for s in SEEDS for argv in _command_lines(n, s)]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_inputs(directory, rates)
        cases = [{"argv": argv, **_run(argv, directory)} for argv in argvs]
    return {"rates": rates, "cases": cases}


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_generate(), indent=1, sort_keys=True) + "\n")
