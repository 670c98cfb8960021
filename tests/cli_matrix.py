"""Run `cflayers` commands in-process on a fixed matrix of seeded inputs.

    python tests/cli_matrix.py                # one line per output
    python tests/cli_matrix.py --against REV  # the outputs that differ from REV's

Channels are `demo_spec(n, s)` for s in 1, 7 and 301: `floors`, `check`,
`check --layering` (one relay per layer, highest first) and `solve`, each in
JSON and text, and `demo`, for n = 1..7; `export` for n <= 5 and
`export --vertices` for n <= 3.  The same `floors`, `check`, `check
--layering` and `solve` run on seeded mixed-alphabet `random_spec` channels
with 1..4 relays, whose relay tables may be contracted in another order than
einsum's greedy search would pick.  `layerings --count` runs for 1..6 relays
in JSON and text.  The rates put every relay but the lowest at 1e-5, and the
lowest at 0.99 of the largest rate its outer caps then allow, so `solve`
shifts on most channels.  On `demo_spec(n, s)` for n = 2..5, `solve` also
runs, in JSON and text, on two near-vertex targets (1 - delta) * v + delta *
(mean of the vertices), delta = 1e-2, for the last two outer vertices v that
`conftest.greedy_vertices` lists: traces of 1 to 7 shifts, with fallback
picks in 11 of the 24.  On `demo_spec(n, s)` for n = 6, 7, `check` and
`solve` also run, in JSON and text, on one target of distinct rates: 0.97 of
the outer boundary along a seeded Dirichlet direction, so that the order in
which rates are added can show.  That is 393 outputs in all.

Each output is one `cli.main` call; a line gives its name, exit code, the
sha256 of its stdout and its stderr.  With `--against`, the same calls run
in a child process on the package of REV, checked out in a temporary `git
worktree`, on the same input files; each output that differs is listed with
its count of differing numbers and the largest difference, and the exit
code is 1 if any differs.  The bits depend on the numpy build, so compare
two revisions on one machine rather than against a stored digest.  Not a
test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 7, 301)
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN")


def make_cases(inputs: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every call, after writing its channel and rate files to `inputs`."""
    import numpy as np

    import cflayers as cf
    from conftest import random_spec

    cases = []
    for n in range(1, 7):
        cases += [(f"layerings n{n} {fmt}", ["layerings", "--count", str(n), "--format", fmt])
                  for fmt in ("json", "text")]
    for n in range(1, 8):
        for s in SEEDS:
            spec, tag = cf.demo_spec(n, s), f"n{n}s{s}"
            cases += _channel_cases(cf, spec, tag, inputs)
            if 2 <= n <= 5:
                cases += _vertex_cases(cf, spec, tag, inputs)
            if n >= 6:
                cases += _dirichlet_cases(cf, spec, tag, inputs, np.random.default_rng([n, s]))
            cases.append((f"demo {tag}", ["demo", "--relays", str(n), "--seed", str(s)]))
            channel = ["--channel", str(inputs / f"{tag}.json")]
            if n <= 5:
                cases.append((f"export {tag}", ["export", *channel]))
            if n <= 3:
                cases.append((f"export-vertices {tag}", ["export", *channel, "--vertices"]))
    for n in range(1, 5):
        for s in SEEDS:
            spec = random_spec(np.random.default_rng(s), n)
            cases += _channel_cases(cf, spec, f"random-n{n}s{s}", inputs)
    return cases


def _channel_cases(cf, spec, tag: str, inputs: Path) -> list[tuple[str, list[str]]]:
    """`floors`, `check`, `check --layering` and `solve` on `spec`, each in JSON
    and text, after writing its channel and rate files to `inputs`."""
    spec.save(inputs / f"{tag}.json")
    (inputs / f"{tag}_rates.json").write_text(json.dumps(_rates(cf, spec)))
    channel = ["--channel", str(inputs / f"{tag}.json")]
    rates = ["--rates", str(inputs / f"{tag}_rates.json")]
    layering = "|".join(str(i) for i in reversed(spec.relay_nodes))
    cases = []
    for fmt in ("json", "text"):
        tail = [*channel, *rates, "--format", fmt]
        cases += [(f"floors {tag} {fmt}", ["floors", *channel, "--format", fmt]),
                  (f"check {tag} {fmt}", ["check", *tail]),
                  (f"check-layering {tag} {fmt}", ["check", *tail, "--layering", layering]),
                  (f"solve {tag} {fmt}", ["solve", *tail])]
    return cases


def _vertex_cases(cf, spec, tag: str, inputs: Path) -> list[tuple[str, list[str]]]:
    """`solve` in JSON and text on the near-vertex targets of the last two outer
    vertices of `spec`, after writing their rate files to `inputs`."""
    import numpy as np

    from conftest import greedy_vertices

    nodes = spec.relay_nodes
    vertices = np.array(greedy_vertices(cf.outer_h_rep(cf.build_relay_joint(spec)), nodes))
    center = vertices.mean(axis=0)
    cases = []
    for k, vertex in enumerate(vertices[-2:]):
        rates = inputs / f"{tag}_vertex{k}_rates.json"
        target = 0.99 * vertex + 0.01 * center
        rates.write_text(json.dumps({"rates": {str(i): float(r) for i, r in zip(nodes, target)}}))
        cases += [(f"solve-vertex{k} {tag} {fmt}",
                   ["solve", "--channel", str(inputs / f"{tag}.json"), "--rates", str(rates),
                    "--format", fmt])
                  for fmt in ("json", "text")]
    return cases


def _dirichlet_cases(cf, spec, tag: str, inputs: Path, rng) -> list[tuple[str, list[str]]]:
    """`check` and `solve` in JSON and text on one target of distinct rates:
    0.97 of the outer boundary along a Dirichlet direction drawn from `rng`,
    after writing its rate file to `inputs`."""
    nodes = spec.relay_nodes
    direction = dict(zip(nodes, rng.dirichlet([1.0] * len(nodes))))
    caps = cf.region.region_caps(cf.build_relay_joint(spec), None)
    reach = min(cap / sum(direction[i] for i in sorted(s)) for s, cap in caps)
    rates = inputs / f"{tag}_dirichlet_rates.json"
    rates.write_text(json.dumps({"rates": {str(i): 0.97 * reach * float(direction[i])
                                           for i in nodes}}))
    tail = ["--channel", str(inputs / f"{tag}.json"), "--rates", str(rates)]
    return [(f"{command}-dirichlet {tag} {fmt}", [command, *tail, "--format", fmt])
            for command in ("check", "solve") for fmt in ("json", "text")]


def _rates(cf, spec) -> dict:
    caps = cf.region.region_caps(cf.build_relay_joint(spec), None)
    low = min(spec.relay_nodes)
    top = 0.99 * min(cap - 1e-5 * (len(s) - 1) for s, cap in caps if low in s)
    return {"rates": {str(i): top if i == low else 1e-5 for i in spec.relay_nodes}}


def run_cases(cases) -> dict[str, tuple[int, str, str]]:
    """name -> (exit code, stderr, stdout) of each call, in-process."""
    from cflayers.cli import main

    results = {}
    for name, argv in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results[name] = (code, err.getvalue(), out.getvalue())
    return results


def _difference(mine: str, theirs: str) -> str:
    a, b = NUMBER.findall(mine), NUMBER.findall(theirs)
    if len(a) != len(b) or NUMBER.sub("#", mine) != NUMBER.sub("#", theirs):
        return "text differs apart from its numbers"
    pairs = [(float(x), float(y)) for x, y in zip(a, b) if x != y]
    if not pairs:
        return "0 numbers differ"
    return f"{len(pairs)} numbers differ, by at most {max(abs(x - y) for x, y in pairs):.3g}"


def against(rev: str, cases, mine) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree, case_file = Path(tmp) / "tree", Path(tmp) / "cases.json"
        case_file.write_text(json.dumps(cases))
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), rev], check=True)
        try:
            child = subprocess.run(
                [sys.executable, __file__, "--src", str(tree / "src"), "--cases", str(case_file)],
                check=True, capture_output=True, text=True)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
    theirs = json.loads(child.stdout)
    differ = 0
    for name, _ in cases:
        (code, err, out), (their_code, their_err, their_out) = mine[name], theirs[name]
        notes = [f"exit {their_code} -> {code}"] * (code != their_code)
        notes += ["stderr differs"] * (err != their_err)
        if out != their_out:
            notes.append(_difference(out, their_out))
        if notes:
            differ += 1
            print(f"{name}: " + "; ".join(notes))
    print(f"{len(cases)} outputs, {differ} differ from {rev}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="compare with the package at REV")
    parser.add_argument("--src", default=str(ROOT / "src"), help=argparse.SUPPRESS)
    parser.add_argument("--cases", help=argparse.SUPPRESS)  # a child's calls, as JSON
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import cflayers

    if not Path(cflayers.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"cflayers was imported from {cflayers.__file__}, not from {args.src}")
    if args.cases is not None:
        results = run_cases(json.loads(Path(args.cases).read_text()))
        json.dump(results, sys.stdout)
        return 0
    with tempfile.TemporaryDirectory() as inputs:
        cases = make_cases(Path(inputs))
        mine = run_cases(cases)
        if args.against is not None:
            return against(args.against, cases, mine)
    for name, _ in cases:
        code, err, out = mine[name]
        print(f"{name}: exit {code} sha256 {hashlib.sha256(out.encode()).hexdigest()} "
              f"stderr {json.dumps(err)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
