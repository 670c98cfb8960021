"""Command-line front end.

Exit codes are a stable contract: 0 for success or membership, 1 for a
non-member rate vector, 2 for input errors, 3 when the shift iteration does
not converge.  Identical inputs produce byte-identical outputs; every number
is printed at 12 significant digits.

Each command returns its exit code, its JSON object and its text lines, the
lines as a generator, so none is formatted for JSON output.  `main` writes
one of the two, once, to `--out` or to stdout.  The object of `export` holds
its layerings as an iterator, so each is computed as it is written, after
every input check.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys

from . import geometry, region, solver
from .demo import demo_spec
from .errors import CFLayersError, NotConvergedError
from .layering import enumerate_layerings, parse_layering
from .probability import build_joint, build_relay_joint, load_spec, validate_spec, write_json
from .region import DEFAULT_EPSILON, load_rates

EXIT_OK = 0
EXIT_NON_MEMBER = 1
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3


def _report_lines(report: region.ConstraintReport):
    for e in report.entries:
        state = "ok" if e.satisfied else "VIOLATED"
        subset = ",".join(str(i) for i in sorted(e.subset))
        yield (
            f"S={{{subset}}} rhs={e.rhs:.12g} "
            f"rate_sum={e.rate_sum:.12g} slack={e.slack:.12g} {state}"
        )
    yield f"member: {'yes' if report.is_member else 'no'}"


def _layering_lines(layerings):
    for lay in layerings:
        yield lay.to_text()
    yield f"total {len(layerings)}"


def _not_converged_lines(trace: solver.SolveTrace):
    yield f"not converged after {trace.shifts} shifts"
    for step in trace.steps:
        yield f"  iter {step.index}: {step.layering.to_text()}"


def _achieved_lines(layering, trace: solver.SolveTrace):
    yield f"achieving layering: {layering.to_text()}"
    for step in trace.steps:
        move = (
            "accept"
            if step.chosen is None
            else "shift {" + ",".join(str(i) for i in sorted(step.chosen)) + "}"
        )
        yield (
            f"  iter {step.index}: {step.layering.to_text()} "
            f"min_slack={step.report.min_slack:.12g} {move}"
        )


def _floor_lines(obj: dict):
    for i, floor in obj["floors"].items():
        yield f"floor({i}) = {floor:.12g}"
    for e in obj["subsets"]:
        subset = ",".join(str(i) for i in e["subset"])
        window = "nonempty" if e["window_nonempty"] else "empty"
        flag = "" if e["consistent"] else " INCONSISTENT"
        yield (
            f"S={{{subset}}} floors={e['floor_sum']:.12g} "
            f"rhs={e['boundary_rhs']:.12g} window={e['window']:.12g} "
            f"({window}){flag}"
        )


def cmd_layerings(args) -> tuple:
    if args.count < 1:
        raise CFLayersError(f"need at least one relay, got --count {args.count}")
    layerings = enumerate_layerings(range(2, 2 + args.count))
    obj = [[sorted(layer) for layer in lay.layers] for lay in layerings]
    return EXIT_OK, obj, _layering_lines(layerings)


def cmd_check(args) -> tuple:
    joint = build_relay_joint(load_spec(args.channel))
    rates = load_rates(args.rates)
    if args.layering is not None:
        layering = parse_layering(args.layering)
        report = region.check_layered(joint, layering, rates, args.epsilon)
    else:
        report = region.check_outer(joint, rates, args.epsilon)
    code = EXIT_OK if report.is_member else EXIT_NON_MEMBER
    return code, report.to_json_obj(), _report_lines(report)


def cmd_solve(args) -> tuple:
    joint = build_relay_joint(load_spec(args.channel))
    rates = load_rates(args.rates)
    outer = region.check_outer(joint, rates, args.epsilon)
    if not outer.is_member:
        obj = {"status": "outside_outer", "outer": outer.to_json_obj()}
        lines = itertools.chain(["rate vector is outside the outer region:"], _report_lines(outer))
        return EXIT_NON_MEMBER, obj, lines

    try:
        layering, trace = solver.solve(
            joint, rates, epsilon=args.epsilon, max_iter=args.max_iter
        )
    except NotConvergedError as exc:
        obj = {"status": "not_converged", "trace": exc.trace.to_json_obj()}
        return EXIT_NOT_CONVERGED, obj, _not_converged_lines(exc.trace)

    obj = {
        "status": "achieved",
        "layering": [sorted(layer) for layer in layering.layers],
        "trace": trace.to_json_obj(),
    }
    return EXIT_OK, obj, _achieved_lines(layering, trace)


def cmd_export(args) -> tuple:
    spec = load_spec(args.channel)
    geometry.check_atlas_limits(spec.relays, args.vertices)  # before any table is built
    joint = build_joint(spec)
    return EXIT_OK, geometry.export_atlas_json(joint, with_vertices=args.vertices), None


def cmd_demo(args) -> tuple:
    spec = demo_spec(args.relays, args.seed)
    issues = validate_spec(spec)
    if issues:  # generator bug; never expected
        raise CFLayersError("generated spec failed validation: " + str(issues[0]))
    return EXIT_OK, spec._document(), None  # its arrays, whose lists `write_json` never builds


def cmd_floors(args) -> tuple:
    obj = region.floors_report(load_spec(args.channel))
    if not obj["consistent"]:
        print("internal-consistency failure: window and mutual-information forms disagree",
              file=sys.stderr)
    return (EXIT_OK if obj["consistent"] else EXIT_NON_MEMBER), obj, _floor_lines(obj)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cflayers",
        description="Compression-rate regions for compress-forward relay networks.",
    )
    # commands without --format write JSON, commands without --out write to stdout
    parser.set_defaults(format="json", out=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("layerings", help="enumerate all layerings of a relay set")
    p.add_argument("--count", type=int, required=True, help="number of relays")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_layerings)

    p = sub.add_parser("check", help="membership report for a rate vector")
    p.add_argument("--channel", required=True)
    p.add_argument("--rates", required=True)
    p.add_argument("--layering", help='layering text such as "2,4|3"; outer region if omitted')
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="find a layering that accepts a rate vector")
    p.add_argument("--channel", required=True)
    p.add_argument("--rates", required=True)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("export", help="emit the region atlas as JSON")
    p.add_argument("--channel", required=True)
    p.add_argument("--vertices", action="store_true", help="include vertex lists (up to 3 relays)")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("demo", help="generate a seeded binary demo channel")
    p.add_argument("--relays", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("floors", help="compression floors and per-subset windows")
    p.add_argument("--channel", required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_floors)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `build_parser`, built once per process and read by every
    `main` call: parsing leaves a parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, obj, lines = args.func(args)
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            if args.format == "json":
                write_json(obj, fh)
            else:
                for line in lines:
                    print(line, file=fh)
        return code
    except NotConvergedError:
        raise  # handled per command; reaching here is a bug
    except json.JSONDecodeError as exc:
        print(f"error: parse failure at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_INPUT
    except (CFLayersError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
