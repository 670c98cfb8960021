"""Command-line front end.

Exit codes are a stable contract: 0 for success or membership, 1 for a
non-member rate vector, 2 for input errors, 3 when the shift iteration does
not converge.  Identical inputs produce byte-identical outputs; every number
is printed at 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import geometry, region, solver
from .demo import demo_spec
from .errors import CFLayersError, NotConvergedError
from .layering import enumerate_layerings, parse_layering
from .probability import _build, build_joint, build_relay_joint, load_spec, validate_spec
from .region import DEFAULT_EPSILON, fmt12, load_rates

EXIT_OK = 0
EXIT_NON_MEMBER = 1
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3


def _emit(write, out_path: str | None) -> None:
    """Call `write(fh)` on the output file, or on stdout when no path is given."""
    if out_path:
        with open(out_path, "w") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _report_lines(report: region.ConstraintReport) -> list[str]:
    lines = []
    for e in report.entries:
        state = "ok" if e.satisfied else "VIOLATED"
        subset = ",".join(str(i) for i in sorted(e.subset))
        lines.append(
            f"S={{{subset}}} rhs={fmt12(e.rhs):.12g} "
            f"rate_sum={fmt12(e.rate_sum):.12g} slack={fmt12(e.slack):.12g} {state}"
        )
    lines.append(f"member: {'yes' if report.is_member else 'no'}")
    return lines


def _show_report(report: region.ConstraintReport, fmt: str) -> None:
    if fmt == "json":
        _print_json(report.to_json_obj())
    else:
        print("\n".join(_report_lines(report)))


def cmd_layerings(args) -> int:
    if args.count < 1:
        raise CFLayersError(f"need at least one relay, got --count {args.count}")
    layerings = enumerate_layerings(range(2, 2 + args.count))
    if args.format == "json":
        _print_json([[sorted(layer) for layer in lay.layers] for lay in layerings])
    else:
        for lay in layerings:
            print(lay.to_text())
        print(f"total {len(layerings)}")
    return EXIT_OK


def cmd_check(args) -> int:
    joint = build_relay_joint(load_spec(args.channel))
    rates = load_rates(args.rates)
    if args.layering is not None:
        layering = parse_layering(args.layering)
        report = region.check_layered(joint, layering, rates, args.epsilon)
    else:
        report = region.check_outer(joint, rates, args.epsilon)
    _show_report(report, args.format)
    return EXIT_OK if report.is_member else EXIT_NON_MEMBER


def cmd_solve(args) -> int:
    joint = build_relay_joint(load_spec(args.channel))
    rates = load_rates(args.rates)
    outer = region.check_outer(joint, rates, args.epsilon)
    if not outer.is_member:
        if args.format == "json":
            _print_json({"status": "outside_outer", "outer": outer.to_json_obj()})
        else:
            print("rate vector is outside the outer region:")
            print("\n".join(_report_lines(outer)))
        return EXIT_NON_MEMBER

    try:
        layering, trace = solver.solve(
            joint, rates, epsilon=args.epsilon, max_iter=args.max_iter
        )
    except NotConvergedError as exc:
        if args.format == "json":
            _print_json({"status": "not_converged", "trace": exc.trace.to_json_obj()})
        else:
            print(f"not converged after {exc.trace.shifts} shifts")
            for step in exc.trace.steps:
                print(f"  iter {step.index}: {step.layering.to_text()}")
        return EXIT_NOT_CONVERGED

    if args.format == "json":
        _print_json(
            {
                "status": "achieved",
                "layering": [sorted(layer) for layer in layering.layers],
                "trace": trace.to_json_obj(),
            }
        )
    else:
        print(f"achieving layering: {layering.to_text()}")
        for step in trace.steps:
            move = (
                "accept"
                if step.chosen is None
                else "shift {" + ",".join(str(i) for i in sorted(step.chosen)) + "}"
            )
            print(
                f"  iter {step.index}: {step.layering.to_text()} "
                f"min_slack={fmt12(step.report.min_slack):.12g} {move}"
            )
    return EXIT_OK


def cmd_export(args) -> int:
    joint = build_joint(load_spec(args.channel))
    atlas = geometry.export_atlas(joint, with_vertices=args.vertices)
    _emit(atlas.dump, args.out)
    return EXIT_OK


def cmd_demo(args) -> int:
    spec = demo_spec(args.relays, args.seed)
    issues = validate_spec(spec)
    if issues:  # generator bug; never expected
        raise CFLayersError("generated spec failed validation: " + str(issues[0]))
    _emit(lambda fh: fh.write(spec.dumps()), args.out)
    return EXIT_OK


def _subset_joints(joint, s: frozenset, below: float = float("inf")):
    """Yield (S, joint of (X_R, Yh_R, Y_S, Yd)) for S = `s` and for every
    nonempty S got by dropping from `s` nodes below `below`, depth first.

    `joint` is the joint for `s`.  Each child is restricted from its parent
    after the parent was yielded, so it sums the parent's table, one Y axis
    larger; all of them share one memo, so no entropy is summed twice.  Nodes
    are dropped in decreasing order, so each S is reached once and at most one
    table per depth is alive.
    """
    yield s, joint
    if len(s) > 1:
        for i in sorted((i for i in s if i < below), reverse=True):
            child = joint.restrict(v for v in joint.variables if v != joint.y(i))
            yield from _subset_joints(child, s - {i}, i)


def cmd_floors(args) -> int:
    # no floor, cap or window term reads X1: the full joint is never built
    joint = _build(load_spec(args.channel), lambda v: v.label != "X1")
    relays = joint.relay_set
    relay = joint.restrict(joint.xs(relays) | joint.yhats(relays) | {joint.yd})
    # caps first: the floors and the subset walk find their terms in the shared memo
    caps = region.region_caps(relay, None)
    floors = region.compression_floor(joint)
    gaps = {s: region.mi_gap(sub, s) for s, sub in _subset_joints(joint, relays)}
    entries = []
    consistent = True
    for s, cap in caps:
        floor_sum = region.floor_sum(floors, s)
        window = cap - floor_sum
        ok = abs(window - gaps[s]) <= 1e-9
        consistent &= ok
        entries.append(
            {
                "subset": sorted(s),
                "floor_sum": fmt12(floor_sum),
                "boundary_rhs": fmt12(cap),
                "window": fmt12(window),
                "window_nonempty": window > 0.0,
                "mi_gap": fmt12(gaps[s]),
                "consistent": ok,
            }
        )
    obj = {
        "floors": {str(i): fmt12(floors[i]) for i in sorted(floors)},
        "subsets": entries,
        "consistent": consistent,
    }
    if args.format == "json":
        _print_json(obj)
    else:
        for i in sorted(floors):
            print(f"floor({i}) = {fmt12(floors[i]):.12g}")
        for e in entries:
            subset = ",".join(str(i) for i in e["subset"])
            window = "nonempty" if e["window_nonempty"] else "empty"
            flag = "" if e["consistent"] else " INCONSISTENT"
            print(
                f"S={{{subset}}} floors={e['floor_sum']:.12g} "
                f"rhs={e['boundary_rhs']:.12g} window={e['window']:.12g} "
                f"({window}){flag}"
            )
    if not consistent:
        print("internal-consistency failure: window and mutual-information forms disagree",
              file=sys.stderr)
        return EXIT_NON_MEMBER
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cflayers",
        description="Compression-rate regions for compress-forward relay networks.",
    )
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
