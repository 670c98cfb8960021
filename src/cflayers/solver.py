"""Find a layering whose region contains a target compression rate vector.

The search starts from the single-layer layering, asks which relay subsets
exceed their staged rate caps, and shifts the union of the violators one
layer deeper, or, when that union satisfies its own cap, the first violator
of largest size (`region.pick_violator`).  That fallback is no numerical
edge: on targets (1 - delta) * v + delta * mean next to each outer vertex v
of `demo_spec(n, s)`, s = 1, 7, 301 and delta = 1e-2, 1e-4, it runs in 22
of 96 solves at 3 relays, 251 of 390 at 4, and 322 of 360 at 5 (60 sampled
vertices per seed).

Each shift certifies a growing core of relays: after shifting U, every
subset of (R \\ U) union the previous core provably satisfies the new
layering's constraints, so the core only grows and the iteration stops
once it is all of R.  For any target strictly inside the outer region the
iteration terminates; outside it the walk stops once it provably never
accepts, and `max_iter` guards the rest.

Each step keeps its `Layering` and its report.  The pick and `verify_core`
read the report's verdicts, so a step builds no `SubsetConstraint` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from .errors import InvalidSubsetError, NotConvergedError
from .layering import Layering, canonicalize, compact, enumerate_layerings, shift
from .probability import JointPmf
from .region import (
    DEFAULT_EPSILON,
    ConstraintReport,
    RateVector,
    _as_epsilon,
    _build_report,
    check_layered,
    fmt12,
    pick_violator,
)


def default_max_iter(n_relays: int) -> int:
    return 16 * (1 << n_relays)


@dataclass(frozen=True)
class SolveStep:
    """One iteration: the layering tried, its report, and the chosen move."""

    index: int
    layering: Layering  # canonical form actually evaluated
    report: ConstraintReport
    chosen: frozenset[int] | None  # subset shifted next; None on the terminal step
    core: frozenset[int]  # relays certified before this step's shift
    # the violator union satisfied its cap, so the fallback pick was shifted: no
    # numerical edge, it ran in 22 of 96 near-vertex solves at 3 relays, 251 of
    # 390 at 4 and 322 of 360 at 5 (module docstring)
    degenerate: bool

    def to_json_obj(self) -> dict:
        return {
            "iteration": self.index,
            "layering": [sorted(layer) for layer in self.layering.layers],
            "violators": [sorted(s) for s in self.report.violators],
            "U": sorted(self.chosen) if self.chosen is not None else None,
            "Z": sorted(self.core),
            "min_slack": fmt12(self.report.min_slack),
        }


@dataclass
class SolveTrace:
    """Every iteration of one solve call plus the terminal status."""

    steps: list[SolveStep]
    status: str  # "achieved" or "not_converged"

    @property
    def shifts(self) -> int:
        # every non-terminal step applied one shift; the terminal step did not
        return len(self.steps) - 1

    @property
    def degenerate(self) -> bool:
        return any(s.degenerate for s in self.steps)

    def to_json_obj(self) -> list:
        records = [s.to_json_obj() for s in self.steps]
        if records:
            records[-1]["status"] = self.status
        return records


def solve(
    joint: JointPmf,
    rates: RateVector,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int | None = None,
) -> tuple[Layering, SolveTrace]:
    """Iterate largest-violator shifts until `rates` fits some layering.

    Returns the accepting layering and the full trace; when the iteration
    lands on a layering with interior empty layers, the returned layering is
    its compaction provided that also accepts (it widens every cap, so it
    does, up to rounding at the epsilon boundary).  Raises NotConvergedError,
    with the trace up to the last layering tried, when the next layering was
    tried before or only widens an interior gap (which keeps every cap), or
    after `max_iter` shifts; for rate vectors outside the outer region that
    is the expected outcome.
    """
    relays = joint.relay_set
    rates.check_for(relays)
    if max_iter is None:
        max_iter = default_max_iter(len(relays))
    if isinstance(max_iter, bool) or not isinstance(max_iter, Integral) or max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    epsilon = _as_epsilon(epsilon)  # checked once: each step's report checks nothing

    current = Layering((relays,))
    seen = {current}
    stop = f"no accepting layering within {max_iter} shifts"
    core: frozenset[int] = frozenset()
    steps: list[SolveStep] = []
    for n in range(max_iter + 1):
        report = _build_report(joint, current, rates, epsilon)
        chosen, degenerate = pick_violator(report)
        steps.append(
            SolveStep(
                index=n,
                layering=current,
                report=report,
                chosen=chosen,
                core=core,
                degenerate=degenerate,
            )
        )
        if chosen is None:
            result = current
            if any(not layer for layer in current.layers):
                # shifts can park the accepted layering on interior empty
                # layers; compaction only widens the caps, so it accepts too
                # (checked anyway) and gives the shorter decode schedule
                packed = compact(current)
                if _build_report(joint, packed, rates, epsilon).is_member:
                    result = packed
            return result, SolveTrace(steps=steps, status="achieved")
        if n == max_iter:
            break
        nxt = canonicalize(shift(current, chosen))
        if nxt in seen or _widens_gap(current, nxt):
            stop = f"the shift walk never accepts: {nxt} has the caps of a layering it tried"
            break
        seen.add(nxt)
        core = (relays - chosen) | core
        current = nxt

    raise NotConvergedError(stop, SolveTrace(steps=steps, status="not_converged"))


def _widens_gap(layering: Layering, nxt: Layering) -> bool:
    """`nxt` is `layering` with one more empty layer next to an empty layer."""
    a, b = layering.layers, nxt.layers
    return any(not b[i] and not b[i + 1] and b[:i] + b[i + 1:] == a for i in range(len(b) - 1))


def brute_force_layering(
    joint: JointPmf,
    rates: RateVector,
    epsilon: float = DEFAULT_EPSILON,
) -> list[Layering]:
    """All canonical layerings whose region contains `rates`, in enumeration
    order.  The rates, the relay count and epsilon are checked once, in that
    order, and each layering's report checks nothing again."""
    relays = joint.relay_set
    rates.check_for(relays)
    layerings = enumerate_layerings(relays)
    epsilon = _as_epsilon(epsilon)
    return [
        layering
        for layering in layerings
        if _build_report(joint, layering, rates, epsilon).is_member
    ]


@dataclass(frozen=True)
class CoreReport:
    """Violating subsets of a claimed core; empty means the core is certified."""

    core: frozenset[int]
    violations: tuple[frozenset[int], ...]

    @property
    def certified(self) -> bool:
        return not self.violations


def verify_core(
    joint: JointPmf,
    layering: Layering,
    core,
    rates: RateVector,
    epsilon: float = DEFAULT_EPSILON,
) -> CoreReport:
    """Check that every nonempty subset of `core` meets the layered constraints."""
    core = frozenset(core)
    foreign = core - joint.relay_set
    if foreign:
        raise InvalidSubsetError(f"core nodes {sorted(foreign)} are not relays")
    report = check_layered(joint, layering, rates, epsilon)
    # relay bitmask order restricted to the core's subsets is the core's own
    violations = tuple(s for s in report.violators if s <= core)
    return CoreReport(core=core, violations=violations)
