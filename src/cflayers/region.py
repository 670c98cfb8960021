"""Compression-rate regions: staged constraints, the outer region, and floors.

For a relay subset S the outer region requires

    R_S < sum_{i in S} H(Xi, Yhi) - H(X_S Yh_S | X_G Yh_G Yd),   G = R \\ S,

while a fixed layering imposes the staged form obtained from its sequence of
typicality checks: stage l pairs the inputs active in layer l with the
compressions active in layer l-1, conditioned on everything decoded earlier.
Both right-hand sides are in bits and all inequalities are strict, so a
subset "satisfies" its constraint when slack = rhs - R_S exceeds the working
epsilon and "violates" it otherwise; the two outcomes partition all cases.

The per-relay compression floor I(Yhi; Yi | Xi) is the rate below which
relay i cannot find a jointly typical compression codeword, so the usable
window for subset S is [sum of floors, boundary rhs).
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import EmptySubsetError, InvalidRatesError, InvalidSubsetError
from .layering import Layering, active, prefix_union, validate_layering
from .probability import JointPmf

DEFAULT_EPSILON = 1e-9


def fmt12(x: float) -> float:
    """Round to 12 significant digits for stable text/JSON output."""
    return float(f"{x:.12g}")


# -- rate vectors -------------------------------------------------------------


def _as_rate(value) -> float:
    """A JSON number as a float; true, false and strings are no numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _as_node(key) -> int:
    """A rate key as a relay node: an int, or a string that spells one as str() does."""
    node = int(key)
    if str(node) != str(key):  # int() reads "02", " +2 ", True and 2.5 as nodes too
        raise ValueError(f"{key!r} is not a relay node")
    return node


def _distinct(pairs) -> dict:
    """The pairs as a dict; a key given twice raises instead of keeping the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise InvalidRatesError("rates give one relay node or key twice")
    return obj


class RateVector:
    """Per-relay compression rates in bits, finite and nonnegative."""

    def __init__(self, rates):
        if not isinstance(rates, Mapping):  # a list of pairs could repeat a node
            raise InvalidRatesError(
                f"rates must map relay nodes to numbers, got {type(rates).__name__}"
            )
        try:
            pairs = [(_as_node(k), _as_rate(v)) for k, v in rates.items()]
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidRatesError(f"rates must map relay nodes to numbers: {exc}") from exc
        self._rates = _distinct(pairs)

    @property
    def nodes(self) -> frozenset[int]:
        return frozenset(self._rates)

    def of(self, node: int) -> float:
        return self._rates[node]

    def subset_sum(self, nodes) -> float:
        return sum(self._rates[i] for i in nodes)

    def check_for(self, relays) -> None:
        relays = frozenset(relays)
        if self.nodes != relays:
            raise InvalidRatesError(
                f"rates cover nodes {sorted(self.nodes)} but the relays are {sorted(relays)}"
            )
        bad = [i for i, r in self._rates.items() if not 0.0 <= r < math.inf]
        if bad:
            raise InvalidRatesError(f"negative or non-finite rates for nodes {sorted(bad)}")
        if self.subset_sum(relays) == math.inf:  # then no subset sum overflows either
            raise InvalidRatesError("rates add up to inf; their total must be finite")

    def to_json_obj(self) -> dict:
        return {"rates": {str(i): self._rates[i] for i in sorted(self._rates)}}

    def __repr__(self):
        inner = ", ".join(f"{i}: {self._rates[i]:.6g}" for i in sorted(self._rates))
        return f"RateVector({{{inner}}})"


def load_rates(path) -> RateVector:
    with open(path) as fh:
        try:
            obj = json.load(fh, object_pairs_hook=_distinct)
        except RecursionError:
            raise InvalidRatesError("rate file is nested too deeply") from None
    if not isinstance(obj, dict) or "rates" not in obj:
        raise InvalidRatesError('a rate file is a JSON object with a "rates" field')
    return RateVector(obj["rates"])


# -- subset bookkeeping --------------------------------------------------------


def subsets_by_mask(relays):
    """All nonempty relay subsets, ordered by bitmask (bit j = j-th smallest relay)."""
    nodes = sorted(relays)
    for mask in range(1, 1 << len(nodes)):
        yield frozenset(nodes[j] for j in range(len(nodes)) if (mask >> j) & 1)


# -- right-hand sides -----------------------------------------------------------


def block_cond_entropy(joint: JointPmf, s, given) -> float:
    """H(X_s Yh_s | X_given Yh_given Yd)."""
    given = frozenset(given)
    both = given | frozenset(s)
    return joint.relay_entropy(both, both) - joint.relay_entropy(given, given)


def _stage(joint: JointPmf, upto_now, upto_before, now, before) -> float:
    """H(X_now Yh_before | X_{upto_now - now} Yh_{upto_before - before} Yd)."""
    return joint.relay_entropy(upto_now, upto_before) - joint.relay_entropy(
        upto_now - now, upto_before - before
    )


def require_valid_layering(joint: JointPmf, layering: Layering) -> None:
    problems = validate_layering(layering, joint.relay_set)
    if problems:
        raise InvalidSubsetError(
            "layering does not partition this joint's relays: " + "; ".join(problems)
        )


def h_term(joint: JointPmf, layering: Layering, s, l: int) -> float:
    """Stage-l conditional entropy of layering `layering` for subset `s`.

    Pairs the subset's inputs active in layer l with its compressions active
    in layer l-1, conditioned on all other decoded inputs/compressions and Yd.
    Valid for l in 0..depth (the stage past the last layer conditions on every
    relay input).  The pair and its condition together are exactly the
    prefixes up to layers l and l-1.
    """
    require_valid_layering(joint, layering)
    now, before = active(layering, s, l), active(layering, s, l - 1)
    return _stage(joint, prefix_union(layering, l), prefix_union(layering, l - 1), now, before)


def _cap(joint: JointPmf, layering: Layering | None, s: frozenset[int]) -> float:
    """Outer cap of `s` when `layering` is None, else its staged cap: the pair sum
    minus the stage of each layer l = 0..depth, in one walk down the layers."""
    total = joint.pair_entropy_sum(s)
    if layering is None:
        return total - block_cond_entropy(joint, s, joint.relay_set - s)
    upto = before = frozenset()
    for layer in layering.layers + (frozenset(),):
        upto_now, now = upto | layer, s & layer
        total -= _stage(joint, upto_now, upto, now, before)
        upto, before = upto_now, now
    return total


def layered_rhs(joint: JointPmf, layering: Layering, s) -> float:
    """Rate cap for subset `s` under the staged decode of `layering`: the pair
    sum minus h_term(l) for l = 0..depth, in that order."""
    require_valid_layering(joint, layering)
    s = frozenset(s)
    if not s:
        raise EmptySubsetError("layered rate cap is defined for nonempty subsets")
    active(layering, s, -1)  # rejects nodes outside the layering
    return _cap(joint, layering, s)


def boundary_rhs(joint: JointPmf, s) -> float:
    """Rate cap for subset `s` in the layering-free outer region."""
    s = frozenset(s)
    if not s:
        raise EmptySubsetError("outer rate cap is defined for nonempty subsets")
    return _cap(joint, None, s)


def region_caps(joint: JointPmf, layering: Layering | None):
    """(subset, cap) for every nonempty relay subset, in bitmask order: the outer
    region's caps when `layering` is None, else the staged caps of `layering`.

    The layering is checked at once; each cap is computed only as the result
    is iterated, so a caller can check the rest of its input first.
    """
    if layering is not None:
        require_valid_layering(joint, layering)
    return ((s, _cap(joint, layering, s)) for s in subsets_by_mask(joint.relay_set))


# -- membership reports ----------------------------------------------------------


@dataclass(frozen=True)
class SubsetConstraint:
    subset: frozenset[int]
    rhs: float
    rate_sum: float
    satisfied: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.rate_sum

    def to_json_obj(self) -> dict:
        return {
            "subset": sorted(self.subset),
            "rhs": fmt12(self.rhs),
            "rate_sum": fmt12(self.rate_sum),
            "slack": fmt12(self.slack),
            "satisfied": self.satisfied,
        }


@dataclass(frozen=True)
class ConstraintReport:
    """One entry per nonempty relay subset, in bitmask order."""

    kind: str  # "layered" or "outer"
    epsilon: float
    entries: tuple[SubsetConstraint, ...]

    @property
    def is_member(self) -> bool:
        return all(e.satisfied for e in self.entries)

    @property
    def violators(self) -> tuple[frozenset[int], ...]:
        return tuple(e.subset for e in self.entries if not e.satisfied)

    @property
    def min_slack(self) -> float:
        return min(e.slack for e in self.entries)

    def entry(self, subset) -> SubsetConstraint:
        subset = frozenset(subset)
        for e in self.entries:
            if e.subset == subset:
                return e
        raise KeyError(f"no entry for subset {sorted(subset)}")

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "epsilon": self.epsilon,
            "member": self.is_member,
            "subsets": [e.to_json_obj() for e in self.entries],
        }


def _build_report(joint, layering, rates, epsilon) -> ConstraintReport:
    caps = region_caps(joint, layering)
    rates.check_for(joint.relay_set)
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    entries = []
    for s, rhs in caps:
        rate_sum = rates.subset_sum(s)
        entries.append(SubsetConstraint(s, rhs, rate_sum, satisfied=(rhs - rate_sum) > epsilon))
    kind = "outer" if layering is None else "layered"
    return ConstraintReport(kind=kind, epsilon=epsilon, entries=tuple(entries))


def check_layered(
    joint: JointPmf, layering: Layering, rates: RateVector, epsilon: float = DEFAULT_EPSILON
) -> ConstraintReport:
    """Membership report for the region of one layering."""
    return _build_report(joint, layering, rates, epsilon)


def check_outer(
    joint: JointPmf, rates: RateVector, epsilon: float = DEFAULT_EPSILON
) -> ConstraintReport:
    """Membership report for the layering-free outer region."""
    return _build_report(joint, None, rates, epsilon)


def pick_violator(report: ConstraintReport):
    """Largest violating subset from a report: the union of all violators.

    Returns (subset, degenerate).  The union itself violating is asserted;
    if a numerical edge breaks that, fall back to the first
    maximum-cardinality violator in report (bitmask) order and flag the pick
    as degenerate.  Returns (None, False) for a member.
    """
    violating = [e for e in report.entries if not e.satisfied]
    if not violating:
        return None, False
    union = frozenset().union(*(e.subset for e in violating))
    if not report.entry(union).satisfied:
        return union, False
    return max(violating, key=lambda e: len(e.subset)).subset, True


# -- floors, source rate, and the window identities -------------------------------


def compression_floor(joint: JointPmf) -> dict[int, float]:
    """Per-relay minimum workable compression rate I(Yhi; Yi | Xi), in bits."""
    return {
        i: joint.mutual_info({joint.yhat(i)}, {joint.y(i)}, {joint.x(i)})
        for i in joint.relays
    }


def floor_sum(floors: dict[int, float], s) -> float:
    return sum(floors[i] for i in s)


def source_rate(joint: JointPmf) -> float:
    """Source rate supported by the compressions: I(X1; Yh_R Yd | X_R)."""
    relays = joint.relay_set
    return joint.mutual_info(
        {joint.x1}, joint.yhats(relays) | {joint.yd}, joint.xs(relays)
    )


def mi_gap(joint: JointPmf, s) -> float:
    """Slack of the mutual-information form of subset `s`'s window condition:
    I(X_s; Yh_G Yd | X_G) - I(Yh_s; Y_s | X_R Yh_G Yd), the form matching the
    outer region."""
    s = frozenset(s)
    if not s:
        raise EmptySubsetError("the window condition is defined for nonempty subsets")
    rest = joint.relay_set - s
    lhs = joint.mutual_info(
        joint.yhats(s),
        joint.ys(s),
        joint.xs(joint.relay_set) | joint.yhats(rest) | {joint.yd},
    )
    rhs = joint.mutual_info(joint.xs(s), joint.yhats(rest) | {joint.yd}, joint.xs(rest))
    return rhs - lhs


def window_gap_forms(joint: JointPmf, s) -> tuple[float, ...]:
    """Nine rewritings of boundary_rhs(s) minus the floor sum of s.

    The first form subtracts the floors from the outer rate cap directly; the
    last is the pure mutual-information form of `mi_gap`.
    The rewriting steps are either entropy identities or uses of the factored
    structure (inputs mutually independent, each compression depending only on
    its own input and observation), so all nine agree for any joint built by
    `build_joint`.
    """
    s = frozenset(s)
    if not s:
        raise EmptySubsetError("window gaps are defined for nonempty subsets")
    rest = joint.relay_set - s
    h = joint.entropy
    hc = joint.cond_entropy
    xs, ys, yhs = joint.xs, joint.ys, joint.yhats
    yd = joint.yd

    pair = joint.pair_entropy_sum(s)
    bound_block = block_cond_entropy(joint, s, rest)  # H(X_s Yh_s | X_G Yh_G Yd)
    floors = compression_floor(joint)

    sum_h_yh_given_x = sum(hc({joint.yhat(i)}, {joint.x(i)}) for i in s)
    sum_h_yh_given_xy = sum(hc({joint.yhat(i)}, {joint.x(i), joint.y(i)}) for i in s)
    sum_h_x = sum(h({joint.x(i)}) for i in s)

    g1 = (pair - bound_block) - floor_sum(floors, s)
    g2 = (pair - bound_block) - (sum_h_yh_given_x - sum_h_yh_given_xy)
    g3 = (pair - sum_h_yh_given_x) - (bound_block - sum_h_yh_given_xy)
    g4 = sum_h_x - (bound_block - sum_h_yh_given_xy)
    g5 = h(xs(s)) - (bound_block - hc(yhs(s), xs(s) | ys(s)))
    g6 = h(xs(s)) - (
        hc(yhs(s), xs(joint.relay_set) | yhs(rest) | {yd})
        + hc(xs(s), xs(rest) | yhs(rest) | {yd})
        - hc(yhs(s), xs(s) | ys(s))
    )
    g7 = (h(xs(s)) - hc(xs(s), xs(rest) | yhs(rest) | {yd})) - (
        hc(yhs(s), xs(joint.relay_set) | yhs(rest) | {yd}) - hc(yhs(s), xs(s) | ys(s))
    )
    g8 = (hc(xs(s), xs(rest)) - hc(xs(s), xs(rest) | yhs(rest) | {yd})) - (
        hc(yhs(s), xs(joint.relay_set) | yhs(rest) | {yd})
        - hc(yhs(s), xs(joint.relay_set) | ys(s) | yhs(rest) | {yd})
    )
    g9 = mi_gap(joint, s)
    return (g1, g2, g3, g4, g5, g6, g7, g8, g9)
