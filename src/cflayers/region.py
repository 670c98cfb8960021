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

A membership report keeps its caps and rate sums as tuples, and builds its
`SubsetConstraint` entries only when they are read, as printing does.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

from .errors import EmptySubsetError, InvalidRatesError, InvalidSubsetError
from .layering import Layering, active, prefix_union, validate_layering
from .probability import JointPmf, _build, _mutual_info

DEFAULT_EPSILON = 1e-9


def fmt12(x: float) -> float:
    """Round to 12 significant digits for stable text/JSON output."""
    return float(f"{x:.12g}")


# -- rate vectors -------------------------------------------------------------


def _as_rate(value) -> float:
    """A real number, numpy scalars included, as a float; bools and strings are no numbers."""
    if isinstance(value, bool) or not isinstance(value, Real):
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
        """The rates of `nodes` added left to right in ascending node order,
        from 0, so the bits depend neither on the order `nodes` iterates in
        nor on the Python version (3.12's `sum` compensates), and -0.0 rates
        add up to 0.0."""
        nodes = list(nodes)
        missing = {i for i in nodes if i not in self._rates}
        if missing:
            raise InvalidSubsetError(f"nodes {sorted(missing)} have no rate")
        total = 0
        for i in sorted(nodes):
            total += self._rates[i]
        return total

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


def _relay_subset(joint: JointPmf, s, defined: str = "rate caps are defined") -> frozenset[int]:
    """`s` as a nonempty set of the joint's relays: the subset check of every
    cap, window and floor; `defined` begins the message for an empty `s`."""
    s = frozenset(s)
    if not s:
        raise EmptySubsetError(f"{defined} for nonempty subsets")
    if not s <= joint.relay_set:
        raise InvalidSubsetError(f"nodes {sorted(s - joint.relay_set)} are not relays")
    return s


def layered_rhs(joint: JointPmf, layering: Layering, s) -> float:
    """Rate cap for subset `s` under the staged decode of `layering`: the pair
    sum minus h_term(l) for l = 0..depth, in that order."""
    require_valid_layering(joint, layering)
    return _cap(joint, layering, _relay_subset(joint, s))


def boundary_rhs(joint: JointPmf, s) -> float:
    """Rate cap for subset `s` in the layering-free outer region."""
    return _cap(joint, None, _relay_subset(joint, s))


def region_caps(joint: JointPmf, layering: Layering | None) -> tuple:
    """(subset, cap) for every nonempty relay subset, in bitmask order: the outer
    region's caps when `layering` is None, else the staged caps of `layering`,
    which is checked against the joint first.

    The outer caps are computed once per joint and shared with its relay
    table: later calls on either return the same tuple.  Layered caps are
    not cached; each call computes them again from the entropy memo."""
    if layering is not None:
        require_valid_layering(joint, layering)
    return _caps(joint, layering)


def _caps(joint: JointPmf, layering: Layering | None) -> tuple:
    kept = joint._outer_caps  # the outer caps, beside the entropy memo
    if layering is None and None in kept:
        return kept[None]
    caps = tuple((s, _cap(joint, layering, s)) for s in subsets_by_mask(joint.relay_set))
    return caps if layering is not None else kept.setdefault(None, caps)  # first stored wins


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
    """One constraint per nonempty relay subset, in bitmask order: `caps`
    holds the `(subset, cap)` pairs of `region_caps` and `rate_sums` the
    subsets' rate sums.  A subset is satisfied when its cap minus its rate
    sum exceeds `epsilon`.  `verdicts` and `entries` are computed once, on
    first read."""

    kind: str  # "layered" or "outer"
    epsilon: float
    caps: tuple[tuple[frozenset[int], float], ...]
    rate_sums: tuple[float, ...]

    @cached_property
    def verdicts(self) -> tuple[bool, ...]:
        eps = self.epsilon
        return tuple((cap - r) > eps for (_, cap), r in zip(self.caps, self.rate_sums))

    @cached_property
    def entries(self) -> tuple[SubsetConstraint, ...]:
        return tuple(
            SubsetConstraint(s, cap, r, ok)
            for (s, cap), r, ok in zip(self.caps, self.rate_sums, self.verdicts)
        )

    @property
    def is_member(self) -> bool:
        return all(self.verdicts)

    @property
    def violators(self) -> tuple[frozenset[int], ...]:
        return tuple(s for (s, _), ok in zip(self.caps, self.verdicts) if not ok)

    @property
    def min_slack(self) -> float:
        return min(cap - r for (_, cap), r in zip(self.caps, self.rate_sums))

    def _index(self, subset) -> int:
        """Position of `subset` in bitmask order; KeyError when the report has none."""
        subset = frozenset(subset)
        nodes = sorted(self.caps[-1][0]) if self.caps else []  # the last subset is all relays
        k = sum(1 << j for j, i in enumerate(nodes) if i in subset) - 1
        if k < 0 or self.caps[k][0] != subset:
            raise KeyError(f"no entry for subset {sorted(subset)}")
        return k

    def entry(self, subset) -> SubsetConstraint:
        k = self._index(subset)
        return SubsetConstraint(*self.caps[k], self.rate_sums[k], self.verdicts[k])

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "epsilon": self.epsilon,
            "member": self.is_member,
            "subsets": [e.to_json_obj() for e in self.entries],
        }


def _rate_sums(rates: RateVector, relays) -> tuple[float, ...]:
    """The rate sum of every nonempty relay subset, in bitmask order, in one
    pass: a mask's sum is the sum without its highest relay plus that relay's
    rate, from 0, so each equals `rates.subset_sum` bit for bit."""
    sums = [0]
    for i in sorted(relays):
        r = rates.of(i)
        sums += [t + r for t in sums]
    return tuple(sums[1:])


def _as_epsilon(epsilon) -> float:
    """`epsilon` as a float, so that no verdict is a numpy bool; ValueError
    unless it is a finite, nonnegative number."""
    try:  # 10**400 overflows
        value = float(epsilon) if isinstance(epsilon, Real) else math.nan
    except OverflowError:
        value = math.inf
    if isinstance(epsilon, bool) or not 0.0 <= value < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    return value


def _build_report(joint, layering, rates, epsilon: float) -> ConstraintReport:
    """The report on checked inputs: a layering that partitions the joint's
    relays or None, rates that `RateVector.check_for` passed, and an
    epsilon that `_as_epsilon` gave."""
    kind = "outer" if layering is None else "layered"
    caps = _caps(joint, layering)
    return ConstraintReport(kind, epsilon, caps, _rate_sums(rates, joint.relay_set))


def check_layered(
    joint: JointPmf, layering: Layering, rates: RateVector, epsilon: float = DEFAULT_EPSILON
) -> ConstraintReport:
    """Membership report for the region of one layering."""
    # every input is checked, layering first, before any cap is computed
    require_valid_layering(joint, layering)
    rates.check_for(joint.relay_set)
    return _build_report(joint, layering, rates, _as_epsilon(epsilon))


def check_outer(
    joint: JointPmf, rates: RateVector, epsilon: float = DEFAULT_EPSILON
) -> ConstraintReport:
    """Membership report for the layering-free outer region.  Its caps are
    `region_caps(joint, None)`: computed on the first call on the joint or
    its relay table and read from there after, once the rates and epsilon
    are checked."""
    rates.check_for(joint.relay_set)
    return _build_report(joint, None, rates, _as_epsilon(epsilon))


def pick_violator(report: ConstraintReport):
    """Largest violating subset from a report: the union of all violators.

    Returns (subset, degenerate).  When the union satisfies its own cap, the
    pick falls back to the first maximum-cardinality violator in report
    (bitmask) order and is flagged degenerate.  Submodular caps make the
    minimizers of the slack closed under union, not the violators, so this
    is no numerical edge: next to outer vertices the union satisfies its cap
    by up to about 1e-5, and the fallback runs in 22 of 96 solves at 3
    relays, 251 of 390 at 4 and 322 of 360 at 5 (the targets are in the
    `solver` module docstring).  Returns (None, False) for a member.
    """
    violating = report.violators
    if not violating:
        return None, False
    union = frozenset().union(*violating)
    if not report.verdicts[report._index(union)]:
        return union, False
    return max(violating, key=len), True


# -- floors, source rate, and the window identities -------------------------------


def compression_floor(joint: JointPmf) -> dict[int, float]:
    """Per-relay minimum workable compression rate I(Yhi; Yi | Xi), in bits."""
    return {i: _relay_floor(joint, i, joint._entropy) for i in joint.relays}


def _relay_floor(joint: JointPmf, i: int, h) -> float:
    """Relay i's compression floor I(Yhi; Yi | Xi), its entropies from `h` as in `_mi_gap`."""
    key = joint._key
    return _mutual_info(h, key("yhat", [i]), key("y", [i]), key("x", [i]))


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
    s = _relay_subset(joint, s, "the window condition is defined")
    return _mi_gap(joint, s, joint._entropy)


def _mi_gap(joint: JointPmf, s: frozenset[int], h) -> float:
    """`mi_gap` of a checked subset `s`, with its entropies from `h`, a
    function of a mask in the memo-key space of `joint`."""
    key, rest = joint._key, joint.relay_set - s
    yd = key("y", [joint.d])
    given = key("x", joint.relays) | key("yhat", rest) | yd  # X_R Yh_G Yd
    lhs = _mutual_info(h, key("yhat", s), key("y", s), given)
    rhs = _mutual_info(h, key("x", s), key("yhat", rest) | yd, key("x", rest))
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
    s = _relay_subset(joint, s, "window gaps are defined")
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
    g9 = _mi_gap(joint, s, joint._entropy)
    return (g1, g2, g3, g4, g5, g6, g7, g8, g9)


def floors_report(spec) -> dict:
    """The JSON object of `cflayers floors` on `spec`: each relay's floor and, per
    subset S in bitmask order, its floor sum, outer cap, window (cap minus floor
    sum) and `mi_gap`, consistent when window and gap agree within 1e-9.

    No term reads X1: the joint is X1-free, and `region_caps` on the relay table it
    keeps gives `check`'s caps.  Two walks of its table (`JointPmf._walk`) fill its
    memo.  The first sums away Y_i or Yh_i, relays increasing: the entropy of a leaf
    with some Y_i is H(X_R, Y_S, Yh_{R-S}, Yd), the one term of S's gap not in the
    relay table.  The second drops Y_i or keeps it, relays decreasing, so each T(S)
    of (X_R, Yh_R, Y_S, Yd) is summed once, from the T of a set one node larger: S's
    gap is read from T(S), relay i's floor from T({i}).  Walked entropies differ in
    the last bits from direct sums, so the joint is built here, where they enter no
    memo that a caller holds."""
    joint = _build(spec, lambda v: v.label != "X1")
    del spec  # not held through the walks, whose tables would fragment the heap around it
    relays, key = joint.relays, joint._key
    ys = {i: key("y", [i]) for i in relays}
    windows, any_y = [(ys[i], key("yhat", [i])) for i in relays], key("y", relays)
    for depth, mask, h in joint._walk(windows):
        if depth == len(relays) and mask & any_y:
            h(mask)
    floors, gaps = {}, {}
    for _, mask, h in joint._walk([(ys[i], 0) for i in reversed(relays)]):
        s = frozenset(i for i in relays if mask & ys[i])
        if s:
            gaps[s] = _mi_gap(joint, s, h)
        if len(s) == 1:
            (i,) = s
            floors[i] = _relay_floor(joint, i, h)
    entries = []
    for s, cap in region_caps(joint.relay_joint(), None):
        total = floor_sum(floors, s)
        window = cap - total
        entries.append({
            "subset": sorted(s),
            "floor_sum": fmt12(total),
            "boundary_rhs": fmt12(cap),
            "window": fmt12(window),
            "window_nonempty": window > 0.0,
            "mi_gap": fmt12(gaps[s]),
            "consistent": abs(window - gaps[s]) <= 1e-9,
        })
    return {
        "floors": {str(i): fmt12(floors[i]) for i in sorted(floors)},
        "subsets": entries,
        "consistent": all(e["consistent"] for e in entries),
    }
