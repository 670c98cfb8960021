"""Product-form joint distributions for relay networks and entropy queries.

The network has a source (node 1), relays 2..d-1, and a destination (node d).
The modeled variables are the source input X1, per-relay inputs Xi,
observations Yi and compressions Yhi, and the destination observation Yd.
The joint factors as

    p(x1) * prod_i p(xi) * p(y2..yd | x1..x_{d-1}) * prod_i p(yhi | xi, yi)

and is stored as one dense table, either over every variable (`build_joint`)
or over (Xi, Yhi per relay, Yd) only (`build_relay_joint`), which is all the
rate caps and the shift search read.  The source observation y1 and the
destination input x_d never enter any computed quantity and are marginalized
away at construction.

All entropies are in bits.  Queries are pure and cached per variable set, so
a `JointPmf` can be shared freely across threads once built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    IncompleteRestrictionError,
    InvalidSpecError,
    TableTooLargeError,
    UnknownVariableError,
)

NORMALIZATION_TOL = 1e-12
MAX_TABLE_CELLS = 1 << 24
ZERO_MASS = 1e-15  # probabilities at or below this count as exact zeros


@dataclass(frozen=True)
class Variable:
    """One random variable of the network: kind in {x, y, yhat} plus a node id.

    X1 is ("x", 1); the destination observation is ("y", d); relays own the
    ("x", i), ("y", i), ("yhat", i) triples.
    """

    kind: str
    node: int
    size: int

    @property
    def label(self) -> str:
        prefix = {"x": "X", "y": "Y", "yhat": "Yh"}[self.kind]
        return f"{prefix}{self.node}"

    def __repr__(self):
        return f"Variable({self.label}, size={self.size})"


@dataclass(frozen=True)
class RelaySpec:
    """Per-relay alphabets, input distribution, and compression kernel."""

    node: int
    x_alphabet: int
    y_alphabet: int
    yhat_alphabet: int
    p_x: np.ndarray  # shape (x_alphabet,)
    p_yhat: np.ndarray  # shape (x_alphabet, y_alphabet, yhat_alphabet)


@dataclass(frozen=True)
class ChannelSpec:
    """Factored description of the network distribution.

    ``channel`` is indexed by the inputs (x1, x2, ..., x_{d-1}) and then the
    outputs (y2, ..., y_{d-1}, yd), row-major with the last index fastest.
    """

    d: int
    source_alphabet: int
    p_x1: np.ndarray
    relays: tuple[RelaySpec, ...]
    dest_alphabet: int
    channel: np.ndarray

    @property
    def relay_nodes(self) -> tuple[int, ...]:
        return tuple(r.node for r in self.relays)

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "source": {
                "alphabet": self.source_alphabet,
                "p_x1": self.p_x1.tolist(),
            },
            "relays": [
                {
                    "node": r.node,
                    "x_alphabet": r.x_alphabet,
                    "y_alphabet": r.y_alphabet,
                    "yhat_alphabet": r.yhat_alphabet,
                    "p_x": r.p_x.tolist(),
                    "p_yhat_given_x_y": r.p_yhat.tolist(),
                }
                for r in self.relays
            ],
            "destination": {"y_alphabet": self.dest_alphabet},
            "channel": self.channel.tolist(),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())


def _as_table(raw, name: str) -> np.ndarray:
    """Nested lists of JSON numbers as a float array, checked in one numpy pass.

    Only int and float entries pass: true, null, strings and objects are no
    numbers, and a list where a number belongs is a ragged (or too deep) table."""
    table = np.array(raw, dtype=object)
    cells = table.ravel()  # not .flat, which stops at 32 dimensions
    kinds = list(map(type, cells))
    odd = set(kinds) - {int, float}
    if list in odd:
        raise InvalidSpecError(f"table {name} is not rectangular past its first {table.ndim} axes")
    if odd:
        first = cells[min(map(kinds.index, odd))]
        raise InvalidSpecError(f"table {name} holds {first!r}, which is not a number")
    try:
        return table.astype(float)
    except OverflowError:
        raise InvalidSpecError(f"table {name} holds an integer too large for a float") from None


def _as_int(raw, name: str) -> int:
    """An integral JSON number; 2.0 is fine, 2.5, "2" and true are not."""
    try:
        value = None if isinstance(raw, bool) else int(raw)
    except (ValueError, TypeError, OverflowError):
        value = None
    if value is None or value != raw:
        raise InvalidSpecError(f"{name} must be an integer, got {raw!r}")
    return value


def spec_from_json_obj(obj: dict) -> ChannelSpec:
    """Build a ChannelSpec from the documented JSON structure.

    Structural problems (missing keys, ragged arrays) raise InvalidSpecError;
    normalization and shape checks are deferred to `validate_spec`.
    """
    try:
        d = _as_int(obj["d"], "d")
        source = obj["source"]
        source_alphabet = _as_int(source["alphabet"], "source.alphabet")
        p_x1_raw = source["p_x1"]
        relays_raw = obj["relays"]
        dest_alphabet = _as_int(obj["destination"]["y_alphabet"], "destination.y_alphabet")
        channel_raw = obj["channel"]
    except (KeyError, TypeError) as exc:
        raise InvalidSpecError(f"channel spec has a missing or malformed field: {exc}") from exc
    if not isinstance(relays_raw, list):
        raise InvalidSpecError(f"relays must be a list, got {type(relays_raw).__name__}")

    relays = []
    for entry in relays_raw:
        try:
            relays.append(
                RelaySpec(
                    node=_as_int(entry["node"], "relay node"),
                    x_alphabet=_as_int(entry["x_alphabet"], "x_alphabet"),
                    y_alphabet=_as_int(entry["y_alphabet"], "y_alphabet"),
                    yhat_alphabet=_as_int(entry["yhat_alphabet"], "yhat_alphabet"),
                    p_x=_as_table(entry["p_x"], f"p_x{entry.get('node', '?')}"),
                    p_yhat=_as_table(
                        entry["p_yhat_given_x_y"],
                        f"p_yhat{entry.get('node', '?')}",
                    ),
                )
            )
        except (KeyError, TypeError) as exc:
            raise InvalidSpecError(f"relay entry has a missing or malformed field: {exc}") from exc

    return ChannelSpec(
        d=d,
        source_alphabet=source_alphabet,
        p_x1=_as_table(p_x1_raw, "p_x1"),
        relays=tuple(relays),
        dest_alphabet=dest_alphabet,
        channel=_as_table(channel_raw, "channel"),
    )


def load_spec(path) -> ChannelSpec:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise InvalidSpecError("channel spec is nested too deeply") from None
    return spec_from_json_obj(obj)


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # "structure" | "shape" | "range" | "normalization"
    table: str
    message: str

    def __str__(self):
        return f"[{self.kind}] {self.table}: {self.message}"


def _check_distribution(arr: np.ndarray, name: str, length: int, issues: list) -> None:
    if arr.shape != (length,):
        issues.append(
            ValidationIssue("shape", name, f"expected {length} entries, got shape {arr.shape}")
        )
        return
    _check_range(arr, name, issues)
    total = float(arr.sum())
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        issues.append(ValidationIssue("normalization", name, f"sums to {total!r}, not 1"))


def _check_range(arr: np.ndarray, name: str, issues: list) -> None:
    if not np.all((arr >= -NORMALIZATION_TOL) & (arr <= 1.0 + NORMALIZATION_TOL)):
        issues.append(ValidationIssue("range", name, "entries outside [0, 1] or NaN"))


def _check_conditional(arr: np.ndarray, name: str, shape: tuple, n_cond: int, issues: list) -> None:
    """Rows over the trailing axes beyond the first n_cond must each sum to 1."""
    if arr.shape != shape:
        issues.append(
            ValidationIssue("shape", name, f"expected shape {shape}, got {arr.shape}")
        )
        return
    _check_range(arr, name, issues)
    sums = arr.sum(axis=tuple(range(n_cond, arr.ndim)))
    bad = np.argwhere(np.abs(sums - 1.0) > NORMALIZATION_TOL)
    for idx in bad[:8]:  # cap the noise from a single broken table
        key = tuple(int(v) for v in idx)
        issues.append(
            ValidationIssue(
                "normalization", name, f"row {key} sums to {float(sums[tuple(idx)])!r}, not 1"
            )
        )


def validate_spec(spec: ChannelSpec) -> list[ValidationIssue]:
    """Check shapes, ranges, and normalization; an empty list means well-formed."""
    issues: list[ValidationIssue] = []
    if spec.d < 3:
        issues.append(ValidationIssue("structure", "d", "need at least one relay (d >= 3)"))
        return issues
    # count first: a huge d must not build a huge range
    if len(spec.relays) != spec.d - 2 or spec.relay_nodes != tuple(range(2, spec.d)):
        issues.append(
            ValidationIssue(
                "structure",
                "relays",
                f"relay nodes {spec.relay_nodes} do not match 2..d-1 = 2..{spec.d - 1}",
            )
        )
        return issues

    _check_distribution(spec.p_x1, "p_x1", spec.source_alphabet, issues)
    for r in spec.relays:
        _check_distribution(r.p_x, f"p_x{r.node}", r.x_alphabet, issues)
        _check_conditional(
            r.p_yhat,
            f"p_yhat{r.node}",
            (r.x_alphabet, r.y_alphabet, r.yhat_alphabet),
            2,
            issues,
        )

    in_shape = (spec.source_alphabet,) + tuple(r.x_alphabet for r in spec.relays)
    out_shape = tuple(r.y_alphabet for r in spec.relays) + (spec.dest_alphabet,)
    _check_conditional(spec.channel, "channel", in_shape + out_shape, len(in_shape), issues)
    return issues


class JointPmf:
    """Dense joint pmf over (X1, {Xi, Yi, Yhi} per relay, Yd), or over a part
    of it that keeps every Xi and Yd, such as (Xi, Yhi per relay, Yd).  Immutable.

    Axes follow that canonical order with the last index fastest; one
    (kind, node) -> axis map is the only layout lookup.  Entropy queries
    marginalize the table and are memoized by the bitmask of kept axes;
    concurrent reads are safe (worst case a value is computed twice).

    `restrict(variables)` sums the table once down to `variables` and returns
    their joint, in canonical order, so a batch of queries that reads only
    those axes sums a smaller table.  The child's memo starts with every
    entropy the parent had already computed over kept variables, remapped to
    the child's axes, and grows on its own from there.  The relays and Yd are
    read off the kept axes, so every relay input and Yd must be kept.
    """

    def __init__(self, variables: tuple[Variable, ...], table: np.ndarray):
        table = np.asarray(table, dtype=float)
        if table.shape != tuple(v.size for v in variables):
            raise InvalidSpecError("joint table shape does not match its variables")
        if np.any(table < -NORMALIZATION_TOL):
            raise InvalidSpecError("joint table has negative entries")
        self._relays = tuple(v.node for v in variables if v.kind == "x" and v.node != 1)
        mass = float(table.sum())
        # each factor of the builders' product may be off by the tolerance: p(x1),
        # the channel, and p(xi) and p(yhi | xi, yi) per relay, whichever axes are kept
        factors = 2 * len(self._relays) + 2
        if not abs(mass - 1.0) <= NORMALIZATION_TOL * factors:  # NaN mass fails too
            raise InvalidSpecError(f"joint table mass is {mass!r}, not 1")
        table = table.copy()
        table.setflags(write=False)
        self._table = table
        self._variables = tuple(variables)
        self._axis = {(v.kind, v.node): i for i, v in enumerate(self._variables)}
        self._cache: dict[int, float] = {}

    # -- structure ----------------------------------------------------------
    @property
    def table(self) -> np.ndarray:
        return self._table

    @property
    def variables(self) -> tuple[Variable, ...]:
        return self._variables

    @property
    def relays(self) -> tuple[int, ...]:
        return self._relays

    @property
    def relay_set(self) -> frozenset[int]:
        return frozenset(self._relays)

    @property
    def d(self) -> int:
        return self._relays[-1] + 1 if self._relays else 3

    def _var(self, kind: str, node: int) -> Variable:
        axis = self._axis.get((kind, node))
        if axis is None:
            raise UnknownVariableError(f"no variable {kind}{node} in this joint")
        return self._variables[axis]

    @property
    def x1(self) -> Variable:
        return self._var("x", 1)

    @property
    def yd(self) -> Variable:
        return self._var("y", self.d)

    def x(self, node: int) -> Variable:
        return self._var("x", node)

    def y(self, node: int) -> Variable:
        return self._var("y", node)

    def yhat(self, node: int) -> Variable:
        return self._var("yhat", node)

    def xs(self, nodes) -> frozenset[Variable]:
        return frozenset(self.x(i) for i in nodes)

    def ys(self, nodes) -> frozenset[Variable]:
        return frozenset(self.y(i) for i in nodes)

    def yhats(self, nodes) -> frozenset[Variable]:
        return frozenset(self.yhat(i) for i in nodes)

    # -- queries --------------------------------------------------------------
    def _mask(self, variables) -> int:
        mask = 0
        for v in variables:
            axis = self._axis.get((v.kind, v.node))
            if axis is None or self._variables[axis].size != v.size:
                raise UnknownVariableError(f"{v!r} does not belong to this joint")
            mask |= 1 << axis
        return mask

    def _sum_to(self, mask: int) -> np.ndarray:
        drop = tuple(i for i in range(self._table.ndim) if not (mask >> i) & 1)
        return self._table.sum(axis=drop)

    def _entropy(self, mask: int, variables=None) -> float:
        # generic queries sum through the public `marginal`; relay queries do not
        cached = self._cache.get(mask)
        if cached is None:
            marg = (self._sum_to(mask) if variables is None else self.marginal(variables)).ravel()
            probs = marg[marg > ZERO_MASS]
            cached = self._cache[mask] = float(max(-np.sum(probs * np.log2(probs)), 0.0))
        return cached

    def marginal(self, variables) -> np.ndarray:
        """Marginal table over `variables`, axes in canonical order."""
        return self._sum_to(self._mask(variables))

    def restrict(self, variables) -> JointPmf:
        """The joint of `variables` alone, knowing the entropies over them that
        this joint has computed; raises IncompleteRestrictionError unless they
        include every relay input and Yd."""
        mask = self._mask(variables)
        axes = [i for i in range(self._table.ndim) if (mask >> i) & 1]
        kept = tuple(self._variables[i] for i in axes)
        needed = [self.x(i) for i in self._relays] + [self.yd]
        dropped = [v.label for v in needed if v not in kept]
        if dropped:
            raise IncompleteRestrictionError(
                f"a restriction must keep every relay input and Yd; it drops {', '.join(dropped)}"
            )
        child = JointPmf(kept, self.marginal(kept))
        # the same distribution: every entropy the parent knows over kept axes
        # holds for the child too; copy() is atomic, so concurrent reads stay safe
        child._cache.update(
            (sum(1 << j for j, a in enumerate(axes) if (m >> a) & 1), h)
            for m, h in self._cache.copy().items()
            if not m & ~mask
        )
        return child

    def entropy(self, variables) -> float:
        """Joint Shannon entropy H(variables) in bits; H(empty) = 0."""
        return self._entropy(self._mask(variables), variables)

    def relay_entropy(self, a, b) -> float:
        """H(X_a, Yh_b, Yd) in bits for relay node sets `a` and `b`.

        Every rate cap is a difference of these terms.  Shares the memo of
        `entropy`, keyed by the same axis mask.
        """
        axis = self._axis
        try:
            if 1 in a:  # X1 has an axis but is no relay input
                raise KeyError(("x", 1))
            mask = 1 << axis["y", self.d]
            for i in a:
                mask |= 1 << axis["x", i]
            for i in b:
                mask |= 1 << axis["yhat", i]
        except KeyError as exc:
            raise UnknownVariableError("no relay variable {}{} in this joint".format(
                *exc.args[0])) from None
        return self._entropy(mask)

    def cond_entropy(self, a, b) -> float:
        """H(a | b) = H(a u b) - H(b), in bits."""
        a = frozenset(a)
        b = frozenset(b)
        return self.entropy(a | b) - self.entropy(b)

    def mutual_info(self, a, b, c=frozenset()) -> float:
        """I(a ; b | c) in bits; tiny negatives from rounding are clamped to 0."""
        a = frozenset(a)
        b = frozenset(b)
        c = frozenset(c)
        value = self.cond_entropy(a, c) - self.cond_entropy(a, b | c)
        if -1e-9 < value < 0.0:
            return 0.0
        return value

    def pair_entropy_sum(self, nodes) -> float:
        """Sum over the given relays of H(Xi, Yhi); 0 for the empty set."""
        return sum(self.entropy({self.x(i), self.yhat(i)}) for i in nodes)


def _factor_operands(spec: ChannelSpec):
    """The full joint's variables and the einsum operands of its factors.

    Validates `spec` and applies the cell cap to the full index space, so both
    builders accept the same specs whatever they keep.  Each einsum axis is
    labelled by its canonical position: X1 is 0, relay j owns Xi, Yi, Yhi at
    3j+1..3j+3, and Yd is last.
    """
    issues = validate_spec(spec)
    if issues:
        raise InvalidSpecError(
            "channel spec failed validation: " + "; ".join(str(i) for i in issues)
        )

    variables = [Variable("x", 1, spec.source_alphabet)]
    for r in spec.relays:
        variables.append(Variable("x", r.node, r.x_alphabet))
        variables.append(Variable("y", r.node, r.y_alphabet))
        variables.append(Variable("yhat", r.node, r.yhat_alphabet))
    variables.append(Variable("y", spec.d, spec.dest_alphabet))

    cells = 1
    for v in variables:
        cells *= v.size
    if cells > MAX_TABLE_CELLS:
        raise TableTooLargeError(
            f"joint table needs {cells} cells, above the cap of {MAX_TABLE_CELLS}"
        )

    x_ax = [3 * j + 1 for j in range(len(spec.relays))]
    y_ax = [a + 1 for a in x_ax] + [len(variables) - 1]
    args = [spec.p_x1, [0]]
    for r, a in zip(spec.relays, x_ax):
        args += [r.p_x, [a]]
    args += [spec.channel, [0] + x_ax + y_ax]
    for r, a in zip(spec.relays, x_ax):
        args += [r.p_yhat, [a, a + 1, a + 2]]
    return variables, args


def build_joint(spec: ChannelSpec) -> JointPmf:
    """Multiply the spec's factors into the dense joint table.

    Raises InvalidSpecError when validation fails and TableTooLargeError when
    the table would exceed MAX_TABLE_CELLS (2^24) entries.
    """
    variables, args = _factor_operands(spec)
    return JointPmf(tuple(variables), np.einsum(*args, list(range(len(variables)))))


def build_relay_joint(spec: ChannelSpec) -> JointPmf:
    """The joint of (Xi, Yhi per relay, Yd) only, in canonical order.

    Every rate cap, staged h-term and shift decision reads only these axes.
    X1 and every Yi are summed out inside the one einsum, so the full table is
    never built; the spec checks and the cell cap are those of `build_joint`
    on the full index space.  The joint has no X1 or Yi, so `x1`, `y(i)`,
    `source_rate` and the floors raise UnknownVariableError on it.
    """
    variables, args = _factor_operands(spec)
    keep = [a for j in range(len(spec.relays)) for a in (3 * j + 1, 3 * j + 3)]
    keep.append(len(variables) - 1)
    # pairwise contraction: 2-5 ms at 6-7 binary relays on a 2-vCPU Xeon, where
    # one pass over the full index space (optimize=False) takes 0.07-1 s; the
    # two tables differ by about 1e-18
    table = np.einsum(*args, keep, optimize=True)
    return JointPmf(tuple(variables[i] for i in keep), table)
