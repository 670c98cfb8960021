"""Product-form joint distributions for relay networks and entropy queries.

The network has a source (node 1), relays 2..d-1, and a destination (node d).
The modeled variables are the source input X1, per-relay inputs Xi,
observations Yi and compressions Yhi, and the destination observation Yd.
The joint factors as

    p(x1) * prod_i p(xi) * p(y2..yd | x1..x_{d-1}) * prod_i p(yhi | xi, yi)

and is stored as one dense table over the variables read: every one
(`build_joint`), the factors multiplied cell by cell in that order, or (Xi,
Yhi per relay, Yd) only (`build_relay_joint`), which is all the rate caps and
the shift search read, contracted along the network: X1 summed into the
channel, then each relay's compression and input folded in, node by node.
The source observation y1 and the destination input x_d never enter any
computed quantity and are marginalized away at construction.

All entropies are in bits.  Queries are pure and cached, and no joint changes
once built, so joints can be shared freely across threads.  A joint over more
than the relay axes keeps a 2^(2n+1)-cell relay table (n binary relays), made
once by `_build` or the constructor.  Every rate cap is a difference of terms
H(X_A, Yh_B, Yd) with B in A, the cap family, and the outer caps read only
the 2^n with B = A: the first query of one of those stores the 2^n in the
memo, and the first query of any other stores all 3^n, each from the relay
table in one numpy pass (`JointPmf._fill`).  Any other query on the relay
axes is summed from the relay table.  No other joint is made over part of a
joint's variables: the window and floor tables of `cflayers floors` are
summed by `JointPmf._walk`, which makes no joint for them.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .errors import InvalidSpecError, TableTooLargeError, UnknownVariableError

NORMALIZATION_TOL = 1e-12
MAX_TABLE_CELLS = 1 << 24
ZERO_MASS = 1e-15  # probabilities at or below this count as exact zeros
SUM_SLAB_CELLS = 1 << 16  # the most cells (512 KiB) a sum copies at a time


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
        """The spec's JSON document, each table as the nested lists of its array."""
        return self._document(lambda table: table.tolist())

    def _document(self, table=np.asarray) -> dict:
        """The spec's JSON document with each table as `table(array)`: by
        default the array itself, which `write_json` writes as its lists
        without building them."""
        return {
            "d": self.d,
            "source": {
                "alphabet": self.source_alphabet,
                "p_x1": table(self.p_x1),
            },
            "relays": [
                {
                    "node": r.node,
                    "x_alphabet": r.x_alphabet,
                    "y_alphabet": r.y_alphabet,
                    "yhat_alphabet": r.yhat_alphabet,
                    "p_x": table(r.p_x),
                    "p_yhat_given_x_y": table(r.p_yhat),
                }
                for r in self.relays
            ],
            "destination": {"y_alphabet": self.dest_alphabet},
            "channel": table(self.channel),
        }

    def dumps(self) -> str:
        """The text `save` writes: `json.dumps(self.to_json_obj(), indent=2,
        sort_keys=True)` and one final newline.  `write_json` is handed the
        spec's arrays, not `to_json_obj`'s lists, so the lists are never built."""
        buf = io.StringIO()
        write_json(self._document(), buf)
        return buf.getvalue()

    def save(self, path) -> None:
        """Write the text of `dumps` to `path`, in pieces, from the spec's arrays."""
        with open(path, "w") as fh:
            write_json(self._document(), fh)


def write_json(obj, fh) -> None:
    """Write `obj` to `fh` as the text of `json.dumps(obj, indent=2,
    sort_keys=True)` plus one final newline, byte for byte.  Every JSON
    document the package writes goes through here.

    Dicts with str keys, lists, tuples, str, int, float (NaN and the
    infinities as `json` spells them), bool and None are encoded, subclasses
    too.  A numpy array, which `json` does not encode, is written as its
    `tolist()`; a float64 array with at least one axis and one cell is
    formatted straight from its cells, so its nested lists are never built.
    An iterator, at any depth, is written as a list, each item encoded and
    handed to `fh` as the iterator yields it, so the list is never held.
    The text goes to `fh` in pieces as it is encoded, so it is never held
    whole either.  Any other value, such as a set, and any dict key that is
    not a str raise TypeError; what was written before the error is a prefix
    of what `json.dump` writes for the same value."""
    out: list[str] = []
    _emit(obj, out, fh, "\n")
    out.append("\n")
    fh.write("".join(out))


_FLUSH_PARTS = 1 << 10  # pieces of text `_emit` holds before it writes them
_ARRAY_CHUNK = 1 << 9  # cells of an array formatted into one piece (about 55 kB at 6 relays)
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


_SCALARS = {  # type -> text, bool before its base int; `json` writes subclasses as their base
    bool: lambda b: "true" if b else "false",
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    type(None): lambda _: "null",
}


def _emit(obj, out: list, fh, newline: str) -> None:
    """Append the text of `obj`, nested where line breaks are `newline`, to
    `out`, and write `out` to `fh` once it holds more than _FLUSH_PARTS pieces;
    an iterator's items are written one by one."""
    inner = newline + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        head = "{" + inner
        for key in sorted(obj):  # `_quote` raises TypeError on a key that is not a str
            item = obj[key]
            scalar = _SCALARS.get(type(item))  # a scalar is appended here, not in a call
            if scalar is not None:
                out.append(head + _quote(key) + ": " + scalar(item))
            else:
                out.append(head + _quote(key) + ": ")
                _emit(item, out, fh, inner)
            head = sep
        out.append(newline + "}" if head is sep else "{}")
    elif isinstance(obj, (list, tuple, Iterator)):
        streamed = not isinstance(obj, (list, tuple))
        head = "[" + inner
        for item in obj:
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                out.append(head + scalar(item))
            else:
                out.append(head)
                _emit(item, out, fh, inner)
            if streamed:
                fh.write("".join(out))
                out.clear()
            head = sep
        out.append(newline + "]" if head is sep else "[]")
    elif isinstance(obj, np.ndarray):
        if type(obj) is np.ndarray and obj.dtype == np.float64 and obj.ndim and obj.size:
            _emit_table(obj, out, fh, newline)
        else:
            _emit(obj.tolist(), out, fh, newline)
    else:
        base = next((kind for kind in _SCALARS if isinstance(obj, kind)), None)
        if base is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        out.append(_SCALARS[base](obj))
        return
    if len(out) > _FLUSH_PARTS:
        fh.write("".join(out))
        out.clear()


def _emit_table(table: np.ndarray, out: list, fh, newline: str) -> None:
    """Append the text of `table.tolist()`, for a float64 `table` with an axis
    and a cell, to `out` as `_emit` would, but from the flat cells: each
    cell's text, and before it the brackets of every list that closes and
    opens there.  A cell whose flat index is a multiple of the product of the
    last m axis sizes, for m up to ndim - 1, closes m lists and reopens them.
    The cells are formatted _ARRAY_CHUNK at a time, and `out` is written to
    `fh` before each chunk after the first, so no piece holds more than one."""
    depth = table.ndim
    lines = [newline + "  " * j for j in range(depth + 1)]  # the line break at each depth
    # the text before a cell that closes r lists: r brackets, a comma, r brackets
    seps = np.array([
        "".join(line + "]" for line in lines[depth - 1:depth - r - 1:-1]) + ","
        + "".join(line + "[" for line in lines[depth - r:depth]) + lines[depth]
        for r in range(depth)], dtype=object)
    periods = np.cumprod(table.shape[:0:-1]).tolist()
    flat = table.ravel()
    for start in range(0, flat.size, _ARRAY_CHUNK):
        if start:
            fh.write("".join(out))
            out.clear()
        cells = flat[start:start + _ARRAY_CHUNK].tolist()
        closes = np.zeros(len(cells), dtype=np.intp)
        for period in periods:
            closes[-start % period::period] += 1
        parts = [""] * (2 * len(cells))
        parts[::2] = seps[closes].tolist()
        if not start:
            parts[0] = "".join("[" + line for line in lines[1:])
        parts[1::2] = map(float.__repr__, cells)
        text = "".join(parts)
        if "n" in text:  # only a non-finite float spells an "n"
            parts[1::2] = map(_float_text, cells)
            text = "".join(parts)
        out.append(text)
    out.append("".join(line + "]" for line in reversed(lines[:-1])))


_MAX_AXES = 64  # the most axes a numpy array has


def _as_table(raw, name: str) -> np.ndarray:
    """Nested lists of JSON numbers as a float array, read one level at a time.

    While every item of a level is a list and all have one length, that
    length is the next axis and the items' items the next level, up to
    numpy's 64 axes; the items of the last level are the cells.  Only int
    and float cells pass: true, null, strings and objects are no numbers,
    and a list as a cell is a ragged (or too deep) table.  The array and
    the error are those of reading `np.array(raw, dtype=object)` cell by
    cell, without its object array."""
    shape, cells = [], [raw]
    kinds = {type(raw)}
    while kinds == {list} and len(shape) < _MAX_AXES:
        lengths = set(map(len, cells))
        if len(lengths) > 1:
            break
        shape.append(lengths.pop())
        cells = list(itertools.chain.from_iterable(cells))
        kinds = set(map(type, cells))
    if list in kinds:
        raise InvalidSpecError(f"table {name} is not rectangular past its first {len(shape)} axes")
    if not kinds <= {int, float}:
        first = next(cell for cell in cells if type(cell) not in (int, float))
        raise InvalidSpecError(f"table {name} holds {first!r}, which is not a number")
    try:
        return np.array(cells, dtype=float).reshape(shape)
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


def _sum_table(table: np.ndarray, bits: tuple, mask: int) -> np.ndarray:
    """`table`, whose axes carry the memo-key bits `bits`, summed over every
    axis whose bit is outside `mask`; `table` itself when `mask` keeps every
    axis.  Every marginal, walked table and entropy outside the cap family
    (`JointPmf._fill`) is summed here, and so is the relay table the
    constructor keeps.

    A view of the table orders its axes as two blocks, the kept axes and
    the dropped ones, so that the sum runs along one contiguous axis: the
    kept block goes inner when it has at least as many cells as the
    dropped block, and outer otherwise.  The view is summed in slabs along
    its leading axes, each copied to contiguous memory only when whole
    rows are summed, so no copy holds more than SUM_SLAB_CELLS cells.

    One dropped axis with no more cells than the kept block, as in each
    step of the table walks of `cflayers floors` (`JointPmf._walk`), needs
    no view: its slices are added in order, starting from zero, the
    additions the slabs make in the order they make them, so the sum is the
    same bit for bit.
    """
    keep = [i for i, bit in enumerate(bits) if mask & bit]
    if len(keep) == table.ndim:
        return table
    drop = [i for i, bit in enumerate(bits) if not mask & bit]
    shape = tuple(table.shape[i] for i in keep)
    kept = math.prod(shape)
    dropped = table.size // kept
    inner = kept >= dropped
    if inner and len(drop) == 1:
        parts = iter(np.moveaxis(table, drop[0], 0))
        out = next(parts) + 0.0  # a new array, -0.0 turned to 0.0 as zeros + part does
        for part in parts:
            out += part
        return out
    view = table.transpose(drop + keep if inner else keep + drop)
    lead, cells = 0, table.size  # a slab: view[idx] for idx over the `lead` leading axes
    while cells > SUM_SLAB_CELLS:
        cells //= view.shape[lead]
        lead += 1
    out = np.zeros(kept)  # the rows of the 2-D (dropped, kept) or (kept, dropped) view
    for n, idx in enumerate(np.ndindex(view.shape[:lead])):
        at, slab = n * cells, view[idx]
        if inner and cells >= kept:  # whole rows, each as long as `out`
            out += np.ascontiguousarray(slab).reshape(-1, kept).sum(axis=0)
        elif inner:  # part of one row
            part = out[at % kept:at % kept + cells].reshape(slab.shape)
            part += slab
        elif cells >= dropped:  # whole rows, each summed into one cell of `out`
            rows = np.ascontiguousarray(slab).reshape(-1, dropped)
            out[at // dropped:(at + cells) // dropped] = rows.sum(axis=1)
        else:  # part of one row
            out[at // dropped] += slab.sum()
    return out.reshape(shape)


def _add_up(parts, out=None) -> np.ndarray:
    """The arrays `parts`, a list or an array's slices along its first axis,
    added in order into `out`, or a new array: each cell gets the same
    additions in the same order whatever array it is a cell of, so a slab
    adds up to the bits of the whole."""
    if out is None:
        out = np.empty(np.shape(parts[0]))
    if len(parts) == 1:
        out[...] = parts[0]
        return out
    np.add(parts[0], parts[1], out=out)
    for part in parts[2:]:
        out += part
    return out


def _states(block: tuple, outer: bool) -> list[int]:
    """The cells of each state of a relay whose (X, Yh) sizes are `block`, Yh
    0 when the table has none: (X, Yh) kept, then X kept when there is a Yh
    and the states are not the `outer` ones, then neither."""
    x, yh = block
    if not yh:
        return [x, 1]
    return [x * yh, 1] if outer else [x * yh, x, 1]


def _grow_axis(table: np.ndarray, axis: int, block: tuple, outer: bool) -> np.ndarray:
    """`table` with its `axis`, the cells of a relay whose (X, Yh) sizes are
    `block`, followed by the cells of the relay's other states (`_states`):
    X's cells with Yh summed away, when it has a Yh and the states are not
    the `outer` ones, and then the one cell with both summed away.  X's cell
    j with Yh summed away adds the block's cells j*yh, ..., j*yh + yh - 1 in
    order, kept or not; the last cell adds X's cells in order."""
    (x, yh), shape = block, table.shape
    cells = table.reshape(math.prod(shape[:axis]), shape[axis], -1)  # (before, block, after)
    grown = np.empty((len(cells), sum(_states(block, outer)), cells.shape[2]))
    grown[:, :shape[axis]] = cells
    xs = grown[:, :x]  # X's cells: the block itself when it has no Yh
    if yh:
        xs = np.empty((len(cells), x, cells.shape[2])) if outer else grown[:, x * yh:x * yh + x]
        rows = cells.reshape(len(cells), x, yh, -1)
        _add_up([rows[:, :, k] for k in range(yh)], xs)
    _add_up([xs[:, k] for k in range(x)], grown[:, -1])
    return grown.reshape(*shape[:axis], -1, *shape[axis + 1:])


def _reduce(sums: np.ndarray, axis: int, block: tuple, outer: bool) -> np.ndarray:
    """`sums` with its `axis`, a relay's cells as `_grow_axis` lays them out,
    added up per state: one entry per state, in the order of `_states`."""
    shape, states = sums.shape, _states(block, outer)
    cells = sums.reshape(math.prod(shape[:axis]), shape[axis], -1)  # (before, relay, after)
    out = np.empty((len(cells), len(states), cells.shape[2]))
    start = 0
    for state, width in enumerate(states):
        _add_up([cells[:, k] for k in range(start, start + width)], out[:, state])
        start += width
    return out.reshape(*shape[:axis], -1, *shape[axis + 1:])


def _family_sums(table: np.ndarray, blocks: list, outer: bool) -> np.ndarray:
    """The sum of p log2 p over the cells above ZERO_MASS of every marginal
    of `table` over (X_A, Yh_B, Yd) with B in A, the cap family, or only of
    those with B = A, the `outer` entries.  `table` has Yd first and then one
    axis per relay, the cells of its (X, Yh) block; `blocks` holds each
    relay's (X, Yh) sizes, Yh 0 when the table has none.  The result has one
    axis per relay, one entry per state of `_states`.

    Each relay's axis is grown by `_grow_axis`, the last relay first, so
    that every marginal asked for is a block of the grown table; p log2 p is
    formed once per cell, and then summed over Yd and over each relay's
    states, the first relay first (`_reduce`).  When the grown table would
    hold more than SUM_SLAB_CELLS cells, it is split on the last relay, the
    innermost axis, which is grown first: `_grow_axis` grows that axis
    alone, each of its grown cells is a slab, handled as a table of one
    relay fewer, and the slabs' results are summed per state.  Every sum
    adds arrays in order (`_add_up`), and a grown cell is formed the same
    way whichever states are grown, so the split gives the bits of the
    unsplit table and the outer entries are the full family's bit for bit."""
    grown = math.prod(sum(_states(block, outer)) for block in blocks) * len(table)
    if blocks and grown > SUM_SLAB_CELLS:
        block, rest = blocks[-1], blocks[:-1]
        slabs = np.moveaxis(_grow_axis(table, len(blocks), block, outer), -1, 0)
        sums = np.stack([_family_sums(slab, rest, outer) for slab in slabs], -1)
        return _reduce(sums, len(rest), block, outer)
    for axis in range(len(blocks), 0, -1):
        table = _grow_axis(table, axis, blocks[axis - 1], outer)
    terms = np.where(table > ZERO_MASS, table, 1.0)  # p log2 p in place: 0 at or below ZERO_MASS
    np.log2(terms, out=terms)
    terms *= table
    sums = _add_up(terms)
    for axis, block in enumerate(blocks):
        sums = _reduce(sums, axis, block, outer)
    return sums


_KINDS = ("x", "y", "yhat")  # the order of a node's variables


def _check_variables(variables: tuple[Variable, ...]) -> None:
    """Raise InvalidSpecError unless every variable has a kind of _KINDS,
    their (node, kind) keys strictly increase, kinds ranked as in _KINDS, and
    they are a network's: the last is Yd, the Y of node d >= 3, and the
    inputs besides X1 are exactly X2..X_{d-1}, one per relay.  So no variable
    repeats, and the relays and d read off the inputs are the network's."""
    keys = []
    for v in variables:
        if v.kind not in _KINDS:
            raise InvalidSpecError(f"variable kind {v.kind!r} is none of x, y and yhat")
        keys.append((v.node, _KINDS.index(v.kind)))
    for i in range(1, len(keys)):
        if keys[i] <= keys[i - 1]:
            where = "twice" if keys[i] == keys[i - 1] else f"after {variables[i - 1].label}"
            raise InvalidSpecError(
                f"joint variable {variables[i].label} is listed {where}; the order is by"
                " node, then x, y, yhat"
            )
    if not variables or variables[-1].kind != "y":
        last = f"ends with {variables[-1].label}" if variables else "is empty"
        raise InvalidSpecError(f"joint variable list {last}; it must end with Yd")
    d, inputs = variables[-1].node, [v for v in variables if v.kind == "x" and v.node != 1]
    if d < 3:  # as `validate_spec` refuses a spec
        raise InvalidSpecError(f"joint variables end with Y{d}: need at least one relay (d >= 3)")
    if [v.node for v in inputs] != list(range(2, 2 + len(inputs))) or len(inputs) != d - 2:
        held = ", ".join(v.label for v in inputs) or "no relay input"
        raise InvalidSpecError(
            f"joint variables hold {held} with Y{d} last; they must hold the input of every"
            f" relay 2..{d - 1} and no other"
        )


def _relay_axes(variables) -> list[int]:
    """The places of the relay axes in `variables`, a network's: every one but
    X1 and the relays' Yi.  A joint over more axes keeps its table over these."""
    d = variables[-1].node
    return [i for i, v in enumerate(variables) if v.label != "X1" and (v.kind != "y" or v.node == d)]


def _ascending_sum(term, nodes) -> float:
    """`term(i)` for each node of `nodes`, added left to right in ascending node
    order, from 0: the bits depend neither on the order `nodes` iterates in nor
    on the Python version (3.12's `sum` compensates).  Every sum over relays of
    the package adds this way."""
    total = 0
    for i in sorted(nodes):
        total += term(i)
    return total


def _mutual_info(h, a: int, b: int, c: int) -> float:
    """I(a ; b | c) in bits, for memo masks `a`, `b` and `c`, from `h`, the
    entropy of a mask: (H(a c) - H(c)) - (H(a b c) - H(b c)), with tiny
    negatives from rounding clamped to 0.  Every mutual information of the
    package, on a joint or on a table of `JointPmf._walk`, is this one."""
    value = (h(a | c) - h(c)) - (h(a | b | c) - h(b | c))
    if -1e-9 < value < 0.0:
        return 0.0
    return value


class JointPmf:
    """Dense joint pmf over (X1, {Xi, Yi, Yhi} per relay, Yd), or over a part
    of it that keeps every Xi and Yd, such as (Xi, Yhi per relay, Yd).  Immutable.

    The variables come in canonical order: by node, and within a node X, Y,
    then Yh, so Yd is last; the constructor raises InvalidSpecError on any
    other order, a repeat or an unknown kind, and unless the last is Yd, a
    Y of node d >= 3, and every relay 2..d-1 keeps its Xi.  Axes follow that order
    with the last index fastest; one (kind, node) -> axis map is the only
    layout lookup.  Entropy queries marginalize a table and are memoized by
    a mask with one bit per variable.  Concurrent reads are safe: a value
    may be computed twice, but the first one stored is returned.

    `relay_joint()` is the joint of (Xi, Yhi per relay, Yd).  A joint over
    more axes keeps it as a part of itself (`_part`), made once: the table of
    `build_relay_joint` from `_build`, its own table summed by the constructor.
    The part is in its memo-key space and shares its memo, so an entropy
    computed on either answers both, and so do the outer region's caps that
    `region.region_caps` keeps beside the memo.  The first query of an
    entry of the cap family, H(X_A, Yh_B, Yd) for relay sets B in A, fills
    from the relay table in one pass (`_fill`) the 2^n outer entries, B = A,
    when it is one of them, and all 3^n otherwise, whichever member or query
    asks; the outer entries a full pass finds stored stay, and have its
    bits.  No entry is computed another way.  Any other new
    entropy is summed from the relay table when it holds the variables, so
    no relay query sums the full table.  No other part is made: the tables
    that `cflayers floors` walks are summed by `_walk`.  Tables are checked
    where they enter, by the constructor or `_build`.
    """

    def __init__(self, variables: tuple[Variable, ...], table: np.ndarray):
        variables = tuple(variables)
        _check_variables(variables)
        # a copy: the caller's array is neither frozen nor aliased
        self._init(variables, np.array(table, dtype=float))
        self._check()
        mask = sum(self._bits[i] for i in _relay_axes(variables))
        if mask != sum(self._bits):  # summed once, where `_build` contracts it
            self._relay_joint = self._part(mask, _sum_table(self._table, self._bits, mask))

    def _init(self, variables: tuple[Variable, ...], table: np.ndarray) -> None:
        table.setflags(write=False)
        self._table = table
        self._variables = variables
        self._relays = tuple(v.node for v in variables if v.kind == "x" and v.node != 1)
        self._axis = {(v.kind, v.node): i for i, v in enumerate(variables)}
        self._bits = tuple(1 << i for i in range(len(variables)))  # memo-key bit per axis
        self._memo: dict[int, float] = {}  # shared by a joint and its parts
        # `region.region_caps(self, None)` under the key None, once computed; shared likewise
        self._outer_caps: dict[None, tuple] = {}
        self._relay_joint: JointPmf | None = None

    def _check(self) -> None:
        """Raise InvalidSpecError unless the table fits the variables and is a pmf."""
        if self._table.shape != tuple(v.size for v in self._variables):
            raise InvalidSpecError("joint table shape does not match its variables")
        # the least entry, NaN skipped, by a reduction: no table-size temporary
        if np.fmin.reduce(self._table, axis=None, initial=np.inf) < -NORMALIZATION_TOL:
            raise InvalidSpecError("joint table has negative entries")
        mass = float(self._table.sum())
        # each factor of the builders' product may be off by the tolerance: p(x1),
        # the channel, and p(xi) and p(yhi | xi, yi) per relay, whichever axes are kept
        factors = 2 * len(self._relays) + 2
        if not abs(mass - 1.0) <= NORMALIZATION_TOL * factors:  # NaN mass fails too
            raise InvalidSpecError(f"joint table mass is {mass!r}, not 1")

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
        return self._variables[-1].node  # Yd comes last

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
            mask |= self._bits[axis]
        return mask

    def _key(self, kind: str, nodes) -> int:
        """The memo mask of the variables of `kind` ("x", "y" or "yhat") at `nodes`."""
        return self._mask(self._var(kind, node) for node in nodes)

    def _entropy(self, mask: int, variables=None, at=None) -> float:
        """H of the variables in `mask`: the memo's; else, for a mask of the
        cap family, the one the relay table's `_fill` stores, of the outer
        entries alone when `mask` is one of them; else summed by
        `_sum` from `at` or this joint, or by `marginal` for the generic
        queries that give `variables`."""
        memo = self._memo
        cached = memo.get(mask)
        if cached is None:
            relay = self.relay_joint()
            if relay._in_family(mask):
                relay._fill(relay._is_outer(mask))
                return memo[mask]
            marg = (self._sum(mask, at) if variables is None
                    else self._source(mask).marginal(variables)).ravel()
            probs = marg if marg.min() > ZERO_MASS else marg[marg > ZERO_MASS]  # copies only to drop
            terms = np.log2(probs)  # p log2 p in place: no third table-size array
            terms *= probs
            cached = memo.setdefault(mask, max(0.0, float(-np.sum(terms))))
        return cached

    def marginal(self, variables) -> np.ndarray:
        """Marginal table over `variables`, axes in canonical order; the
        read-only table itself when `variables` are all of this joint's."""
        return _sum_table(self._table, self._bits, self._mask(variables))

    def _source(self, mask: int) -> JointPmf:
        """The joint a new sum to `mask` reads: the relay table when it holds
        `mask`, this joint otherwise."""
        relay = self.relay_joint()
        return relay if not mask & ~sum(relay._bits) else self

    def _sum(self, mask: int, at=None) -> np.ndarray:
        """The table of the variables in `mask`, summed from the kept relay
        table when it holds them, else from `at`, a (table, bits) pair of this
        distribution in this joint's memo-key space, or else from this joint."""
        source = self._source(mask)
        table, bits = at if at is not None and source is self else (source._table, source._bits)
        return _sum_table(table, bits, mask)

    def _blocks(self) -> list[tuple]:
        """Per relay of this relay table, in order: the memo bits of X_i and
        Yh_i and their sizes, Yh_i's bit and size 0 when the table has none."""
        axis, bits, variables = self._axis, self._bits, self._variables
        blocks = []
        for i in self._relays:
            x, yh = axis["x", i], axis.get(("yhat", i))
            blocks.append((bits[x], variables[x].size) + (
                (0, 0) if yh is None else (bits[yh], variables[yh].size)))
        return blocks

    def _in_family(self, mask: int) -> bool:
        """Whether `mask`, on this relay table, is H(X_A, Yh_B, Yd) for relay
        sets B in A: an entry of the cap family that `_fill` stores."""
        bits = self._bits
        if not mask & bits[-1] or mask & ~sum(bits):  # without Yd, or off the table
            return False
        return all(mask & x or not mask & yh for x, _, yh, _ in self._blocks())

    def _is_outer(self, mask: int) -> bool:
        """Whether `mask`, an entry of the cap family on this relay table, is
        an outer one, H(X_A, Yh_A, Yd): each relay with a Yh has both or neither."""
        return all(bool(mask & x) == bool(mask & yh) for x, _, yh, _ in self._blocks() if yh)

    def _fill(self, outer: bool = False) -> None:
        """Store in the memo every entry of the cap family, H(X_A, Yh_B, Yd)
        for relay sets B in A, 3^n of them, or only the 2^n `outer` ones with
        B = A, summed from this relay table in one pass (`_family_sums`), each
        clamped at 0 as `_entropy` clamps.  An entry already stored, by an
        outer fill or a concurrent one, stays: it has the same bits."""
        keys, sizes = np.array(self._bits[-1]), []  # an entry's mask: Yd's bit and its states'
        for x, x_size, yh, yh_size in self._blocks():
            keys = np.add.outer(keys, [x | yh, 0] if outer or not yh else [x | yh, x, 0])
            sizes.append((x_size, yh_size))
        shape = [x * (yh or 1) for x, yh in sizes] + [self._variables[-1].size]
        sums = _family_sums(np.moveaxis(self._table.reshape(shape), -1, 0), sizes, outer)
        memo = self._memo
        for key, total in zip(keys.ravel().tolist(), sums.ravel().tolist()):
            memo.setdefault(key, max(0.0, -total))

    def relay_joint(self) -> JointPmf:
        """The joint of (Xi, Yhi per relay, Yd), all that rate caps and shifts
        read: the relay table this joint keeps, or this joint itself when it
        has no other axes.  No call makes a joint."""
        return self if self._relay_joint is None else self._relay_joint

    def _part(self, mask: int, table: np.ndarray) -> JointPmf:
        """The joint of the variables in `mask` over `table`, this joint's
        distribution over them: the relay table a joint keeps.  It keeps this
        joint's memo-key bits and shares its memo and outer caps; it keeps no
        relay table, and its table, frozen in place, is not checked again."""
        axes = [i for i, bit in enumerate(self._bits) if mask & bit]
        part = JointPmf.__new__(JointPmf)
        part._init(tuple(self._variables[i] for i in axes), np.ascontiguousarray(table))
        part._bits, part._memo = tuple(self._bits[i] for i in axes), self._memo
        part._outer_caps = self._outer_caps
        return part

    def entropy(self, variables) -> float:
        """Joint Shannon entropy H(variables) in bits; H(empty) = 0."""
        variables = tuple(variables)  # read once: `_mask` would use up an iterator
        return self._entropy(self._mask(variables), variables)

    def relay_entropy(self, a, b) -> float:
        """H(X_a, Yh_b, Yd) in bits for relay node sets `a` and `b`.

        Every rate cap is a difference of these terms.  Shares the memo of
        `entropy`, keyed by the same mask.
        """
        axis, bits = self._axis, self._bits
        try:
            if 1 in a:  # X1 has an axis but is no relay input
                raise KeyError(("x", 1))
            mask = bits[axis["y", self.d]]
            for i in a:
                mask |= bits[axis["x", i]]
            for i in b:
                mask |= bits[axis["yhat", i]]
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
        return _mutual_info(self._entropy, self._mask(a), self._mask(b), self._mask(c))

    def pair_entropy_sum(self, nodes) -> float:
        """Sum over the given relays of H(Xi, Yhi), added left to right in
        ascending node order, from 0, as `_ascending_sum` adds; 0 for the
        empty set."""
        total = 0
        for i in sorted(nodes):  # inline: a call per term would slow every staged cap
            total += self.entropy({self.x(i), self.yhat(i)})
        return total

    def _walk(self, levels, at=None, mask=0, depth=0):
        """Walk tables summed from this joint's, depth first, one level at a
        time: at each level, each option of `levels[depth]` in turn, the memo
        bits of the axes to sum away, or 0 to go on with the table as it is.

        Yields (depth, mask, h) for this joint's table first, at depth 0, and
        then for each table as it is summed, at the depth after its step:
        `mask` is the table's memo key, and `h(m)` gives H(m) for any `m`
        within `mask` as `_entropy` does, from the memo, else the kept relay
        table when it holds `m`, else this table.  A table is summed by `_sum`,
        from the kept relay table when that holds its axes, else from its
        parent; no JointPmf is made for it.  One table per depth is
        alive, besides the one last yielded.  `at`, `mask` and `depth` give
        the (table, bits) pair, key and depth to go on from.
        """
        if at is None:
            at, mask = (self._table, self._bits), sum(self._bits)
            yield 0, mask, partial(self._entropy, at=at)
        if depth == len(levels):
            return
        for drop in levels[depth]:
            if not drop:
                yield from self._walk(levels, at, mask, depth + 1)
                continue
            key = mask & ~drop
            child = self._sum(key, at), tuple(bit for bit in at[1] if not bit & drop)
            yield depth + 1, key, partial(self._entropy, at=child)
            yield from self._walk(levels, child, key, depth + 1)
            del child  # before its sibling is summed


def _product(factors: list, shape: tuple) -> np.ndarray:
    """The table of `shape` over every axis that the (array, axes) `factors`
    multiply to, each cell their product taken left to right, as `np.einsum`
    without optimization takes it: bit for bit its table.  The factors are
    multiplied by broadcasting, a slab of at most SUM_SLAB_CELLS cells of the
    table at a time, so no temporary is larger than a slab."""
    spread = []  # each factor as a view over every axis, of size 1 on those it does not span
    for factor, axes in factors:
        spread.append(np.expand_dims(factor.transpose(np.argsort(axes)),
                                     [k for k in range(len(shape)) if k not in axes]))
    table = np.empty(shape)
    lead, cells = 0, table.size  # a slab: table[idx] for idx over the `lead` leading axes
    while cells > SUM_SLAB_CELLS:
        cells //= shape[lead]
        lead += 1
    for idx in np.ndindex(shape[:lead]):
        parts = [f[tuple(i if f.shape[k] > 1 else 0 for k, i in enumerate(idx))] for f in spread]
        product = parts[0]
        for part in parts[1:-1]:
            product = product * part
        np.multiply(product, parts[-1], out=table[idx])
    if any(np.signbit(factor).any() for factor, _ in factors):
        table += 0.0  # einsum adds each product to a zero: no cell is -0.0
    return table


def _contract(factors: list, axes: list) -> np.ndarray:
    """The table over `axes` of the (array, axes) `factors` in `_build`'s
    order, the other axes summed, contracted pairwise along the network:
    X1 is summed into the channel first; then each relay in node order folds
    its compression into the channel, its Y summed, or, when its Y is kept,
    into its input; then each relay's input, or that product, is folded into
    the channel in node order.  On binary specs this is the path einsum's
    greedy search picks, so the table is its table bit for bit, and no
    search is run."""
    channel = len(factors) // 2  # p(x1), n inputs, the channel, n compressions
    inputs = range(1, channel)
    folds = [(0, channel)]  # (factor, factor it is folded into), by place in `factors`
    for j in inputs:  # relay j's compression, over its (Xi, Yi, Yhi)
        folds.append((channel + j, j if factors[channel + j][1][1] in axes else channel))
    folds += [(j, channel) for j in inputs]
    live, path = list(range(len(factors))), ["einsum_path"]
    for a, b in folds:  # einsum appends each product to its operands
        path.append(tuple(sorted((live.index(a), live.index(b)))))
        live.remove(a)
        live.remove(b)
        live.append(b)
    args = [x for factor in factors for x in factor]
    return np.einsum(*args, axes, optimize=path)


def _build(spec: ChannelSpec, keep=None) -> JointPmf:
    """The joint of the variables `keep` is true for, or of the relay axes
    (Xi, Yhi per relay, Yd) if `keep` is None, in canonical order.  When
    `keep` holds more than the relay axes, the joint keeps the relay table,
    contracted from the spec's factors too.

    Validates `spec`, checks the table and applies the cell cap to the full
    index space, so every caller accepts the same specs whatever it keeps.
    Each axis is labelled by its canonical position: X1 is 0, relay j owns
    Xi, Yi, Yhi at 3j+1..3j+3, and Yd is last.  The factors are p(x1), each
    p(xi), the channel, and each p(yhi | xi, yi), in that order.  The full
    joint is their product (`_product`); any other is contracted along the
    network (`_contract`) and never builds the full table (the relay joint
    at 6-7 binary relays: 0.5-1.1 ms on a 2-vCPU Xeon, against 9-75 ms for
    the full one).
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

    cells = math.prod(v.size for v in variables)
    if cells > MAX_TABLE_CELLS:
        raise TableTooLargeError(
            f"joint table needs {cells} cells, above the cap of {MAX_TABLE_CELLS}"
        )

    x_ax = [3 * j + 1 for j in range(len(spec.relays))]
    y_ax = [a + 1 for a in x_ax] + [len(variables) - 1]
    factors = [(spec.p_x1, [0])]
    factors += [(r.p_x, [a]) for r, a in zip(spec.relays, x_ax)]
    factors.append((spec.channel, [0] + x_ax + y_ax))
    factors += [(r.p_yhat, [a, a + 1, a + 2]) for r, a in zip(spec.relays, x_ax)]
    relay_axes = _relay_axes(variables)
    axes = relay_axes if keep is None else [i for i, v in enumerate(variables) if keep(v)]
    if len(axes) == len(variables):
        table = _product(factors, tuple(v.size for v in variables))
    else:
        table = _contract(factors, axes)
    joint = JointPmf.__new__(JointPmf)  # the table is frozen in place, not copied
    joint._init(tuple(variables[i] for i in axes), np.ascontiguousarray(table))
    joint._check()
    if axes != relay_axes:
        relay = _contract(factors, relay_axes)
        joint._relay_joint = joint._part(joint._mask(variables[i] for i in relay_axes), relay)
    return joint


def build_joint(spec: ChannelSpec) -> JointPmf:
    """Multiply the spec's factors into the dense joint table over every variable.

    Each cell is p(x1) * p(x2) * ... * channel * p(yh2 | x2, y2) * ...,
    multiplied left to right.  Raises InvalidSpecError when validation fails
    and TableTooLargeError when the table would exceed MAX_TABLE_CELLS (2^24)
    entries.

    The joint's `relay_joint()` is the table of `build_relay_joint`:
    2^(2n+1) cells at n binary relays, against 2^(3n+2), contracted from the
    spec's factors, not summed from the full table.  Every rate cap term and
    shift decision of the joint is computed from it, bit for bit as on
    `build_relay_joint`.
    """
    return _build(spec, lambda v: True)


def build_relay_joint(spec: ChannelSpec) -> JointPmf:
    """The joint of (Xi, Yhi per relay, Yd) only, in canonical order.

    Every rate cap, staged h-term and shift decision reads only these axes.
    X1 and every Yi are summed out inside the build (`_build`), so the full
    table is never built; the spec checks and the cell cap are those of
    `build_joint`, which keeps this table.  The joint has no X1 or Yi, so
    `x1`, `y(i)`, `source_rate` and the floors raise UnknownVariableError
    on it.
    """
    return _build(spec)
