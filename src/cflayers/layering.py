"""Ordered partitions of the relay set and the shift operator.

A layering assigns every relay a layer index; the index is the extra number
of blocks the destination waits before decoding that relay's compression
(shallow layers are decoded first, deeper layers lean on them).  Layers other
than the last may be empty.  `shift` moves a chosen subset one layer deeper,
which is the single move the region-repair iteration uses.

Two layerings that differ only by leading empty layers describe the same
rate region (their staged constraints coincide term by term), so
`canonicalize` strips leading empties; their decode schedules still differ
by a constant delay offset, which is why stripping is not done implicitly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import (
    IndexOutOfRangeError,
    InvalidSubsetError,
    LayeringSyntaxError,
    TooManyRelaysError,
)

MAX_ENUM_RELAYS = 6


@dataclass(frozen=True)
class Layering:
    """Ordered tuple of disjoint relay subsets covering the relay set."""

    layers: tuple[frozenset[int], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def relays(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for layer in self.layers:
            out |= layer
        return out

    def layer_of(self, node: int) -> int:
        for l, layer in enumerate(self.layers):
            if node in layer:
                return l
        raise KeyError(f"node {node} is in no layer")

    def to_text(self) -> str:
        return "|".join(",".join(str(i) for i in sorted(layer)) for layer in self.layers)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Layering({self.to_text()!r})"


def make_layering(layers) -> Layering:
    return Layering(tuple(frozenset(layer) for layer in layers))


def _node(tok: str, text: str) -> int:
    """A layering token as a node: spaced or not, spelled as str() spells the integer."""
    tok = tok.strip()
    try:
        node = int(tok)
    except ValueError:
        node = None
    if node is None or str(node) != tok:  # int() reads "03", "+3" and non-ASCII digits too
        raise LayeringSyntaxError(f"layering {text!r} has a bad node {tok!r}")
    return node


def parse_layering(text: str) -> Layering:
    """Parse the `2,4|3` syntax (shallowest layer first, empty segments allowed);
    a node written twice in one layer raises, one in two layers is left to `validate_layering`."""
    layers = []
    for segment in text.split("|"):
        segment = segment.strip()
        if not segment:
            layers.append(frozenset())
            continue
        counts = Counter(_node(tok, text) for tok in segment.split(","))
        repeated = [node for node, k in counts.items() if k > 1]
        if repeated:
            raise LayeringSyntaxError(f"layering {text!r} repeats node {repeated[0]} in one layer")
        layers.append(frozenset(counts))
    return Layering(tuple(layers))


def validate_layering(layering: Layering, relays) -> list[str]:
    """List every violated structural condition; empty means valid.

    Layers must be relay subsets, pairwise disjoint, cover all relays, and
    the last layer must be nonempty (interior empty layers are fine).
    """
    relays = frozenset(relays)
    problems = []
    seen: set[int] = set()
    for l, layer in enumerate(layering.layers):
        foreign = layer - relays
        if foreign:
            problems.append(f"layer {l} has nodes outside the relay set: {sorted(foreign)}")
        overlap = layer & seen
        if overlap:
            problems.append(f"layer {l} repeats nodes already placed: {sorted(overlap)}")
        seen |= layer
    missing = relays - seen
    if missing:
        problems.append(f"nodes in no layer: {sorted(missing)}")
    if not layering.layers or not layering.layers[-1]:
        problems.append("last layer is empty")
    return problems


def canonicalize(layering: Layering) -> Layering:
    """Strip leading empty layers; interior empties are meaningful and kept."""
    layers = list(layering.layers)
    while len(layers) > 1 and not layers[0]:
        layers.pop(0)
    return Layering(tuple(layers))


def compact(layering: Layering) -> Layering:
    """Drop every empty layer, interior ones included.

    Unlike `canonicalize` this changes the region in general (the staged
    pairing tightens), but only ever outward: closing a gap conditions each
    stage on at least as much, so every subset's rate cap weakly grows.
    """
    layers = [layer for layer in layering.layers if layer]
    return Layering(tuple(layers) if layers else (frozenset(),))


def check_enumerable(relays) -> None:
    """Raise TooManyRelaysError above MAX_ENUM_RELAYS relays, whose layerings
    are too many to enumerate."""
    if len(relays) > MAX_ENUM_RELAYS:
        raise TooManyRelaysError(
            f"{len(relays)} relays exceeds the enumeration cap of {MAX_ENUM_RELAYS}"
        )


def enumerate_layerings(relays) -> list[Layering]:
    """All ordered set partitions of `relays`, no empty layers.

    Ordered by layer count, then lexicographically on the layer bitmasks
    (bit j of a mask = j-th smallest relay).  The count is the ordered Bell
    number of |relays|, so above MAX_ENUM_RELAYS relays this raises before
    it lists one (`cflayers layerings --count` passes a range of any length).
    """
    check_enumerable(relays)
    nodes = sorted(relays)
    full = (1 << len(nodes)) - 1
    layer = [frozenset(node for j, node in enumerate(nodes) if mask >> j & 1)
             for mask in range(full + 1)]

    def partitions(rest: int, k: int):
        # the first layer takes each proper submask of `rest` in increasing order,
        # so the layer masks come out in lexicographic order
        if k == 1:
            yield (layer[rest],)
            return
        for mask in range(1, rest):
            if mask & rest == mask:
                for tail in partitions(rest & ~mask, k - 1):
                    yield (layer[mask],) + tail

    return [Layering(layers) for k in range(1, len(nodes) + 1) for layers in partitions(full, k)]


def _check_extended_index(layering: Layering, l: int) -> None:
    if not -1 <= l <= layering.depth:
        raise IndexOutOfRangeError(
            f"layer index {l} outside -1..{layering.depth} for depth-{layering.depth} layering"
        )


def _check_subset(layering: Layering, s) -> frozenset[int]:
    s = frozenset(s)
    foreign = s - layering.relays
    if foreign:
        raise InvalidSubsetError(f"nodes {sorted(foreign)} are not relays of this layering")
    return s


def active(layering: Layering, s, l: int) -> frozenset[int]:
    """Members of `s` sitting in layer l; empty at the extended indices -1 and depth."""
    _check_extended_index(layering, l)
    s = _check_subset(layering, s)
    if l < 0 or l >= layering.depth:
        return frozenset()
    return s & layering.layers[l]


def prefix_union(layering: Layering, l: int) -> frozenset[int]:
    """Union of layers 0..l; empty at l = -1, the whole relay set at l = depth."""
    _check_extended_index(layering, l)
    out: frozenset[int] = frozenset()
    for layer in layering.layers[: max(l + 1, 0)]:
        out |= layer
    return out


def cumulative_complement(layering: Layering, s, l: int) -> frozenset[int]:
    """Everything decoded up to layer l except the members of `s` active there."""
    return prefix_union(layering, l) - active(layering, s, l)


def shift(layering: Layering, u) -> Layering:
    """Move every node of `u` one layer deeper; everyone else stays put.

    Returns the raw result: the first layer may become empty (canonicalize to
    strip it) and interior empty layers can appear.  The depth grows by one
    exactly when `u` touches the last layer, and never shrinks.
    """
    u = _check_subset(layering, u)
    new_depth = layering.depth + (1 if (layering.layers[-1] & u) else 0)
    new_layers = [set() for _ in range(new_depth)]
    for l, layer in enumerate(layering.layers):
        for node in layer:
            new_layers[l + 1 if node in u else l].add(node)
    return Layering(tuple(frozenset(layer) for layer in new_layers))


def decoding_schedule(layering: Layering) -> dict[int, int]:
    """Per-relay decode delay in blocks: a relay in layer l is decoded l+1 blocks late."""
    return {node: layering.layer_of(node) + 1 for node in sorted(layering.relays)}
