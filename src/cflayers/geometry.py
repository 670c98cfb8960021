"""H-representations of the rate regions and low-dimension vertex enumeration.

Every region here is an intersection of strict half-spaces of the form
sum_{i in S} R_i < rhs_S (one per nonempty relay subset) with the nonnegative
orthant.  Geometry works on the closures: vertices are intersections of
constraint and coordinate hyperplanes that satisfy every closed constraint.
The singleton constraints already bound each coordinate, so the regions are
bounded and no artificial box is needed.

An atlas bundles the outer region with every canonical layering's region for
one channel; exporting the same channel twice yields byte-identical JSON.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionTooHighError
from .layering import Layering, check_enumerable, enumerate_layerings
from .probability import JointPmf, write_json
from .region import fmt12, region_caps

VERTEX_TOL = 1e-9
MAX_VERTEX_DIM = 3


@dataclass(frozen=True)
class HalfSpace:
    """Strict constraint sum_{i in subset} R_i < rhs over the relay coordinates."""

    subset: frozenset[int]
    rhs: float

    def indicator(self, relays) -> np.ndarray:
        nodes = sorted(relays)
        row = np.zeros(len(nodes))
        for i in self.subset:
            row[nodes.index(i)] = 1.0
        return row

    def to_json_obj(self) -> dict:
        return {"subset": sorted(self.subset), "rhs": fmt12(self.rhs)}


def h_rep(joint: JointPmf, layering: Layering) -> tuple[HalfSpace, ...]:
    """Half-spaces of one layering's region, in subset-bitmask order."""
    return tuple(HalfSpace(s, rhs) for s, rhs in region_caps(joint, layering))


def outer_h_rep(joint: JointPmf) -> tuple[HalfSpace, ...]:
    """Half-spaces of the outer region, in subset-bitmask order."""
    return tuple(HalfSpace(s, rhs) for s, rhs in region_caps(joint, None))


def enumerate_vertices(halfspaces, relays) -> list[tuple[float, ...]]:
    """Vertices of the closed region, for up to three relays.

    Brute force: solve every choice of `dim` hyperplanes drawn from the
    constraint planes and the coordinate planes, keep solutions satisfying
    all closed constraints within tolerance, deduplicate, and sort by the
    coordinates as printed (`fmt12`), so rounding noise cannot reorder them.
    """
    nodes = sorted(relays)
    dim = len(nodes)
    if dim > MAX_VERTEX_DIM:
        raise DimensionTooHighError(
            f"vertex enumeration supports up to {MAX_VERTEX_DIM} relays, got {dim}"
        )

    rows = [(hs.indicator(nodes), hs.rhs) for hs in halfspaces]
    planes = rows + [(np.eye(dim)[j], 0.0) for j in range(dim)]

    a_all = np.array([r for r, _ in rows])
    b_all = np.array([b for _, b in rows])

    found: list[np.ndarray] = []
    for combo in combinations(planes, dim):
        a = np.array([r for r, _ in combo])
        b = np.array([v for _, v in combo])
        try:
            point = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(point)):
            continue
        if np.any(point < -VERTEX_TOL):
            continue
        if np.any(a_all @ point > b_all + VERTEX_TOL):
            continue
        point = np.where(np.abs(point) < 1e-12, 0.0, point)
        if not any(np.max(np.abs(point - q)) <= VERTEX_TOL for q in found):
            found.append(point)
    points = [tuple(float(v) for v in p) for p in found]
    return sorted(points, key=lambda p: tuple(map(fmt12, p)))


@dataclass(frozen=True)
class AtlasEntry:
    layering: Layering
    halfspaces: tuple[HalfSpace, ...]
    vertices: tuple[tuple[float, ...], ...] | None

    def to_json_obj(self) -> dict:
        obj: dict = {
            "layers": [sorted(layer) for layer in self.layering.layers],
            "halfspaces": [hs.to_json_obj() for hs in self.halfspaces],
        }
        if self.vertices is not None:
            obj["vertices"] = [[fmt12(v) for v in p] for p in self.vertices]
        return obj


@dataclass(frozen=True)
class Atlas:
    """Outer region plus every canonical layering's region for one channel."""

    channel_digest: str
    relays: tuple[int, ...]
    outer: tuple[HalfSpace, ...]
    outer_vertices: tuple[tuple[float, ...], ...] | None
    entries: tuple[AtlasEntry, ...]

    def to_json_obj(self) -> dict:
        return _atlas_json_obj(self.channel_digest, self.relays, self.outer, self.outer_vertices,
                               [e.to_json_obj() for e in self.entries])

    def dump(self, fh) -> None:
        """Write the JSON text to `fh` as it is encoded, without one big string.

        These are the bytes that `cflayers export` writes, which streams them
        from `export_atlas_json` without building an `Atlas`."""
        write_json(self.to_json_obj(), fh)

    def dumps(self) -> str:
        buf = io.StringIO()
        self.dump(buf)
        return buf.getvalue()


def _atlas_json_obj(digest: str, relays, outer, outer_vertices, layerings) -> dict:
    outer_obj: dict = {"halfspaces": [hs.to_json_obj() for hs in outer]}
    if outer_vertices is not None:
        outer_obj["vertices"] = [[fmt12(v) for v in p] for p in outer_vertices]
    return {
        "channel_digest": digest,
        "dimension": len(relays),
        "outer": outer_obj,
        "layerings": layerings,
    }


def channel_digest(joint: JointPmf) -> str:
    """Hash of the joint table and its variable layout."""
    h = hashlib.sha256()
    h.update(repr([(v.kind, v.node, v.size) for v in joint.variables]).encode())
    h.update(np.ascontiguousarray(joint.table))
    return h.hexdigest()


def check_atlas_limits(relays, with_vertices: bool) -> None:
    """Raise as an atlas of `relays` would, so a caller can check before it
    builds a table: TooManyRelaysError above MAX_ENUM_RELAYS relays, then,
    with vertices, DimensionTooHighError above MAX_VERTEX_DIM relays."""
    check_enumerable(relays)
    if with_vertices and len(relays) > MAX_VERTEX_DIM:
        raise DimensionTooHighError(
            f"vertices are available for up to {MAX_VERTEX_DIM} relays, got {len(relays)}"
        )


def _atlas_parts(joint: JointPmf, with_vertices: bool):
    """Check the inputs, hash the joint, then compute the outer region.  Returns
    the digest, the outer half-spaces, their vertices (None without
    `with_vertices`) and an iterator that computes each canonical layering's
    `AtlasEntry` when the next one is asked for.  Every cap is computed on the
    joint's relay table (`JointPmf.relay_joint`), which is all the iterator
    holds: the joint itself may be freed while the layerings are written."""
    relays = joint.relays
    check_atlas_limits(relays, with_vertices)  # before any rate cap
    layerings = enumerate_layerings(relays)

    def vertices(halfspaces):
        return tuple(enumerate_vertices(halfspaces, relays)) if with_vertices else None

    digest = channel_digest(joint)
    relay = joint.relay_joint()

    def entries():
        for layering in layerings:
            halfspaces = h_rep(relay, layering)
            yield AtlasEntry(layering, halfspaces, vertices(halfspaces))

    outer = outer_h_rep(relay)
    return digest, outer, vertices(outer), entries()


def export_atlas(joint: JointPmf, with_vertices: bool = False) -> Atlas:
    """Build the full atlas; vertex lists require at most three relays."""
    digest, outer, outer_vertices, entries = _atlas_parts(joint, with_vertices)
    return Atlas(digest, joint.relays, outer, outer_vertices, tuple(entries))


def export_atlas_json(joint: JointPmf, with_vertices: bool = False) -> dict:
    """`export_atlas(joint, with_vertices).to_json_obj()` with its "layerings"
    list as an iterator: `write_json` writes each layering's block as soon as
    its caps are computed, so no entry or block of the atlas is held.  Every
    input check, and the outer region, runs before this returns."""
    digest, outer, outer_vertices, entries = _atlas_parts(joint, with_vertices)
    return _atlas_json_obj(digest, joint.relays, outer, outer_vertices,
                           map(AtlasEntry.to_json_obj, entries))
