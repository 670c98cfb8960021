"""H-representations, vertex enumeration, and the atlas export."""

import json

import numpy as np
import pytest

import cflayers as cf
from cflayers.geometry import HalfSpace, enumerate_vertices
from cflayers.region import subsets_by_mask

from conftest import greedy_vertices, random_spec
from test_probability import unit_spec


def feasible_grid(halfspaces, relays, step):
    """Rasterize the closed region on an axis-aligned grid of the given step."""
    nodes = sorted(relays)
    caps = {}
    for hs in halfspaces:
        if len(hs.subset) == 1:
            caps[next(iter(hs.subset))] = hs.rhs
    axes = [np.arange(0.0, caps[i] + step, step) for i in nodes]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    a = np.array([hs.indicator(nodes) for hs in halfspaces])
    b = np.array([hs.rhs for hs in halfspaces])
    keep = np.all(pts @ a.T <= b + 1e-9, axis=1)
    return pts[keep]


class TestHRep:
    def test_subset_count_and_indicators(self, demo2):
        hs = cf.h_rep(demo2, cf.parse_layering("2|3"))
        assert [sorted(h.subset) for h in hs] == [[2], [3], [2, 3]]
        assert list(hs[2].indicator([2, 3])) == [1.0, 1.0]

    def test_deterministic_channel_all_zero(self):
        joint = cf.build_joint(unit_spec(p_x1=(1, 0), p_x2=(1, 0), channel="point"))
        for h in cf.h_rep(joint, cf.make_layering([{2}])):
            assert h.rhs == pytest.approx(0.0, abs=1e-12)

    def test_values_match_rate_caps(self):
        # every path to a cap takes the same entropies in the same order,
        # so the numbers agree bit for bit, not just within a tolerance
        rng = np.random.default_rng(40)
        specs = [
            spec
            for n_relays in (2, 3, 4)
            for spec in (cf.demo_spec(n_relays, 7), random_spec(rng, n_relays, max_size=3))
        ]
        for joint in map(cf.build_relay_joint, specs):
            zero = cf.RateVector({i: 0.0 for i in joint.relays})
            subsets = list(subsets_by_mask(joint.relay_set))
            for lay in cf.enumerate_layerings(joint.relay_set):
                hs = cf.h_rep(joint, lay)
                entries = cf.check_layered(joint, lay, zero).entries
                assert [h.subset for h in hs] == [e.subset for e in entries] == subsets
                assert [h.rhs for h in hs] == [e.rhs for e in entries] == [
                    cf.layered_rhs(joint, lay, s) for s in subsets
                ]
            hs = cf.outer_h_rep(joint)
            entries = cf.check_outer(joint, zero).entries
            assert [h.subset for h in hs] == [e.subset for e in entries] == subsets
            assert [h.rhs for h in hs] == [e.rhs for e in entries] == [
                cf.boundary_rhs(joint, s) for s in subsets
            ]


class TestVertices:
    def test_simplex(self):
        c = 0.75
        hs = [
            HalfSpace(frozenset({2}), c),
            HalfSpace(frozenset({3}), c),
            HalfSpace(frozenset({2, 3}), c),
        ]
        verts = enumerate_vertices(hs, [2, 3])
        assert verts == [(0.0, 0.0), (0.0, c), (c, 0.0)]

    def test_empty_region_is_origin(self):
        hs = [
            HalfSpace(frozenset({2}), 0.0),
            HalfSpace(frozenset({3}), 0.0),
            HalfSpace(frozenset({2, 3}), 0.0),
        ]
        assert enumerate_vertices(hs, [2, 3]) == [(0.0, 0.0)]

    def test_dimension_cap(self):
        hs = [HalfSpace(frozenset({i}), 1.0) for i in (2, 3, 4, 5)]
        with pytest.raises(cf.DimensionTooHighError):
            enumerate_vertices(hs, [2, 3, 4, 5])

    def test_vertex_sanity(self, demo2, demo3):
        for joint in (demo2, demo3):
            nodes = sorted(joint.relays)
            hs = cf.outer_h_rep(joint)
            a = np.array([h.indicator(nodes) for h in hs])
            b = np.array([h.rhs for h in hs])
            for v in enumerate_vertices(hs, nodes):
                point = np.array(v)
                assert np.all(point >= -1e-9)
                assert np.all(a @ point <= b + 1e-9)
                # count active hyperplanes (constraints + coordinate planes)
                tight = int(np.sum(np.abs(a @ point - b) <= 1e-9))
                tight += int(np.sum(np.abs(point) <= 1e-9))
                assert tight >= len(nodes)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_greedy_helper_matches(self, n):
        # the test helper that lists vertices past MAX_VERTEX_DIM, checked where both run
        for seed in (1, 7, 301):
            joint = cf.build_relay_joint(cf.demo_spec(n, seed))
            nodes = sorted(joint.relays)
            regions = [cf.outer_h_rep(joint)]
            regions += [cf.h_rep(joint, lay) for lay in cf.enumerate_layerings(nodes)]
            for hs in regions:
                want = np.array(enumerate_vertices(hs, nodes))
                got = np.array(greedy_vertices(hs, nodes))
                assert got.shape == want.shape
                gap = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
                assert gap.min(axis=1).max() <= cf.geometry.VERTEX_TOL

    def test_matches_grid_rasterization(self, demo2):
        """Support function of the vertex hull equals the grid's within one step."""
        hs = cf.outer_h_rep(demo2)
        verts = np.array(enumerate_vertices(hs, [2, 3]))
        grid = feasible_grid(hs, [2, 3], step=1e-3)
        assert len(grid) > 0
        for theta in np.linspace(0, 2 * np.pi, 72, endpoint=False):
            direction = np.array([np.cos(theta), np.sin(theta)])
            sup_v = float(np.max(verts @ direction))
            sup_g = float(np.max(grid @ direction))
            assert sup_g <= sup_v + 1e-9  # grid points sit inside the hull
            assert sup_v - sup_g <= 2.5e-3  # and reach every face within a step


class TestAtlas:
    def test_two_relay_has_three_entries(self, demo2):
        atlas = cf.export_atlas(demo2)
        assert len(atlas.entries) == 3
        assert atlas.to_json_obj()["dimension"] == 2

    def test_three_relay_has_thirteen_entries(self, demo3):
        assert len(cf.export_atlas(demo3).entries) == 13

    def test_single_relay_entry_equals_outer(self):
        joint = cf.build_joint(cf.demo_spec(1, 3))
        atlas = cf.export_atlas(joint)
        assert len(atlas.entries) == 1
        for inner, outer in zip(atlas.entries[0].halfspaces, atlas.outer):
            assert inner.subset == outer.subset
            assert inner.rhs == pytest.approx(outer.rhs, abs=1e-9)

    def test_byte_identical_exports(self, demo2):
        a = cf.export_atlas(demo2, with_vertices=True).dumps()
        b = cf.export_atlas(demo2, with_vertices=True).dumps()
        assert a == b

    def test_vertices_only_when_requested(self, demo2):
        obj = cf.export_atlas(demo2).to_json_obj()
        assert "vertices" not in obj["outer"]
        obj = cf.export_atlas(demo2, with_vertices=True).to_json_obj()
        assert "vertices" in obj["outer"]
        assert all("vertices" in entry for entry in obj["layerings"])

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [1, 7, 11, 30])
    def test_printed_vertex_lists_sorted(self, n, seed):
        # vertices whose first coordinates agree to ~1e-16 used to be ordered
        # by that noise: 2|3|4 on demo_spec(3, 7) printed them out of order
        atlas = cf.export_atlas(cf.build_joint(cf.demo_spec(n, seed)), with_vertices=True)
        obj = json.loads(atlas.dumps())
        for vertices in [obj["outer"]["vertices"]] + [e["vertices"] for e in obj["layerings"]]:
            assert vertices == sorted(vertices)

    def test_vertices_capped_at_three_relays(self):
        joint = cf.build_joint(cf.demo_spec(4, 0))
        cf.export_atlas(joint)  # h-reps alone are fine
        with pytest.raises(cf.DimensionTooHighError):
            cf.export_atlas(joint, with_vertices=True)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 7, 301])
    def test_rhs_equal_the_check_rhs(self, n, seed):
        # the exported caps come from the relay table that `check` builds, bit for bit
        spec = cf.demo_spec(n, seed)
        atlas = cf.export_atlas(cf.build_joint(spec))
        relay = cf.build_relay_joint(spec)
        rates = cf.RateVector({i: 0.0 for i in relay.relays})
        for layering, halfspaces in [(None, atlas.outer)] + [
                (e.layering, e.halfspaces) for e in atlas.entries]:
            report = (cf.check_outer(relay, rates) if layering is None
                      else cf.check_layered(relay, layering, rates))
            assert [hs.rhs for hs in halfspaces] == [e.rhs for e in report.entries]
            assert [hs.subset for hs in halfspaces] == [e.subset for e in report.entries]

    @pytest.mark.parametrize("with_vertices", [False, True])
    def test_relay_cap_before_any_entropy(self, seven_relays, no_entropy, with_vertices):
        with pytest.raises(cf.TooManyRelaysError, match="enumeration cap of 6"):
            cf.export_atlas(seven_relays, with_vertices=with_vertices)


class TestCoverProperty:
    def test_three_relay_grid(self):
        """Interior points of the outer region fall in some layering's region."""
        for seed in (51, 52):
            joint = cf.build_joint(cf.demo_spec(3, seed))
            nodes = sorted(joint.relays)
            subsets = list(subsets_by_mask(joint.relay_set))
            a = np.array([[1.0 if i in s else 0.0 for i in nodes] for s in subsets])
            b_outer = np.array([cf.boundary_rhs(joint, s) for s in subsets])
            caps = [cf.boundary_rhs(joint, frozenset({i})) for i in nodes]
            axes = [np.linspace(0, c, 20) for c in caps]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            sums = pts @ a.T
            inside = np.all(b_outer - sums > 1e-3, axis=1)
            covered = np.zeros(len(pts), dtype=bool)
            for lay in cf.enumerate_layerings(joint.relay_set):
                rhs = np.array([cf.layered_rhs(joint, lay, s) for s in subsets])
                covered |= np.all(rhs - sums > 1e-9, axis=1)
            assert not np.any(inside & ~covered)
            assert inside.sum() > 0
