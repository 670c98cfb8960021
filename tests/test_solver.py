"""Shift iteration, certified-core bookkeeping, and brute-force cross-checks."""

import numpy as np
import pytest

import cflayers as cf
from cflayers.layering import make_layering, parse_layering

from conftest import (SYMMETRIC_FAMILIES, greedy_vertices, order_vertices, random_spec,
                      sample_outer_point, symmetric_family, usable_demo_channels)

# Interior point of the seed-3 three-relay demo channel that needs two shifts
# from the single-layer start (found by search, outer slack ~1.1e-3).
TWO_SHIFT_RATES = {2: 0.001247, 3: 0.004811, 4: 0.001462}


def zero_rates(joint):
    return cf.RateVector({i: 0.0 for i in joint.relays})


class TestSolveBasics:
    def test_zero_rates_accepts_immediately(self, demo2):
        caps = [
            cf.layered_rhs(demo2, make_layering([demo2.relay_set]), s)
            for s in cf.region.subsets_by_mask(demo2.relay_set)
        ]
        assert min(caps) > 1e-9
        layering, trace = cf.solve(demo2, zero_rates(demo2))
        assert trace.shifts == 0
        assert trace.status == "achieved"
        assert layering == make_layering([{2, 3}])

    def test_single_relay_collapses_to_outer(self):
        rng = np.random.default_rng(21)
        for seed in range(10):
            joint = cf.build_joint(cf.demo_spec(1, 400 + seed))
            cap = cf.boundary_rhs(joint, {2})
            for rate in (0.0, cap * 0.5, cap * 0.99, cap + 0.01):
                rates = cf.RateVector({2: rate})
                member = cf.check_outer(joint, rates).is_member
                if member:
                    layering, trace = cf.solve(joint, rates)
                    assert trace.shifts == 0
                    assert layering == make_layering([{2}])
                else:
                    with pytest.raises(cf.NotConvergedError):
                        cf.solve(joint, rates, max_iter=8)

    def test_negative_rates_rejected(self, demo2):
        with pytest.raises(cf.InvalidRatesError):
            cf.solve(demo2, cf.RateVector({2: -0.01, 3: 0.0}))

    def test_nan_rates_rejected_before_any_shift(self, demo2):
        with pytest.raises(cf.InvalidRatesError):
            cf.solve(demo2, cf.RateVector({2: float("nan"), 3: 0.0}))

    def test_nan_epsilon_rejected(self, demo2):
        with pytest.raises(ValueError, match="epsilon"):
            cf.solve(demo2, zero_rates(demo2), epsilon=float("nan"))

    def test_inputs_checked_once(self, monkeypatch):
        # each step's report reads the rates and epsilon that solve checked first
        joint = cf.build_joint(cf.demo_spec(3, 3))
        rates = cf.RateVector(TWO_SHIFT_RATES)
        checked = {"rates": 0, "epsilon": 0}
        check_for, as_epsilon = cf.RateVector.check_for, cf.region._as_epsilon

        def checking(name, check):
            def wrapped(*args):
                checked[name] += 1
                return check(*args)
            return wrapped

        monkeypatch.setattr(cf.RateVector, "check_for", checking("rates", check_for))
        monkeypatch.setattr(cf.region, "_as_epsilon", checking("epsilon", as_epsilon))
        monkeypatch.setattr(cf.solver, "_as_epsilon", cf.region._as_epsilon)
        _, trace = cf.solve(joint, rates)
        assert trace.shifts == 2 and checked == {"rates": 1, "epsilon": 1}

    def test_max_iter_is_an_integer(self, demo2):
        # True used to run as 1, and 2.5 to fail in `range` with a bare TypeError
        for max_iter in (True, False, 2.5, 2.0, np.float64(2.0), "2"):
            with pytest.raises(ValueError, match="^max_iter must be at least 1$"):
                cf.solve(demo2, zero_rates(demo2), max_iter=max_iter)
        for max_iter in (1, np.int64(1), np.uint8(1)):
            assert cf.solve(demo2, zero_rates(demo2), max_iter=max_iter)[1].status == "achieved"


def over_singleton_caps(joint, over):
    """Rates at 1.01x the singleton outer cap for the relays in `over`, 1e-4 elsewhere."""
    return cf.RateVector(
        {i: 1.01 * cf.boundary_rhs(joint, {i}) if i in over else 1e-4 for i in joint.relays}
    )


class TestNeverAcceptingWalks:
    # each target lies outside the outer region: without a stop rule the walk
    # would run all 16 * 2^n shifts of `max_iter`

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_relay_over_stops_at_the_first_repeat(self, n):
        joint = cf.build_relay_joint(cf.demo_spec(n, 7))
        with pytest.raises(cf.NotConvergedError, match="never accepts") as err:
            cf.solve(joint, over_singleton_caps(joint, joint.relays))
        # shifting every relay and stripping the leading empty layer returns the start
        trace = err.value.trace
        assert [step.layering for step in trace.steps] == [make_layering([joint.relay_set])]
        assert trace.steps[0].chosen == joint.relay_set
        assert trace.status == "not_converged"

    @pytest.mark.parametrize("n", [4, 5])
    def test_one_relay_over_stops_when_only_a_gap_widens(self, n):
        joint = cf.build_relay_joint(cf.demo_spec(n, 7))
        with pytest.raises(cf.NotConvergedError, match=r"\|\|\|2 has the caps") as err:
            cf.solve(joint, over_singleton_caps(joint, {2}))
        layerings = [step.layering for step in err.value.trace.steps]
        assert len(layerings) <= n
        assert len(set(layerings)) == len(layerings)
        assert layerings[-1].layers[-2:] == (frozenset(), frozenset({2}))


class TestTwoShiftInstance:
    @pytest.fixture()
    def instance(self, demo3):
        return demo3, cf.RateVector(TWO_SHIFT_RATES)

    def test_is_interior(self, instance):
        joint, rates = instance
        assert cf.check_outer(joint, rates).min_slack >= 1e-3

    def test_two_shifts_then_accept(self, instance):
        joint, rates = instance
        layering, trace = cf.solve(joint, rates)
        assert trace.shifts == 2
        assert layering == parse_layering("2,4|3")
        assert cf.check_layered(joint, layering, rates).is_member
        assert not trace.degenerate

    def test_core_recurrence_and_certification(self, instance):
        joint, rates = instance
        _, trace = cf.solve(joint, rates)
        relays = joint.relay_set
        assert trace.steps[0].core == frozenset()
        for prev, nxt in zip(trace.steps, trace.steps[1:]):
            assert nxt.core == (relays - prev.chosen) | prev.core
            assert prev.core <= nxt.core
            assert cf.verify_core(joint, nxt.layering, nxt.core, rates).certified

    def test_iteration_guard(self, instance):
        joint, rates = instance
        with pytest.raises(cf.NotConvergedError) as err:
            cf.solve(joint, rates, max_iter=1)
        trace = err.value.trace
        assert trace.status == "not_converged"
        assert trace.shifts == 1
        assert len(trace.steps) == 2

    def test_trace_json_shape(self, instance):
        joint, rates = instance
        _, trace = cf.solve(joint, rates)
        records = trace.to_json_obj()
        assert [r["iteration"] for r in records] == list(range(len(records)))
        for r in records[:-1]:
            assert set(r) == {"iteration", "layering", "violators", "U", "Z", "min_slack"}
        assert records[-1]["status"] == "achieved"
        assert records[-1]["U"] is None


class TestBruteForce:
    def test_zero_rates_every_layering(self, demo2):
        for lay in cf.enumerate_layerings(demo2.relay_set):
            caps = [
                cf.layered_rhs(demo2, lay, s)
                for s in cf.region.subsets_by_mask(demo2.relay_set)
            ]
            assert min(caps) > 1e-9
        found = cf.brute_force_layering(demo2, zero_rates(demo2))
        assert len(found) == 3

    def test_outside_outer_finds_nothing(self, demo2):
        rng = np.random.default_rng(22)
        caps = {i: cf.boundary_rhs(demo2, frozenset({i})) for i in demo2.relays}
        checked = 0
        for _ in range(200):
            rates = cf.RateVector(
                {i: rng.uniform(0, 2.0 * caps[i]) for i in demo2.relays}
            )
            if cf.check_outer(demo2, rates).is_member:
                continue
            checked += 1
            assert cf.brute_force_layering(demo2, rates) == []
        assert checked > 20

    def test_single_relay(self):
        joint = cf.build_joint(cf.demo_spec(1, 3))
        cap = cf.boundary_rhs(joint, {2})
        accept = cf.brute_force_layering(joint, cf.RateVector({2: cap / 2}))
        assert accept == [make_layering([{2}])]
        assert cf.brute_force_layering(joint, cf.RateVector({2: cap + 0.01})) == []

    def test_relay_cap(self, seven_relays):
        with pytest.raises(cf.TooManyRelaysError):
            cf.brute_force_layering(seven_relays, zero_rates(seven_relays))

    def test_relay_cap_before_any_entropy(self, seven_relays, no_entropy):
        with pytest.raises(cf.TooManyRelaysError, match="enumeration cap of 6"):
            cf.brute_force_layering(seven_relays, zero_rates(seven_relays))

    def test_relay_cap_before_epsilon(self, seven_relays, no_entropy):
        with pytest.raises(cf.TooManyRelaysError):
            cf.brute_force_layering(seven_relays, zero_rates(seven_relays), epsilon=-1.0)

    def test_rates_before_relay_cap(self, seven_relays, no_entropy):
        with pytest.raises(cf.InvalidRatesError):
            cf.brute_force_layering(seven_relays, cf.RateVector({2: 0.0}))

    def test_inputs_checked_once(self, monkeypatch):
        # 541 layerings at 5 relays: each report reads the inputs checked first
        # (542 rate checks before, one per layering and one up front)
        joint = cf.build_relay_joint(cf.demo_spec(5, 7))
        rates = zero_rates(joint)
        want = [lay for lay in cf.enumerate_layerings(joint.relay_set)
                if cf.check_layered(joint, lay, rates).is_member]
        checked = {"rates": 0, "epsilon": 0}
        check_for, as_epsilon = cf.RateVector.check_for, cf.region._as_epsilon

        def checking(name, check):
            def wrapped(*args):
                checked[name] += 1
                return check(*args)
            return wrapped

        monkeypatch.setattr(cf.RateVector, "check_for", checking("rates", check_for))
        monkeypatch.setattr(cf.region, "_as_epsilon", checking("epsilon", as_epsilon))
        monkeypatch.setattr(cf.solver, "_as_epsilon", cf.region._as_epsilon)
        assert cf.brute_force_layering(joint, rates) == want and len(want) == 541
        assert checked == {"rates": 1, "epsilon": 1}


class TestVerifyCore:
    def test_empty_core_vacuous(self, demo2):
        rates = cf.RateVector({2: 99.0, 3: 99.0})
        assert cf.verify_core(demo2, parse_layering("2|3"), frozenset(), rates).certified

    def test_full_core_for_member(self, demo2):
        report = cf.verify_core(
            demo2, make_layering([{2, 3}]), demo2.relay_set, zero_rates(demo2)
        )
        assert report.certified

    def test_reports_violating_subsets(self, demo2):
        lay = parse_layering("2|3")
        rates = cf.RateVector({2: cf.layered_rhs(demo2, lay, {2}) + 1.0, 3: 0.0})
        report = cf.verify_core(demo2, lay, demo2.relay_set, rates)
        assert not report.certified
        assert frozenset({2}) in report.violations

    def test_violations_in_core_bitmask_order(self, demo3):
        lay = parse_layering("2|3|4")
        rates = cf.RateVector({2: 5.0, 3: 0.0, 4: 5.0})
        report = cf.check_layered(demo3, lay, rates)
        assert report.entry({3}).satisfied
        for core in ({2, 3, 4}, {2, 4}, {3, 4}):
            want = tuple(
                s for s in cf.region.subsets_by_mask(core) if not report.entry(s).satisfied
            )
            assert len(want) >= 2
            assert cf.verify_core(demo3, lay, core, rates).violations == want
        assert cf.verify_core(demo3, lay, {2, 4}, rates).violations == (
            frozenset({2}), frozenset({4}), frozenset({2, 4})
        )


class TestGappedAcceptance:
    """Near facets the shift walk can accept on an interior-empty layering;
    the returned layering must then be the (also accepting) compaction."""

    # found by boundary-bisection search on the seed-3128 four-relay channel
    RATES = {
        2: 0.0006688105304038674,
        3: 0.0005096326429101172,
        4: 0.00103785733991897,
        5: 0.0016026826558199216,
    }

    @pytest.fixture()
    def instance(self):
        return cf.build_joint(cf.demo_spec(4, 3128)), cf.RateVector(self.RATES)

    def test_terminal_step_is_gapped_but_result_is_compact(self, instance):
        joint, rates = instance
        layering, trace = cf.solve(joint, rates)
        last = trace.steps[-1].layering
        assert any(not layer for layer in last.layers)  # walked onto a gap
        assert last == parse_layering("2||4,5|3")
        assert layering == parse_layering("2|4,5|3")
        assert all(layering.layers)
        assert cf.check_layered(joint, layering, rates).is_member
        assert cf.check_layered(joint, last, rates).is_member
        assert layering in cf.brute_force_layering(joint, rates)

    def test_compaction_widens_every_cap(self, instance):
        joint, _ = instance
        rng = np.random.default_rng(31)
        for _ in range(40):
            nodes = sorted(joint.relays)
            assign = rng.integers(0, len(nodes) + 3, size=len(nodes))
            layers = [set() for _ in range(int(assign.max()) + 1)]
            for node, l in zip(nodes, assign):
                layers[int(l)].add(node)
            gapped = cf.canonicalize(cf.make_layering(layers))
            packed = cf.compact(gapped)
            for s in cf.region.subsets_by_mask(joint.relay_set):
                assert cf.layered_rhs(joint, packed, s) >= (
                    cf.layered_rhs(joint, gapped, s) - 1e-9
                )


class TestRandomInstances:
    def test_mixed_alphabets_end_to_end(self):
        # nothing here is binary-specific; exercise alphabets of size 2..3
        rng = np.random.default_rng(55)
        solved = 0
        for _ in range(15):
            joint = cf.build_joint(random_spec(rng, n_relays=2, max_size=3))
            for s in cf.region.subsets_by_mask(joint.relay_set):
                gaps = cf.window_gap_forms(joint, s)
                assert max(gaps) - min(gaps) < 1e-9
            rates = sample_outer_point(joint, rng, delta=1e-4)
            if rates is None:
                continue
            layering, _ = cf.solve(joint, rates)
            assert cf.check_layered(joint, layering, rates).is_member
            assert layering in cf.brute_force_layering(joint, rates)
            solved += 1
        assert solved >= 10

    def test_interior_points_solve_and_match_brute_force(self):
        channels = usable_demo_channels(20, lambda k: 2 if k % 2 == 0 else 3, first_seed=600)
        for idx, (seed, joint) in enumerate(channels):
            rng = np.random.default_rng(10_000 + seed)
            rates = sample_outer_point(joint, rng)
            assert rates is not None
            layering, trace = cf.solve(joint, rates)
            assert trace.status == "achieved"
            assert not trace.degenerate  # violator unions themselves violated
            assert cf.check_layered(joint, layering, rates).is_member
            assert layering in cf.brute_force_layering(joint, rates)


class TestHardestTargets:
    """Targets just inside each vertex of the outer region, where the layered
    regions are tightest: (1 - delta) * v + delta * (mean of the vertices)."""

    # every vertex at 2-4 relays; a seeded 20 of the 652 targets at 5 relays
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_outer_vertex_is_reached(self, n):
        """Each target is reached, and every step's core is certified.

        The witness is an observed property, not a theorem of the package: when
        the target's vertex v has no zero coordinate, `solve` returns a
        coarsening of the reversed order pn|...|p1 of some full order p1, ..., pn
        whose greedy vertex (`conftest.order_vertices`) is within VERTEX_TOL of
        v.  A vertex with a zero coordinate comes from a partial order and has
        no full-order witness: at 2 relays on "mixed" channels the outer caps
        tie and v = (0.531, 0) is accepted only by the forward order 2|3."""
        rng = np.random.default_rng(2209)
        longest = witnessed = 0
        for seed in (1, 7, 301) if n < 5 else (1,):
            joint = cf.build_relay_joint(cf.demo_spec(n, seed))
            nodes = sorted(joint.relays)
            halfspaces = cf.outer_h_rep(joint)
            # `enumerate_vertices` stops at 3 relays; the helper is checked against it
            vertices = np.array(cf.enumerate_vertices(halfspaces, nodes) if n <= 3
                                else greedy_vertices(halfspaces, nodes))
            orders = order_vertices(halfspaces, nodes)
            center = vertices.mean(axis=0)
            targets = [(v, (1 - delta) * v + delta * center)
                       for delta in (1e-2, 1e-4) for v in vertices]
            if n == 5:
                targets = [targets[k] for k in sorted(rng.choice(len(targets), 20, replace=False))]
            for vertex, target in targets:
                rates = cf.RateVector(dict(zip(nodes, map(float, target))))
                assert cf.check_outer(joint, rates).is_member
                layering, trace = cf.solve(joint, rates)
                assert trace.status == "achieved"
                for step in trace.steps:
                    assert cf.verify_core(joint, step.layering, step.core, rates).certified
                if n <= 3:  # at 4 relays the brute force checks 75 layerings a target
                    assert layering in cf.brute_force_layering(joint, rates)
                longest = max(longest, trace.shifts)
                if np.abs(vertex).min() > cf.geometry.VERTEX_TOL:
                    assert any(_coarsens(layering, order[::-1]) for order, point in orders
                               if np.abs(np.array(point) - vertex).max() <= cf.geometry.VERTEX_TOL
                               ), (seed, vertex, layering)
                    witnessed += 1
        assert witnessed
        print(f"{n} relays: at most {longest} shifts to a target next to an outer vertex, "
              f"{witnessed} full-order witnesses")

    def test_fallback_pick_is_common_at_four_relays(self):
        # no numerical edge: 251 of 390 near-vertex solves at 4 relays take it
        joint = cf.build_relay_joint(cf.demo_spec(4, 7))
        nodes = sorted(joint.relays)
        vertices = np.array(greedy_vertices(cf.outer_h_rep(joint), nodes))
        center = vertices.mean(axis=0)
        rng = np.random.default_rng(2209)
        fallbacks = 0
        for v in vertices[sorted(rng.choice(len(vertices), 8, replace=False))]:
            rates = cf.RateVector(dict(zip(nodes, map(float, 0.99 * v + 0.01 * center))))
            _, trace = cf.solve(joint, rates)
            assert trace.status == "achieved"
            for step in trace.steps:
                if step.degenerate:  # the union of the violators satisfies its cap
                    union = frozenset().union(*step.report.violators)
                    assert step.report.entry(union).satisfied and step.chosen != union
                    assert cf.verify_core(joint, step.layering, step.core, rates).certified
                    fallbacks += 1
        assert fallbacks >= 1


def _coarsens(layering, order) -> bool:
    """`layering` is `order` cut into nonempty runs of neighbours, in that order."""
    start = 0
    for layer in layering.layers:
        if not layer or layer != frozenset(order[start:start + len(layer)]):
            return False
        start += len(layer)
    return start == len(order)


STRUCTURED = [(family, n) for family in SYMMETRIC_FAMILIES for n in range(1, 5)
              if family != "mixed" or n >= 2]


class TestStructuredTargets:
    """The hardest targets on channels of binary symmetric pieces, whose factors
    hold exact zeros and tied entries, on the joint `build_joint` multiplies."""

    @pytest.mark.parametrize("family, n", STRUCTURED)
    def test_every_outer_vertex_is_reached(self, family, n):
        joint = cf.build_joint(symmetric_family(family, n))
        nodes = sorted(joint.relays)
        halfspaces = cf.outer_h_rep(joint)
        vertices = np.array(cf.enumerate_vertices(halfspaces, nodes) if n <= 3
                            else greedy_vertices(halfspaces, nodes))
        if min(hs.rhs for hs in halfspaces) <= 0.0:
            # "useless": no Y_i tells anything of X1, every cap is 0 and the region
            # is the origin, which the strict margin leaves out
            assert family == "useless" and not vertices.any()
            assert not cf.check_outer(joint, cf.RateVector(dict.fromkeys(nodes, 0.0))).is_member
            return
        assert len(vertices) > n  # an interior
        center = vertices.mean(axis=0)
        for target in (0.99 * v + 0.01 * center for v in vertices):
            rates = cf.RateVector(dict(zip(nodes, map(float, target))))
            assert cf.check_outer(joint, rates).is_member
            layering, trace = cf.solve(joint, rates)
            assert trace.status == "achieved"
            for step in trace.steps:
                assert cf.verify_core(joint, step.layering, step.core, rates).certified
            if n <= 3:
                assert layering in cf.brute_force_layering(joint, rates)
