"""Rate caps, membership reports, floors, and the window identities."""

import io
import json
import re
import sys
from decimal import Decimal
from functools import partial

import numpy as np
import pytest

import cflayers as cf
from cflayers.layering import canonicalize, make_layering, parse_layering
from cflayers.region import subsets_by_mask

from _factor_oracle import FactorOracle
from _oracle import brute_force_joint, cond_entropy, entropy, variable_labels
from conftest import (greedy_vertices, order_vertices, random_layering, random_spec,
                      random_subset, sample_outer_point)
from test_probability import unit_spec
from test_solver import TWO_SHIFT_RATES

# Frozen oracle values for the seed-7 two-relay demo channel.
H_STAGE1_L23_S23 = 1.723535028197186  # H(X3 Yh2 | X2 Y4)
LAYERED_2BAR3_S3 = 0.01364665832590306
BOUNDARY_S2 = 0.023359585435827057
SOURCE_RATE = 0.009889043840777507
FLOOR_2 = 0.0324502528767277
FLOOR_3 = 0.011192202946583619
MI_GAP_S2 = -0.009090667440902027
WINDOW_S23 = -0.012758565184144244
MIN_LAYERED_SINGLE = 0.01293434025689233  # min subset cap of the one-layer layering


# Rate files of the wrong shape: each is an input error, never a crash.
MISTYPED_RATE_FILES = [
    '{"rates": [0.1, 0.2]}',
    '{"rates": 5}',
    "[1]",
    '{"rates": {"2": null, "3": 0.1}}',
    '{"rates": {"2": [1], "3": 0.1}}',
    '{"rates": {"2": true, "3": 0.1}}',
    '{"rates": {"2": 0.1, "3": "0.001"}}',
    '{"levels": {"2": 0.1}}',
    # keys that alias a relay, or repeat, used to keep whichever came last
    '{"rates": {"2": 0.001, "02": 9.0, "3": 0.001}}',
    '{"rates": {"2": 0.001, " +3 ": 0.001}}',
    '{"rates": {"2": 0.001, "\\u0663": 0.001}}',
    '{"rates": {"2": 0.001, "2": 9.0, "3": 0.001}}',
    # "rates" is a map; a list of pairs could repeat a node, too
    '{"rates": [["2", 0.001], ["2", 9], ["3", 0.001]]}',
    '{"rates": [["2", 0.001], ["3", 0.001]]}',
]


def joint_indicator(nodes, subset):
    """The 0/1 vector of `subset` over the sorted relay `nodes`."""
    return np.array([float(i in subset) for i in nodes])


def zero_rates(joint):
    return cf.RateVector({i: 0.0 for i in joint.relays})


@pytest.fixture(scope="module")
def deterministic_joint():
    return cf.build_joint(unit_spec(p_x1=(1, 0), p_x2=(1, 0), channel="point"))


@pytest.fixture(scope="module")
def independent_joint():
    # X1, X2 uniform; (Y2, Y3) uniform noise; Yh2 pinned: everything independent
    return cf.build_joint(unit_spec(p_x1=(0.5, 0.5)))


class TestRateVector:
    def test_subset_sum(self):
        rv = cf.RateVector({2: 0.25, 3: 0.5})
        assert rv.subset_sum({2, 3}) == pytest.approx(0.75)
        assert rv.subset_sum(frozenset()) == 0.0

    def test_subset_sum_adds_in_ascending_node_order(self):
        # the frozenset iterates 8, 4, 6, and `sum` over it gave 0.7
        rv = cf.RateVector({4: 0.1, 6: 0.2, 8: 0.4})
        want = ((0 + 0.1) + 0.2) + 0.4
        assert want == 0.7000000000000001
        for nodes in (frozenset({4, 6, 8}), [4, 6, 8], [8, 6, 4]):
            assert rv.subset_sum(nodes) == want

    def test_subset_sum_is_uncompensated(self):
        # Python 3.12's `sum` compensates and gives 0.6 here
        rv = cf.RateVector({2: 0.1, 3: 0.2, 4: 0.3, 5: 1e-17})
        assert rv.subset_sum({2, 3, 4, 5}) == ((0.1 + 0.2) + 0.3) + 1e-17 == 0.6000000000000001

    def test_subset_sum_of_negative_zero_is_zero(self):
        total = cf.RateVector({2: -0.0, 3: -0.0}).subset_sum({2, 3})
        assert total == 0.0 and str(total) == "0.0"

    @pytest.mark.parametrize("nodes, named", [({99}, "[99]"), ([2, 9, 99], "[9, 99]")])
    def test_subset_sum_of_foreign_nodes(self, nodes, named):
        with pytest.raises(cf.InvalidSubsetError, match=re.escape(f"nodes {named} have no rate")):
            cf.RateVector({2: 0.25, 3: 0.5}).subset_sum(nodes)

    def test_negative_rejected(self, demo2):
        with pytest.raises(cf.InvalidRatesError):
            cf.check_outer(demo2, cf.RateVector({2: -0.1, 3: 0.0}))

    def test_wrong_nodes_rejected(self, demo2):
        with pytest.raises(cf.InvalidRatesError):
            cf.check_outer(demo2, cf.RateVector({2: 0.0}))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, demo2, bad):
        with pytest.raises(cf.InvalidRatesError):
            cf.check_outer(demo2, cf.RateVector({2: bad, 3: 0.0}))

    def test_total_must_be_finite(self, demo2, no_entropy):
        rates = cf.RateVector({2: 1e308, 3: 1e308})
        with pytest.raises(cf.InvalidRatesError, match="finite"):
            cf.check_outer(demo2, rates)
        with pytest.raises(cf.InvalidRatesError, match="finite"):
            cf.check_layered(demo2, parse_layering("2|3"), rates)

    @pytest.mark.parametrize("rate", [np.float32(1e-3), np.float64(1e-3), np.int64(0)])
    def test_numpy_scalar_rates(self, demo2, rate):
        rates = {2: rate, 3: 0.001}
        report = cf.check_outer(demo2, cf.RateVector(rates))
        plain = cf.check_outer(demo2, cf.RateVector({i: float(r) for i, r in rates.items()}))
        assert report == plain
        assert type(cf.RateVector(rates).of(2)) is float

    def test_largest_finite_total_accepted(self, demo2):
        report = cf.check_outer(demo2, cf.RateVector({2: 1e308, 3: 7e307}))
        assert report.entry({2, 3}).rate_sum == 1e308 + 7e307
        assert not report.is_member

    @pytest.mark.parametrize("bad", [True, False, np.True_, "0.001", Decimal("0.001"), None,
                                     10**400])
    def test_non_number_rejected(self, bad):
        with pytest.raises(cf.InvalidRatesError, match="not a number|too large"):
            cf.RateVector({2: bad, 3: 0.001})

    @pytest.mark.parametrize(
        "rates", [{"02": 0.1, 3: 0.1}, {2: 0.1, "2": 0.2, 3: 0.1}, {True: 0.1}, {2.0: 0.1}]
    )
    def test_aliasing_key_rejected(self, rates):
        with pytest.raises(cf.InvalidRatesError, match="relay node|name relay 2"):
            cf.RateVector(rates)

    @pytest.mark.parametrize("pairs", [[(2, 0.1), (2, 9.0), (3, 0.1)], [(2, 0.1), (3, 0.1)]])
    def test_list_of_pairs_rejected(self, pairs):
        with pytest.raises(cf.InvalidRatesError, match="map relay nodes"):
            cf.RateVector(pairs)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1e-9])
    def test_bad_epsilon_rejected(self, demo2, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            cf.check_outer(demo2, zero_rates(demo2), epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            cf.check_layered(demo2, parse_layering("2|3"), zero_rates(demo2), epsilon)

    def test_epsilon_is_a_number(self, demo2):
        # a bool would be reported, and written to JSON, as true; a string used to
        # fail in `<=` with a bare TypeError
        for epsilon in (True, False, np.True_, "1", None):
            with pytest.raises(ValueError, match="^epsilon must be finite and nonnegative"):
                cf.check_outer(demo2, zero_rates(demo2), epsilon)
            with pytest.raises(ValueError, match="^epsilon must be finite and nonnegative"):
                cf.check_layered(demo2, parse_layering("2|3"), zero_rates(demo2), epsilon)
        for epsilon in (0, 1e-9, np.float32(1e-9), np.int64(0)):
            report = cf.check_outer(demo2, zero_rates(demo2), epsilon)
            assert report.epsilon == epsilon and report.is_member

    @pytest.mark.parametrize("epsilon", [np.float32(1e-9), np.float64(1e-9)])
    def test_numpy_epsilon_reports_are_written(self, demo3, epsilon):
        # a numpy epsilon used to be kept, so each verdict was a numpy bool and a
        # float32 report could be written neither by write_json nor by json.dumps
        rates = cf.RateVector(TWO_SHIFT_RATES)
        outer = cf.check_outer(demo3, rates, epsilon)
        layered = cf.check_layered(demo3, parse_layering("2,3,4"), rates, epsilon)
        _, trace = cf.solve(demo3, rates, epsilon=epsilon)
        assert trace.shifts == 2
        for report in [outer, layered] + [step.report for step in trace.steps]:
            assert type(report.epsilon) is float and report.epsilon == float(epsilon)
            assert all(type(e.satisfied) is bool for e in report.entries)
        for obj in (outer.to_json_obj(), layered.to_json_obj(), trace.to_json_obj()):
            out = io.StringIO()
            cf.probability.write_json(obj, out)
            assert out.getvalue() == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def test_epsilon_beyond_the_float_range(self, demo2):
        # 10**400 used to be accepted and written to JSON as a 401-digit integer
        for epsilon in (10**400, 2**1024):
            with pytest.raises(ValueError, match="^epsilon must be finite and nonnegative"):
                cf.check_outer(demo2, zero_rates(demo2), epsilon)
        report = cf.check_outer(demo2, zero_rates(demo2), 10**308)
        assert report.epsilon == 1e308 and not report.is_member

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "rates.json"
        path.write_text('{"rates": {"2": 0.125, "3": 0.25}}')
        rv = cf.load_rates(path)
        assert rv.of(2) == 0.125 and rv.of(3) == 0.25
        assert rv.to_json_obj() == {"rates": {"2": 0.125, "3": 0.25}}

    @pytest.mark.parametrize("text", MISTYPED_RATE_FILES)
    def test_mistyped_rate_file_rejected(self, tmp_path, text):
        path = tmp_path / "rates.json"
        path.write_text(text)
        with pytest.raises(cf.InvalidRatesError):
            cf.load_rates(path)

    def test_deeply_nested_file_rejected(self, tmp_path):
        path = tmp_path / "rates.json"
        path.write_text('{"rates": ' + "[" * 200_000)
        with pytest.raises(cf.InvalidRatesError, match="nested"):
            cf.load_rates(path)


class TestHTerm:
    def test_stage_zero_reduces_to_inputs(self, demo2):
        lay = parse_layering("2|3")
        for s in subsets_by_mask(demo2.relay_set):
            want = demo2.cond_entropy(
                demo2.xs(cf.active(lay, s, 0)),
                demo2.xs(cf.cumulative_complement(lay, s, 0)) | {demo2.yd},
            )
            assert cf.h_term(demo2, lay, s, 0) == pytest.approx(want, abs=1e-12)

    def test_top_stage_conditions_on_all_inputs(self, demo2):
        lay = parse_layering("2|3")
        s = frozenset({2, 3})
        want = demo2.cond_entropy(
            demo2.yhats(cf.active(lay, s, 1)),
            demo2.xs(demo2.relay_set)
            | demo2.yhats(cf.cumulative_complement(lay, s, 1))
            | {demo2.yd},
        )
        assert cf.h_term(demo2, lay, s, lay.depth) == pytest.approx(want, abs=1e-12)

    def test_demo_value_frozen(self, demo2):
        got = cf.h_term(demo2, parse_layering("2|3"), {2, 3}, 1)
        assert got == pytest.approx(H_STAGE1_L23_S23, abs=1e-9)

    def test_index_out_of_range(self, demo2):
        with pytest.raises(cf.IndexOutOfRangeError):
            cf.h_term(demo2, parse_layering("2|3"), {2}, 3)

    @pytest.mark.parametrize("text", ["2", "2|2,3"])
    def test_layering_must_partition_relays(self, demo2, text, no_entropy):
        with pytest.raises(cf.InvalidSubsetError, match="partition"):
            cf.h_term(demo2, parse_layering(text), {2}, 0)


class TestLayeredRhs:
    def test_deterministic_channel_is_zero(self, deterministic_joint):
        lay = make_layering([{2}])
        assert cf.layered_rhs(deterministic_joint, lay, {2}) == pytest.approx(0.0, abs=1e-12)

    def test_single_relay_equals_boundary(self):
        # staged sum telescopes: H(X2 Yh2|Y3) = H(X2|Y3) + H(Yh2|X2 Y3)
        spec = cf.demo_spec(1, 3)
        joint = cf.build_joint(spec)
        lay = make_layering([{2}])
        got = cf.layered_rhs(joint, lay, {2})
        assert got == pytest.approx(cf.boundary_rhs(joint, {2}), abs=1e-9)
        pmf = brute_force_joint(spec)
        labels = variable_labels(spec)
        pair = entropy(pmf, labels, ["X2", "Yh2"])
        split = cond_entropy(pmf, labels, ["X2"], ["Y3"]) + cond_entropy(
            pmf, labels, ["Yh2"], ["X2", "Y3"]
        )
        merged = cond_entropy(pmf, labels, ["X2", "Yh2"], ["Y3"])
        assert split == pytest.approx(merged, abs=1e-9)
        assert got == pytest.approx(pair - merged, abs=1e-9)

    def test_demo_value_frozen(self, demo2):
        got = cf.layered_rhs(demo2, parse_layering("2|3"), {3})
        assert got == pytest.approx(LAYERED_2BAR3_S3, abs=1e-9)

    def test_empty_subset(self, demo2):
        with pytest.raises(cf.EmptySubsetError):
            cf.layered_rhs(demo2, parse_layering("2|3"), frozenset())

    def test_subset_outside_layering(self, demo2):
        with pytest.raises(cf.InvalidSubsetError):
            cf.layered_rhs(demo2, make_layering([{2}]), {3})

    @pytest.mark.parametrize("text", ["2", "2|2,3"])
    def test_layering_must_partition_relays(self, demo2, text, no_entropy):
        # on this joint, "2" leaves relay 3 out and "2|2,3" places relay 2 twice
        with pytest.raises(cf.InvalidSubsetError, match="partition"):
            cf.layered_rhs(demo2, parse_layering(text), {2})

    def test_is_pair_sum_minus_h_chain_exactly(self):
        # the one-walk loop subtracts the same stages in the same order
        rng = np.random.default_rng(19)
        for n_relays in (2, 3, 4):
            joint = cf.build_joint(random_spec(rng, n_relays=n_relays, max_size=3))
            for _ in range(4):
                lay = random_layering(rng, joint.relay_set)
                for s in subsets_by_mask(joint.relay_set):
                    want = joint.pair_entropy_sum(s)
                    for l in range(lay.depth + 1):
                        want -= cf.h_term(joint, lay, s, l)
                    assert cf.layered_rhs(joint, lay, s) == want

    def test_full_subset_equals_boundary(self, demo2, demo3):
        # the staged sum for S = R telescopes to the outer block entropy
        for joint in (demo2, demo3):
            full = joint.relay_set
            for lay in cf.enumerate_layerings(full):
                assert cf.layered_rhs(joint, lay, full) == pytest.approx(
                    cf.boundary_rhs(joint, full), abs=1e-9
                )

    def test_nonnegative(self, demo3):
        rng = np.random.default_rng(11)
        for _ in range(100):
            lay = random_layering(rng, demo3.relay_set)
            s = random_subset(rng, demo3.relay_set)
            if not s:
                continue
            assert cf.layered_rhs(demo3, lay, s) >= -1e-9


class TestBoundaryRhs:
    def test_deterministic_channel_is_zero(self, deterministic_joint):
        assert cf.boundary_rhs(deterministic_joint, {2}) == pytest.approx(0.0, abs=1e-12)

    def test_fully_independent_is_zero(self, independent_joint):
        assert cf.boundary_rhs(independent_joint, {2}) == pytest.approx(0.0, abs=1e-12)

    def test_demo_value_frozen(self, demo2):
        assert cf.boundary_rhs(demo2, {2}) == pytest.approx(BOUNDARY_S2, abs=1e-9)

    def test_nonnegative(self, demo3):
        for s in subsets_by_mask(demo3.relay_set):
            assert cf.boundary_rhs(demo3, s) >= -1e-9

    def test_empty_subset(self, demo2):
        with pytest.raises(cf.EmptySubsetError):
            cf.boundary_rhs(demo2, frozenset())

    def test_subset_outside_relays(self, demo2, no_entropy):
        with pytest.raises(cf.InvalidSubsetError, match=r"\[9\]"):
            cf.boundary_rhs(demo2, {2, 9})


class TestRegionCaps:
    def test_returns_a_tuple_of_every_cap(self, demo2):
        lay = parse_layering("3|2")
        outer, staged = cf.region.region_caps(demo2, None), cf.region.region_caps(demo2, lay)
        assert isinstance(outer, tuple) and isinstance(staged, tuple)
        subsets = list(subsets_by_mask(demo2.relay_set))
        assert outer == tuple((s, cf.boundary_rhs(demo2, s)) for s in subsets)
        assert staged == tuple((s, cf.layered_rhs(demo2, lay, s)) for s in subsets)


class TestOuterCapsOnce:
    """The outer caps are computed once per joint and kept beside the entropy memo
    that it shares with its relay table; layered caps are computed on every call."""

    def test_second_check_makes_no_query_and_no_sum(self, monkeypatch, summed_sizes):
        joint = cf.build_joint(cf.demo_spec(4, 7))
        first = cf.check_outer(joint, zero_rates(joint))
        assert summed_sizes
        summed_sizes.clear()
        queries = []
        entropy = cf.JointPmf._entropy
        monkeypatch.setattr(cf.JointPmf, "_entropy",
                            lambda self, *args, **kwargs: queries.append(args)
                            or entropy(self, *args, **kwargs))
        second = cf.check_outer(joint, zero_rates(joint))
        assert second == first
        assert queries == [] and summed_sizes == []
        cf.check_layered(joint, parse_layering("2|3,4|5"), zero_rates(joint))
        assert queries  # not cached: read from the entropy memo again

    @pytest.mark.parametrize("case", ["root-first", "relay-first", "constructed"])
    def test_root_and_relay_joint_share_one_tuple(self, case):
        root = cf.build_joint(cf.demo_spec(3, 7))
        if case == "constructed":  # keeps the relay table it sums once
            root = cf.JointPmf(root.variables, root.table)
        joints = [root.relay_joint(), root] if case == "relay-first" else [root, root.relay_joint()]
        caps = cf.region.region_caps(joints[0], None)
        assert cf.region.region_caps(joints[1], None) is caps
        assert cf.region.region_caps(root.relay_joint(), None) is caps
        assert cf.outer_h_rep(joints[1]) == tuple(cf.HalfSpace(s, rhs) for s, rhs in caps)

    @pytest.mark.parametrize("make", [
        *(partial(cf.demo_spec, n, seed) for n in range(1, 8) for seed in (1, 7, 301)),
        *(partial(lambda n: random_spec(np.random.default_rng(n), n, max_size=3), n)
          for n in range(1, 5)),
    ])
    def test_vector_caps_are_the_formula(self, make):
        # pair sum, relays ascending, minus E[R] - E[R - S]: the caps of one subset at a time
        joint = cf.build_relay_joint(make())
        full = joint.relay_set
        want = tuple((s, joint.pair_entropy_sum(s) - cf.block_cond_entropy(joint, s, full - s))
                     for s in subsets_by_mask(full))
        assert cf.region.region_caps(cf.build_relay_joint(make()), None) == want

    @pytest.mark.parametrize("n, seed", [(2, 7), (4, 1), (5, 301)])
    def test_every_reader_agrees_bit_for_bit(self, n, seed, tmp_path, monkeypatch, capsys):
        spec = cf.demo_spec(n, seed)
        subsets = list(subsets_by_mask(spec.relay_nodes))
        alone = cf.build_relay_joint(spec)  # each subset's own cap by the formula: no tuple
        want = [alone.pair_entropy_sum(s) - cf.block_cond_entropy(alone, s, alone.relay_set - s)
                for s in subsets]
        assert not alone._outer_caps

        def readers(joint):
            return {
                "check_outer": [e.rhs for e in cf.check_outer(joint, zero_rates(joint)).entries],
                "outer_h_rep": [hs.rhs for hs in cf.outer_h_rep(joint)],
                "boundary_rhs": [cf.boundary_rhs(joint, s) for s in subsets],
            }

        assert readers(alone) == dict.fromkeys(["check_outer", "outer_h_rep", "boundary_rhs"],
                                               want)
        for name in ("check_outer", "outer_h_rep"):  # each one first on a fresh joint
            for joint in (cf.build_joint(spec), cf.build_relay_joint(spec)):
                assert readers(joint)[name] == want and joint._outer_caps
                assert readers(joint) == readers(alone)
        roots = []
        build = cf.region._build
        monkeypatch.setattr(cf.region, "_build",
                            lambda *args: roots.append(build(*args)) or roots[-1])
        spec.save(tmp_path / "chan.json")
        assert cf.cli.main(["floors", "--channel", str(tmp_path / "chan.json"),
                            "--format", "json"]) == 0
        printed = [e["boundary_rhs"] for e in json.loads(capsys.readouterr().out)["subsets"]]
        assert printed == [cf.region.fmt12(cap) for cap in want]
        (root,) = roots
        assert [cap for _, cap in cf.region.region_caps(root, None)] == want
        assert readers(root) == readers(alone)

    def test_threads_get_one_tuple(self):
        from concurrent.futures import ThreadPoolExecutor

        root = cf.build_joint(cf.demo_spec(4, 7))  # no cap or entropy computed yet

        def query(k):
            return cf.region.region_caps(root.relay_joint() if k % 2 else root, None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-walk
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(query, range(24), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 24 and all(caps is results[0] for caps in results)
        assert results[0] == cf.region.region_caps(cf.build_relay_joint(cf.demo_spec(4, 7)), None)


class TestMembership:
    def test_zero_rates_member(self, demo2):
        lay = make_layering([{2, 3}])
        caps = [cf.layered_rhs(demo2, lay, s) for s in subsets_by_mask(demo2.relay_set)]
        assert min(caps) == pytest.approx(MIN_LAYERED_SINGLE, abs=1e-9)
        assert min(caps) > 1e-9
        report = cf.check_layered(demo2, lay, zero_rates(demo2))
        assert report.is_member
        assert len(report.entries) == 3

    def test_forced_singleton_violation(self, demo2):
        lay = parse_layering("2|3")
        rates = cf.RateVector(
            {2: cf.layered_rhs(demo2, lay, {2}) + 1.0, 3: 0.0}
        )
        report = cf.check_layered(demo2, lay, rates)
        assert not report.is_member
        assert frozenset({2}) in report.violators

    def test_strictness_at_zero(self, deterministic_joint):
        lay = make_layering([{2}])
        report = cf.check_layered(deterministic_joint, lay, zero_rates(deterministic_joint))
        assert not report.is_member  # 0 < 0 fails

    def test_outer_zero_rates_member(self, demo2):
        report = cf.check_outer(demo2, zero_rates(demo2))
        assert report.min_slack > 1e-9
        assert report.is_member

    def test_outer_forced_violation(self, demo2):
        rates = cf.RateVector({2: cf.boundary_rhs(demo2, {2}) + 0.5, 3: 0.0})
        assert not cf.check_outer(demo2, rates).is_member

    def test_single_relay_outer_equals_layered(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            joint = cf.build_joint(cf.demo_spec(1, 300 + seed))
            lay = make_layering([{2}])
            for _ in range(10):
                rates = cf.RateVector(
                    {2: rng.uniform(0, 1.5 * cf.boundary_rhs(joint, {2}))}
                )
                outer = cf.check_outer(joint, rates)
                layered = cf.check_layered(joint, lay, rates)
                assert outer.is_member == layered.is_member

    def test_errors_in_order_before_any_entropy(self, demo2, no_entropy):
        # layering first, then rates, then epsilon; no entropy until all pass
        bad_rates = cf.RateVector({2: -1.0, 3: 0.0})
        with pytest.raises(cf.InvalidSubsetError):
            cf.check_layered(demo2, parse_layering("2"), bad_rates)
        with pytest.raises(cf.InvalidRatesError):
            cf.check_layered(demo2, parse_layering("2|3"), bad_rates, float("nan"))
        with pytest.raises(cf.InvalidRatesError):
            cf.check_outer(demo2, bad_rates, float("nan"))
        with pytest.raises(ValueError, match="epsilon"):
            cf.check_layered(demo2, parse_layering("2|3"), zero_rates(demo2), float("nan"))

    def test_layering_checked_once(self, demo2, monkeypatch):
        calls = []
        validate = cf.region.validate_layering
        monkeypatch.setattr(cf.region, "validate_layering",
                            lambda *args: calls.append(args) or validate(*args))
        cf.check_layered(demo2, parse_layering("2|3"), zero_rates(demo2))
        assert len(calls) == 1
        cf.check_outer(demo2, zero_rates(demo2))
        assert len(calls) == 1

    def test_partial_layering_rejected(self, demo2):
        with pytest.raises(cf.InvalidSubsetError):
            cf.check_layered(demo2, make_layering([{2}]), zero_rates(demo2))

    def test_report_json_sorted_by_mask(self, demo2):
        report = cf.check_outer(demo2, zero_rates(demo2))
        obj = report.to_json_obj()
        assert [e["subset"] for e in obj["subsets"]] == [[2], [3], [2, 3]]
        for e in obj["subsets"]:
            assert set(e) == {"subset", "rhs", "rate_sum", "slack", "satisfied"}

    def test_membership_downward_closed(self, demo2):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rates = sample_outer_point(demo2, rng, delta=1e-6)
            if rates is None:
                continue
            smaller = cf.RateVector(
                {i: rates.of(i) * rng.uniform(0, 1) for i in demo2.relays}
            )
            assert cf.check_outer(demo2, smaller).is_member
            lay = parse_layering("2|3")
            if cf.check_layered(demo2, lay, rates).is_member:
                assert cf.check_layered(demo2, lay, smaller).is_member


class TestLargestViolator:
    def test_member_gives_none(self, demo2):
        report = cf.check_layered(demo2, parse_layering("2|3"), zero_rates(demo2))
        assert cf.region.pick_violator(report) == (None, False)

    def test_single_violating_subset(self, demo2):
        lay = parse_layering("2|3")
        # push only the pair constraint over the edge: split its cap unevenly
        pair_cap = cf.layered_rhs(demo2, lay, {2, 3})
        r2 = cf.layered_rhs(demo2, lay, {2}) - 1e-4
        r3 = pair_cap - r2 + 1e-4
        if r3 < cf.layered_rhs(demo2, lay, {3}) - 1e-6:
            report = cf.check_layered(demo2, lay, cf.RateVector({2: r2, 3: r3}))
            assert report.violators == (frozenset({2, 3}),)
            u, degenerate = cf.region.pick_violator(report)
            assert u == {2, 3} and not degenerate

    def test_fallback_when_union_satisfies(self):
        # fabricated numerical edge: singletons violate but their union does
        # not, so the pick falls back to max cardinality / smallest mask
        from cflayers.region import ConstraintReport, pick_violator

        # caps and rate sums in bitmask order, as every report holds them
        report = ConstraintReport(
            kind="layered",
            epsilon=1e-9,
            caps=((frozenset({2}), -0.1), (frozenset({3}), -0.1), (frozenset({2, 3}), 0.2)),
            rate_sums=(0.0, 0.0, 0.0),
        )
        assert report.violators == (frozenset({2}), frozenset({3}))
        picked, degenerate = pick_violator(report)
        assert degenerate
        assert picked == frozenset({2})  # both violators have size 1; lowest mask

    def test_union_of_violators(self, demo2):
        lay = parse_layering("2|3")
        rates = cf.RateVector(
            {
                2: cf.layered_rhs(demo2, lay, {2}) + 1e-3,
                3: cf.layered_rhs(demo2, lay, {3}) + 1e-3,
            }
        )
        report = cf.check_layered(demo2, lay, rates)
        assert frozenset({2}) in report.violators
        assert frozenset({3}) in report.violators
        u, degenerate = cf.region.pick_violator(report)
        assert u == {2, 3} and not degenerate
        assert not report.entry(u).satisfied


class TestReportTuples:
    """A report keeps the caps of `region_caps` and one rate sum per subset, and
    builds its `SubsetConstraint` entries only when they are read."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_entries_match_caps_and_subset_sums(self, n):
        joint = cf.build_relay_joint(cf.demo_spec(n, 7))
        nodes = sorted(joint.relays)
        rng = np.random.default_rng(n)
        caps = cf.region.region_caps(joint, None)
        # distinct rates, near the singleton caps so that some subsets violate
        rates = cf.RateVector({i: float(rng.uniform(0.5, 1.2) * cap)
                               for (s, cap) in caps for i in s if len(s) == 1})
        layerings = cf.enumerate_layerings(nodes)
        if n == 5:
            layerings = [layerings[k] for k in sorted(rng.choice(len(layerings), 40, replace=False))]
        verdicts = set()
        for layering in [None, *layerings]:
            report = (cf.check_outer(joint, rates) if layering is None
                      else cf.check_layered(joint, layering, rates))
            want = [cf.region.SubsetConstraint(
                        s, cap, rates.subset_sum(s),
                        cap - rates.subset_sum(s) > cf.region.DEFAULT_EPSILON)
                    for s, cap in cf.region.region_caps(joint, layering)]
            assert len(report.entries) == len(want) == 2**n - 1
            for got, e in zip(report.entries, want):
                assert (got.subset, got.rhs, got.rate_sum, got.satisfied) == (
                    e.subset, e.rhs, e.rate_sum, e.satisfied)
                assert type(got.rate_sum) is float and type(got.satisfied) is bool
                assert report.entry(e.subset) == got
            assert report.violators == tuple(e.subset for e in want if not e.satisfied)
            assert report.min_slack == min(e.slack for e in want)
            verdicts.update(e.satisfied for e in want)
        assert verdicts == {True, False}

    def test_two_shift_solve_builds_no_subset_constraint(self, monkeypatch):
        joint = cf.build_relay_joint(cf.demo_spec(5, 7))
        rates = cf.RateVector({2: 0.000297, 3: 0.0005072, 4: 1.783e-05, 5: 0.0007567,
                               6: 6.239e-07})
        built = []
        init = cf.region.SubsetConstraint.__init__
        monkeypatch.setattr(cf.region.SubsetConstraint, "__init__",
                            lambda self, *args, **kwargs: built.append(args)
                            or init(self, *args, **kwargs))
        cf.check_outer(joint, rates)
        layering, trace = cf.solve(joint, rates)
        assert trace.shifts == 2 and layering == parse_layering("4,6|2,5|3")
        assert json.dumps(trace.to_json_obj())
        assert built == []
        assert len(trace.steps[0].report.entries) == 31 == len(built)  # counted when read

    def test_entry_of_a_non_subset_raises(self, demo2):
        report = cf.check_outer(demo2, zero_rates(demo2))
        for subset in ({9}, {2, 9}, set()):
            with pytest.raises(KeyError, match=re.escape(f"no entry for subset {sorted(subset)}")):
                report.entry(subset)

    def test_reports_compare_and_hash_by_value(self, demo3):
        rates = cf.RateVector(TWO_SHIFT_RATES)
        first, second = cf.check_outer(demo3, rates), cf.check_outer(demo3, rates)
        assert len(first.entries) == 7  # a cached read changes neither equality nor hash
        assert first == second and hash(first) == hash(second)
        assert first != cf.check_outer(demo3, rates, epsilon=1e-3)


class TestFloorsAndSourceRate:
    def test_constant_compression_floor_zero(self, independent_joint):
        assert cf.compression_floor(independent_joint)[2] == pytest.approx(0.0, abs=1e-12)

    def test_copy_compression_floor_one(self):
        joint = cf.build_joint(unit_spec(p_x1=(0.5, 0.5), yhat="copy"))
        assert cf.compression_floor(joint)[2] == pytest.approx(1.0, abs=1e-12)

    def test_demo_values_frozen(self, demo2):
        floors = cf.compression_floor(demo2)
        assert floors[2] == pytest.approx(FLOOR_2, abs=1e-9)
        assert floors[3] == pytest.approx(FLOOR_3, abs=1e-9)

    def test_source_rate_deterministic_source(self):
        joint = cf.build_joint(unit_spec(p_x1=(1, 0)))
        assert cf.source_rate(joint) == pytest.approx(0.0, abs=1e-12)

    def test_source_rate_independent_outputs(self, independent_joint):
        # X1 is uniform but the channel ignores it entirely
        assert cf.source_rate(independent_joint) == pytest.approx(0.0, abs=1e-9)

    def test_source_rate_demo_frozen(self, demo2):
        assert cf.source_rate(demo2) == pytest.approx(SOURCE_RATE, abs=1e-9)

    def test_source_rate_single_relay_form(self):
        joint = cf.build_joint(cf.demo_spec(1, 3))
        direct = joint.mutual_info(
            {joint.x1}, {joint.yhat(2), joint.yd}, {joint.x(2)}
        )
        assert cf.source_rate(joint) == pytest.approx(direct, abs=1e-12)


class TestWindowIdentities:
    def test_independent_constant_gaps_zero(self, independent_joint):
        assert cf.mi_gap(independent_joint, {2}) == pytest.approx(0.0, abs=1e-9)

    def test_demo_gaps_frozen(self, demo2):
        assert cf.mi_gap(demo2, {2}) == pytest.approx(MI_GAP_S2, abs=1e-9)

    def test_deterministic_all_zero(self, deterministic_joint):
        gaps = cf.window_gap_forms(deterministic_joint, {2})
        assert max(abs(g) for g in gaps) < 1e-9

    def test_demo_forms_agree_frozen(self, demo2):
        gaps = cf.window_gap_forms(demo2, {2, 3})
        assert max(gaps) - min(gaps) < 1e-9
        assert gaps[0] == pytest.approx(WINDOW_S23, abs=1e-9)

    def test_constant_compression_gap_is_boundary(self, independent_joint):
        gaps = cf.window_gap_forms(independent_joint, {2})
        assert gaps[0] == pytest.approx(
            cf.boundary_rhs(independent_joint, {2}), abs=1e-9
        )

    def test_floor_sum_adds_in_ascending_node_order(self):
        # a plain loop from 0, relays ascending, whatever order the subset iterates in
        rng = np.random.default_rng(3)
        floors = {i: float(rng.random() * 10.0 ** rng.integers(-6, 1)) for i in range(2, 9)}
        for s in subsets_by_mask(floors):
            want = 0
            for i in sorted(s):
                want += floors[i]
            assert cf.floor_sum(floors, s) == want

    def test_first_form_is_floor_window(self, demo3):
        floors = cf.compression_floor(demo3)
        for s in subsets_by_mask(demo3.relay_set):
            want = cf.boundary_rhs(demo3, s) - cf.floor_sum(floors, s)
            assert cf.window_gap_forms(demo3, s)[0] == pytest.approx(want, abs=1e-12)


class TestWindowSubsets:
    """The window and floor terms check their subset as the caps do, before any entropy."""

    @pytest.mark.parametrize("term", [cf.mi_gap, cf.window_gap_forms])
    def test_node_outside_relays(self, demo2, no_entropy, term):
        with pytest.raises(cf.InvalidSubsetError, match=r"nodes \[9\] are not relays"):
            term(demo2, {2, 9})

    @pytest.mark.parametrize("term, defined", [
        (cf.mi_gap, "the window condition is defined"),
        (cf.window_gap_forms, "window gaps are defined"),
    ])
    def test_empty_subset(self, demo2, no_entropy, term, defined):
        with pytest.raises(cf.EmptySubsetError, match=f"^{defined} for nonempty subsets$"):
            term(demo2, frozenset())

    @pytest.mark.parametrize("term", [
        lambda joint: cf.compression_floor(joint),
        lambda joint: cf.mi_gap(joint, {2}),
        lambda joint: cf.window_gap_forms(joint, {2, 3}),
    ])
    def test_joint_without_y_has_no_such_variable(self, term):
        # the relay joint keeps no Yi: the subset is fine, the variable is missing
        with pytest.raises(cf.UnknownVariableError, match="no variable y2 in this joint"):
            term(cf.build_relay_joint(cf.demo_spec(2, 7)))


class TestBlockEntropyChainRule:
    def test_split_and_merge(self, demo3):
        rng = np.random.default_rng(14)
        relays = demo3.relay_set
        for _ in range(100):
            s2 = random_subset(rng, relays)
            s1 = random_subset(rng, relays - s2)
            s3 = frozenset(i for i in s2 if rng.random() < 0.5)
            lhs = cf.block_cond_entropy(demo3, s1, s2) + cf.block_cond_entropy(
                demo3, s3, s2 - s3
            )
            rhs = cf.block_cond_entropy(demo3, s1 | s3, s2 - s3)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestCanonicalizationInvariance:
    def test_leading_empties_do_not_change_caps(self, demo2, demo3):
        rng = np.random.default_rng(15)
        for joint in (demo2, demo3):
            for _ in range(30):
                lay = random_layering(rng, joint.relay_set)
                padded = cf.make_layering(
                    [set()] * int(rng.integers(1, 3)) + [set(s) for s in lay.layers]
                )
                for s in subsets_by_mask(joint.relay_set):
                    assert cf.layered_rhs(joint, padded, s) == pytest.approx(
                        cf.layered_rhs(joint, canonicalize(padded), s), abs=1e-9
                    )

    def test_interior_empties_do_change_caps(self, demo2):
        # the decoupled pairing is the reason interior empties are preserved
        plain = parse_layering("2|3")
        gapped = parse_layering("2||3")
        diffs = [
            abs(cf.layered_rhs(demo2, plain, s) - cf.layered_rhs(demo2, gapped, s))
            for s in subsets_by_mask(demo2.relay_set)
        ]
        assert max(diffs) > 1e-6

    def test_interior_empty_staged_decomposition(self, demo2):
        # hand-derived stage terms of ({2}, {}, {3}): the empty layer delays
        # the compression pairing of relay 2 by one stage
        j = demo2
        gapped = parse_layering("2||3")
        got = cf.layered_rhs(j, gapped, {2})
        want = (
            j.pair_entropy_sum({2})
            - j.cond_entropy({j.x(2)}, {j.yd})
            - j.cond_entropy({j.yhat(2)}, {j.x(2), j.yd})
        )
        assert got == pytest.approx(want, abs=1e-12)
        # with the gap between 2 and 3, the plain form instead conditions the
        # compression of 2 on both inputs
        plain = parse_layering("2|3")
        want_plain = (
            j.pair_entropy_sum({2})
            - j.cond_entropy({j.x(2)}, {j.yd})
            - j.cond_entropy({j.yhat(2)}, {j.x(2), j.x(3), j.yd})
        )
        assert cf.layered_rhs(j, plain, {2}) == pytest.approx(want_plain, abs=1e-12)
        # the deepest-layer subset telescopes to its outer cap either way
        assert cf.layered_rhs(j, gapped, {3}) == pytest.approx(
            cf.boundary_rhs(j, {3}), abs=1e-12
        )


class TestLayeredVersusOuter:
    def test_observed_inclusion_report(self, demo2):
        """Whether every layered region sits inside the outer region is not
        asserted; the sampled counts are only reported."""
        rng = np.random.default_rng(16)
        inside = total = 0
        for lay in cf.enumerate_layerings(demo2.relay_set):
            caps = {i: max(cf.layered_rhs(demo2, lay, frozenset({i})), 0.0) for i in demo2.relays}
            for _ in range(50):
                rates = cf.RateVector({i: rng.uniform(0, caps[i]) for i in demo2.relays})
                if cf.check_layered(demo2, lay, rates).is_member:
                    total += 1
                    inside += cf.check_outer(demo2, rates).is_member
        print(f"layered members also in outer region: {inside}/{total}")
        assert total > 0

    @pytest.mark.parametrize("n, sample", [(2, None), (3, None), (4, None), (5, 40), (6, 8)])
    def test_every_layered_vertex_meets_the_outer_caps(self, n, sample):
        """An observed property, not a theorem of the package: layered caps are
        submodular, so a layered region lies in the outer region exactly when
        each of its greedy vertices meets every outer cap.  Every canonical
        layering at n <= 4; a seeded sample of the 541 at 5 relays and of the
        4,683 at 6."""
        for seed in (1, 7, 301) if sample is None else (7,):
            joint = cf.build_relay_joint(cf.demo_spec(n, seed))
            nodes = sorted(joint.relays)
            outer = [(joint_indicator(nodes, s), cap)
                     for s, cap in cf.region.region_caps(joint, None)]
            layerings = list(cf.enumerate_layerings(joint.relay_set))
            if sample is not None:
                picks = np.random.default_rng(seed).choice(len(layerings), sample, replace=False)
                layerings = [layerings[i] for i in picks]
            for lay in layerings:
                vertices = np.array(greedy_vertices(cf.h_rep(joint, lay), nodes))
                for indicator, cap in outer:
                    assert (vertices @ indicator).max() <= cap + 1e-12, (lay, indicator)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_outer_vertex_has_a_witness_layering(self, n):
        """An observed property, not a theorem of the package: the greedy
        vertex of the outer caps along a full order p1, ..., pn lies in the
        closed region of some coarsening of the reversed order, the layering
        pn|...|p1 with neighbours merged into one layer (2^(n-1) candidates)."""

        def coarsenings(order):  # bit j of `cuts` ends a layer after order[j]
            for cuts in range(1 << (n - 1)):
                ends = [0] + [j + 1 for j in range(n - 1) if cuts >> j & 1] + [n]
                yield tuple(frozenset(order[a:b]) for a, b in zip(ends, ends[1:]))

        for seed in (1, 7, 301):
            joint = cf.build_relay_joint(cf.demo_spec(n, seed))
            nodes = sorted(joint.relays)
            indicators = np.array([joint_indicator(nodes, s) for s in subsets_by_mask(nodes)])
            caps = {}

            def inside(point, layers):
                if layers not in caps:
                    caps[layers] = np.array([cap for _, cap in cf.region.region_caps(
                        joint, make_layering(layers))])
                return bool((indicators @ point <= caps[layers] + 1e-12).all())

            for order, vertex in order_vertices(cf.outer_h_rep(joint), nodes):
                point = np.array(vertex)
                assert any(inside(point, layers) for layers in coarsenings(order[::-1])), order


class TestFactorOracle:
    """The einsum-per-query reference of `_factor_oracle` against the pure-Python
    oracle at 2-3 relays, then against the relay joint where that oracle cannot go."""

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(83)
        for n_relays, queries in ((2, 16), (3, 10)):
            spec = random_spec(rng, n_relays=n_relays)
            oracle, pmf = FactorOracle(spec), brute_force_joint(spec)
            labels = variable_labels(spec)
            for _ in range(queries):
                a, b = random_subset(rng, oracle.relays), random_subset(rng, oracle.relays)
                wanted = [f"X{i}" for i in sorted(a)] + [f"Yh{i}" for i in sorted(b)]
                want = entropy(pmf, labels, wanted + [f"Y{spec.d}"])
                assert abs(oracle.relay_entropy(a, b) - want) <= 1e-12
            for i in oracle.relays:
                want = entropy(pmf, labels, [f"X{i}", f"Yh{i}"])
                assert abs(oracle.pair_entropy(i) - want) <= 1e-12

    @pytest.mark.parametrize("n_relays, seed", [(6, 7), (7, 1)])
    def test_caps_match_relay_joint(self, n_relays, seed):
        spec = cf.demo_spec(n_relays, seed)
        joint, oracle = cf.build_relay_joint(spec), FactorOracle(spec)
        subsets = list(subsets_by_mask(joint.relay_set))
        for s in subsets:
            assert abs(cf.boundary_rhs(joint, s) - oracle.outer_cap(s)) <= 1e-12
        rng = np.random.default_rng(seed)
        for _ in range(3):
            lay = random_layering(rng, joint.relay_set)
            for s in subsets:
                want = oracle.layered_cap(lay.layers, s)
                assert abs(cf.layered_rhs(joint, lay, s) - want) <= 1e-12
