"""Channel spec validation, joint construction, and the entropy engine."""

import json
from functools import partial
from itertools import combinations

import numpy as np
import pytest

import cflayers as cf

from _oracle import brute_force_joint, cond_entropy, entropy, mutual_info, variable_labels
from conftest import random_spec, random_subset, thin_spec

# Frozen oracle values for the seed-7 two-relay demo channel (direct-summation
# brute force over all 256 assignments).
H_Y2_GIVEN_X2 = 0.9895585360200299
MI_YH2_Y2_GIVEN_X2 = 0.0324502528767277
PAIR_SUM_23 = 3.5780028383821127


def unit_spec(p_x1=(1.0, 0.0), p_x2=(0.5, 0.5), yhat="const", channel="uniform"):
    """Tiny handcrafted d=3 binary spec for edge cases.

    yhat: "const" pins Yh2=0, "copy" sets Yh2=Y2.
    channel: "uniform" makes (Y2, Y3) uniform and independent of the inputs;
    "point" puts all channel mass on (0, 0).
    """
    if yhat == "const":
        p_yhat = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]
    else:
        p_yhat = [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]
    if channel == "uniform":
        row = [[0.25, 0.25], [0.25, 0.25]]
    else:
        row = [[1.0, 0.0], [0.0, 0.0]]
    chan = [[row, row], [row, row]]
    return cf.ChannelSpec(
        d=3,
        source_alphabet=2,
        p_x1=np.array(p_x1),
        relays=(
            cf.RelaySpec(
                node=2,
                x_alphabet=2,
                y_alphabet=2,
                yhat_alphabet=2,
                p_x=np.array(p_x2),
                p_yhat=np.array(p_yhat),
            ),
        ),
        dest_alphabet=2,
        channel=np.array(chan, dtype=float),
    )


def nudged_spec_obj(delta=9e-13, rows=False):
    """Seed-7 three-relay demo spec with p_x1 and every p_x off by `delta`.

    Each table passes validation, but the joint multiplies all four, so its
    mass is off by about four times `delta`.  With `rows`, every row of each
    compression kernel and of the channel is off by `delta` too: all eight
    factors sit at the edge, one more than the seven axes of a relay joint.
    """
    obj = cf.demo_spec(3, 7).to_json_obj()
    obj["source"]["p_x1"][0] += delta
    for relay in obj["relays"]:
        relay["p_x"][0] += delta
    if rows:
        for relay in obj["relays"]:
            p_yhat = np.array(relay["p_yhat_given_x_y"])
            p_yhat[..., 0] += delta
            relay["p_yhat_given_x_y"] = p_yhat.tolist()
        channel = np.array(obj["channel"])
        channel.reshape(2 ** (1 + len(obj["relays"])), -1)[:, 0] += delta
        obj["channel"] = channel.tolist()
    return obj


def relay_axes(joint):
    """The (Xi, Yhi per relay, Yd) variables of a full joint, in canonical order."""
    kept = [v for v in joint.variables if v.kind == "yhat" or v.kind == "x" and v.node != 1]
    return kept + [joint.yd]


def powerset(nodes):
    return [frozenset(c) for k in range(len(nodes) + 1) for c in combinations(nodes, k)]


def mixed_specs():
    """Mixed-alphabet random specs with 2, 3 and 4 relays."""
    rng = np.random.default_rng(61)
    return [random_spec(rng, n_relays=n) for n in (2, 3, 4)]


def nested(depth):
    """A one-entry table `depth` lists deep."""
    table = 1.0
    for _ in range(depth):
        table = [table]
    return table


def cut_short(obj, depth):
    """Shorten the last row of relay 2's compression kernel after `depth` axes."""
    rows = obj["relays"][0]["p_yhat_given_x_y"]
    for _ in range(depth - 1):
        rows = rows[-1]
    rows[-1] = rows[-1][:1]


# Spec tables whose entries are no JSON numbers or do not line up, each with the table named.
BAD_TABLE_EDITS = [
    pytest.param("p_x1", lambda o: o["source"].__setitem__("p_x1", [0.25, True]), id="true"),
    pytest.param("p_x1", lambda o: o["source"].__setitem__("p_x1", [0.5, None]), id="null"),
    pytest.param("p_x1", lambda o: o["source"].__setitem__("p_x1", [{"a": 1}, 0.5]), id="object"),
    pytest.param("p_yhat2", partial(cut_short, depth=1), id="ragged-depth-1"),
    pytest.param("p_yhat2", partial(cut_short, depth=2), id="ragged-depth-2"),
    pytest.param("p_x1", lambda o: o["source"].__setitem__("p_x1", [10**400, 0.5]), id="10**400"),
    pytest.param("channel", lambda o: o.__setitem__("channel", nested(200)), id="200-deep"),
]

# Spec edits whose numbers are not JSON numbers, each with the field it breaks.
NON_NUMBER_SPEC_EDITS = [
    ("d", lambda o: o.__setitem__("d", 10**30)),
    ("p_x1", lambda o: o["source"].__setitem__("p_x1", [True, False])),
    ("p_x1", lambda o: o["source"].__setitem__("p_x1", ["0.25", "0.75"])),
    ("x_alphabet", lambda o: o["relays"][0].__setitem__("x_alphabet", True)),
    *BAD_TABLE_EDITS,
]


def _nan_in(table):
    """Seed-7 two-relay demo spec with a NaN in p_x1, p_x2 or the channel."""
    spec = cf.demo_spec(2, 7)
    p_x1, p_x2, channel = spec.p_x1.copy(), spec.relays[0].p_x.copy(), spec.channel.copy()
    {"p_x1": p_x1, "p_x2": p_x2, "channel": channel}[table].flat[0] = np.nan
    relays = (cf.RelaySpec(2, 2, 2, 2, p_x2, spec.relays[0].p_yhat), spec.relays[1])
    return cf.ChannelSpec(spec.d, 2, p_x1, relays, 2, channel)


def _huge_d():
    """Seed-7 two-relay demo spec claiming d = 10^30."""
    obj = cf.demo_spec(2, 7).to_json_obj()
    obj["d"] = 10**30
    return cf.spec_from_json_obj(obj)


def _half_p_x1():
    """One-relay demo spec whose p_x1 sums to 1/2."""
    spec = cf.demo_spec(1, 11)
    return cf.ChannelSpec(
        spec.d, spec.source_alphabet, spec.p_x1 * 0.5, spec.relays, spec.dest_alphabet,
        spec.channel,
    )


# Specs that no builder accepts: each raises before any table is multiplied.
INVALID_SPECS = {
    "nan_p_x1": partial(_nan_in, "p_x1"),
    "nan_p_x2": partial(_nan_in, "p_x2"),
    "nan_channel": partial(_nan_in, "channel"),
    "huge_d": _huge_d,
    "unnormalized_p_x1": _half_p_x1,
    "edge_past_tolerance": lambda: cf.spec_from_json_obj(nudged_spec_obj(2e-12, rows=True)),
    "eight_relays_over_cell_cap": lambda: thin_spec(8, letters=2),
}


class TestValidateSpec:
    def test_well_formed(self):
        assert cf.validate_spec(cf.demo_spec(1, 11)) == []
        assert cf.validate_spec(unit_spec()) == []

    def test_unnormalized_relay_input(self):
        spec = cf.demo_spec(2, 7)
        bad = spec.relays[0].p_x * 0.9
        relays = (
            cf.RelaySpec(2, 2, 2, 2, bad, spec.relays[0].p_yhat),
            spec.relays[1],
        )
        spec = cf.ChannelSpec(
            spec.d, spec.source_alphabet, spec.p_x1, relays, spec.dest_alphabet, spec.channel
        )
        issues = cf.validate_spec(spec)
        assert len(issues) == 1
        assert issues[0].kind == "normalization"
        assert issues[0].table == "p_x2"

    def test_channel_wrong_entry_count(self):
        spec = cf.demo_spec(1, 11)
        spec = cf.ChannelSpec(
            spec.d,
            spec.source_alphabet,
            spec.p_x1,
            spec.relays,
            spec.dest_alphabet,
            spec.channel.reshape(2, 2, 4),  # right cells, wrong shape
        )
        issues = cf.validate_spec(spec)
        assert len(issues) == 1
        assert issues[0].kind == "shape"
        assert issues[0].table == "channel"

    @pytest.mark.parametrize("table", ["p_x1", "p_x2", "channel"])
    def test_nan_entry_rejected(self, table):
        spec = _nan_in(table)
        assert {i.table for i in cf.validate_spec(spec) if i.kind == "range"} == {table}
        with pytest.raises(cf.InvalidSpecError):
            cf.build_joint(spec)

    def test_joint_with_nan_mass_rejected(self, demo2):
        table = demo2.table.copy()
        table.flat[0] = np.nan
        with pytest.raises(cf.InvalidSpecError, match="mass"):
            cf.JointPmf(demo2.variables, table)

    def test_validated_spec_builds(self):
        spec = cf.spec_from_json_obj(nudged_spec_obj())
        assert cf.validate_spec(spec) == []
        joint = cf.build_joint(spec)
        assert abs(joint.table.sum() - 1.0) > cf.probability.NORMALIZATION_TOL

    def test_edge_spec_builds_either_way(self):
        spec = cf.spec_from_json_obj(nudged_spec_obj(rows=True))
        assert cf.validate_spec(spec) == []
        full, relay = cf.build_joint(spec), cf.build_relay_joint(spec)
        # more than one tolerance per axis of the relay joint, within one per factor
        tol = cf.probability.NORMALIZATION_TOL
        for joint in (full, relay):
            assert 7 * tol < abs(joint.table.sum() - 1.0) <= 8 * tol

    @pytest.mark.parametrize("scale", [1.001, 1.0 + 1e-9, -1.0])
    def test_joint_with_wrong_mass_rejected(self, demo2, scale):
        with pytest.raises(cf.InvalidSpecError, match="mass|negative"):
            cf.JointPmf(demo2.variables, demo2.table * scale)

    def test_huge_d_is_a_structure_issue(self):
        # d is compared to the relay count before any range is built
        issues = cf.validate_spec(_huge_d())
        assert [(i.kind, i.table) for i in issues] == [("structure", "relays")]

    def test_build_rejects_invalid(self):
        with pytest.raises(cf.InvalidSpecError):
            cf.build_joint(_half_p_x1())


class TestBuildJoint:
    def test_one_relay_binary_size(self):
        joint = cf.build_joint(cf.demo_spec(1, 11))
        assert joint.table.size == 32  # 2 * (2*2*2) * 2

    def test_point_masses_yield_single_cell(self):
        joint = cf.build_joint(unit_spec(p_x1=(1, 0), p_x2=(1, 0), channel="point"))
        table = joint.table.ravel()
        assert np.count_nonzero(table) == 1
        assert table.max() == pytest.approx(1.0, abs=1e-12)

    def test_demo_mass_matches_brute_force(self, demo2):
        assert abs(float(demo2.table.sum()) - 1.0) < 1e-12
        pmf = brute_force_joint(cf.demo_spec(2, 7))
        assert abs(sum(pmf.values()) - 1.0) < 1e-12

    def test_matches_brute_force_cellwise(self):
        mixed = random_spec(np.random.default_rng(47), n_relays=2)
        assert len(set(mixed.channel.shape)) > 1  # alphabets really differ
        for spec in (cf.demo_spec(2, 7), mixed):
            joint = cf.build_joint(spec)
            pmf = brute_force_joint(spec)
            for key, p in pmf.items():
                assert joint.table[key] == pytest.approx(p, abs=1e-13)

    def test_table_cap(self):
        with pytest.raises(cf.TableTooLargeError):
            cf.build_joint(thin_spec(8, letters=2))

    def test_table_immutable(self, demo2):
        with pytest.raises(ValueError):
            demo2.table[0, 0, 0, 0, 0, 0, 0, 0] = 0.5


class TestBuildRelayJoint:
    def test_table_matches_full_marginal(self):
        for spec in mixed_specs():
            full, relay = cf.build_joint(spec), cf.build_relay_joint(spec)
            assert list(relay.variables) == relay_axes(full)
            assert np.max(np.abs(relay.table - full.marginal(relay_axes(full)))) <= 1e-15
            assert relay.relays == full.relays and relay.d == full.d

    def test_every_cap_matches_full_joint(self):
        for spec in mixed_specs():
            full, relay = cf.build_joint(spec), cf.build_relay_joint(spec)
            subsets = list(cf.region.subsets_by_mask(full.relay_set))
            for s in subsets:
                assert abs(cf.boundary_rhs(relay, s) - cf.boundary_rhs(full, s)) <= 1e-12
            for lay in cf.enumerate_layerings(full.relays):
                for s in subsets:
                    got, want = cf.layered_rhs(relay, lay, s), cf.layered_rhs(full, lay, s)
                    assert abs(got - want) <= 1e-12

    def test_no_source_input_or_relay_observation(self):
        joint = cf.build_relay_joint(cf.demo_spec(2, 7))
        for query in (
            lambda: joint.x1,
            lambda: joint.y(2),
            lambda: cf.source_rate(joint),
            lambda: cf.compression_floor(joint),
        ):
            with pytest.raises(cf.UnknownVariableError):
                query()

    @pytest.mark.parametrize("make", INVALID_SPECS.values(), ids=INVALID_SPECS.keys())
    def test_same_error_from_both_builders(self, make):
        errors = []
        for build in (cf.build_joint, cf.build_relay_joint):
            with pytest.raises(cf.CFLayersError) as info:
                build(make())
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]


def kept_sets(joint, rng, count):
    """Random variable sets that keep every relay input and Yd, with or without the rest."""
    needed = joint.xs(joint.relays) | {joint.yd}
    optional = [v for v in joint.variables if v not in needed]
    return [needed | {v for v in optional if rng.random() < 0.5} for _ in range(count)]


class TestRestrict:
    def test_queries_match_parent(self):
        rng = np.random.default_rng(83)
        for n in (2, 2, 3, 3):
            full = cf.build_joint(random_spec(rng, n_relays=n))
            # restricted from a cold parent, so each child sums its own tables
            joints = [full.restrict(keep) for keep in kept_sets(full, rng, 3)]
            for joint in joints:
                yhat_nodes = [v.node for v in joint.variables if v.kind == "yhat"]
                for a in powerset(full.relays):
                    for b in powerset(yhat_nodes):
                        got, want = joint.relay_entropy(a, b), full.relay_entropy(a, b)
                        assert abs(got - want) <= 1e-12
                for u in joint.variables:
                    for v in joint.variables:
                        assert abs(joint.entropy({u, v}) - full.entropy({u, v})) <= 1e-12

    def test_keeps_parent_entropies(self, summed_sizes):
        full = cf.build_joint(cf.demo_spec(3, 7))
        pairs = [(a, b) for a in powerset(full.relays) for b in powerset(full.relays)]
        known = {(a, b): full.relay_entropy(a, b) for a, b in pairs}
        known["x2y2"] = full.entropy({full.x(2), full.y(2)})
        joint = full.restrict({full.x(2), full.y(2)} | set(relay_axes(full)))  # drops X1 and Y3
        summed_sizes.clear()
        got = {(a, b): joint.relay_entropy(a, b) for a, b in pairs}
        got["x2y2"] = joint.entropy({joint.x(2), joint.y(2)})
        assert got == known and summed_sizes == []
        # a set the parent never answered is summed from the child's own table
        h = joint.entropy({joint.x(2)})
        assert summed_sizes == [joint.table.size]
        assert abs(h - full.entropy({full.x(2)})) <= 1e-12

    def test_canonical_order_and_table(self, demo3):
        keep = [demo3.yd, demo3.y(3), *demo3.xs(demo3.relays), demo3.x1]
        joint = demo3.restrict(reversed(keep))
        assert list(joint.variables) == sorted(keep, key=demo3.variables.index)
        assert np.array_equal(joint.table, demo3.marginal(keep))
        assert joint.relays == demo3.relays and joint.d == demo3.d
        assert not joint.table.flags.writeable

    @pytest.mark.parametrize("drop", ["x3", "yd"])
    def test_must_keep_relay_inputs_and_yd(self, demo3, drop):
        # {X2, Yh2, Y3} would read as a one-relay net whose Yd is Y3
        keep = {"x3": {demo3.x(2), demo3.yhat(2), demo3.y(3)},
                "yd": set(demo3.xs(demo3.relays))}[drop]
        with pytest.raises(cf.IncompleteRestrictionError, match="drops"):
            demo3.restrict(keep)

    @pytest.mark.parametrize(
        "foreign", [cf.Variable("x", 9, 2), cf.Variable("y", 2, 5)], ids=["node", "size"]
    )
    def test_foreign_variable(self, demo2, foreign):
        with pytest.raises(cf.UnknownVariableError):
            demo2.restrict(set(relay_axes(demo2)) | {foreign})

    def test_floors_terms_match_full_joint(self):
        # what `cflayers floors` reads for subset S: the joint of (X_R, Yh_R, Y_S, Yd)
        for spec in mixed_specs():
            full = cf.build_joint(spec)
            base = set(relay_axes(full))
            # restricted from a cold parent, so each child sums its own tables
            joints = {
                s: full.restrict(base | full.ys(s))
                for s in cf.region.subsets_by_mask(full.relay_set)
            }
            for s, joint in joints.items():
                assert abs(cf.boundary_rhs(joint, s) - cf.boundary_rhs(full, s)) <= 1e-12
                assert abs(cf.mi_gap(joint, s) - cf.mi_gap(full, s)) <= 1e-12


class TestEntropy:
    def test_uniform_bit(self):
        joint = cf.build_joint(unit_spec())
        assert joint.entropy({joint.x(2)}) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_variable(self):
        joint = cf.build_joint(unit_spec())
        assert joint.entropy({joint.x1}) == pytest.approx(0.0, abs=1e-12)

    def test_empty_set(self, demo2):
        assert demo2.entropy(frozenset()) == 0.0

    def test_upper_bound(self, demo2):
        full = set(demo2.variables)
        cap = sum(np.log2(v.size) for v in full)
        assert 0.0 <= demo2.entropy(full) <= cap + 1e-9

    def test_unknown_variable(self, demo2, demo3):
        with pytest.raises(cf.UnknownVariableError):
            demo2.entropy({demo3.x(4)})  # node 4 is not part of the 2-relay net
        with pytest.raises(cf.UnknownVariableError):
            demo2.entropy({cf.Variable("x", 2, 5)})  # wrong alphabet size


class TestRelayEntropy:
    def test_matches_oracle(self):
        rng = np.random.default_rng(48)
        for n_relays in (2, 2, 3):
            spec = random_spec(rng, n_relays=n_relays)
            joints = (cf.build_joint(spec), cf.build_relay_joint(spec))
            pmf = brute_force_joint(spec)
            labels = variable_labels(spec)
            for _ in range(8):
                a = random_subset(rng, spec.relay_nodes)
                b = random_subset(rng, spec.relay_nodes)
                wanted = [f"X{i}" for i in sorted(a)] + [f"Yh{i}" for i in sorted(b)]
                want = entropy(pmf, labels, wanted + [f"Y{spec.d}"])
                for joint in joints:
                    assert joint.relay_entropy(a, b) == pytest.approx(want, abs=1e-9)

    def test_same_value_as_generic_query(self, demo3):
        a, b = frozenset({2, 4}), frozenset({3})
        generic = demo3.entropy(demo3.xs(a) | demo3.yhats(b) | {demo3.yd})
        assert demo3.relay_entropy(a, b) == generic

    @pytest.mark.parametrize(
        "a, b",
        [({1}, ()), ((), {1}), ({4}, ()), ((), {4}), ({2, 9}, ())],
        ids=["x1", "yhat1", "x_dest", "yhat_dest", "x_foreign"],
    )
    def test_non_relay_node(self, demo2, a, b):
        with pytest.raises(cf.UnknownVariableError):
            demo2.relay_entropy(frozenset(a), frozenset(b))


class TestCondEntropy:
    def test_self_conditioning(self, demo2):
        a = {demo2.x(2), demo2.y(2)}
        assert demo2.cond_entropy(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_empty_condition(self, demo2):
        a = {demo2.yhat(3)}
        assert demo2.cond_entropy(a, frozenset()) == pytest.approx(demo2.entropy(a))

    def test_demo_value_frozen(self, demo2):
        got = demo2.cond_entropy({demo2.y(2)}, {demo2.x(2)})
        assert got == pytest.approx(H_Y2_GIVEN_X2, abs=1e-9)

    def test_random_against_direct_summation(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            spec = random_spec(rng, n_relays=2)
            joint = cf.build_joint(spec)
            pmf = brute_force_joint(spec)
            labels = variable_labels(spec)
            got = joint.cond_entropy({joint.y(2), joint.x(3)}, {joint.x(2), joint.yd})
            want = cond_entropy(pmf, labels, ["Y2", "X3"], ["X2", f"Y{spec.d}"])
            assert got == pytest.approx(want, abs=1e-9)


class TestMutualInfo:
    def test_independent_inputs(self, demo2):
        assert demo2.mutual_info({demo2.x(2)}, {demo2.x(3)}) == pytest.approx(0.0, abs=1e-9)

    def test_self_information(self, demo2):
        a = {demo2.x(2)}
        assert demo2.mutual_info(a, a) == pytest.approx(demo2.entropy(a))

    def test_demo_value_frozen(self, demo2):
        got = demo2.mutual_info({demo2.yhat(2)}, {demo2.y(2)}, {demo2.x(2)})
        assert got == pytest.approx(MI_YH2_Y2_GIVEN_X2, abs=1e-9)

    def test_random_against_direct_summation(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            spec = random_spec(rng, n_relays=2)
            joint = cf.build_joint(spec)
            pmf = brute_force_joint(spec)
            labels = variable_labels(spec)
            got = joint.mutual_info({joint.yhat(2)}, {joint.y(2)}, {joint.x(2)})
            want = mutual_info(pmf, labels, ["Yh2"], ["Y2"], ["X2"])
            assert got == pytest.approx(want, abs=1e-9)


class TestPairEntropySum:
    def test_empty(self, demo2):
        assert demo2.pair_entropy_sum(frozenset()) == 0.0

    def test_uniform_input_constant_compression(self):
        joint = cf.build_joint(unit_spec())  # X2 uniform, Yh2 pinned
        assert joint.pair_entropy_sum({2}) == pytest.approx(1.0, abs=1e-12)

    def test_demo_value_frozen(self, demo2):
        assert demo2.pair_entropy_sum({2, 3}) == pytest.approx(PAIR_SUM_23, abs=1e-9)


class TestEngineProperties:
    def test_chain_rule_and_monotonicity(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            spec = random_spec(rng, n_relays=2)
            joint = cf.build_joint(spec)
            pool = list(joint.variables)
            for _ in range(40):
                a = random_subset(rng, pool)
                b = random_subset(rng, pool)
                c = random_subset(rng, pool)
                # chain rule
                assert joint.entropy(a | b) == pytest.approx(
                    joint.entropy(a) + joint.cond_entropy(b, a), abs=1e-9
                )
                # conditioning reduces entropy
                assert joint.cond_entropy(a, b | c) <= joint.cond_entropy(a, b) + 1e-9
                # sandwich: 0 <= H(a|b) <= H(a)
                assert -1e-9 <= joint.cond_entropy(a, b) <= joint.entropy(a) + 1e-9
                # submodularity
                lhs = joint.entropy(a) + joint.entropy(b)
                rhs = joint.entropy(a | b) + joint.entropy(a & b)
                assert lhs >= rhs - 1e-9

    def test_factored_independence(self):
        rng = np.random.default_rng(45)
        joint = cf.build_joint(random_spec(rng, n_relays=3))
        inputs = [joint.x1] + [joint.x(i) for i in joint.relays]
        for i, u in enumerate(inputs):
            for v in inputs[i + 1 :]:
                assert joint.mutual_info({u}, {v}) == pytest.approx(0.0, abs=1e-9)

    def test_compression_markov_structure(self):
        rng = np.random.default_rng(46)
        joint = cf.build_joint(random_spec(rng, n_relays=2))
        for i in joint.relays:
            rest = set(joint.variables) - {joint.yhat(i), joint.x(i), joint.y(i)}
            local = {joint.x(i), joint.y(i)}
            got = joint.mutual_info({joint.yhat(i)}, rest, local)
            assert got == pytest.approx(0.0, abs=1e-9)


class TestConcurrency:
    def test_parallel_queries_consistent(self, demo3):
        from concurrent.futures import ThreadPoolExecutor

        sets = [
            {demo3.x(2), demo3.y(3)},
            {demo3.yhat(2), demo3.yhat(4), demo3.yd},
            {demo3.x1, demo3.x(3)},
            set(demo3.variables),
        ]
        expected = [demo3.entropy(s) for s in sets]

        fresh = cf.build_joint(cf.demo_spec(3, 3))  # cold cache
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda s: fresh.entropy(s), sets * 50))
        for i, got in enumerate(results):
            assert got == expected[i % len(sets)]


class TestJson:
    def test_spec_roundtrip(self, tmp_path):
        spec = cf.demo_spec(2, 7)
        path = tmp_path / "chan.json"
        spec.save(path)
        back = cf.load_spec(path)
        assert back.d == spec.d
        assert np.allclose(back.p_x1, spec.p_x1)
        assert np.allclose(back.channel, spec.channel)
        for a, b in zip(back.relays, spec.relays):
            assert a.node == b.node
            assert np.allclose(a.p_yhat, b.p_yhat)

    def test_ragged_table_rejected(self):
        obj = cf.demo_spec(1, 11).to_json_obj()
        obj["channel"] = [[1.0, 0.0], [0.5]]
        with pytest.raises(cf.InvalidSpecError):
            cf.spec_from_json_obj(obj)

    def test_missing_field_rejected(self):
        obj = json.loads(cf.demo_spec(1, 11).dumps())
        del obj["source"]
        with pytest.raises(cf.InvalidSpecError):
            cf.spec_from_json_obj(obj)

    @pytest.mark.parametrize("part, field", [("source", "alphabet"), ("destination", "y_alphabet")])
    def test_missing_alphabet_rejected(self, part, field):
        obj = json.loads(cf.demo_spec(1, 11).dumps())
        del obj[part][field]
        with pytest.raises(cf.InvalidSpecError, match=field):
            cf.spec_from_json_obj(obj)

    def test_non_list_relays_rejected(self):
        obj = json.loads(cf.demo_spec(1, 11).dumps())
        obj["relays"] = 5
        with pytest.raises(cf.InvalidSpecError):
            cf.spec_from_json_obj(obj)

    @pytest.mark.parametrize("bad", [2.5, "2", None, float("inf")])
    def test_non_integral_alphabet_rejected(self, bad):
        # 2.5 used to be truncated to 2 and accepted
        obj = json.loads(cf.demo_spec(1, 11).dumps())
        obj["source"]["alphabet"] = bad
        with pytest.raises(cf.InvalidSpecError, match="alphabet"):
            cf.spec_from_json_obj(obj)

    @pytest.mark.parametrize("field, edit", NON_NUMBER_SPEC_EDITS)
    def test_non_number_rejected(self, field, edit):
        # true, false and numeric strings used to pass as 1, 0 and floats
        obj = cf.demo_spec(2, 7).to_json_obj()
        edit(obj)
        with pytest.raises(cf.InvalidSpecError, match=field):
            cf.build_joint(cf.spec_from_json_obj(obj))

    @pytest.mark.parametrize("table, edit", BAD_TABLE_EDITS)
    def test_bad_table_rejected_on_load(self, table, edit):
        obj = cf.demo_spec(2, 7).to_json_obj()
        edit(obj)
        with pytest.raises(cf.InvalidSpecError, match=f"table {table} (holds|is not rectangular)"):
            cf.spec_from_json_obj(obj)

    def test_deeply_nested_file_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        with pytest.raises(cf.InvalidSpecError, match="nested"):
            cf.load_spec(path)
