"""Channel spec validation, joint construction, and the entropy engine."""

import inspect
import io
import json
import math
import sys
import tracemalloc
import weakref
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cflayers as cf

from _factor_oracle import FactorOracle
from _oracle import brute_force_joint, cond_entropy, entropy, mutual_info, variable_labels
from conftest import (SYMMETRIC_FAMILIES, random_spec, random_subset, symmetric_family,
                      thin_spec)

ZERO = cf.probability.ZERO_MASS

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


# Cells where a float's repr changes form: signed zeros, non-finite values,
# subnormals, and either side of the switches to exponents (1e16, 1e-4).
EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e16,
               9999999999999998.0, 1e-5, 0.0001, -1e-5]
# float64 arrays, which `write_json` formats from their cells, and the arrays it
# writes through `tolist()`: other dtypes, a non-native byte order, 0-d and empty
JSON_ARRAYS = (
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=6, max_side=4),
               elements=st.floats() | st.sampled_from(EDGE_FLOATS))
    | hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_, np.float32, np.dtype(">f8")]),
                 hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
)
# Values `write_json` encodes: every JSON scalar, str-keyed dicts, lists and tuples,
# lists of floats alone, which it joins in one piece, and numpy arrays.
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**100, 2**100) | st.floats()
                | st.text(st.characters(codec=None), max_size=8))
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.lists(st.floats(), max_size=4) | JSON_ARRAYS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24,
)
JSON_PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=300)


def lazy_lists(value, pick):
    """`value` with each list or tuple that `pick()` is true for, at any depth, an iterator."""
    if isinstance(value, dict):
        return {k: lazy_lists(v, pick) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        items = [lazy_lists(v, pick) for v in value]
        return iter(items) if pick() else type(value)(items)
    return value


def as_lists(value):
    """`value` with each numpy array, at any depth, its `tolist()`: what `json` encodes."""
    if isinstance(value, dict):
        return {k: as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(as_lists(v) for v in value)
    return value.tolist() if isinstance(value, np.ndarray) else value


def stdlib_text(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def written(value):
    buf = io.StringIO()
    cf.probability.write_json(value, buf)
    return buf.getvalue()


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

    def test_joint_reads_variables_once(self, demo2):
        joint = cf.JointPmf((v for v in demo2.variables), demo2.table)
        assert joint.variables == demo2.variables and joint.d == demo2.d

    # demo2's variables are X1, X2, Y2, Yh2, X3, Y3, Yh3, Y4: each case edits that list
    @pytest.mark.parametrize("edit, message", [
        (lambda vs: vs[:2] + vs[1:], "X2 is listed twice"),
        (lambda vs: vs[:2] + [cf.Variable("x", 2, 3)] + vs[2:], "X2 is listed twice"),
        (lambda vs: vs[:1] + vs[4:7] + vs[1:4] + vs[7:], "X2 is listed after Yh3"),
        (lambda vs: vs[:1] + [vs[2], vs[1]] + vs[3:], "X2 is listed after Y2"),
        (lambda vs: vs[7:] + vs[:7], "X1 is listed after Y4"),
        (lambda vs: vs[:2] + [cf.Variable("z", 2, 2)] + vs[3:], "kind 'z' is none of"),
    ], ids=["repeat", "repeat-other-size", "relays-swapped", "kinds-swapped", "yd-first",
            "unknown-kind"])
    def test_joint_variables_in_canonical_order(self, demo2, edit, message):
        # each table fits its variables and is a pmf: only the order is wrong
        variables = edit(list(demo2.variables))
        shape = tuple(v.size for v in variables)
        with pytest.raises(cf.InvalidSpecError, match=message):
            cf.JointPmf(variables, np.full(shape, 1.0 / math.prod(shape)))

    # the relays and d are read off the inputs and Yd: each list reads another network
    @pytest.mark.parametrize("edit, message", [
        (lambda vs: [vs[1], vs[3], vs[6], vs[7]], "hold X2 with Y4 last"),  # no X3
        (lambda vs: vs[:1] + vs[4:], "hold X3 with Y4 last"),  # no X2: a relay gap
        (lambda vs: vs[:4] + [vs[5], cf.Variable("yhat", 4, 2)], "ends with Yh4"),
        (lambda vs: vs[:6], "hold X2, X3 with Y3 last"),  # X3 is Yd's node's input
        (lambda vs: vs[:7], "ends with Yh3"),  # no Yd
        (lambda vs: [], "is empty"),
        (lambda vs: [vs[0], cf.Variable("y", 2, 2)], r"need at least one relay \(d >= 3\)"),
    ], ids=["relay-dropped", "relay-gap", "yhat-past-d", "x-of-d", "no-yd", "empty", "no-relay"])
    def test_joint_variables_of_a_network(self, demo2, edit, message):
        variables = edit(list(demo2.variables))
        shape = tuple(v.size for v in variables)
        with pytest.raises(cf.InvalidSpecError, match=message):
            cf.JointPmf(variables, np.full(shape, 1.0 / math.prod(shape)))

    def test_marginal_without_a_relay_input_refused(self, demo2):
        # (X2, Yh2, Yh3, Y4) used to read as one relay with d = 3, and `check_outer`
        # then asked for Y3
        variables = [demo2.x(2), demo2.yhat(2), demo2.yhat(3), demo2.yd]
        with pytest.raises(cf.InvalidSpecError, match=r"relay 2\.\.3 and no other"):
            cf.JointPmf(variables, demo2.marginal(variables))

    @pytest.mark.parametrize("build", ["build_joint", "build_relay_joint", "x1_free"])
    def test_built_tables_construct(self, build):
        built = (x1_free if build == "x1_free" else getattr(cf, build))(cf.demo_spec(3, 7))
        made = cf.JointPmf(built.variables, built.table)
        assert (made.relays, made.d) == (built.relays, built.d) == ((2, 3, 4), 5)
        assert made.relay_joint().variables == built.relay_joint().variables

    def test_relay_table_without_a_compression(self, demo2):
        # a joint without Yh3 keeps the relay table of the axes it has
        variables = [v for v in demo2.variables if v != demo2.yhat(3)]
        made = cf.JointPmf(variables, demo2.marginal(variables))
        relay = made.relay_joint()
        keep = [demo2.x(2), demo2.yhat(2), demo2.x(3), demo2.yd]
        assert list(relay.variables) == keep and relay is made.relay_joint()
        assert_same_bits(relay.table, made.marginal(keep))
        assert made.relay_entropy({2, 3}, {2}) == relay.relay_entropy({2, 3}, {2})
        with pytest.raises(cf.UnknownVariableError):
            relay.relay_entropy({2}, {3})

    def test_joint_with_nan_mass_rejected(self, demo2):
        table = demo2.table.copy()
        table.flat[0] = np.nan
        with pytest.raises(cf.InvalidSpecError, match="mass"):
            cf.JointPmf(demo2.variables, table)

    @pytest.mark.parametrize("cells, message", [
        ({0: np.nan, 5: np.nan}, "mass is nan"),
        ({0: np.nan, 5: -0.25}, "has negative entries"),
        ({0: -0.25, 5: np.nan}, "has negative entries"),
    ], ids=["nan", "nan-then-negative", "negative-then-nan"])
    def test_joint_with_nan_gets_one_verdict(self, demo2, cells, message):
        # NaN is skipped when the least entry is sought, and then spoils the mass
        table = demo2.table.copy()
        for cell, value in cells.items():
            table.flat[cell] = value
        with pytest.raises(cf.InvalidSpecError, match=f"^joint table {message}"):
            cf.JointPmf(demo2.variables, table)

    def test_empty_joint_has_no_mass(self):
        variables = (cf.Variable("x", 2, 0), cf.Variable("y", 3, 2))
        with pytest.raises(cf.InvalidSpecError, match=r"^joint table mass is 0\.0, not 1$"):
            cf.JointPmf(variables, np.zeros((0, 2)))

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
            full = cf.build_joint(spec)
            no_x1 = cf.probability._build(spec, lambda v: v.label != "X1")  # as `floors`
            for joint, axes in [
                (cf.build_relay_joint(spec), relay_axes(full)),
                (no_x1, list(full.variables[1:])),
            ]:
                assert list(joint.variables) == axes
                assert np.max(np.abs(joint.table - full.marginal(axes))) <= 1e-15
                assert joint.relays == full.relays and joint.d == full.d

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


def einsum_operands(spec):
    """The spec's factors as `np.einsum` operands, p(x1), each p(xi), the channel
    and each p(yhi | xi, yi), each followed by its axes: X1 is 0, relay j owns
    Xi, Yi, Yhi at 3j+1..3j+3, and Yd is last."""
    n = len(spec.relays)
    x_ax = [3 * j + 1 for j in range(n)]
    args = [spec.p_x1, [0]]
    for r, a in zip(spec.relays, x_ax):
        args += [r.p_x, [a]]
    args += [spec.channel, [0] + x_ax + [a + 1 for a in x_ax] + [3 * n + 1]]
    for r, a in zip(spec.relays, x_ax):
        args += [r.p_yhat, [a, a + 1, a + 2]]
    return args


def relay_labels(n):
    """The einsum labels of (Xi, Yhi per relay, Yd) at `n` relays."""
    return [3 * j + k for j in range(n) for k in (1, 3)] + [3 * n + 1]


def assert_same_bits(table, want):
    np.testing.assert_array_equal(table.view(np.uint64), want.view(np.uint64))


def x1_free(spec):
    return cf.probability._build(spec, lambda v: v.label != "X1")  # as `floors`


BINARY_SPECS = {
    **{f"demo-n{n}s{s}": partial(cf.demo_spec, n, s) for n in range(1, 7) for s in (1, 7, 301)},
    "thin-n3": partial(thin_spec, 3),
    "thin-n7": partial(thin_spec, 7),  # one-letter Y and Yh: axes of size 1
    **{f"{name}-n{n}": partial(symmetric_family, name, n)  # exact zeros
       for name in SYMMETRIC_FAMILIES for n in range(1 + (name == "mixed"), 5)},
}


class TestBuildOrder:
    """The full table is the product of the factors left to right, as one einsum
    pass without optimization multiplies them; the relay and X1-free tables
    are contracted along the network, the path einsum's greedy search finds on
    binary specs, given to einsum so that no build searches."""

    @pytest.mark.parametrize("make", BINARY_SPECS.values(), ids=BINARY_SPECS.keys())
    def test_full_table_is_the_one_pass_einsum(self, make):
        spec = make()
        table = cf.build_joint(spec).table
        assert_same_bits(table, np.einsum(*einsum_operands(spec), list(range(table.ndim)),
                                          optimize=False))

    @pytest.mark.parametrize("make", BINARY_SPECS.values(), ids=BINARY_SPECS.keys())
    def test_contracted_tables_are_the_greedy_einsums(self, make):
        spec = make()
        n = len(spec.relays)
        for joint, axes in [(cf.build_relay_joint(spec), relay_labels(n)),
                            (cf.build_joint(spec).relay_joint(), relay_labels(n)),
                            (x1_free(spec), list(range(1, 3 * n + 2)))]:
            assert_same_bits(joint.table, np.einsum(*einsum_operands(spec), axes, optimize=True))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 7, 301])
    def test_mixed_alphabets_agree_with_the_greedy_einsums(self, n, seed):
        # greedy may fold these in another order: the tables agree to the last bits
        spec = random_spec(np.random.default_rng(seed), n)
        full = cf.build_joint(spec)
        assert_same_bits(full.table, np.einsum(*einsum_operands(spec), list(range(3 * n + 2))))
        for joint, axes in [(cf.build_relay_joint(spec), relay_labels(n)),
                            (x1_free(spec), list(range(1, 3 * n + 2)))]:
            want = np.einsum(*einsum_operands(spec), axes, optimize=True)
            assert joint.table.shape == want.shape
            assert np.all(np.abs(joint.table - want) <= 1e-15 * want)

    def test_no_negative_zero(self):
        # the spec checks allow entries down to -NORMALIZATION_TOL; such an entry
        # times an exact zero is -0.0, which einsum's sum from zero turns to 0.0
        spec = cf.demo_spec(2, 7)
        channel = spec.channel.copy()
        channel[1, 0, 0, 0, 0, 1] += channel[1, 0, 0, 0, 0, 0]
        channel[1, 0, 0, 0, 0, 0] = 0.0
        spec = cf.ChannelSpec(spec.d, 2, np.array([1.0 + 1e-13, -1e-13]), spec.relays, 2, channel)
        assert cf.validate_spec(spec) == []
        table = cf.build_joint(spec).table
        assert np.count_nonzero(table == 0.0) == 4 and not np.signbit(table[table == 0.0]).any()
        assert_same_bits(table, np.einsum(*einsum_operands(spec), list(range(8))))

    def test_every_einsum_gets_a_path(self, monkeypatch):
        paths = []
        einsum = np.einsum

        def recording(*args, **kwargs):
            paths.append(kwargs.get("optimize"))
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", recording)
        for spec in (cf.demo_spec(3, 7), random_spec(np.random.default_rng(7), 3)):
            for build, calls in ((cf.build_joint, 1), (cf.build_relay_joint, 1), (x1_free, 2)):
                paths.clear()
                build(spec)
                # the relay table, and the X1-free table too; the full table is no einsum
                assert len(paths) == calls
                assert all(isinstance(p, list) and p[0] == "einsum_path" for p in paths)

    def test_no_second_table(self):
        spec = cf.demo_spec(6, 7)
        tracemalloc.start()
        try:
            joint = cf.build_joint(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the table, then the check's one-byte-per-cell mask; the factors are
        # multiplied a slab at a time, so no temporary reaches half the table
        assert peak < joint.table.nbytes * 5 // 4


class TestPart:
    """`JointPmf._part`, which makes the relay table that every joint over more
    than the relay axes keeps, contracted by `_build` or summed once by the
    constructor: the same distribution over fewer axes, in the parent's memo-key
    space and sharing its memo."""

    def test_queries_match_parent(self):
        rng = np.random.default_rng(83)
        for n in (2, 2, 3, 3):
            spec = random_spec(rng, n_relays=n)
            full = cf.build_joint(spec)  # shares no memo with the part below
            # a cold constructed parent's relay table: the part sums its own tables
            joint = cf.JointPmf(full.variables, full.table).relay_joint()
            for a in powerset(full.relays):
                for b in powerset(full.relays):
                    assert abs(joint.relay_entropy(a, b) - full.relay_entropy(a, b)) <= 1e-12
            for u in joint.variables:
                for v in joint.variables:
                    assert abs(joint.entropy({u, v}) - full.entropy({u, v})) <= 1e-12

    def test_keeps_parent_entropies(self, summed_sizes):
        root = cf.build_joint(cf.demo_spec(3, 7))
        made = cf.JointPmf(root.variables, root.table)  # a family of its own
        pairs = [(a, b) for a in powerset(made.relays) for b in powerset(made.relays)]
        known = {(a, b): made.relay_entropy(a, b) for a, b in pairs}
        known["x2yh3"] = made.entropy({made.x(2), made.yhat(3)})
        joint = made.relay_joint()
        summed_sizes.clear()
        got = {(a, b): joint.relay_entropy(a, b) for a, b in pairs}
        got["x2yh3"] = joint.entropy({joint.x(2), joint.yhat(3)})
        assert got == known and summed_sizes == []
        # a set the parent never answered is summed from the part's own table,
        # and then answers the parent too
        h = joint.entropy({joint.yhat(2)})
        assert summed_sizes == [joint.table.size]
        assert made.entropy({made.yhat(2)}) == h and summed_sizes == [joint.table.size]
        assert abs(h - root.entropy({root.yhat(2)})) <= 1e-12

    @pytest.mark.parametrize("make", ["build_joint", "constructed"])
    def test_parent_and_relay_table_share_the_memo(self, summed_sizes, make):
        root = cf.build_joint(cf.demo_spec(3, 7))
        if make == "constructed":
            root = cf.JointPmf(root.variables, root.table)
        relay = root.relay_joint()
        assert relay._memo is root._memo and relay._outer_caps is root._outer_caps
        pairs = [(a, b) for a in powerset(root.relays) for b in powerset(root.relays)]
        known = {(a, b): relay.relay_entropy(a, b) for a, b in pairs}
        known["x2yh3"] = relay.entropy({relay.x(2), relay.yhat(3)})
        summed_sizes.clear()
        got = {(a, b): root.relay_entropy(a, b) for a, b in pairs}
        got["x2yh3"] = root.entropy({root.x(2), root.yhat(3)})
        assert got == known and summed_sizes == []

    def test_relay_axes_only_is_its_own_relay_table(self):
        joint = cf.build_relay_joint(cf.demo_spec(3, 7))
        assert joint.relay_joint() is joint and joint._relay_joint is None
        made = cf.JointPmf(joint.variables, joint.table)
        assert made.relay_joint() is made and made._relay_joint is None

    def test_constructed_joint_keeps_one_relay_table(self, demo3, summed_sizes):
        made = cf.JointPmf(demo3.variables, demo3.table)
        assert summed_sizes == [demo3.table.size]  # summed once, by the constructor
        assert made.relay_joint() is made.relay_joint() and summed_sizes == [demo3.table.size]

    def test_canonical_order_and_table(self, demo3):
        made = cf.JointPmf(demo3.variables, demo3.table)
        keep = relay_axes(made)
        joint = made.relay_joint()
        assert list(joint.variables) == keep
        assert np.array_equal(joint.table, made.marginal(keep))
        assert joint.relays == made.relays and joint.d == made.d
        assert not joint.table.flags.writeable and joint._relay_joint is None
        kept = demo3.relay_joint()  # contracted in the build, not summed
        assert kept.variables == joint.variables and not kept.table.flags.writeable
        assert np.array_equal(kept.table, cf.build_relay_joint(cf.demo_spec(3, 3)).table)

    def test_sums_without_the_public_marginal(self, demo3, monkeypatch):
        # `marginal` is the method a tracer wraps to count generic queries
        def refuse(self, variables):
            raise AssertionError("the constructor called JointPmf.marginal")

        monkeypatch.setattr(cf.JointPmf, "marginal", refuse)
        made = cf.JointPmf(demo3.variables, demo3.table)
        monkeypatch.undo()
        assert np.array_equal(made.relay_joint().table, made.marginal(relay_axes(made)))


class TestFamily:
    """A joint and its kept relay table share one memo; a new sum reads the joint
    asked, or the relay table it keeps when that table holds the sum's variables."""

    @pytest.mark.parametrize("asked", ["root", "relay"])
    def test_relay_terms_summed_from_relay_table(self, summed_sizes, asked):
        spec = cf.demo_spec(3, 7)
        reference = cf.build_joint(spec)  # a family of its own
        pairs = [(a, b) for a in powerset(reference.relays) for b in powerset(reference.relays)]
        want = [reference.relay_entropy(a, b) for a, b in pairs]
        want.append(reference.entropy({reference.x(2), reference.yhat(3)}))
        root = cf.build_joint(spec)
        members = {"root": root, "relay": root.relay_joint()}
        joint = members[asked]
        summed_sizes.clear()
        got = [joint.relay_entropy(a, b) for a, b in pairs]
        got.append(joint.entropy({joint.x(2), joint.yhat(3)}))  # the generic path
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
        # the 27 masks with b in a come from the fill and sum nothing; each other
        # query, every mask being new, sums the kept relay table once
        outside = sum(not b <= a for a, b in pairs) + 1
        assert outside == 64 - 27 + 1
        assert summed_sizes == [members["relay"].table.size] * outside
        assert members["relay"].table.size < root.table.size

    # a constructed joint sums its relay table once, so every entry of the memo it
    # shares with that table is summed from it, whichever member asks first
    @pytest.mark.parametrize("n, seed", [(3, 1), (4, 7), (5, 301), (6, 7)])
    def test_caps_do_not_depend_on_who_asks_first(self, n, seed):
        full = cf.build_joint(cf.demo_spec(n, seed))
        one_per_layer = cf.layering.make_layering([{i} for i in full.relays])
        caps = {}
        for first in ("joint", "relay"):
            made = cf.JointPmf(full.variables, full.table)
            asked = made if first == "joint" else made.relay_joint()
            caps[first] = (cf.region.region_caps(asked, None),
                           cf.region.region_caps(asked, one_per_layer))
        assert caps["joint"] == caps["relay"]

    def test_cli_sums_read_the_joint_asked_or_its_relay_table(self, tmp_path, monkeypatch,
                                                              capsys):
        asked, strays, sums, checks = [], [], [], []
        sum_table, check = cf.probability._sum_table, cf.JointPmf._check

        def summing(table, bits, mask):
            # the table asked, a joint's or one of `_walk`'s, or the joint's relay table
            if not asked or all(table is not t for t in asked[-1]):
                strays.append(table)
            if any(not mask & bit for bit in bits):  # keeping every axis sums nothing
                sums.append(str(table.size.bit_length() - 12))
            return sum_table(table, bits, mask)

        def asking(method):
            def wrapped(self, *args, **kwargs):
                at = inspect.signature(method).bind(self, *args, **kwargs).arguments.get("at")
                relay = self._relay_joint
                asked.append((self._table if at is None else at[0], relay and relay._table))
                try:
                    return method(self, *args, **kwargs)
                finally:
                    asked.pop()
            return wrapped

        monkeypatch.setattr(cf.probability, "_sum_table", summing)
        monkeypatch.setattr(cf.JointPmf, "_check", lambda self: checks.append(check(self)))
        # every sum starts in one of these: a part and a walk step sum by `_sum`
        for name in ("_entropy", "_sum"):
            monkeypatch.setattr(cf.JointPmf, name, asking(getattr(cf.JointPmf, name)))
        cf.demo_spec(6, 7).save(tmp_path / "c6.json")
        cf.demo_spec(5, 7).save(tmp_path / "c5.json")
        rates = {str(i): 0.0007 if i == 2 else 1e-5 for i in range(2, 8)}
        (tmp_path / "r6.json").write_text(json.dumps({"rates": rates}))
        chan6, chan5, with_rates = (["--channel", str(tmp_path / "c6.json")],
                                    ["--channel", str(tmp_path / "c5.json")],
                                    ["--rates", str(tmp_path / "r6.json")])
        runs = {"floors": ["floors", *chan6], "check": ["check", *chan6, *with_rates],
                "solve": ["solve", *chan6, *with_rates], "export": ["export", *chan5]}
        got, checked = {}, {}
        for name, args in runs.items():
            sums.clear()
            checks.clear()
            assert cf.cli.main(args) == 0
            got[name], checked[name] = "".join(sums), len(checks)
        capsys.readouterr()
        assert strays == [] and got == CLI_SUMS
        # only the table each command builds is checked: not its relay table, made of
        # the same validated factors, nor a walked table, which sums a checked table
        assert checked == dict.fromkeys(runs, 1)

    def test_cold_seven_relay_check_sums_the_relay_table_once_per_pair(self, tmp_path,
                                                                        summed_sizes, capsys):
        cf.demo_spec(7, 7).save(tmp_path / "c7.json")
        rates = {str(i): 0.0007 if i == 2 else 1e-5 for i in range(2, 9)}
        (tmp_path / "r7.json").write_text(json.dumps({"rates": rates}))
        summed_sizes.clear()
        cf.cli.main(["check", "--channel", str(tmp_path / "c7.json"),
                     "--rates", str(tmp_path / "r7.json")])
        capsys.readouterr()
        # one sum per pair term H(Xi, Yhi); the 2,187 cap terms are one fill (134 sums before)
        assert summed_sizes == [2 ** 15] * 7

    def test_floors_reads_each_floor_from_a_singleton_joint(self, tmp_path, monkeypatch,
                                                             capsys):
        sums = []  # (cells read, axes kept) per sum
        sum_table = cf.probability._sum_table

        def summing(table, bits, mask):
            kept = sum(1 for bit in bits if mask & bit)
            if kept < table.ndim:
                sums.append((table.size, kept))
            return sum_table(table, bits, mask)

        monkeypatch.setattr(cf.probability, "_sum_table", summing)
        cf.demo_spec(6, 7).save(tmp_path / "c6.json")
        assert cf.cli.main(["floors", "--channel", str(tmp_path / "c6.json")]) == 0
        capsys.readouterr()
        # the X1-free joint is summed to no floor term such as (Xi, Yi, Yhi), the
        # window tables come from the one-axis walk, and the relay table is contracted
        # in the build, not summed from that joint: 269 sums of 17.92M cells, not 25.3M
        assert max(size for size, _ in sums) == 2 ** 19
        assert [kept for size, kept in sums if size == 2 ** 19 and kept <= 3] == []
        assert sum(size for size, _ in sums) <= 18.96e6


# log2 of the size of each table summed, less 11, in order, by `floors`, `check`
# and `solve` on demo_spec(6, 7) and `export` on demo_spec(5, 7): 2^19 cells is 8,
# the 6-relay relay table (2^13) is 2, the 5-relay one (2^11) is 0.  Every entry of
# the cap family comes from one fill of the relay table, which sums no marginal, so
# `check`, `solve` and `export` sum it once per pair term H(Xi, Yhi)
CLI_SUMS = {
    "floors": "8765434335433433654334335433433765433433543343365433433543343387"
              "6543343354334336543343354334337654334335433433654334335433433228"
              "2726252422233422233524222335262524222335262526272625242223352625"
              "2627262526272627287262524223352625262726252627262728726252627262"
              "7287262728728",
    "check": "2" * 6,
    "solve": "2" * 6,
    "export": "0" * 5,
}


def family_pairs(relays):
    """Every (A, B) of relay sets with B in A: the cap family's H(X_A, Yh_B, Yd)."""
    return [(a, b) for a in powerset(relays) for b in powerset(a)]


def family_of(joint) -> dict:
    """The memo entries of `joint`'s cap family, filled by a query to one of them."""
    joint.relay_entropy((), ())
    relay = joint.relay_joint()
    return {mask: h for mask, h in joint._memo.items() if relay._in_family(mask)}


FILL_SPECS = {
    **{f"demo-n{n}s{s}": partial(cf.demo_spec, n, s) for n in range(1, 7) for s in (1, 7)},
    **{f"random-n{n}s{s}": partial(lambda n, s: random_spec(np.random.default_rng(s), n), n, s)
       for n in (1, 2, 3, 4) for s in (5, 61)},
    **{f"{name}-n{n}": partial(symmetric_family, name, n)  # exact zeros and ties
       for name in SYMMETRIC_FAMILIES for n in (2, 4)},
    "thin-n5": partial(thin_spec, 5),  # one-letter Y and Yh
}


class TestFill:
    """Every entry of the cap family, H(X_A, Yh_B, Yd) for B in A, comes from one
    numpy pass over the relay table (`JointPmf._fill`), whichever query asks first."""

    @pytest.mark.parametrize("make", FILL_SPECS.values(), ids=FILL_SPECS.keys())
    def test_matches_the_factor_oracle(self, make, summed_sizes):
        spec = make()
        joint, oracle = cf.build_relay_joint(spec), FactorOracle(spec)
        pairs = family_pairs(joint.relays)
        got = {(a, b): joint.relay_entropy(a, b) for a, b in pairs}
        assert summed_sizes == [] and len(got) == 3 ** len(joint.relays)
        assert max(abs(h - oracle.relay_entropy(a, b)) for (a, b), h in got.items()) <= 1e-12

    def test_joint_without_a_compression(self, summed_sizes):
        spec = cf.demo_spec(3, 7)
        full, oracle = cf.build_joint(spec), FactorOracle(spec)
        variables = [v for v in full.variables if v != full.yhat(3)]
        made = cf.JointPmf(variables, full.marginal(variables))
        summed_sizes.clear()
        got = {(a, b): made.relay_entropy(a, b) for a, b in family_pairs(made.relays)
               if 3 not in b}
        assert summed_sizes == [] and len(got) == 3 ** 2 * 2
        assert max(abs(h - oracle.relay_entropy(a, b)) for (a, b), h in got.items()) <= 1e-12
        assert len(family_of(made)) == len(got)

    @pytest.mark.parametrize("cells", [
        [ZERO / 2, ZERO / 2, ZERO, 0.0, 0.5 - 2 * ZERO, 0.5, 0.0, 0.0],
        [ZERO, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5 - ZERO, 0.5],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ], ids=["below", "at", "point"])
    def test_hand_tables_at_and_below_zero_mass(self, cells):
        # over (X2, Yh2, Y3): some cells and some sums of them at or below ZERO_MASS
        variables = cf.build_relay_joint(cf.demo_spec(1, 7)).variables
        joint = cf.JointPmf(variables, np.array(cells).reshape(2, 2, 2))
        pmf = {key: p for key, p in np.ndenumerate(joint.table)}
        labels = [v.label for v in variables]
        for a, b in family_pairs(joint.relays):
            wanted = [f"X{i}" for i in a] + [f"Yh{i}" for i in b] + ["Y3"]
            h = joint.relay_entropy(a, b)
            assert abs(h - entropy(pmf, labels, wanted)) <= 1e-12
            assert math.copysign(1.0, h) == 1.0  # clamped at +0.0

    @pytest.mark.parametrize("slab", [1, 7, 60, 500])
    @pytest.mark.parametrize("seed", range(4))
    def test_split_fill_is_the_unsplit_one(self, monkeypatch, slab, seed):
        spec = random_spec(np.random.default_rng(seed), n_relays=3)
        whole = family_of(cf.build_relay_joint(spec))
        grown = spec.dest_alphabet * math.prod(  # one slab at the default size, many at `slab`
            r.x_alphabet * (r.yhat_alphabet + 1) + 1 for r in spec.relays)
        assert slab < grown <= cf.probability.SUM_SLAB_CELLS
        monkeypatch.setattr(cf.probability, "SUM_SLAB_CELLS", slab)
        split = family_of(cf.build_relay_joint(spec))
        assert split.keys() == whole.keys()
        assert all(split[k] == whole[k] for k in whole)

    def test_six_relay_fill_splits_to_the_unsplit_bits(self, monkeypatch):
        spec = cf.demo_spec(6, 7)
        split = family_of(cf.build_relay_joint(spec))  # 7^6 * 2 grown cells: split
        monkeypatch.setattr(cf.probability, "SUM_SLAB_CELLS", 1 << 20)
        assert split == family_of(cf.build_relay_joint(spec))

    def test_fill_holds_a_few_slabs(self):
        joint = cf.build_relay_joint(cf.demo_spec(7, 7))  # 7^7 * 2 grown cells, 26 MB unsplit
        tracemalloc.start()
        try:
            joint._fill()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a grown slab, its p log2 p and the masks and sums beside them: about 1 MB
        assert peak <= 4 * 8 * cf.probability.SUM_SLAB_CELLS

    def test_fill_sums_no_marginal(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the fill summed a marginal")

        spec = cf.demo_spec(3, 7)
        joint = cf.build_joint(spec)
        monkeypatch.setattr(cf.probability, "_sum_table", refuse)
        monkeypatch.setattr(cf.JointPmf, "marginal", refuse)
        got = {(a, b): joint.relay_entropy(a, b) for a, b in family_pairs(joint.relays)}
        got["generic"] = joint.entropy({joint.x(2), joint.yhat(2), joint.x(4), joint.yd})
        monkeypatch.undo()
        assert got["generic"] == cf.build_relay_joint(spec).relay_entropy({2, 4}, {2})

    @pytest.mark.parametrize("make", ["build_joint", "constructed"])
    def test_first_asker_does_not_matter(self, make):
        # root or relay table, relay_entropy, the generic entropy or a walked table's h,
        # a family entry or another mask first: one memo of the same bits
        spec = cf.demo_spec(4, 7)

        def fresh():
            root = cf.build_joint(spec)
            return root if make == "build_joint" else cf.JointPmf(root.variables, root.table)

        firsts = {
            "root-relay": lambda j: j.relay_entropy({3, 5}, {5}),
            "relay-relay": lambda j: j.relay_joint().relay_entropy({2}, ()),
            "root-generic": lambda j: j.entropy({j.x(4), j.yhat(4), j.yd}),
            "relay-generic": lambda j: j.relay_joint().entropy({j.yd}),
            "root-other": lambda j: j.entropy({j.x(2), j.yhat(3)}),
            "walked": lambda j: next(j._walk([]))[2](j._key("x", [2, 3]) | j._key("y", [6])),
        }
        families = {}
        for name, first in firsts.items():
            joint = fresh()
            first(joint)
            families[name] = family_of(joint)
        want = families.pop("root-relay")
        assert len(want) == 3 ** 4
        assert all(got == want for got in families.values())

    def test_threads_fill_one_family(self):
        from concurrent.futures import ThreadPoolExecutor

        spec = cf.demo_spec(5, 7)
        want = family_of(cf.build_joint(spec))
        joint = cf.build_joint(spec)  # cold
        pairs = family_pairs(joint.relays)

        def query(k):
            member = joint if k % 2 else joint.relay_joint()
            order = np.random.default_rng(k).permutation(len(pairs))
            return {pairs[i]: member.relay_entropy(*pairs[i]) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-fill
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(query, range(16), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 16 and all(r == results[0] for r in results)
        assert family_of(joint) == want


class TestWalk:
    """`JointPmf._walk`, the table walker of `cflayers floors`."""

    def test_one_table_per_depth(self, monkeypatch):
        joint = cf.probability._build(cf.demo_spec(4, 7), lambda v: v.label != "X1")
        made = []  # every table the walk sums, by weak reference
        sum_table = cf.probability._sum_table

        def summing(table, bits, mask):
            out = sum_table(table, bits, mask)
            if out is not table:
                made.append(weakref.ref(out))
            return out

        monkeypatch.setattr(cf.probability, "_sum_table", summing)
        ys = {i: joint._key("y", [i]) for i in joint.relays}
        windows = [(ys[i], joint._key("yhat", [i])) for i in joint.relays]
        subsets = [(ys[i], 0) for i in reversed(joint.relays)]
        root = sum(joint._bits)
        for levels, tables in ((windows, 2 ** 5 - 3), (subsets, 2 ** 4 - 2)):
            made.clear()
            for _, mask, _ in joint._walk(levels):
                # the tables on the path to this one, one per axis it drops: no sibling
                # and no table of a step that went on with its parent's table
                assert sum(ref() is not None for ref in made) <= (root & ~mask).bit_count()
            # each step sums a table, but the relay table, the leaf that drops every Y
            assert len(made) == tables

    def test_floors_terms_match_full_joint(self):
        # what `cflayers floors` reads for subset S: T(S), the table of (X_R, Yh_R, Y_S,
        # Yd), walked from the X1-free joint by dropping Y_i, nodes in decreasing order
        for spec in mixed_specs():
            full = cf.build_joint(spec)  # built apart: shares no memo with the walk
            joint = x1_free(spec)
            relays, ys = joint.relays, {i: joint._key("y", [i]) for i in joint.relays}
            seen = []
            for _, mask, h in joint._walk([(ys[i], 0) for i in reversed(relays)]):
                s = frozenset(i for i in relays if mask & ys[i])
                seen.append(s)
                kept = [v for v, bit in zip(joint.variables, joint._bits) if mask & bit]
                assert abs(h(mask) - full.entropy(kept)) <= 1e-12
                if s:
                    assert abs(cf.region._mi_gap(joint, s, h) - cf.mi_gap(full, s)) <= 1e-12
                    assert abs(cf.boundary_rhs(joint, s) - cf.boundary_rhs(full, s)) <= 1e-12
                if len(s) == 1:
                    (i,) = s
                    floor = cf.region._relay_floor(joint, i, h)
                    assert abs(floor - cf.compression_floor(full)[i]) <= 1e-12
            assert len(set(seen)) == len(seen) == 2 ** len(relays)


class TestKeptRelayTable:
    """`build_joint` keeps the relay table that `build_relay_joint` builds, and
    every relay query of it is summed from that table."""

    def test_cold_check_and_solve_never_sum_the_full_table(self, summed_sizes):
        spec = cf.demo_spec(6, 7)
        relay = cf.build_relay_joint(spec)  # a family of its own
        caps = cf.region.region_caps(relay, None)
        # relay 2 near its largest rate, the others small: solve shifts twice
        top = 0.99 * min(cap - 1e-5 * (len(s) - 1) for s, cap in caps if 2 in s)
        rates = cf.RateVector({i: top if i == 2 else 1e-5 for i in relay.relays})
        summed_sizes.clear()
        joint = cf.build_joint(spec)
        report = cf.check_outer(joint, rates)
        layering, trace = cf.solve(joint, rates)
        assert report.is_member and trace.status == "achieved" and trace.shifts == 2
        assert max(summed_sizes) == 2 ** 13 == relay.table.size  # the 2^20 cells never
        assert [e.rhs for e in report.entries] == [cap for _, cap in caps]

    def test_relay_joint_shares_its_sums(self, summed_sizes):
        root = cf.build_joint(cf.demo_spec(3, 7))
        summed_sizes.clear()
        relay = root.relay_joint()  # kept: nothing is summed
        h = root.relay_entropy({2, 3}, {4})
        assert summed_sizes == [2 ** 7] and relay.table.size == 2 ** 7
        assert relay.relay_entropy({2, 3}, {4}) == h and summed_sizes == [2 ** 7]

    def test_joints_never_change(self):
        spec = cf.demo_spec(3, 7)
        root = cf.build_joint(spec)
        made = cf.JointPmf(root.variables, root.table)  # sums its relay table once
        x1_free = cf.probability._build(spec, lambda v: v.label != "X1")  # as `floors`
        relay = cf.build_relay_joint(spec)
        for joint in (root, x1_free, relay, made):
            kept = joint._relay_joint
            first = joint.relay_joint()
            for _ in joint._walk([(joint._key("yhat", [2]),)]):  # sums a table below it
                pass
            joint.entropy({joint.x(2), joint.yd})
            joint.relay_entropy({2, 3}, {4})
            assert joint._relay_joint is kept and joint.relay_joint() is first
            assert first is (joint if kept is None else kept)
        assert relay._relay_joint is None
        assert None not in (root._relay_joint, x1_free._relay_joint, made._relay_joint)

    def test_floors_relay_entries_are_the_relay_joints(self, tmp_path, monkeypatch, capsys):
        roots = []
        build = cf.region._build

        def building(*args):
            roots.append(build(*args))
            return roots[-1]

        monkeypatch.setattr(cf.region, "_build", building)
        spec = cf.demo_spec(4, 7)
        spec.save(tmp_path / "c4.json")
        assert cf.cli.main(["floors", "--channel", str(tmp_path / "c4.json")]) == 0
        capsys.readouterr()
        (root,) = roots
        held = sum(root._relay_joint._bits)
        relay = {mask: h for mask, h in root._memo.items() if not mask & ~held}
        # the cap terms and the floors' and windows' H(X_i), H(X_i, Yhi), H(X_G) and
        # H(X_R), whichever table of either walk asked them first: each is summed from
        # the kept relay table, bit for bit as `build_relay_joint` sums it
        reference = cf.build_relay_joint(spec)
        assert len(relay) > 2 ** 4 and relay == {
            mask: reference.entropy(v for v, bit in zip(root.variables, root._bits) if mask & bit)
            for mask in relay}

    def test_it_dies_with_its_joint(self):
        root = cf.build_joint(cf.demo_spec(3, 7))
        kept = weakref.ref(root._relay_joint)
        assert kept().table.size == 2 ** 7
        del root
        assert kept() is None  # freed at once: no cycle holds it


def mixed_joint(rng, n_relays=2):
    """A joint over X1, (Xi, Yi, Yhi) per relay and Yd, every alphabet of size 1-4,
    with random positive mass."""
    d = n_relays + 2
    variables = [cf.Variable("x", 1, int(rng.integers(1, 5)))]
    for node in range(2, d):
        variables += [cf.Variable(kind, node, int(rng.integers(1, 5)))
                      for kind in ("x", "y", "yhat")]
    variables.append(cf.Variable("y", d, int(rng.integers(1, 5))))
    table = rng.random(tuple(v.size for v in variables))
    return cf.JointPmf(variables, table / table.sum())


def kernel_masks(ndim):
    """Empty, one kept axis, all but one, and kept axes interleaved with dropped ones."""
    full = (1 << ndim) - 1
    one = [1 << i for i in range(ndim)]
    return [0] + one + [full & ~bit for bit in one] + [full // 3, full // 3 << 1]


def sum_to(joint, mask):
    """The kernel's sum of a joint's table to `mask`."""
    return cf.probability._sum_table(joint.table, joint._bits, mask)


def entropy_of(table):
    """H in bits of a summed table, every cell above ZERO_MASS copied, as
    `JointPmf._entropy` formed it before it skipped the copy."""
    probs = table.ravel()
    probs = probs[probs > ZERO]
    terms = np.log2(probs)
    terms *= probs
    return max(0.0, float(-np.sum(terms)))


class TestSumTo:
    """`_sum_table` sums one contiguous block per slab; numpy's multi-axis sum is the
    reference."""

    # small slabs run every branch: parts of one row and runs of whole rows
    @pytest.mark.parametrize("slab", [1, 5, 64, cf.probability.SUM_SLAB_CELLS])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_numpy_sum(self, monkeypatch, slab, seed):
        monkeypatch.setattr(cf.probability, "SUM_SLAB_CELLS", slab)
        joint = mixed_joint(np.random.default_rng(seed))
        table = joint.table
        for mask in kernel_masks(table.ndim):
            drop = tuple(i for i in range(table.ndim) if not mask >> i & 1)
            want = table.sum(axis=drop)
            got = sum_to(joint, mask)
            assert got.shape == want.shape  # 0-d for the empty mask
            assert np.max(np.abs(got - want)) <= 1e-15 * table.size

    # X1, (X2, Y2, Yh2), (X3, Y3, Yh3), Y4: 44,100 cells, then 154,350 (above the slab)
    @pytest.mark.parametrize("x1", [2, 7])
    def test_one_axis_adds_its_slices_in_order(self, x1):
        sizes = (x1, 3, 5, 7, 2, 3, 5, 7)
        kinds = [("x", 1), ("x", 2), ("y", 2), ("yhat", 2), ("x", 3), ("y", 3), ("yhat", 3),
                 ("y", 4)]
        table = np.random.default_rng(x1).random(sizes)
        joint = cf.JointPmf([cf.Variable(k, n, s) for (k, n), s in zip(kinds, sizes)],
                            table / table.sum())
        assert (joint.table.size > cf.probability.SUM_SLAB_CELLS) == (x1 == 7)
        full = (1 << len(sizes)) - 1
        for axis, size in enumerate(sizes):
            parts = [joint.table.take(j, axis=axis) for j in range(size)]
            want = parts[0]
            for part in parts[1:]:
                want = want + part  # ((s0 + s1) + s2) + ...
            assert np.array_equal(sum_to(joint, full & ~(1 << axis)), want)

    def test_keep_all_returns_the_table(self):
        joint = mixed_joint(np.random.default_rng(0))
        assert sum_to(joint, (1 << joint.table.ndim) - 1) is joint.table

    @pytest.mark.parametrize("slab", [5, cf.probability.SUM_SLAB_CELLS])
    def test_members_agree(self, monkeypatch, summed_sizes, slab):
        monkeypatch.setattr(cf.probability, "SUM_SLAB_CELLS", slab)
        root = cf.build_joint(cf.demo_spec(3, 7))
        relay = root.relay_joint()
        pairs = [(a, b) for a in powerset(root.relays) for b in powerset(root.relays)]
        summed_sizes.clear()
        # the reference: each term summed by the kernel from the full table
        want = [entropy_of(sum_to(root, root._mask(root.xs(a) | root.yhats(b) | {root.yd})))
                for a, b in pairs]
        got = [root.relay_entropy(a, b) for a, b in pairs]
        assert set(summed_sizes) == {root.table.size, relay.table.size}
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12

    def test_copies_no_table(self):
        joint = cf.build_joint(cf.demo_spec(6, 7))
        mask = joint._mask(relay_axes(joint))
        tracemalloc.start()
        try:
            out = sum_to(joint, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one slab's copy, its row sums and the result: at most two slabs, an eighth of the table
        slab_bytes = 8 * cf.probability.SUM_SLAB_CELLS
        assert out.nbytes < slab_bytes and peak <= 2 * slab_bytes <= joint.table.nbytes // 8


class TestEntropy:
    def test_uniform_bit(self):
        joint = cf.build_joint(unit_spec())
        assert joint.entropy({joint.x(2)}) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_variable(self):
        joint = cf.build_joint(unit_spec())
        assert joint.entropy({joint.x1}) == pytest.approx(0.0, abs=1e-12)

    def test_iterator_read_once(self):
        joint = cf.build_joint(cf.demo_spec(2, 7))  # cold: the query below sums
        pair = [joint.x(2), joint.yhat(2)]
        h = joint.entropy(v for v in pair)
        assert h == pytest.approx(1.6121, abs=1e-4)
        assert joint.entropy(pair) == h

    def test_point_mass_is_plus_zero(self):
        joint = cf.build_joint(thin_spec(2))  # one-letter Y2
        assert math.copysign(1.0, joint.entropy({joint.y(2)})) == 1.0

    def test_empty_set(self, demo2):
        assert demo2.entropy(frozenset()) == 0.0

    def test_upper_bound(self, demo2):
        full = set(demo2.variables)
        cap = sum(np.log2(v.size) for v in full)
        assert 0.0 <= demo2.entropy(full) <= cap + 1e-9

    def test_every_axis_copies_the_table_at_most_twice(self):
        # the table itself is summed, not a copy, and p log2 p is formed in place
        joint = cf.build_joint(cf.demo_spec(4, 7))
        tracemalloc.start()
        try:
            joint.entropy(joint.variables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * joint.table.nbytes

    @pytest.mark.parametrize("make", [
        lambda: cf.build_joint(cf.demo_spec(3, 7)),  # no cell at or below ZERO_MASS
        lambda: cf.build_joint(unit_spec()),  # exact zeros
        lambda: cf.JointPmf(cf.build_joint(thin_spec(1)).variables, np.array(
            [ZERO, ZERO / 2, 0.5 - 1.5 * ZERO, 0.5, 0.0, 0.0, 0.0, 0.0]).reshape(2, 2, 1, 1, 2)),
    ], ids=["positive", "zeros", "at-and-below-zero-mass"])
    def test_equals_the_compress_path(self, make, monkeypatch):
        joint = make()
        relay = joint.relay_joint()
        split = make()  # the same joint, its cap family filled one grown cell at a time
        monkeypatch.setattr(cf.probability, "SUM_SLAB_CELLS", 1)
        split.relay_joint()._fill()
        monkeypatch.undo()
        for k in range(len(joint.variables) + 1):
            for variables in combinations(joint.variables, k):
                mask = joint._mask(variables)
                if relay._in_family(mask):  # from the fill, which a split fill gives bit for bit
                    assert joint.entropy(variables) == split._memo[mask]
                    continue
                # the table the joint sums them from: its relay table when that holds them
                source = relay if set(variables) <= set(relay.variables) else joint
                assert joint.entropy(variables) == entropy_of(sum_to(source, mask))

    def test_no_copy_when_no_cell_is_dropped(self):
        joint = cf.build_joint(cf.demo_spec(4, 7))
        assert joint.table.min() > ZERO
        tracemalloc.start()
        try:
            joint.entropy(joint.variables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * joint.table.nbytes  # p log2 p alone; the compress copy made two

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

    def test_relay_tables_return_one_value(self):
        from concurrent.futures import ThreadPoolExecutor

        full = cf.build_joint(cf.demo_spec(3, 7))  # cold caches
        kept = full.relay_joint()
        made = cf.JointPmf(kept.variables, kept.table)  # its own relay table
        root = cf.JointPmf(full.variables, full.table)  # keeps one, summed from its own
        pairs = [(a, b) for a in powerset(full.relays) for b in powerset(full.relays)]

        def query(k):
            # by thread: `full`, which sums from its kept relay table, or `made`, over the
            # same table, so the same bits; or `root`, or its relay table asked for
            # mid-query, which shares its memo
            joint = (full, made, root, None)[k % 4] or root.relay_joint()
            order = np.random.default_rng(k).permutation(len(pairs))
            family = "full" if k % 4 < 2 else "root"
            return family, {pairs[i]: joint.relay_entropy(*pairs[i]) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-query
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(query, range(24), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 24
        for family in ("full", "root"):
            for key in pairs:
                assert len({values[key] for f, values in results if f == family}) == 1


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

    def test_iterators_written_as_lists(self):
        plain = {"z": [{"k": [1, 2.5]}, {"k": []}], "a": {"x": [1, "two"], "y": {}},
                 "m": [], "n": None}

        def lazy():
            return {"z": iter([{"k": iter([1, 2.5])}, {"k": iter([])}]),
                    "a": {"x": iter([1, "two"]), "y": {}}, "m": iter([]), "n": None}

        for want, got in [(plain, lazy()), ([plain, 3], iter([lazy(), 3])), ([], iter([]))]:
            a, b = io.StringIO(), io.StringIO()
            cf.probability.write_json(want, a)
            cf.probability.write_json(got, b)
            assert b.getvalue() == a.getvalue() == json.dumps(want, indent=2, sort_keys=True) + "\n"

    @JSON_PROPERTY
    @given(JSON_VALUES, st.randoms(use_true_random=False))
    @example({"b": [0.5, -0.0, float("nan")], "a": (float("inf"), -float("inf"))}, None)
    @example(["\x00\x1f\x7f\u2028\\\"é\ud800😀", 2**64, -(2**70), True, None], None)
    @example({"t": [np.array(EDGE_FLOATS).reshape(2, 1, 3, 2), 1],
              "u": {"v": [np.ones((1, 1, 1)), np.array(-0.0), np.zeros((2, 0))]}}, None)
    def test_bytes_of_json_dumps(self, value, rng):
        want = stdlib_text(as_lists(value))
        assert written(value) == want
        assert written(lazy_lists(value, lambda: True)) == want
        if rng is not None:
            assert written(lazy_lists(value, lambda: rng.random() < 0.5)) == want

    @JSON_PROPERTY
    @given(JSON_VALUES, st.sampled_from([set(), {0.5}, object(), b"x", 1j, {1: 0}, {None: 0},
                                         {"a": [{(1, 2): 0}]}]))
    def test_unsupported_raise_type_error(self, value, bad):
        # `json` accepts int and None keys; it never writes text that differs
        for doc, lazy in [([value, bad], iter([value, bad])),
                          ({"a": value, "b": [bad]}, {"a": value, "b": iter([bad])})]:
            for given_doc in (doc, lazy):
                ours, theirs = io.StringIO(), io.StringIO()
                with pytest.raises(TypeError):
                    cf.probability.write_json(given_doc, ours)
                try:
                    json.dump(as_lists(doc), theirs, indent=2, sort_keys=True)
                except TypeError:
                    pass
                assert theirs.getvalue().startswith(ours.getvalue())

    def test_iterator_items_written_as_yielded(self):
        fh = io.StringIO()
        seen = []  # what `fh` holds as each item is asked for

        def items():
            for k in range(3):
                seen.append(fh.getvalue())
                yield {"name": f"item{k}", "x": [k, 0.5]}

        cf.probability.write_json({"a": items(), "b": 1}, fh)
        assert fh.getvalue() == stdlib_text({"a": [{"name": f"item{k}", "x": [k, 0.5]}
                                                   for k in range(3)], "b": 1})
        for k in (1, 2):
            assert f'"item{k - 1}"' in seen[k] and seen[k].endswith("}")

    def test_spec_written_in_bounded_pieces(self, monkeypatch):
        spec = cf.demo_spec(6, 7)
        obj = spec.to_json_obj()
        text = stdlib_text(obj)  # 1.8 MB
        pieces, saved = [], []  # from the lists and, by `save`, from the arrays
        fh, file = io.StringIO(), io.StringIO()
        fh.write, file.write = pieces.append, saved.append
        cf.probability.write_json(obj, fh)
        monkeypatch.setattr(cf.probability, "open", lambda path, mode: file, raising=False)
        spec.save("chan.json")
        for parts in (pieces, saved):
            assert "".join(parts) == text and max(map(len, parts)) < len(text) // 16

    def test_spec_saved_without_its_lists(self, tmp_path):
        spec = cf.demo_spec(6, 7)
        tracemalloc.start()
        try:
            spec.save(tmp_path / "chan.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_700_000  # 1.8 MB when written from the lists of `to_json_obj`

    @pytest.mark.parametrize("make", [
        *BINARY_SPECS.values(), partial(cf.demo_spec, 7, 7),
        *(partial(lambda n: random_spec(np.random.default_rng(7), n), n) for n in range(1, 5)),
    ], ids=[*BINARY_SPECS, "demo-n7s7", *(f"random-n{n}" for n in range(1, 5))])
    def test_spec_text_of_json_dumps(self, make):
        spec = make()  # symmetric families hold broadcast kernels: arrays of zero strides
        assert spec.dumps() == stdlib_text(spec.to_json_obj())

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
