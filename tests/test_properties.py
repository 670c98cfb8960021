"""Hypothesis properties of entropies, specs, layer moves, the shift search, and CLI input.

Examples are derandomized, so every run draws the same cases.
"""

import contextlib
import io
import json
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cflayers as cf
from cflayers.cli import main
from cflayers.region import subsets_by_mask

from conftest import random_spec

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)


def layerings(relays):
    """Layerings of `relays` from a layer index per relay; empty layers can occur."""
    nodes = sorted(relays)

    def build(assign):
        layers = [set() for _ in range(max(assign) + 1)]
        for node, l in zip(nodes, assign):
            layers[l].add(node)
        return cf.make_layering(layers)

    index = st.integers(0, len(nodes) + 1)
    return st.lists(index, min_size=len(nodes), max_size=len(nodes)).map(build)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["2", "3", "9", "rates", "node"]) | st.text(max_size=3),
                      inner, max_size=4),
    max_leaves=12,
)


RELAY_FIELDS = ["node", "x_alphabet", "y_alphabet", "yhat_alphabet", "p_x", "p_yhat_given_x_y"]

# Where a number or table sits in a two-relay spec's JSON object.
SPEC_SLOTS = [
    ("d",),
    ("source", "alphabet"),
    ("source", "p_x1"),
    ("relays", 0, "x_alphabet"),
    ("relays", 0, "p_x"),
    ("relays", 1, "p_yhat_given_x_y"),
    ("destination", "y_alphabet"),
    ("channel",),
]


@pytest.fixture(scope="session")
def chan_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@pytest.fixture(scope="session")
def mixed_joints():
    """Mixed-alphabet joints (sizes 2-3) with one and two relays."""
    rng = np.random.default_rng(2024)
    return [cf.build_joint(random_spec(rng, n_relays=n)) for n in (1, 2, 2)]


def summed_cond_entropy(joint, b, a):
    """H(B | A) summed cell by cell from the marginal over A u B."""
    keep = sorted(a | b, key=joint.variables.index)
    p = joint.marginal(keep)
    p_a = p.sum(axis=tuple(k for k, v in enumerate(keep) if v not in a), keepdims=True)
    ratio = np.divide(p, np.broadcast_to(p_a, p.shape), out=np.ones_like(p), where=p > 0)
    return float(-np.sum(p * np.log2(ratio)))


def spec_tables(spec):
    return [spec.p_x1, spec.channel] + [t for r in spec.relays for t in (r.p_x, r.p_yhat)]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_verdict_or_input_error(code, out, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ")


@PROPERTY
@given(data=st.data())
def test_entropy_nonnegative_chain_rule_monotone(mixed_joints, data):
    joint = data.draw(st.sampled_from(mixed_joints))
    variables = st.sets(st.sampled_from(joint.variables))
    a, b = data.draw(variables), data.draw(variables)
    h_a, h_ab = joint.entropy(a), joint.entropy(a | b)
    assert 0.0 <= h_a <= sum(np.log2(v.size) for v in a) + 1e-12
    assert h_ab >= h_a - 1e-12
    assert h_ab == pytest.approx(h_a + summed_cond_entropy(joint, b - a, a), abs=1e-9)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
def test_spec_survives_json_round_trip(chan_dir, seed, n):
    spec = random_spec(np.random.default_rng(seed), n_relays=n)
    path = chan_dir / "round_trip.json"
    spec.save(path)
    back = cf.load_spec(path)
    assert back.dumps() == spec.dumps()
    for got, want in zip(spec_tables(back), spec_tables(spec), strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_submodular(cap, relays):
    """f(A) + f(B) >= f(A u B) + f(A n B) within 1e-12 for all subsets, f(empty) = 0."""
    f = {frozenset(): 0.0}
    f.update((s, cap(s)) for s in subsets_by_mask(relays))
    for a in f:
        for b in f:
            assert f[a] + f[b] >= f[a | b] + f[a & b] - 1e-12, (sorted(a), sorted(b))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_outer_cap_is_submodular(seed, n):
    # a modular pair sum plus an entropy of the complement: a theorem
    joint = cf.build_relay_joint(random_spec(np.random.default_rng(seed), n_relays=n))
    assert_submodular(partial(cf.boundary_rhs, joint), joint.relay_set)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3))
def test_every_layered_cap_is_submodular(seed, n):
    # observed on every case tried, not proven
    joint = cf.build_relay_joint(random_spec(np.random.default_rng(seed), n_relays=n))
    for lay in cf.enumerate_layerings(joint.relay_set):
        assert_submodular(partial(cf.layered_rhs, joint, lay), joint.relay_set)


def assert_union_of_minimizers_minimizes(cap, relays, rates):
    """g(S) = cap(S) - R_S, g(empty) = 0: the union of every minimizer within 1e-12
    is itself within 1e-11 of the minimum, as for any submodular g."""
    g = {frozenset(): 0.0}
    g.update((s, cap(s) - rates.subset_sum(s)) for s in subsets_by_mask(relays))
    low = min(g.values())
    union = frozenset().union(*(s for s, value in g.items() if value <= low + 1e-12))
    assert g[union] <= low + 1e-11, (sorted(union), g[union] - low)


def random_rates(joint, rng):
    """Rates up to 1.5 singleton outer caps, so that some subsets often violate."""
    caps = {i: cf.boundary_rhs(joint, {i}) for i in joint.relays}
    return cf.RateVector({i: rng.uniform(0, 1.5 * caps[i]) for i in joint.relays})


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_outer_union_of_minimizers_minimizes(seed, n):
    # the minimizers of a submodular function form a lattice: a theorem
    rng = np.random.default_rng(seed)
    joint = cf.build_relay_joint(random_spec(rng, n_relays=n))
    cap = partial(cf.boundary_rhs, joint)
    assert_union_of_minimizers_minimizes(cap, joint.relay_set, random_rates(joint, rng))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3))
def test_every_layered_union_of_minimizers_minimizes(seed, n):
    # observed on every case tried, not proven
    rng = np.random.default_rng(seed)
    joint = cf.build_relay_joint(random_spec(rng, n_relays=n))
    rates = random_rates(joint, rng)
    for lay in cf.enumerate_layerings(joint.relay_set):
        cap = partial(cf.layered_rhs, joint, lay)
        assert_union_of_minimizers_minimizes(cap, joint.relay_set, rates)


@PROPERTY
@given(data=st.data())
def test_compaction_weakly_raises_every_cap(demo3, data):
    lay = data.draw(layerings(demo3.relay_set))
    packed = cf.compact(lay)
    for s in subsets_by_mask(demo3.relay_set):
        assert cf.layered_rhs(demo3, packed, s) >= cf.layered_rhs(demo3, lay, s) - 1e-9


@PROPERTY
@given(data=st.data(), n=st.integers(2, 4))
def test_widening_an_interior_gap_keeps_every_cap(data, n):
    # why `solve` stops when a shift only widens a gap: every cap repeats bit for bit
    joint = cf.build_relay_joint(cf.demo_spec(n, 7))
    layers = data.draw(layerings(joint.relay_set).filter(lambda lay: lay.depth > 1)).layers
    gap = data.draw(st.integers(1, len(layers) - 1))  # between two layers
    once = cf.make_layering(layers[:gap] + (frozenset(),) + layers[gap:])
    twice = cf.make_layering(layers[:gap] + (frozenset(),) * 2 + layers[gap:])
    assert cf.region.region_caps(joint, twice) == cf.region.region_caps(joint, once)


@PROPERTY
@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    fraction=st.floats(0.05, 0.95),
)
def test_solve_result_accepts_and_every_core_certifies(demo3, weights, fraction):
    # a target strictly inside the outer region, along a drawn direction
    direction = dict(zip(demo3.relays, weights))
    reach = min(
        cf.boundary_rhs(demo3, s) / sum(direction[i] for i in s)
        for s in subsets_by_mask(demo3.relay_set)
    )
    rates = cf.RateVector({i: fraction * reach * w for i, w in direction.items()})
    layering, trace = cf.solve(demo3, rates)
    assert cf.check_layered(demo3, layering, rates).is_member
    for step in trace.steps:
        assert cf.verify_core(demo3, step.layering, step.core, rates).certified


@PROPERTY
@given(data=st.data(), n=st.integers(1, 5))
def test_shift_preserves_partition(data, n):
    relays = frozenset(range(2, 2 + n))
    lay = data.draw(layerings(relays))
    u = data.draw(st.sets(st.sampled_from(sorted(relays))))
    shifted = cf.shift(lay, u)
    assert cf.validate_layering(shifted, relays) == []
    assert shifted.depth == lay.depth + (1 if lay.layers[-1] & u else 0)
    for i in relays:
        assert shifted.layer_of(i) == lay.layer_of(i) + (i in u)


@pytest.fixture(scope="session")
def demo2_file(chan_dir):
    path = chan_dir / "demo2.json"
    cf.demo_spec(2, 7).save(path)
    return str(path)


@PROPERTY
@given(
    value=json_values
    | json_values.map(lambda v: {"rates": v})
    | st.dictionaries(st.sampled_from(["2", "3"]), json_values).map(lambda v: {"rates": v})
)
def test_any_json_rate_file_is_verdict_or_exit_two(chan_dir, demo2_file, value):
    path = chan_dir / "rates.json"
    path.write_text(json.dumps(value))
    result = run_cli(["check", "--channel", demo2_file, "--rates", str(path)])
    assert_verdict_or_input_error(*result)


@PROPERTY
@given(
    value=json_values
    | st.lists(st.dictionaries(st.sampled_from(RELAY_FIELDS), json_values), max_size=3)
)
def test_any_json_relays_is_exit_two(chan_dir, value):
    obj = cf.demo_spec(2, 7).to_json_obj()
    obj["relays"] = value
    chan = chan_dir / "relays.json"
    chan.write_text(json.dumps(obj))
    rates = chan_dir / "zero_rates.json"
    rates.write_text('{"rates": {"2": 0.0, "3": 0.0}}')
    code, out, err = run_cli(["check", "--channel", str(chan), "--rates", str(rates)])
    assert code == 2
    assert_verdict_or_input_error(code, out, err)


@pytest.fixture(scope="session")
def zero_rates2(chan_dir):
    path = chan_dir / "zero_rates2.json"
    path.write_text('{"rates": {"2": 0.0, "3": 0.0}}')
    return str(path)


@PROPERTY
@given(
    text=st.text(max_size=12)
    | st.lists(st.sampled_from(["2", "3", "4", ",", "|", " ", "-1", "x", "1e3"])).map("".join)
)
def test_any_layering_text_is_verdict_or_exit_two(demo2_file, zero_rates2, text):
    argv = ["check", "--channel", demo2_file, "--rates", zero_rates2, f"--layering={text}"]
    assert_verdict_or_input_error(*run_cli(argv))


@PROPERTY
@given(slot=st.sampled_from(SPEC_SLOTS), value=json_values | st.integers(min_value=2**63))
@example(slot=("d",), value=10**30)  # used to build range(2, d) and overflow
def test_any_json_spec_value_is_verdict_or_exit_two(chan_dir, zero_rates2, slot, value):
    obj = cf.demo_spec(2, 7).to_json_obj()
    parent = obj
    for key in slot[:-1]:
        parent = parent[key]
    parent[slot[-1]] = value
    chan = chan_dir / "spec_value.json"
    chan.write_text(json.dumps(obj))
    result = run_cli(["check", "--channel", str(chan), "--rates", zero_rates2])
    assert_verdict_or_input_error(*result)
