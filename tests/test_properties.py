"""Hypothesis properties of the layer moves, the shift search, and CLI input handling.

Examples are derandomized, so every run draws the same cases.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cflayers as cf
from cflayers.cli import main
from cflayers.region import subsets_by_mask

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


@pytest.fixture(scope="session")
def chan_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


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
def test_compaction_weakly_raises_every_cap(demo3, data):
    lay = data.draw(layerings(demo3.relay_set))
    packed = cf.compact(lay)
    for s in subsets_by_mask(demo3.relay_set):
        assert cf.layered_rhs(demo3, packed, s) >= cf.layered_rhs(demo3, lay, s) - 1e-9


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
