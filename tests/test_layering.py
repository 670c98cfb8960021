"""Ordered partitions, active sets, shift, and their exact set identities."""

import numpy as np
import pytest

import cflayers as cf
from cflayers.errors import LayeringSyntaxError
from cflayers.layering import (
    Layering,
    active,
    canonicalize,
    cumulative_complement,
    decoding_schedule,
    enumerate_layerings,
    make_layering,
    parse_layering,
    prefix_union,
    shift,
    validate_layering,
)

from conftest import random_layering, random_subset

# Layering text with a token that is no node as str() spells it, and that token.
BAD_LAYERING_TOKENS = [
    ("\u0662|\u0663", "\u0662"),  # Arabic-Indic digits that int() reads as 2 and 3
    ("+2|03", "+2"),
    ("2|03", "03"),
    ("2|x", "x"),
    ("2,,3", ""),
    ("2|3_0", "3_0"),
    ("2|3.0", "3.0"),
]

R23 = frozenset({2, 3})
R234 = frozenset({2, 3, 4})

TWO_RELAY_CENSUS = {(frozenset({2}), frozenset({3})),
                    (frozenset({2, 3}),),
                    (frozenset({3}), frozenset({2}))}

THREE_RELAY_CENSUS = {
    "2,3,4", "4|2,3", "3|2,4", "2|3,4", "4|3|2", "4|2|3", "3|4|2",
    "3|2|4", "2|3|4", "2|4|3", "3,4|2", "2,4|3", "2,3|4",
}


class TestValidate:
    def test_valid(self):
        assert validate_layering(parse_layering("2|3"), R23) == []

    def test_overlap(self):
        problems = validate_layering(make_layering([{2}, {2, 3}]), R23)
        assert any("repeats" in p for p in problems)

    def test_empty_last_layer(self):
        problems = validate_layering(make_layering([{2, 3}, set()]), R23)
        assert any("last layer" in p for p in problems)

    def test_foreign_and_missing(self):
        problems = validate_layering(make_layering([{2, 9}]), R23)
        assert any("outside" in p for p in problems)
        assert any("no layer" in p for p in problems)

    def test_interior_empty_is_fine(self):
        assert validate_layering(make_layering([{2}, set(), {3}]), R23) == []


class TestEnumerate:
    def test_single_relay(self):
        out = enumerate_layerings({2})
        assert out == [make_layering([{2}])]

    def test_two_relays_match_census(self):
        out = enumerate_layerings(R23)
        assert len(out) == 3
        assert {lay.layers for lay in out} == TWO_RELAY_CENSUS

    def test_three_relays_match_census(self):
        out = enumerate_layerings(R234)
        assert len(out) == 13
        assert {lay.to_text() for lay in out} == THREE_RELAY_CENSUS

    def test_ordered_bell_counts(self):
        for n, count in ((1, 1), (2, 3), (3, 13), (4, 75), (5, 541)):
            assert len(enumerate_layerings(range(2, 2 + n))) == count

    def test_all_valid_and_deterministic(self):
        relays = range(2, 6)
        out = enumerate_layerings(relays)
        assert out == enumerate_layerings(relays)
        for lay in out:
            assert validate_layering(lay, relays) == []
            assert all(lay.layers)  # canonical: no empty layers
        depths = [lay.depth for lay in out]
        assert depths == sorted(depths)

    @pytest.mark.parametrize("n, count", [(4, 75), (5, 541), (6, 4683)])
    def test_order_rule(self, n, count):
        """The documented order: by depth, then lexicographic on the layer
        bitmasks; every layering valid and each listed once."""
        relays = range(2, 2 + n)
        out = enumerate_layerings(relays)
        keys = [(lay.depth, tuple(sum(1 << (i - 2) for i in layer) for layer in lay.layers))
                for lay in out]
        assert keys == sorted(set(keys))
        assert len(out) == count
        assert all(validate_layering(lay, relays) == [] for lay in out)

    def test_cap(self):
        with pytest.raises(cf.TooManyRelaysError):
            enumerate_layerings(range(2, 10))

    def test_cap_before_materializing(self):
        with pytest.raises(cf.TooManyRelaysError):
            enumerate_layerings(range(2, 2 + 10**12))


class TestActiveSets:
    def test_definition(self):
        lay = parse_layering("2,4|3")
        assert active(lay, {2, 3}, 0) == {2}
        assert active(lay, {2, 3}, 1) == {3}

    def test_boundary_conventions(self):
        lay = parse_layering("2,4|3")
        assert active(lay, {2, 3, 4}, -1) == frozenset()
        assert active(lay, {2, 3, 4}, 2) == frozenset()
        assert cumulative_complement(lay, {3}, -1) == frozenset()
        assert cumulative_complement(lay, {3}, 2) == {2, 3, 4}

    def test_cumulative_complement_definition(self):
        lay = parse_layering("2,4|3")
        assert cumulative_complement(lay, {3}, 1) == {2, 4}
        assert cumulative_complement(lay, {2}, 0) == {4}

    def test_index_out_of_range(self):
        lay = parse_layering("2|3")
        with pytest.raises(cf.IndexOutOfRangeError):
            active(lay, {2}, 3)
        with pytest.raises(cf.IndexOutOfRangeError):
            cumulative_complement(lay, {2}, -2)

    def test_foreign_subset(self):
        lay = parse_layering("2|3")
        with pytest.raises(cf.InvalidSubsetError):
            active(lay, {9}, 0)


class TestShift:
    def test_empty_subset_is_identity(self):
        lay = parse_layering("2,4|3")
        assert shift(lay, frozenset()) == lay

    def test_merges_into_single_layer(self):
        lay = shift(parse_layering("2,4|3"), {2, 4})
        assert canonicalize(lay) == parse_layering("2,3,4")

    def test_splits_off_deepest(self):
        assert shift(parse_layering("2,3,4"), {4}) == parse_layering("2,3|4")

    def test_foreign_subset(self):
        with pytest.raises(cf.InvalidSubsetError):
            shift(parse_layering("2|3"), {5})

    def test_layer_map_and_depth_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            relays = frozenset(range(2, 2 + n))
            lay = random_layering(rng, relays)
            u = random_subset(rng, relays)
            shifted = shift(lay, u)
            assert lay.depth <= shifted.depth <= lay.depth + 1
            for i in relays:
                expected = lay.layer_of(i) + (1 if i in u else 0)
                assert shifted.layer_of(i) == expected
            assert validate_layering(shifted, relays) == []


class TestCanonicalize:
    def test_strip_one(self):
        assert canonicalize(make_layering([set(), {2, 3, 4}])) == parse_layering("2,3,4")

    def test_already_canonical(self):
        lay = parse_layering("2|3")
        assert canonicalize(lay) == lay

    def test_strip_two_keep_interior(self):
        lay = make_layering([set(), set(), {2}, set(), {3}])
        assert canonicalize(lay) == make_layering([{2}, set(), {3}])


class TestSchedule:
    def test_two_layers(self):
        assert decoding_schedule(parse_layering("2|3")) == {2: 1, 3: 2}

    def test_single_layer(self):
        assert decoding_schedule(parse_layering("2,3,4")) == {2: 1, 3: 1, 4: 1}

    def test_three_layers(self):
        assert decoding_schedule(parse_layering("3|4|2")) == {3: 1, 4: 2, 2: 3}

    def test_max_delay_is_depth(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            relays = frozenset(range(2, 2 + int(rng.integers(1, 6))))
            lay = canonicalize(random_layering(rng, relays))
            assert max(decoding_schedule(lay).values()) == lay.depth


class TestText:
    def test_roundtrip(self):
        for text in ("2|3", "2,3,4", "2,4|3", "3|4|2"):
            assert parse_layering(text).to_text() == text

    def test_spaces_around_tokens(self):
        assert parse_layering(" 2 , 4 |3 ") == parse_layering("2,4|3")

    @pytest.mark.parametrize("text, token", BAD_LAYERING_TOKENS)
    def test_misspelled_node(self, text, token):
        with pytest.raises(LayeringSyntaxError) as info:
            parse_layering(text)
        assert str(info.value) == f"layering {text!r} has a bad node {token!r}"
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("text, node", [("2,2|3", 2), ("2|3, 3 ", 3), ("4,2,4,2", 4)])
    def test_node_repeated_in_one_layer(self, text, node):
        with pytest.raises(LayeringSyntaxError) as info:
            parse_layering(text)
        assert str(info.value) == f"layering {text!r} repeats node {node} in one layer"

    def test_interior_empty(self):
        lay = parse_layering("2||3")
        assert lay.layers == (frozenset({2}), frozenset(), frozenset({3}))
        assert lay.to_text() == "2||3"


class TestShiftSetIdentities:
    """Exact active-set identities of the shift, pre-canonicalization."""

    def test_identities_random(self):
        rng = np.random.default_rng(9)
        for _ in range(400):
            n = int(rng.integers(1, 6))
            relays = frozenset(range(2, 2 + n))
            lay = random_layering(rng, relays)
            u = random_subset(rng, relays)
            s = random_subset(rng, relays)
            shifted = shift(lay, u)
            for l in range(lay.depth):
                # untouched nodes keep their active sets
                if not (s & u):
                    assert active(lay, s, l) - active(lay, u, l) == active(shifted, s, l)
                assert active(shifted, s - u, l) == active(lay, s - u, l)
                # shifted nodes land one layer deeper
                assert active(lay, s & u, l - 1) == active(shifted, s & u, l)
            for k in range(shifted.depth):
                assert prefix_union(lay, min(k, lay.depth)) - active(
                    lay, u, min(k, lay.depth)
                ) == prefix_union(shifted, k)
