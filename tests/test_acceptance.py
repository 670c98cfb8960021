"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a `criterion N ...: PASS (...)` line (visible with -s) and
asserts its stated wall-clock budget on top of the numeric tolerances.
"""

import time

import numpy as np
import pytest

import cflayers as cf
from cflayers.cli import main
from cflayers.layering import (
    active,
    canonicalize,
    enumerate_layerings,
    make_layering,
    parse_layering,
    prefix_union,
    shift,
)
from cflayers.region import subsets_by_mask

from conftest import (
    random_layering,
    random_spec,
    random_subset,
    sample_outer_point,
    usable_demo_channels,
)


class _budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.seconds}s"
            )
            print(f"criterion {self.number} ({self.name}): PASS ({elapsed:.2f}s)")
        else:
            print(f"criterion {self.number} ({self.name}): FAIL")
        return False


FIG1_TWO_RELAY = [
    [[2], [3]],
    [[2, 3]],
    [[3], [2]],
]
FIG1_THREE_RELAY = [
    [[2, 3, 4]],
    [[4], [2, 3]],
    [[3], [2, 4]],
    [[2], [3, 4]],
    [[4], [3], [2]],
    [[4], [2], [3]],
    [[3], [4], [2]],
    [[3], [2], [4]],
    [[2], [3], [4]],
    [[2], [4], [3]],
    [[3, 4], [2]],
    [[2, 4], [3]],
    [[2, 3], [4]],
]


def as_layering_set(listing):
    return {tuple(frozenset(layer) for layer in lay) for lay in listing}


def test_criterion_1_layering_census():
    with _budget(1, "layering census", 1.0):
        two = enumerate_layerings({2, 3})
        assert len(two) == 3
        assert {lay.layers for lay in two} == as_layering_set(FIG1_TWO_RELAY)
        three = enumerate_layerings({2, 3, 4})
        assert len(three) == 13
        assert {lay.layers for lay in three} == as_layering_set(FIG1_THREE_RELAY)


def test_criterion_2_shift_example():
    with _budget(2, "shift example", 1.0):
        shifted = canonicalize(shift(parse_layering("2,4|3"), {2, 4}))
        assert shifted == parse_layering("2,3,4")


def test_criterion_3_single_relay_collapse():
    with _budget(3, "single-relay collapse", 5.0):
        lay = make_layering([{2}])
        for seed in range(100):
            joint = cf.build_joint(cf.demo_spec(1, 1000 + seed))
            diff = abs(cf.layered_rhs(joint, lay, {2}) - cf.boundary_rhs(joint, {2}))
            assert diff < 1e-9


def test_criterion_4_shift_set_identities():
    with _budget(4, "shift set identities", 5.0):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            relays = frozenset(range(2, 2 + n))
            lay = random_layering(rng, relays)
            u = random_subset(rng, relays)
            s = random_subset(rng, relays)
            shifted = shift(lay, u)  # pre-canonicalization
            l = int(rng.integers(0, lay.depth))
            if not (s & u):
                assert active(lay, s, l) - active(lay, u, l) == active(shifted, s, l)
            # the disjoint part always satisfies the same identity
            assert active(lay, s - u, l) - active(lay, u, l) == active(shifted, s - u, l)
            assert active(shifted, s - u, l) == active(lay, s - u, l)
            assert active(lay, s & u, l - 1) == active(shifted, s & u, l)
            k = int(rng.integers(0, shifted.depth))
            kk = min(k, lay.depth)
            assert prefix_union(lay, kk) - active(lay, u, kk) == prefix_union(shifted, k)


def test_criterion_5_block_entropy_chain_rule():
    with _budget(5, "block-entropy chain rule", 30.0):
        rng = np.random.default_rng(102)
        joints = [
            cf.build_joint(cf.demo_spec(2 if k % 2 == 0 else 3, 1100 + k))
            for k in range(10)
        ]
        for trial in range(200):
            joint = joints[trial % len(joints)]
            relays = joint.relay_set
            s2 = random_subset(rng, relays)
            s1 = random_subset(rng, relays - s2)
            s3 = frozenset(i for i in s2 if rng.random() < 0.5)
            lhs = cf.block_cond_entropy(joint, s1, s2) + cf.block_cond_entropy(
                joint, s3, s2 - s3
            )
            rhs = cf.block_cond_entropy(joint, s1 | s3, s2 - s3)
            assert abs(lhs - rhs) < 1e-9


def test_criterion_6_window_gap_forms_agree():
    with _budget(6, "window identity chain", 60.0):
        for k in range(100):
            joint = cf.build_joint(cf.demo_spec(2 if k % 2 == 0 else 3, 1200 + k))
            for s in subsets_by_mask(joint.relay_set):
                gaps = cf.window_gap_forms(joint, s)
                assert max(gaps) - min(gaps) < 1e-9


def test_criterion_7_shift_search_reaches_interior_targets():
    with _budget(7, "shift search on interior targets", 300.0):
        channels = usable_demo_channels(
            100, lambda k: 2 if k % 2 == 0 else 3, first_seed=201
        )
        for idx, (seed, joint) in enumerate(channels):
            rng = np.random.default_rng(7000 + seed)
            rates = sample_outer_point(joint, rng, delta=1e-3)
            assert rates is not None, f"no interior point found for channel seed {seed}"
            layering, trace = cf.solve(
                joint, rates, max_iter=cf.default_max_iter(len(joint.relays))
            )
            assert trace.status == "achieved"
            assert cf.check_layered(joint, layering, rates).is_member
            assert not trace.degenerate
            visited = [step.layering for step in trace.steps]
            assert len(set(visited)) == len(visited)  # a repeat would stop the walk
            relays = joint.relay_set
            assert trace.steps[0].core == frozenset()
            for prev, nxt in zip(trace.steps, trace.steps[1:]):
                assert nxt.core == (relays - prev.chosen) | prev.core
                assert prev.core <= nxt.core  # monotone growth
                assert cf.verify_core(joint, nxt.layering, nxt.core, rates).certified
            assert layering in cf.brute_force_layering(joint, rates)


def test_criterion_8_layerings_cover_outer_region():
    with _budget(8, "cover property on a grid", 120.0):
        count = 0
        seed = 1299
        while count < 10:
            seed += 1
            joint = cf.build_joint(cf.demo_spec(2, seed))
            nodes = sorted(joint.relays)
            subsets = list(subsets_by_mask(joint.relay_set))
            a = np.array([[1.0 if i in s else 0.0 for i in nodes] for s in subsets])
            b_outer = np.array([cf.boundary_rhs(joint, s) for s in subsets])
            caps = [cf.boundary_rhs(joint, frozenset({i})) for i in nodes]
            axes = [np.linspace(0, c, 50) for c in caps]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            sums = pts @ a.T
            inside = np.all(b_outer - sums > 1e-3, axis=1)
            if not inside.any():
                continue  # region thinner than the slack threshold
            count += 1
            covered = np.zeros(len(pts), dtype=bool)
            for lay in enumerate_layerings(joint.relay_set):
                rhs = np.array([cf.layered_rhs(joint, lay, s) for s in subsets])
                covered |= np.all(rhs - sums > 1e-9, axis=1)
            uncovered = inside & ~covered
            assert not uncovered.any(), (
                f"channel seed {seed}: {int(uncovered.sum())} interior grid points "
                "in no layering region"
            )


def test_criterion_9_entropy_engine_properties():
    with _budget(9, "entropy-engine properties", 30.0):
        rng = np.random.default_rng(103)
        joints = [cf.build_joint(random_spec(rng, n_relays=2)) for _ in range(20)]
        for trial in range(1000):
            joint = joints[trial % len(joints)]
            pool = list(joint.variables)
            a = random_subset(rng, pool)
            b = random_subset(rng, pool)
            c = random_subset(rng, pool)
            chain = joint.entropy(a) + joint.cond_entropy(b, a) - joint.entropy(a | b)
            assert abs(chain) < 1e-9
            assert joint.cond_entropy(a, b | c) <= joint.cond_entropy(a, b) + 1e-9
            sub = (
                joint.entropy(a)
                + joint.entropy(b)
                - joint.entropy(a | b)
                - joint.entropy(a & b)
            )
            assert sub > -1e-9


def test_criterion_10_atlas_export_deterministic(tmp_path, capsys):
    with _budget(10, "deterministic atlas export", 1.0):
        channel = tmp_path / "demo2.json"
        cf.demo_spec(2, 7).save(channel)
        assert main(["export", "--channel", str(channel), "--vertices"]) == 0
        first = capsys.readouterr().out
        assert main(["export", "--channel", str(channel), "--vertices"]) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
        assert len(first) > 0
