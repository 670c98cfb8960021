"""Shared fixtures and random-instance helpers."""

from itertools import permutations

import numpy as np
import pytest

import cflayers as cf
import cflayers.cli  # loads cf.cli


@pytest.fixture(scope="session")
def demo2():
    """Two-relay binary demo channel, seed 7."""
    return cf.build_joint(cf.demo_spec(2, 7))


@pytest.fixture(scope="session")
def demo3():
    """Three-relay binary demo channel, seed 3 (the multi-shift instance lives here)."""
    return cf.build_joint(cf.demo_spec(3, 3))


def random_spec(rng, n_relays=2, max_size=3):
    """Random spec with mixed alphabet sizes in 2..max_size (Dirichlet rows)."""

    def size():
        return int(rng.integers(2, max_size + 1))

    def row(k):
        return rng.dirichlet(np.ones(k))

    d = n_relays + 2
    src = size()
    relays = []
    for node in range(2, d):
        xa, ya, ha = size(), size(), size()
        p_yhat = np.array([[row(ha) for _ in range(ya)] for _ in range(xa)])
        relays.append(cf.RelaySpec(node, xa, ya, ha, row(xa), p_yhat))
    dest = size()
    in_shape = (src,) + tuple(r.x_alphabet for r in relays)
    out_shape = tuple(r.y_alphabet for r in relays) + (dest,)
    n_rows = int(np.prod(in_shape))
    n_out = int(np.prod(out_shape))
    channel = np.array([row(n_out) for _ in range(n_rows)]).reshape(in_shape + out_shape)
    return cf.ChannelSpec(
        d=d,
        source_alphabet=src,
        p_x1=row(src),
        relays=tuple(relays),
        dest_alphabet=dest,
        channel=channel,
    )


def thin_spec(n_relays, letters=1):
    """Binary inputs, uniform `letters`-letter relay observations and compressions, binary Yd.

    With one letter the joint has 2^(n_relays + 2) cells, so relay counts past
    the layering enumeration limit (7 relays: 512 cells) build instantly.
    With two, every alphabet is binary, as in a demo channel.
    """
    relays = tuple(
        cf.RelaySpec(
            node, 2, letters, letters, np.full(2, 0.5), np.full((2, letters, letters), 1 / letters)
        )
        for node in range(2, n_relays + 2)
    )
    shape = (2,) * (n_relays + 1) + (letters,) * n_relays + (2,)
    return cf.ChannelSpec(
        d=n_relays + 2,
        source_alphabet=2,
        p_x1=np.full(2, 0.5),
        relays=relays,
        dest_alphabet=2,
        channel=np.full(shape, 0.5 / letters**n_relays),
    )


def symmetric_spec(q, r, q_d=0.1):
    """Binary channel of binary symmetric pieces, every input uniform: the j-th
    relay i sees Y_i = X1 + noise(q[j]) and sends Yh_i = Y_i + noise(r[j]), and
    Yd = X1 + sum of X_i + noise(q_d), all mod 2, each noise independent and 1
    with the probability given.  A probability of 0 puts exact zeros in the
    tables, which no demo or random channel has."""
    n = len(q)

    def flip(p):  # p(b | a) of b = a + noise(p)
        return np.array([[1.0 - p, p], [p, 1.0 - p]])

    at = np.indices((2,) * (2 * n + 2))  # X1, X_i per relay, Y_i per relay, Yd
    channel = flip(q_d)[(at[0] + at[1:n + 1].sum(axis=0)) % 2, at[-1]]
    for j in range(n):
        channel = channel * flip(q[j])[at[0], at[n + 1 + j]]
    relays = tuple(
        cf.RelaySpec(2 + j, 2, 2, 2, np.full(2, 0.5), np.broadcast_to(flip(r[j]), (2, 2, 2)))
        for j in range(n)
    )
    return cf.ChannelSpec(n + 2, 2, np.full(2, 0.5), relays, 2, channel)


# (q, r) per relay of a noisy family -> the family's (q, r); "mixed" needs two relays
SYMMETRIC_FAMILIES = {
    "noisy": lambda q, r: (q, r),
    "deterministic": lambda q, r: (q, [0.0] * len(r)),  # compressions: Yh_i = Y_i
    "noiseless": lambda q, r: ([0.0] * len(q), [0.0] * len(r)),  # Yh_i = Y_i = X1
    "useless": lambda q, r: ([0.5] * len(q), r),  # Y_i independent of X1
    "mixed": lambda q, r: ([0.0, *q[1:-1], 0.5], [0.0, *r[1:]]),  # one noiseless, one useless
}


def symmetric_family(name, n):
    """The `n`-relay channel of one of SYMMETRIC_FAMILIES."""
    q, r = SYMMETRIC_FAMILIES[name]([0.1 + 0.05 * j for j in range(n)],
                                    [0.2 - 0.03 * j for j in range(n)])
    return symmetric_spec(q, r)


@pytest.fixture(scope="session")
def seven_relays():
    """Seven relays, one past `layering.MAX_ENUM_RELAYS`, in a 512-cell joint."""
    joint = cf.build_joint(thin_spec(7))
    assert joint.table.size == 512
    return joint


@pytest.fixture
def no_entropy(monkeypatch):
    """Fail any entropy evaluation, generic or relay-set, while the test runs."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("an entropy was computed")

    monkeypatch.setattr(cf.JointPmf, "_entropy", refuse)


@pytest.fixture
def no_full_joint(monkeypatch):
    """Fail any `build_joint` call, from the library or the CLI, while the test runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("the full joint was built")

    monkeypatch.setattr(cf.probability, "build_joint", refuse)
    monkeypatch.setattr(cf.cli, "build_joint", refuse)


@pytest.fixture
def no_table(monkeypatch):
    """Fail any joint built from a spec, by any builder or the CLI, while the test runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("a joint table was built")

    monkeypatch.setattr(cf.probability, "_build", refuse)
    monkeypatch.setattr(cf.region, "_build", refuse)


@pytest.fixture
def summed_sizes(monkeypatch):
    """The size of every table a marginal is summed from while the test runs, in order:
    every sum, of a joint or of a table of `JointPmf._walk`, goes through one kernel."""
    sizes = []
    sum_table = cf.probability._sum_table

    def counted(table, bits, mask):
        sizes.append(table.size)
        return sum_table(table, bits, mask)

    monkeypatch.setattr(cf.probability, "_sum_table", counted)
    return sizes


def random_layering(rng, relays):
    """Random valid layering; interior (and leading) empty layers can occur."""
    nodes = sorted(relays)
    depth_cap = len(nodes) + 2
    assign = rng.integers(0, depth_cap, size=len(nodes))
    depth = int(assign.max()) + 1
    layers = [set() for _ in range(depth)]
    for node, l in zip(nodes, assign):
        layers[int(l)].add(node)
    return cf.make_layering(layers)


def random_subset(rng, pool):
    return frozenset(i for i in pool if rng.random() < 0.5)


def sample_outer_point(joint, rng, delta=1e-3, tries=5000):
    """Uniform rejection sample with boundary slack >= delta, or None."""
    caps = {i: cf.boundary_rhs(joint, frozenset({i})) for i in joint.relays}
    for _ in range(tries):
        cand = cf.RateVector({i: rng.uniform(0, caps[i]) for i in joint.relays})
        if cf.check_outer(joint, cand).min_slack >= delta:
            return cand
    return None


def _monotone_closure(halfspaces, nodes):
    """g(mask) = min over supersets T of mask of cap(T), g(0) = 0, given one cap
    per nonempty subset; bit j of a mask is nodes[j]."""
    n, full = len(nodes), (1 << len(nodes)) - 1
    closure = [0.0] * (full + 1)
    for hs in halfspaces:
        closure[sum(1 << nodes.index(i) for i in hs.subset)] = hs.rhs
    for mask in range(full - 1, 0, -1):  # each superset comes first
        closure[mask] = min([closure[mask]] + [closure[mask | 1 << j]
                                               for j in range(n) if not mask >> j & 1])
    closure[0] = 0.0
    return closure


def greedy_vertices(halfspaces, relays):
    """Vertices of {x >= 0 : x(S) <= cap(S)} by Edmonds' greedy, given one cap
    per nonempty subset of a submodular function.

    The region is the polymatroid of the monotone closure g(S) = min over
    T >= S of cap(T), with g(empty) = 0.  Each ordered subset p1..pk gives
    the vertex with coordinate pj = g(p1..pj) - g(p1..pj-1) and 0 elsewhere.
    Points within VERTEX_TOL of one found earlier are dropped, as
    `enumerate_vertices` drops them; coordinates follow sorted `relays`.
    """
    nodes = sorted(relays)
    n = len(nodes)
    closure = _monotone_closure(halfspaces, nodes)
    points = []

    def walk(prefix, point):
        points.append(point)
        for j in range(n):
            if not prefix >> j & 1:
                step = point.copy()
                step[j] = closure[prefix | 1 << j] - closure[prefix]
                walk(prefix | 1 << j, step)

    walk(0, np.zeros(n))
    found = points[:1]
    for point in points[1:]:
        if np.min(np.max(np.abs(np.array(found) - point), axis=1)) > cf.geometry.VERTEX_TOL:
            found.append(point)
    return [tuple(map(float, p)) for p in found]


def order_vertices(halfspaces, relays):
    """(order, vertex) for every full order of `relays`: the greedy vertex of
    `greedy_vertices` along that order, none dropped; coordinates follow
    sorted `relays`, and the order is a tuple of relay nodes."""
    nodes = sorted(relays)
    closure = _monotone_closure(halfspaces, nodes)
    out = []
    for order in permutations(range(len(nodes))):
        point, prefix = np.zeros(len(nodes)), 0
        for j in order:
            point[j] = closure[prefix | 1 << j] - closure[prefix]
            prefix |= 1 << j
        out.append((tuple(nodes[j] for j in order), tuple(map(float, point))))
    return out


def usable_demo_channels(n_channels, relay_of_trial, first_seed=201, min_cap=3e-3):
    """Stream of (seed, joint) demo channels whose outer region is not too thin.

    Channels with any subset cap below `min_cap` cannot hold a point with
    1e-3 boundary slack, so they are skipped deterministically.
    """
    out = []
    seed = first_seed - 1
    while len(out) < n_channels:
        seed += 1
        joint = cf.build_joint(cf.demo_spec(relay_of_trial(len(out)), seed))
        caps = [cf.boundary_rhs(joint, s) for s in cf.region.subsets_by_mask(joint.relay_set)]
        if min(caps) < min_cap:
            continue
        out.append((seed, joint))
    return out
