"""Independent brute-force oracle used to cross-check the library.

Everything here is pure-Python dict arithmetic over explicit assignment
tuples, deliberately sharing no code with the package: the joint is built by
looping over assignments, conditional entropies are direct double summations
sum_b p(b) H(A | B=b), and mutual information is the direct triple-sum over
the log-ratio.  Variables are addressed by label ("X1", "Y2", "Yh3", ...).  `spec_table` is
the object-array reading of a spec table that the package once used, kept as
the reference for the package's one-level-at-a-time reading.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


def spec_table(raw, name: str):
    """The float array of the JSON value `raw`, read through
    `np.array(raw, dtype=object)` cell by cell, or the message of the spec
    error that reading raises for the table called `name`."""
    table = np.array(raw, dtype=object)
    cells = table.ravel()  # not .flat, which stops at 32 dimensions
    kinds = list(map(type, cells))
    odd = set(kinds) - {int, float}
    if list in odd:
        return f"table {name} is not rectangular past its first {table.ndim} axes"
    if odd:
        first = cells[min(map(kinds.index, odd))]
        return f"table {name} holds {first!r}, which is not a number"
    try:
        return table.astype(float)
    except OverflowError:
        return f"table {name} holds an integer too large for a float"


def variable_labels(spec) -> list[str]:
    labels = ["X1"]
    for r in spec.relays:
        labels += [f"X{r.node}", f"Y{r.node}", f"Yh{r.node}"]
    labels.append(f"Y{spec.d}")
    return labels


def brute_force_joint(spec) -> dict[tuple[int, ...], float]:
    """Joint pmf over assignment tuples in `variable_labels` order."""
    relays = spec.relays
    n = len(relays)
    pmf = {}
    x1_range = range(spec.source_alphabet)
    x_ranges = [range(r.x_alphabet) for r in relays]
    y_ranges = [range(r.y_alphabet) for r in relays]
    yh_ranges = [range(r.yhat_alphabet) for r in relays]
    yd_range = range(spec.dest_alphabet)

    for x1 in x1_range:
        for xs in product(*x_ranges):
            p_in = float(spec.p_x1[x1])
            for j, r in enumerate(relays):
                p_in *= float(r.p_x[xs[j]])
            for ys in product(*y_ranges):
                for yd in yd_range:
                    p_chan = float(spec.channel[(x1,) + xs + ys + (yd,)])
                    if p_chan == 0.0:
                        continue
                    for yhs in product(*yh_ranges):
                        p = p_in * p_chan
                        for j, r in enumerate(relays):
                            p *= float(r.p_yhat[xs[j], ys[j], yhs[j]])
                        if p == 0.0:
                            continue
                        key = (x1,)
                        for j in range(n):
                            key += (xs[j], ys[j], yhs[j])
                        key += (yd,)
                        pmf[key] = pmf.get(key, 0.0) + p
    return pmf


def _project(assignment, labels, wanted):
    return tuple(assignment[labels.index(w)] for w in wanted)


def marginal(pmf, labels, wanted) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for assignment, p in pmf.items():
        key = _project(assignment, labels, wanted)
        out[key] = out.get(key, 0.0) + p
    return out


def entropy(pmf, labels, wanted) -> float:
    total = 0.0
    for p in marginal(pmf, labels, wanted).values():
        if p > 1e-15:
            total -= p * math.log2(p)
    return total


def cond_entropy(pmf, labels, a, b) -> float:
    """H(a | b) via the direct double summation sum_b p(b) H(a | b)."""
    joint_ab = marginal(pmf, labels, list(a) + list(b))
    p_b = marginal(pmf, labels, b)
    total = 0.0
    for key, p in joint_ab.items():
        if p <= 1e-15:
            continue
        pb = p_b[key[len(a):]] if b else 1.0
        total -= p * math.log2(p / pb)
    return total


def mutual_info(pmf, labels, a, b, c=()) -> float:
    """I(a ; b | c) via the direct summation of p log p(ab|c)/(p(a|c)p(b|c))."""
    a, b, c = list(a), list(b), list(c)
    p_abc = marginal(pmf, labels, a + b + c)
    p_ac = marginal(pmf, labels, a + c)
    p_bc = marginal(pmf, labels, b + c)
    p_c = marginal(pmf, labels, c)
    total = 0.0
    for key, p in p_abc.items():
        if p <= 1e-15:
            continue
        ka = key[: len(a)]
        kb = key[len(a): len(a) + len(b)]
        kc = key[len(a) + len(b):]
        pc = p_c[kc] if c else 1.0
        ratio = (p / pc) / ((p_ac[ka + kc] / pc) * (p_bc[kb + kc] / pc))
        total += p * math.log2(ratio)
    return total
