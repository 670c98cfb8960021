"""Entropy reference computed straight from a spec's factors, one einsum per query.

H(X_A, Yh_B, Yd) is the entropy of the one marginal that a single `np.einsum`
contracts out of p(x1) * prod_i p(xi) * channel * prod_i p(yhi | xi, yi).
It shares no joint table, memo or summation path with `JointPmf` (it keeps
a memo of its own), so the caps composed here check the library at relay
counts where the pure-Python oracle in `_oracle.py` is too slow.  The caps follow the formulas
of the region module's docstring, written out again here.
"""

from __future__ import annotations

import numpy as np


class FactorOracle:
    def __init__(self, spec):
        n = len(spec.relays)
        # einsum labels: X1 is 0, then Xi, Yi and Yhi of the j-th relay at
        # 1 + j, 1 + n + j and 1 + 2n + j, and Yd last
        self._x = {r.node: 1 + j for j, r in enumerate(spec.relays)}
        self._yh = {r.node: 1 + 2 * n + j for j, r in enumerate(spec.relays)}
        self._yd = 1 + 3 * n
        y = [1 + n + j for j in range(n)] + [self._yd]
        # relay j's factors p(xi) * p(yhi | xi, yi) as one operand over (Xi, Yi, Yhi)
        self._operands = [spec.p_x1, [0], spec.channel, [0, *self._x.values(), *y]]
        for j, r in enumerate(spec.relays):
            self._operands += [r.p_x[:, None, None] * r.p_yhat, [1 + j, 1 + n + j, 1 + 2 * n + j]]
        # contract the channel with p(x1), then with each relay's operand in turn,
        # which keeps every intermediate at the channel's size and skips a path search
        self._path = ["einsum_path", (0, 1), *((0, n - j) for j in range(n))]
        self.relays = frozenset(self._x)
        self._memo: dict[tuple, float] = {}

    def _entropy(self, labels) -> float:
        key = tuple(labels)
        if key not in self._memo:
            p = np.einsum(*self._operands, labels, optimize=self._path).ravel()
            p = p[p > 1e-15]
            self._memo[key] = float(-np.sum(p * np.log2(p)))
        return self._memo[key]

    def relay_entropy(self, a, b) -> float:
        """H(X_a, Yh_b, Yd) in bits."""
        labels = [self._x[i] for i in sorted(a)] + [self._yh[i] for i in sorted(b)]
        return self._entropy(labels + [self._yd])

    def pair_entropy(self, i) -> float:
        """H(Xi, Yhi) in bits."""
        return self._entropy([self._x[i], self._yh[i]])

    def outer_cap(self, s) -> float:
        """sum_{i in s} H(Xi, Yhi) - H(X_s Yh_s | X_G Yh_G Yd), G the other relays."""
        s = frozenset(s)
        rest = self.relays - s
        block = self.relay_entropy(self.relays, self.relays) - self.relay_entropy(rest, rest)
        return sum(self.pair_entropy(i) for i in s) - block

    def layered_cap(self, layers, s) -> float:
        """The pair sum minus one conditional entropy per stage, the last past the
        final layer.  Stage l pairs X of s's relays in layer l with Yh of s's
        relays in layer l-1, given the other inputs decoded up to layer l, the
        other compressions decoded up to layer l-1, and Yd."""
        s = frozenset(s)
        total = sum(self.pair_entropy(i) for i in s)
        upto, before = frozenset(), frozenset()
        for layer in [*layers, frozenset()]:
            upto_now, now = upto | layer, s & layer
            total -= self.relay_entropy(upto_now, upto) - self.relay_entropy(
                upto_now - now, upto - before
            )
            upto, before = upto_now, now
        return total
