"""Seeded generator of small binary demo channels.

Every alphabet is binary, so a three-relay network stays at 2048 joint cells
and everything downstream runs in well under a second.  Tables are dithered
uniform draws (0.1 + U[0,1), then normalized), which keeps every entry bounded
away from zero and the resulting regions nondegenerate.

The draw order below is part of the seed contract: p(x1), then per relay
p(xi) and p(yhi|xi,yi) row by row, then the channel rows in row-major input
order.  The same seed therefore always yields byte-identical spec files.
"""

from __future__ import annotations

import numpy as np

from .errors import TableTooLargeError
from .probability import MAX_TABLE_CELLS, ChannelSpec, RelaySpec


def _dithered(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Rows along the last axis of `shape`, drawn in row-major order and normalized."""
    rows = 0.1 + rng.random(shape)
    return rows / rows.sum(axis=-1, keepdims=True)


def demo_spec(n_relays: int, seed: int) -> ChannelSpec:
    """Deterministic all-binary channel spec with `n_relays` relays."""
    if n_relays < 1:
        raise ValueError("need at least one relay")
    # 2^(3n+2) binary cells; compare exponents, so a huge n builds no huge number
    exponent = 3 * n_relays + 2
    if exponent >= MAX_TABLE_CELLS.bit_length():
        raise TableTooLargeError(
            f"joint table needs 2^{exponent} cells, above the cap of {MAX_TABLE_CELLS}"
        )
    d = n_relays + 2
    rng = np.random.default_rng(seed)

    p_x1 = _dithered(rng, (2,))
    relays = []
    for node in range(2, d):
        p_x = _dithered(rng, (2,))
        p_yhat = _dithered(rng, (2, 2, 2))
        relays.append(
            RelaySpec(
                node=node,
                x_alphabet=2,
                y_alphabet=2,
                yhat_alphabet=2,
                p_x=p_x,
                p_yhat=p_yhat,
            )
        )

    n_outputs = 2 ** n_relays * 2  # y2..y_{d-1} and yd
    in_shape = (2,) * (1 + n_relays)
    out_shape = (2,) * n_relays + (2,)
    channel = _dithered(rng, in_shape + (n_outputs,)).reshape(in_shape + out_shape)

    return ChannelSpec(
        d=d,
        source_alphabet=2,
        p_x1=p_x1,
        relays=tuple(relays),
        dest_alphabet=2,
        channel=channel,
    )
