"""Oracles for the few-block torus sampler.

Two blocks on the torus [-N, N]^d coalesce first when their relative
displacement, a rate-2 walk with the symmetrized step law, has sat at the
origin long enough for a rate-lambda_{2,2} clock to ring (Cox 1989).
`pairwise_first_coalescence_times` follows that displacement one event per
numpy pass, independently of `experiments.few_block_torus_sample`, which
moves both blocks and serves the production experiments; the tests compare
the two in law.

`per_block_wrap_chunk` is the sampler's chunk of free migration in its first
form: it wraps every alive block's path back onto the torus at every step
and compares each with the mover's site.  It takes the chunk length K from
its caller and makes the same draws as `experiments._TorusWalk._chunk`, so
in its place the sampler's logs must not change by a bit, at any K.
"""

from __future__ import annotations

import numpy as np

from spatial_coalescent.geometry import WalkSpec


def _relative_step_table(walk: WalkSpec):
    offs = walk.offsets_array
    probs = walk.probs_array
    rel_offs = np.concatenate([offs, -offs])
    rel_probs = np.concatenate([probs, probs]) / 2.0
    return rel_offs, np.cumsum(rel_probs)


def pairwise_first_coalescence_times(N: int, walk: WalkSpec, lambda22: float,
                                     replicas: int, seed: int,
                                     separation=None) -> np.ndarray:
    """First-coalescence times of two blocks on the torus, exact in law.

    Simulates the relative displacement (a rate-2 walk with the symmetrized
    step law) plus a rate-lambda22 coalescence clock active at the origin.
    """
    d = walk.dimension
    side = 2 * N + 1
    if separation is None:
        separation = [N] + [0] * (d - 1)
    rel_offs, rel_cum = _relative_step_table(walk)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    y = np.tile(np.asarray(separation, dtype=np.int64), (replicas, 1))
    t = np.zeros(replicas)
    out = np.empty(replicas)
    idx = np.arange(replicas)
    while idx.size:
        at0 = ~np.any(y, axis=1)
        rate = 2.0 + lambda22 * at0
        t += rng.exponential(1.0, size=idx.size) / rate
        u = rng.random(idx.size) * rate
        coal = at0 & (u < lambda22)
        if np.any(coal):
            out[idx[coal]] = t[coal]
            keep = ~coal
            idx, y, t = idx[keep], y[keep], t[keep]
            if not idx.size:
                break
        step = np.searchsorted(rel_cum, rng.random(idx.size), side="right")
        step = np.minimum(step, len(rel_offs) - 1)
        y = (y + rel_offs[step] + N) % side - N
    return out


def per_block_wrap_chunk(torus, rng, sites, alive, t, rows, K) -> None:
    """`_TorusWalk._chunk` of K steps by wrapping each block's path at every
    step."""
    r = rows.size
    live = alive[rows]
    m = live.sum(axis=1)
    order = np.argsort(~live, axis=1, kind="stable")[:, :m.max()]
    mover = (rng.random((r, K)) * m[:, None]).astype(np.intp)
    moves = torus.packed_steps[torus.draw_steps(rng, (r, K))]
    start = sites[rows[:, None], order] + torus.bias
    paths = np.empty((order.shape[1], r, K), dtype=np.int64)
    lands = np.zeros((r, K), dtype=np.int64)   # site of the mover
    for i, path in enumerate(paths):    # site of the i-th block per step
        moved = mover == i
        np.multiply(moves, moved, out=path)
        np.cumsum(path, axis=1, out=path)
        path += start[:, i, None]
        path[:] = torus.wrap(path)
        lands += path * moved
    # blocks on the mover's new site, the mover included
    alive_path = np.arange(len(paths))[:, None, None] < m[:, None]
    met = ((paths == lands) & alive_path).sum(axis=0) > 1
    taken = np.where(met.any(axis=1), met.argmax(axis=1) + 1, K)
    sites[rows[:, None], order] = paths[:, np.arange(r), taken - 1].T
    t[rows] += rng.gamma(taken, 1.0 / m)
