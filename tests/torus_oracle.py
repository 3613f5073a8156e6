"""Oracles for the few-block torus sampler.

Two blocks on the torus [-N, N]^d coalesce first when their relative
displacement, a rate-2 walk with the symmetrized step law, has sat at the
origin long enough for a rate-lambda_{2,2} clock to ring (Cox 1989).
`pairwise_first_coalescence_times` follows that displacement one event per
numpy pass, independently of `experiments.few_block_torus_sample`, which
moves both blocks and serves the production experiments; the tests compare
the two in law.

`per_block_wrap_chunk` is the sampler's chunk of free migration in numpy
alone: it wraps every alive block's path back onto the torus at every step
and compares each with the mover's site, where `experiments._TorusWalk._chunk`
scans the steps one at a time in C (`sc_chunk`).  It takes the chunk length
K from its caller and makes the same draws as `_chunk`, so in its place the
sampler's logs must not change by a bit, at any K.  It wraps by its own
`BiasedPaths` tables, not by the add and mask of `sc_chunk` and
`_TorusWalk.move`, so that each is checked against an independent wrap.
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


class BiasedPaths:
    """The steps of a `_TorusWalk` on biased packed paths, taken from its
    `side`, `width`, `steps` and the residues of its steps (`mod_steps`).

    Each step is taken as the representative of its residue with
    coordinates in [-N, N], none larger in absolute value than the walk's
    own; `reach` is the largest.  A path from a site plus `bias`,
    `steps * reach` in each field, stays in [0, side - 1 + 2 steps reach]
    per field for up to `steps` steps, which the fields hold, and `wrap`
    maps it back to its site on the torus with one table per field.
    """

    def __init__(self, torus):
        side, width = torus.side, torus.width
        shifts = width * np.arange(torus.shifts.size, dtype=np.int64)
        residues = (torus.mod_steps[:, None] >> shifts) & ((1 << width) - 1)
        offsets = np.where(residues > side // 2, residues - side, residues)
        bias = torus.steps * int(np.abs(offsets).max())
        self.packed_steps = (offsets << shifts).sum(axis=1)
        self.bias = int((bias << shifts).sum())
        self.field = (1 << width) - 1
        self.shifts = shifts
        # biased field value -> its wrapped value, shifted into its field
        wrapped = (np.arange(1 << width) - bias) % side
        self.tables = [wrapped << shift for shift in shifts]

    def wrap(self, path) -> np.ndarray:
        site = self.tables[0][path & self.field]
        for shift, table in zip(self.shifts[1:], self.tables[1:]):
            site += table[(path >> shift) & self.field]
        return site

    def move(self, sites, steps) -> np.ndarray:
        """`_TorusWalk.move`: each site after its step."""
        return self.wrap(sites + self.bias + self.packed_steps[steps])


def per_block_wrap_chunk(torus, rng, sites, alive, t, rows, K) -> None:
    """`_TorusWalk._chunk` of K steps by wrapping each block's path at every
    step."""
    paths_of = BiasedPaths(torus)
    r = rows.size
    live = alive[rows]
    m = live.sum(axis=1)
    order = np.argsort(~live, axis=1, kind="stable")[:, :m.max()]
    mover = (rng.random((r, K)) * m[:, None]).astype(np.intp)
    moves = paths_of.packed_steps[torus.draw_steps(rng, (r, K))]
    start = sites[rows[:, None], order] + paths_of.bias
    paths = np.empty((order.shape[1], r, K), dtype=np.int64)
    lands = np.zeros((r, K), dtype=np.int64)   # site of the mover
    for i, path in enumerate(paths):    # site of the i-th block per step
        moved = mover == i
        np.multiply(moves, moved, out=path)
        np.cumsum(path, axis=1, out=path)
        path += start[:, i, None]
        path[:] = paths_of.wrap(path)
        lands += path * moved
    # blocks on the mover's new site, the mover included
    alive_path = np.arange(len(paths))[:, None, None] < m[:, None]
    met = ((paths == lands) & alive_path).sum(axis=0) > 1
    taken = np.where(met.any(axis=1), met.argmax(axis=1) + 1, K)
    sites[rows[:, None], order] = paths[:, np.arange(r), taken - 1].T
    t[rows] += rng.gamma(taken, 1.0 / m)
