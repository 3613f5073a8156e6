"""Oracles for the few-block torus sampler.

Two blocks on the torus [-N, N]^d coalesce first when their relative
displacement, a rate-2 walk with the symmetrized step law, has sat at the
origin long enough for a rate-lambda_{2,2} clock to ring (Cox 1989).
`pairwise_first_coalescence_times` follows that displacement one event per
numpy pass, independently of `experiments.few_block_torus_sample`, which
moves both blocks and serves the production experiments; the tests compare
the two in law.

`few_block_torus_sample` here is the reference of the production sampler,
which runs it as one C loop (`sc_few_block`): the same algorithm in numpy,
with the same draws in the same order, so the two must return the same
logs and counters to the bit.  Its pieces live on `ReferenceWalk`: the K
and slicing rule of a pass's chunks (`walk_apart`), the lockstep pass's
step (`draw_steps`, `move`), and the chunk, `per_block_wrap_chunk`.

`per_block_wrap_chunk` is the sampler's chunk of free migration in numpy
alone: it wraps every alive block's path back onto the torus at every step
and compares each with the mover's site, where the C loop scans the steps
one at a time.  It takes the chunk length K from its caller.  It wraps by
its own `BiasedPaths` tables, not by the add and mask of the C loop and of
`ReferenceWalk.move`, so that each is checked against an independent wrap.
"""

from __future__ import annotations

import numpy as np

from spatial_coalescent.experiments import _TorusWalk, _check_run
from spatial_coalescent.geometry import WalkSpec, check_torus_walk
from spatial_coalescent.rates import RateKernel


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
        """`ReferenceWalk.move`: each site after its step."""
        return self.wrap(sites + self.bias + self.packed_steps[steps])


def per_block_wrap_chunk(torus, rng, sites, alive, t, rows, K) -> None:
    """The chunk of K steps of `ReferenceWalk.walk_apart`, by wrapping each
    block's path at every step."""
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


# Free migration: a chunk draws K steps for each of its replicas at once, in
# at most _CHUNK_CELLS (replicas x steps) cells.  K is _CHUNK_STEPS while a
# pass has at least _CHUNK_CELLS // _CHUNK_STEPS apart replicas and grows as
# they thin out, up to the walk's `steps`, so that the last replicas of a
# run take few passes.
_CHUNK_STEPS = 256
_CHUNK_CELLS = 1 << 15


class _GammaCounts:
    """A Generator that keeps the step counts of its Gamma draws."""

    def __init__(self, rng):
        self.rng = rng
        self.taken = None

    def random(self, shape):
        return self.rng.random(shape)

    def gamma(self, taken, scale):
        self.taken = taken
        return self.rng.gamma(taken, scale)


class ReferenceWalk(_TorusWalk):
    """`experiments._TorusWalk` with the reference sampler's pieces: a
    lockstep step (`draw_steps`, `move`) that wraps by the add and mask of
    the C loop, and the passes of free migration (`walk_apart`), whose
    chunks are `per_block_wrap_chunk` and whose counters are those of the
    production sampler."""

    def __init__(self, N: int, walk: WalkSpec):
        super().__init__(N, walk)
        self.step_type = np.min_scalar_type(self.cuts.size)
        # the wrap's add and mask: bit 0 of each field, and what each field
        # adds to reach its top bit from side
        self._ones = int((1 << self.shifts).sum())
        self._half = ((1 << (self.width - 1)) - self.side) * self._ones
        self.stats = dict.fromkeys(("chunk_calls", "chunk_replicas",
                                    "chunk_cells", "chunk_steps",
                                    "chunk_cuts"), 0)

    def draw_steps(self, rng, shape) -> np.ndarray:
        u = rng.random(shape)
        step = np.zeros(shape, dtype=self.step_type)
        for cut in self.cuts:
            step += u >= cut
        return step

    def move(self, sites, steps) -> np.ndarray:
        to = sites + self.mod_steps[steps]
        to -= (((to + self._half) >> (self.width - 1)) & self._ones) * self.side
        return to

    def walk_apart(self, rng, sites, alive, t, rows) -> None:
        """Advance replicas `rows`, none of which has two alive blocks on one
        site, by pure migration up to each one's first co-location, or by
        K steps if there is none.  Updates sites and t in place.

        The chunk length K is _CHUNK_STEPS (or `steps`, if less) for a pass
        of at least _CHUNK_CELLS // _CHUNK_STEPS = 128 replicas, sliced 128
        replicas to a chunk.  A smaller pass of r replicas is one chunk of
        K = _CHUNK_CELLS // r steps, up to `steps`, so that it still fills
        about _CHUNK_CELLS cells and the last replicas of a run take few
        passes.  The law does not depend on K, but the draws do: only a pass
        of at least 128 replicas draws what fixed 256-step chunks draw, in
        their order."""
        if not rows.size:
            return
        K = min(self.steps, max(_CHUNK_STEPS, _CHUNK_CELLS // rows.size))
        per_slice = _CHUNK_CELLS // K
        for lo in range(0, rows.size, per_slice):
            self.chunk(rng, sites, alive, t, rows[lo:lo + per_slice], K)

    def chunk(self, rng, sites, alive, t, rows, K) -> None:
        """`per_block_wrap_chunk`, counted: a replica's chunk was cut by a
        co-location, on its last step too, exactly when it ends with two
        alive blocks on one site, as it started with none."""
        draws = _GammaCounts(rng)
        per_block_wrap_chunk(self, draws, sites, alive, t, rows, K)
        key = np.sort(np.where(alive[rows], sites[rows],
                               -1 - np.arange(alive.shape[1])), axis=1)
        stats = self.stats
        stats["chunk_calls"] += 1
        stats["chunk_replicas"] += rows.size
        stats["chunk_cells"] += rows.size * K
        stats["chunk_steps"] += int(draws.taken.sum())
        stats["chunk_cuts"] += int((key[:, 1:] == key[:, :-1]).any(axis=1).sum())


def few_block_torus_sample(N: int, walk: WalkSpec, kernel: RateKernel,
                           start_positions, replicas: int, seed: int):
    """`experiments.few_block_torus_sample` in numpy: the same logs and
    counters from the same draws.

    While no two alive blocks of a replica share a site, it advances by
    chunks of free migration (`ReferenceWalk.walk_apart`).  Replicas with
    co-located blocks advance one event at a time, all in lockstep: first
    every holding time, then every event uniform, then, merge by merge,
    the site by lambda weight, the merge size and `rng.choice` of the
    k-subset, and last the steps of the migrating replicas.  Replicas with
    one block left are dropped at the end of each pass.
    """
    _check_run(replicas, N=(N, 1))
    check_torus_walk(N, walk)
    start = np.asarray(start_positions).astype(np.int64)
    n = start.shape[0]
    lam_tab = kernel.lambda_table(n)
    merge_cums = {b: kernel.merge_size_cumulative(b) for b in range(2, n + 1)}
    torus = ReferenceWalk(N, walk)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sites = np.tile(torus.pack(start + N), (replicas, 1))   # (R, n)
    alivemask = np.ones((replicas, n), dtype=bool)
    t = np.zeros(replicas)
    logs: list[list] = [[] for _ in range(replicas)]
    idx = np.arange(replicas)
    # dead blocks get unique negative sites so they never collide
    dead_key = -(np.arange(n) + 1)
    lockstep_events = lockstep_skipped = 0

    while idx.size:
        key = np.where(alivemask, sites, dead_key)
        eq = key[:, :, None] == key[:, None, :]
        cnt = eq.sum(axis=2)
        crowded = (cnt > 1).any(axis=1)
        torus.walk_apart(rng, sites, alivemask, t, np.flatnonzero(~crowded))

        rows = np.flatnonzero(crowded)
        lockstep_events += rows.size
        if rows.size:
            live = alivemask[rows]
            lam_per_block = np.where(live, lam_tab[cnt[rows]] / cnt[rows], 0.0)
            coal_rate = lam_per_block.sum(axis=1)
            m_alive = live.sum(axis=1)
            total = coal_rate + m_alive
            t[rows] += rng.exponential(1.0, size=rows.size) / total
            u = rng.random(rows.size) * total
            coal = u < coal_rate

            for j in np.nonzero(coal)[0]:
                r = rows[j]
                # block selection with weight lam(b)/b picks its site with
                # weight lam(b); then merge k of the b co-located blocks
                pick = np.searchsorted(np.cumsum(lam_per_block[j]), u[j],
                                       side="right")
                pick = min(int(pick), n - 1)
                members = np.nonzero(eq[r, pick] & alivemask[r])[0]
                b = len(members)
                k = 2 + int(np.searchsorted(merge_cums[b], rng.random(),
                                            side="right"))
                k = min(k, b)
                chosen = sorted(map(int, rng.choice(members, size=k,
                                                     replace=False)))
                logs[idx[r]].append((float(t[r]), tuple(chosen), k))
                alivemask[r, chosen[1:]] = False

            mig = ~coal
            if np.any(mig):
                movers = rows[mig]
                # uniform alive block per migrating replica
                target = np.floor(u[mig] - coal_rate[mig]).astype(np.int64) + 1
                target = np.minimum(target, m_alive[mig])
                cs = np.cumsum(live[mig], axis=1)
                blocksel = (cs >= target[:, None]).argmax(axis=1)
                steps = torus.draw_steps(rng, movers.size)
                sites[movers, blocksel] = torus.move(sites[movers, blocksel],
                                                     steps)
        else:
            # its draws would all be empty; the filter below still runs, or
            # a one-block start would never end
            lockstep_skipped += 1

        done = alivemask.sum(axis=1) <= 1
        if np.any(done):
            keep = ~done
            idx, sites, alivemask, t = (idx[keep], sites[keep],
                                        alivemask[keep], t[keep])
    return logs, {**torus.stats, "lockstep_events": lockstep_events,
                  "lockstep_skipped": lockstep_skipped}
