"""Event-driven simulation of the labeled-partition Markov chain.

State: a partition of [n] into blocks, each block sitting at a site of a
geography (or at the cemetery once killed).  With b_i blocks at site i the
next event fires at total rate

    sum_i lambda_{b_i}  +  sum(blocks) move_rate  [+ #blocks if killing],

split between coalescence (choose a site with weight lambda_{b_i}, draw a
merge size k from the merge-size law, merge a uniform k-subset of the
blocks there), migration (uniform block moves along the kernel; self-jumps
are thinned out of the stream since they do not change state), and killing
(uniform block moves to the cemetery).

Blocks carry (min element, size) always and full element sets only when an
experiment needs partition identity; merges keep the smallest-minimum block
as survivor so least-element ordering is maintained for free.  A single
seeded stream drives every draw, making trajectories bit-reproducible.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import (GroundSetMismatch, IncompatibleVariants, ZeroRateDeadlock)
from .geometry import GeographySpec
from .rates import RateKernel

__all__ = [
    "LabeledPartition",
    "TrajectoryRecord",
    "SimulationConfig",
    "simulate",
    "restrict_partition",
    "partition_distance",
    "coupled_simulate",
    "singletons_per_site",
    "singletons_at",
]

CEMETERY = "∂"


class LabeledPartition:
    """Partition of a finite integer ground set with per-block site labels.

    Blocks are kept sorted by least element.  Labels are site indices of a
    geography, or the cemetery mark for killed blocks.
    """

    def __init__(self, blocks, labels, n: int | None = None):
        blocks = [frozenset(b) for b in blocks]
        if len(blocks) != len(labels):
            raise ValueError("one label per block required")
        if any(not b for b in blocks):
            raise ValueError("blocks must be nonempty")
        order = sorted(range(len(blocks)), key=lambda i: min(blocks[i]))
        self.blocks = tuple(blocks[i] for i in order)
        self.labels = tuple(labels[i] for i in order)
        union = set()
        total = 0
        for b in self.blocks:
            union |= b
            total += len(b)
        if len(union) != total:
            raise ValueError("blocks must be disjoint")
        self.ground = frozenset(union)
        self.n = n if n is not None else (max(union) if union else 0)

    def block_count(self) -> int:
        return len(self.blocks)

    def live_block_count(self) -> int:
        return sum(1 for lab in self.labels if lab != CEMETERY)

    def as_pairs(self):
        return tuple((tuple(sorted(b)), lab)
                     for b, lab in zip(self.blocks, self.labels))

    def __eq__(self, other):
        return (isinstance(other, LabeledPartition)
                and self.as_pairs() == other.as_pairs())

    def __hash__(self):
        return hash(self.as_pairs())

    def __repr__(self):
        return f"LabeledPartition({self.as_pairs()!r})"

    def restrict_to(self, elements) -> "LabeledPartition":
        elements = set(elements)
        blocks, labels = [], []
        for b, lab in zip(self.blocks, self.labels):
            cut = b & elements
            if cut:
                blocks.append(cut)
                labels.append(lab)
        return LabeledPartition(blocks, labels, n=len(elements))


def singletons_per_site(geography: GeographySpec, n_per_site: int) -> LabeledPartition:
    """n singleton blocks at every site; elements numbered site-major."""
    blocks, labels = [], []
    e = 1
    for s in range(geography.size):
        for _ in range(n_per_site):
            blocks.append({e})
            labels.append(s)
            e += 1
    return LabeledPartition(blocks, labels, n=e - 1)


def singletons_at(sites) -> LabeledPartition:
    """One singleton block per entry of `sites` (element i+1 at sites[i])."""
    return LabeledPartition([{i + 1} for i in range(len(sites))], list(sites),
                            n=len(sites))


def restrict_partition(pi: LabeledPartition, m: int) -> LabeledPartition:
    """Intersect every block with [m], drop empties, reorder by least element."""
    if not 1 <= m <= pi.n:
        raise ValueError(f"need 1 <= m <= {pi.n}")
    return pi.restrict_to(range(1, m + 1))


def partition_distance(pi: LabeledPartition, pi2: LabeledPartition) -> float:
    """2^(-m*) where m* is the first level at which labeled restrictions
    differ; 0 for identical partitions."""
    if pi.n != pi2.n or pi.ground != pi2.ground:
        raise GroundSetMismatch("partitions live on different ground sets")
    for m in range(1, pi.n + 1):
        if restrict_partition(pi, m) != restrict_partition(pi2, m):
            return 2.0 ** (-m)
    return 0.0


@dataclass
class SimulationConfig:
    kernel: RateKernel
    geography: GeographySpec
    killing: bool = False
    horizon: float | None = None
    stop_blocks_at_most: int | None = None
    stop_when_absorbed: bool = False
    seed: int = 0
    record_events: bool = True
    track_elements: bool = True
    probe_times: tuple = ()
    event_budget: int | None = None

    def __post_init__(self):
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.stop_blocks_at_most is not None and self.stop_blocks_at_most < 1:
            raise ValueError("block threshold must be >= 1")


@dataclass
class TrajectoryRecord:
    initial: LabeledPartition
    seed: int
    events: list = field(default_factory=list)   # (time, tag, payload)
    probes: list = field(default_factory=list)   # (probe_time, live block count)
    final_time: float = 0.0
    stop_reason: str = ""
    final_partition: LabeledPartition | None = None
    final_counts: list = field(default_factory=list)  # per-site live counts
    final_block_summary: list = field(default_factory=list)  # (min, size, label)
    budget_exhausted: bool = False

    def live_counts_total(self) -> int:
        return sum(self.final_counts)


class _Fenwick:
    """Positive weights over site indices with O(log n) update/sample."""

    __slots__ = ("n", "tree", "total", "_top")

    def __init__(self, n: int):
        self.n = n
        self.tree = [0.0] * (n + 1)
        self.total = 0.0
        top = 1
        while top * 2 <= n:
            top *= 2
        self._top = top

    def add(self, i: int, delta: float):
        if delta == 0.0:
            return
        self.total += delta
        i += 1
        tree = self.tree
        while i <= self.n:
            tree[i] += delta
            i += i & (-i)

    def sample(self, u: float) -> int:
        """Largest-prefix search: site index with cumulative weight > u."""
        idx = 0
        bit = self._top
        tree = self.tree
        while bit:
            nxt = idx + bit
            if nxt <= self.n and tree[nxt] <= u:
                u -= tree[nxt]
                idx = nxt
            bit >>= 1
        return min(idx, self.n - 1)


def simulate(initial: LabeledPartition, config: SimulationConfig) -> TrajectoryRecord:
    """Run the jump chain from `initial` until a stop condition holds."""
    geo = config.geography
    kernel = config.kernel
    # mix the seed first: raw consecutive integer seeds bias the stream's
    # opening draws, which shows up in first-event statistics
    mixed = int.from_bytes(
        np.random.SeedSequence(config.seed).generate_state(4).tobytes(), "little")
    rng = random.Random(mixed)
    n_sites = geo.size
    move_rates = geo.move_rates
    uniform_moves = bool(np.all(move_rates == move_rates[0]))
    base_move = float(move_rates[0])
    max_move = float(move_rates.max())

    # block arrays indexed by block id
    site_of: list = []
    size_of: list = []
    min_of: list = []
    elems: list = []
    track = config.track_elements
    for b, lab in zip(initial.blocks, initial.labels):
        if lab == CEMETERY or not (0 <= lab < n_sites):
            raise ValueError(f"initial label {lab!r} is not a site")
        site_of.append(lab)
        size_of.append(len(b))
        min_of.append(min(b))
        elems.append(set(b) if track else None)

    n_blocks = len(site_of)
    counts = [0] * n_sites
    rosters: list[list[int]] = [[] for _ in range(n_sites)]
    pos_in_roster = [0] * n_blocks
    alive = list(range(n_blocks))
    alive_pos = list(range(n_blocks))
    for bid, s in enumerate(site_of):
        pos_in_roster[bid] = len(rosters[s])
        rosters[s].append(bid)
        counts[s] += 1

    # local lambda cache
    max_b = max(counts) if counts else 0
    kernel.ensure_b(max(max_b, 2))
    lam = kernel.lambda_table(max(max_b, 2)).tolist()

    def get_lam(b: int) -> float:
        while b >= len(lam):
            lam.append(kernel.lambda_total(len(lam)))
        return lam[b]

    coal = _Fenwick(n_sites)
    for s in range(n_sites):
        if counts[s] >= 2:
            coal.add(s, get_lam(counts[s]))
    mig_tot = sum(move_rates[s] * counts[s] for s in range(n_sites))

    merge_cums: dict[int, np.ndarray] = {}

    def merge_cum(b: int) -> np.ndarray:
        cum = merge_cums.get(b)
        if cum is None:
            cum = kernel.merge_size_cumulative(b)
            merge_cums[b] = cum
        return cum

    def remove_from_roster(bid: int):
        s = site_of[bid]
        roster = rosters[s]
        p = pos_in_roster[bid]
        last = roster[-1]
        roster[p] = last
        pos_in_roster[last] = p
        roster.pop()

    def remove_from_alive(bid: int):
        p = alive_pos[bid]
        last = alive[-1]
        alive[p] = last
        alive_pos[last] = p
        alive.pop()

    rec = TrajectoryRecord(initial=initial, seed=config.seed)
    events = rec.events
    record = config.record_events
    probes = sorted(config.probe_times)
    probe_idx = 0
    t = 0.0
    n_events = 0
    threshold = config.stop_blocks_at_most
    stop_reason = ""

    def flush_probes(up_to: float, count: int):
        nonlocal probe_idx
        while probe_idx < len(probes) and probes[probe_idx] <= up_to:
            rec.probes.append((probes[probe_idx], count))
            probe_idx += 1

    if threshold is not None and len(alive) <= threshold:
        stop_reason = "BLOCKS_AT_MOST"
    if config.stop_when_absorbed and len(alive) <= 1:
        stop_reason = "ABSORBED"

    while not stop_reason:
        kill_tot = float(len(alive)) if config.killing else 0.0
        total = coal.total + mig_tot + kill_tot
        if total <= 1e-300:
            if config.horizon is not None:
                flush_probes(config.horizon, len(alive))
                t = config.horizon
                stop_reason = "HORIZON"
                break
            raise ZeroRateDeadlock("all rates vanished before the stop "
                                   "condition", time=t, blocks=len(alive))
        dt = rng.expovariate(total)
        if config.horizon is not None and t + dt > config.horizon:
            flush_probes(config.horizon, len(alive))
            t = config.horizon
            stop_reason = "HORIZON"
            break
        flush_probes(t + dt, len(alive))
        t += dt
        u = rng.random() * total

        if u < coal.total:
            # ---- coalescence ----
            s = coal.sample(u)
            b = counts[s]
            if b < 2:  # float drift fallback: rebuild exact weights
                coal = _Fenwick(n_sites)
                for s2 in range(n_sites):
                    if counts[s2] >= 2:
                        coal.add(s2, get_lam(counts[s2]))
                continue
            cum = merge_cum(b)
            k = 2 + bisect.bisect_right(cum, rng.random())
            k = min(k, b)
            roster = rosters[s]
            if k == b:
                chosen = list(roster)
            elif k == 2:
                i = rng.randrange(b)
                j = rng.randrange(b - 1)
                if j >= i:
                    j += 1
                chosen = [roster[i], roster[j]]
            else:
                chosen = rng.sample(roster, k)
            survivor = min(chosen, key=lambda bid: min_of[bid])
            for bid in chosen:
                if bid == survivor:
                    continue
                size_of[survivor] += size_of[bid]
                if track:
                    elems[survivor] |= elems[bid]
                    elems[bid] = None
                remove_from_roster(bid)
                remove_from_alive(bid)
                site_of[bid] = None
            counts[s] = b - (k - 1)
            coal.add(s, get_lam(counts[s]) - get_lam(b))
            mig_tot -= (k - 1) * move_rates[s]
            if record:
                events.append((t, "MERGE", (s, tuple(sorted(chosen)), k)))
        elif u < coal.total + mig_tot:
            # ---- migration ----
            while True:
                bid = alive[rng.randrange(len(alive))]
                s = site_of[bid]
                if uniform_moves or move_rates[s] >= max_move * rng.random():
                    break
            dest = geo.sample_move(s, rng.random())
            remove_from_roster(bid)
            site_of[bid] = dest
            pos_in_roster[bid] = len(rosters[dest])
            rosters[dest].append(bid)
            b_from, b_to = counts[s], counts[dest]
            counts[s] = b_from - 1
            counts[dest] = b_to + 1
            coal.add(s, get_lam(b_from - 1) - get_lam(b_from))
            coal.add(dest, get_lam(b_to + 1) - get_lam(b_to))
            mig_tot += move_rates[dest] - move_rates[s]
            if record:
                events.append((t, "MIGRATE", (bid, s, dest)))
        else:
            # ---- killing ----
            bid = alive[rng.randrange(len(alive))]
            s = site_of[bid]
            remove_from_roster(bid)
            remove_from_alive(bid)
            b = counts[s]
            counts[s] = b - 1
            coal.add(s, get_lam(b - 1) - get_lam(b))
            mig_tot -= move_rates[s]
            site_of[bid] = CEMETERY
            if record:
                events.append((t, "KILL", (bid,)))

        n_events += 1
        if n_events % 4096 == 0:
            # curb float drift in the incremental migration total
            mig_tot = sum(move_rates[s2] * counts[s2] for s2 in range(n_sites))
        if threshold is not None and len(alive) <= threshold:
            stop_reason = "BLOCKS_AT_MOST"
        elif config.stop_when_absorbed and len(alive) <= 1:
            stop_reason = "ABSORBED"
        elif config.event_budget is not None and n_events >= config.event_budget:
            stop_reason = "BUDGET"
            rec.budget_exhausted = True

    flush_probes(t, len(alive))
    rec.final_time = t
    rec.stop_reason = stop_reason
    rec.final_counts = counts
    order = sorted(range(len(site_of)),
                   key=lambda bid: min_of[bid])
    summary = []
    for bid in order:
        s = site_of[bid]
        if s is None:
            continue  # merged away
        summary.append((min_of[bid], size_of[bid], s))
    rec.final_block_summary = summary
    if track:
        blocks, labels = [], []
        for bid in order:
            s = site_of[bid]
            if s is None:
                continue
            blocks.append(elems[bid])
            labels.append(s)
        rec.final_partition = LabeledPartition(blocks, labels, n=initial.n)
    return rec


# ----------------------------------------------------------------------
# coupled simulation
# ----------------------------------------------------------------------

def coupled_simulate(initials, config: SimulationConfig):
    """Drive several configurations from one shared event stream.

    initials[0] is the finest configuration; every other entry must equal
    its restriction to some element subset (a prefix [m] or a class of a
    class split).  The finest trajectory is simulated once; coarser variants
    are read off by restriction, which guarantees pathwise restriction
    consistency and class-split domination by construction.

    Returns a list of (TrajectoryRecord, state_series) pairs, where
    state_series is [(time, LabeledPartition)] sampled at t=0 and at every
    event time of the finest trajectory.
    """
    if not initials:
        raise IncompatibleVariants("no configurations given")
    full = initials[0]
    subsets = [full.ground]
    for variant in initials[1:]:
        sub = variant.ground
        if not sub <= full.ground:
            raise IncompatibleVariants("variant ground set is not a subset "
                                       "of the finest configuration")
        if full.restrict_to(sub) != variant:
            raise IncompatibleVariants("variant is not a restriction of the "
                                       "finest configuration")
        subsets.append(sub)

    cfg = SimulationConfig(
        kernel=config.kernel, geography=config.geography,
        killing=config.killing, horizon=config.horizon,
        stop_blocks_at_most=config.stop_blocks_at_most,
        stop_when_absorbed=config.stop_when_absorbed, seed=config.seed,
        record_events=True, track_elements=True,
        probe_times=config.probe_times, event_budget=config.event_budget)
    rec = simulate(full, cfg)

    # replay the full trajectory, snapshotting each variant after every event
    site_map = {}
    elems_map = {}
    for bid, (b, lab) in enumerate(zip(full.blocks, full.labels)):
        site_map[bid] = lab
        elems_map[bid] = set(b)

    def snapshot() -> LabeledPartition:
        blocks, labels = [], []
        for bid, s in site_map.items():
            if s is None:
                continue
            blocks.append(elems_map[bid])
            labels.append(s)
        return LabeledPartition(blocks, labels, n=full.n)

    series = [[(0.0, snapshot())] for _ in subsets]
    for i, sub in enumerate(subsets):
        series[i][0] = (0.0, series[0][0][1].restrict_to(sub)
                        if i else series[0][0][1])
    for (time, tag, payload) in rec.events:
        if tag == "MERGE":
            _, chosen, _k = payload
            survivor = min(chosen, key=lambda bid: min(elems_map[bid]))
            for bid in chosen:
                if bid == survivor:
                    continue
                elems_map[survivor] |= elems_map[bid]
                site_map[bid] = None
        elif tag == "MIGRATE":
            bid, _s, dest = payload
            site_map[bid] = dest
        else:  # KILL
            (bid,) = payload
            site_map[bid] = CEMETERY
        state = snapshot()
        for i, sub in enumerate(subsets):
            series[i].append((time, state if i == 0 else state.restrict_to(sub)))

    out = []
    for i, sub in enumerate(subsets):
        if i == 0:
            out.append((rec, series[0]))
        else:
            vrec = TrajectoryRecord(initial=initials[i], seed=config.seed)
            vrec.final_time = rec.final_time
            vrec.stop_reason = rec.stop_reason
            vrec.final_partition = series[i][-1][1]
            out.append((vrec, series[i]))
    return out
