"""Event-driven simulation of the labeled-partition Markov chain.

State: a partition of [n] into blocks, each block sitting at a site of a
geography (or at the cemetery once killed).  With b_i blocks at site i the
next event fires at total rate

    sum_i lambda_{b_i}  +  sum(blocks) move_rate  [+ #blocks if killing],

split between coalescence (choose a site with weight lambda_{b_i}, draw a
merge size k from the merge-size law, merge a uniform k-subset of the
blocks there), migration (a uniform block moves along the kernel; self-jumps
are left out of the move rate since they do not change state), and killing
(a uniform block moves to the cemetery).  The coalescence rate is summed
exactly over count classes (sites holding the same number of blocks share
lambda_b); migration is uniformized at the largest move rate and thinned.

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
    # run counters: events by tag, thinning rejections, the largest number
    # of blocks seen at one site and the length of the lambda_b table used
    stats: dict = field(default_factory=dict)

    def live_counts_total(self) -> int:
        return sum(self.final_counts)


def simulate(initial: LabeledPartition, config: SimulationConfig) -> TrajectoryRecord:
    """Run the jump chain from `initial` until a stop condition holds.

    Sites are bucketed by block count.  The coalescence rate is the sum over
    counts c >= 2 of lambda_c times the number of sites holding c blocks,
    recomputed from the integer class sizes whenever they change; a
    coalescence picks a class with weight lambda_c |S_c| and then a uniform
    site in it.  Migration proposals come at rate max_move per block and a
    proposal from site s is kept with probability move_rate(s) / max_move,
    which is 1 when every site has the same move rate (a torus); a rejected
    proposal is a null step that changes nothing.  No running float total
    is kept, so no rate can drift.
    """
    geo = config.geography
    kernel = config.kernel
    # mix the seed first: raw consecutive integer seeds bias the stream's
    # opening draws, which shows up in first-event statistics
    mixed = int.from_bytes(
        np.random.SeedSequence(config.seed).generate_state(4).tobytes(), "little")
    rng = random.Random(mixed)
    random_, randrange, choice = rng.random, rng.randrange, rng.choice
    n_sites = geo.size
    move_rates = geo.move_rates.tolist()
    max_move = max(move_rates)
    uniform_moves = min(move_rates) == max_move
    mobile = [1 if r > 0.0 else 0 for r in move_rates]

    # block arrays indexed by block id; ids follow the least-element order
    # of `initial` and a merge keeps the survivor with the least minimum,
    # so the surviving ids stay in least-element order
    site_of: list = list(initial.labels)
    for lab in site_of:
        if lab == CEMETERY or not (0 <= lab < n_sites):
            raise ValueError(f"initial label {lab!r} is not a site")
    size_of = [len(b) for b in initial.blocks]
    min_of = [min(b) for b in initial.blocks]
    track = config.track_elements
    elems = [set(b) for b in initial.blocks] if track else None

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
    # alive blocks at sites they can leave: with non-uniform move rates the
    # proposal rate max_move * n_alive is only real while one is left
    n_mobile = sum(mobile[s] for s in site_of)

    # count classes: sites_with[c] holds the sites with c >= 2 blocks.  The
    # occupied classes are listed in `occupied` (class c at occ_pos[c]) with
    # their weights lambda_c |S_c| in `occ_weight`, each recomputed from the
    # class size whenever that changes; the coalescence rate is their sum.
    # lam, sites_with and occ_pos grow with the largest site count seen.
    max_seen = max(counts, default=0)
    lam = kernel.lambda_table(max(max_seen, 2)).tolist()
    sites_with: list[list[int]] = [[] for _ in lam]
    occ_pos = [0] * len(lam)
    occupied: list[int] = []
    occ_weight: list[float] = []
    pos_in_class = [0] * n_sites

    def reclass(s: int, old: int, new: int):
        """Move site s from count class `old` to `new` (classes < 2 untracked)."""
        if old >= 2:
            members = sites_with[old]
            last = members.pop()
            if last != s:
                p = pos_in_class[s]
                members[p] = last
                pos_in_class[last] = p
            i = occ_pos[old]
            if members:
                occ_weight[i] = lam[old] * len(members)
            else:
                last_c = occupied.pop()
                last_w = occ_weight.pop()
                if last_c != old:
                    occupied[i] = last_c
                    occ_weight[i] = last_w
                    occ_pos[last_c] = i
        if new >= 2:
            members = sites_with[new]
            pos_in_class[s] = len(members)
            members.append(s)
            if len(members) == 1:
                occ_pos[new] = len(occupied)
                occupied.append(new)
                occ_weight.append(lam[new])
            else:
                occ_weight[occ_pos[new]] = lam[new] * len(members)

    for s, c in enumerate(counts):
        reclass(s, 0, c)

    merge_cum = kernel.merge_size_cumulative_list
    # a Kingman measure merges pairs only, so it never needs a merge-size law
    binary = kernel.binary_merges

    def remove_from_roster(bid: int):
        roster = rosters[site_of[bid]]
        last = roster.pop()
        if last != bid:
            p = pos_in_roster[bid]
            roster[p] = last
            pos_in_roster[last] = p

    def remove_from_alive(bid: int):
        last = alive.pop()
        if last != bid:
            p = alive_pos[bid]
            alive[p] = last
            alive_pos[last] = p

    rec = TrajectoryRecord(initial=initial, seed=config.seed)
    events = rec.events
    record = config.record_events
    killing = config.killing
    horizon = math.inf if config.horizon is None else config.horizon
    budget = math.inf if config.event_budget is None else config.event_budget
    threshold = config.stop_blocks_at_most
    # stop once at most `floor` blocks are alive (-1: never)
    floor = max(-1 if threshold is None else threshold,
                1 if config.stop_when_absorbed else -1)
    probes = sorted(config.probe_times)
    probe_idx = 0
    next_probe = probes[0] if probes else math.inf

    def flush_probes(up_to: float, count: int):
        nonlocal probe_idx, next_probe
        while next_probe <= up_to:
            rec.probes.append((next_probe, count))
            probe_idx += 1
            next_probe = probes[probe_idx] if probe_idx < len(probes) else math.inf

    t = 0.0
    n_events = n_merges = n_kills = n_rejected = 0

    def block_stop(n_alive: int) -> str:
        if n_alive > floor:
            return ""
        if threshold is not None and n_alive <= threshold:
            return "BLOCKS_AT_MOST"
        return "ABSORBED"

    stop_reason = block_stop(len(alive))
    while not stop_reason:
        coal_tot = sum(occ_weight)
        n_alive = len(alive)
        mig_tot = max_move * n_alive if uniform_moves or n_mobile else 0.0
        total = coal_tot + mig_tot
        if killing:
            total += n_alive
        if total == 0.0:
            if config.horizon is None:
                raise ZeroRateDeadlock("all rates vanished before the stop "
                                       "condition", time=t, blocks=n_alive)
            t = horizon
            stop_reason = "HORIZON"
            break
        t_next = t - math.log(1.0 - random_()) / total  # Exp(total)
        if t_next > horizon:
            t = horizon
            stop_reason = "HORIZON"
            break
        if next_probe <= t_next:
            flush_probes(t_next, n_alive)
        t = t_next
        u = random_() * total

        if u < coal_tot or (mig_tot == 0.0 and not killing):
            # ---- coalescence: class b with weight lambda_b |S_b| ----
            acc = 0.0
            for i, w in enumerate(occ_weight):
                acc += w
                if u < acc:
                    break
            # (a u rounded onto the total falls through to the last class)
            b = occupied[i]
            s = choice(sites_with[b])
            k = 2
            if b > 2:
                # the uniform is drawn even when the law is a point mass, so
                # a Kingman run keeps the stream of the law-based draw
                u_k = random_()
                if not binary:
                    k = min(b, 2 + bisect.bisect_right(merge_cum(b), u_k))
            roster = rosters[s]
            if k == b:
                chosen = list(roster)
            elif k == 2:
                i = randrange(b)
                j = randrange(b - 1)
                if j >= i:
                    j += 1
                chosen = [roster[i], roster[j]]
            else:
                chosen = rng.sample(roster, k)
            survivor = min(chosen, key=min_of.__getitem__)
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
            reclass(s, b, b - (k - 1))
            n_mobile -= (k - 1) * mobile[s]
            n_merges += 1
            if record:
                events.append((t, "MERGE", (s, tuple(sorted(chosen)), k)))
            stop_reason = block_stop(n_alive - (k - 1))
        elif killing and u >= coal_tot + mig_tot:
            # ---- killing ----
            bid = choice(alive)
            s = site_of[bid]
            remove_from_roster(bid)
            remove_from_alive(bid)
            b = counts[s]
            counts[s] = b - 1
            reclass(s, b, b - 1)
            n_mobile -= mobile[s]
            site_of[bid] = CEMETERY
            n_kills += 1
            if record:
                events.append((t, "KILL", (bid,)))
            stop_reason = block_stop(n_alive - 1)
        else:
            # ---- migration proposal ----
            bid = choice(alive)
            s = site_of[bid]
            if not uniform_moves and move_rates[s] <= max_move * random_():
                n_rejected += 1
                continue
            dest = geo.sample_move(s, random_())
            remove_from_roster(bid)
            site_of[bid] = dest
            roster = rosters[dest]
            pos_in_roster[bid] = len(roster)
            roster.append(bid)
            b_from = counts[s]
            b_to = counts[dest]
            counts[s] = b_from - 1
            counts[dest] = b_to + 1
            if b_from >= 2:
                reclass(s, b_from, b_from - 1)
            if b_to:
                if b_to == max_seen:
                    max_seen += 1
                    if max_seen == len(lam):
                        lam.append(kernel.lambda_total(max_seen))
                        sites_with.append([])
                        occ_pos.append(0)
                reclass(dest, b_to, b_to + 1)
            n_mobile += mobile[dest] - mobile[s]
            if record:
                events.append((t, "MIGRATE", (bid, s, dest)))

        n_events += 1
        if not stop_reason and n_events >= budget:
            stop_reason = "BUDGET"
            rec.budget_exhausted = True

    flush_probes(t, len(alive))
    rec.final_time = t
    rec.stop_reason = stop_reason
    rec.final_counts = counts
    rec.stats = {
        "events": {"MERGE": n_merges, "MIGRATE": n_events - n_merges - n_kills,
                   "KILL": n_kills},
        "thinning_rejections": n_rejected,
        "max_site_blocks": max_seen,
        "lambda_table_size": len(lam),
    }
    rec.final_block_summary = [(min_of[bid], size_of[bid], s)
                               for bid, s in enumerate(site_of) if s is not None]
    if track:
        kept = [bid for bid, s in enumerate(site_of) if s is not None]
        rec.final_partition = LabeledPartition(
            [elems[bid] for bid in kept], [site_of[bid] for bid in kept],
            n=initial.n)
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
