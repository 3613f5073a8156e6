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
lambda_b) and recomputed only after an event that changes a class;
migration is uniformized at the largest move rate and thinned.  The
per-site start state of a partition is computed once and cached on it, so
replicas from one initial partition only copy it.

Blocks carry (min element, size) always and full element sets only when an
experiment needs partition identity.  Block ids follow the least-element
order of the initial partition and a merge keeps its least id, so the ids
of the surviving blocks stay in least-element order.  One seeded
`random.Random` stream drives every draw, making trajectories
bit-reproducible; uniform indices come from its `getrandbits` by rejection,
the loop `random.Random` itself runs inside `choice` and `randrange`.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import IncompatibleVariants, ZeroRateDeadlock
from .geometry import GeographySpec
from .rates import RateKernel

__all__ = [
    "LabeledPartition",
    "TrajectoryRecord",
    "SimulationConfig",
    "simulate",
    "coupled_simulate",
    "singletons_per_site",
    "singletons_at",
]

CEMETERY = "∂"


class _StartLayout(NamedTuple):
    """Start state of `simulate` for one partition and site count, as
    immutable tuples that each replica copies.  Block ids are the indices of
    `LabeledPartition.blocks`."""
    sites: tuple       # site of each block
    mins: tuple        # least element of each block
    sizes: tuple       # size of each block
    rosters: tuple     # block ids at each site, in id order
    roster_pos: tuple  # index of each block in its site's roster
    counts: tuple      # blocks at each site
    classes: tuple     # (c, sites holding c >= 2 blocks), c in order of first site
    class_pos: tuple   # index of each site in its class (0 below 2 blocks)

    @classmethod
    def of(cls, part: "LabeledPartition", n_sites: int) -> "_StartLayout":
        for lab in part.labels:
            if lab == CEMETERY or not (0 <= lab < n_sites):
                raise ValueError(f"initial label {lab!r} is not a site")
        rosters: list[list[int]] = [[] for _ in range(n_sites)]
        roster_pos = []
        for bid, s in enumerate(part.labels):
            roster_pos.append(len(rosters[s]))
            rosters[s].append(bid)
        counts = [len(r) for r in rosters]
        classes: dict[int, list[int]] = {}
        class_pos = [0] * n_sites
        for s, c in enumerate(counts):
            if c >= 2:
                members = classes.setdefault(c, [])
                class_pos[s] = len(members)
                members.append(s)
        return cls(sites=part.labels,
                   mins=tuple(min(b) for b in part.blocks),
                   sizes=tuple(len(b) for b in part.blocks),
                   rosters=tuple(map(tuple, rosters)),
                   roster_pos=tuple(roster_pos), counts=tuple(counts),
                   classes=tuple((c, tuple(m)) for c, m in classes.items()),
                   class_pos=tuple(class_pos))


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
        self._layouts: dict[int, _StartLayout] = {}

    def start_layout(self, n_sites: int) -> "_StartLayout":
        """The per-site state `simulate` starts from on a geography of
        `n_sites` sites, computed once per site count and kept."""
        layout = self._layouts.get(n_sites)
        if layout is None:
            layout = self._layouts[n_sites] = _StartLayout.of(self, n_sites)
        return layout

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
        # NaN fails every comparison: a NaN horizon would never be passed
        # and a NaN probe time never reached
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be finite and positive")
        if self.stop_blocks_at_most is not None and self.stop_blocks_at_most < 1:
            raise ValueError("block threshold must be >= 1")
        if not all(0.0 <= p < math.inf for p in self.probe_times):
            raise ValueError("probe times must be finite and >= 0")
        if self.event_budget is not None and self.event_budget < 1:
            raise ValueError("event budget must be >= 1")


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
    recomputed from the integer class sizes after every event that changes
    a class (a migration between a lone block and an empty site changes
    none); a coalescence picks a class with weight lambda_c |S_c| and then a
    uniform site in it.  Migration proposals come at rate max_move per block
    and a proposal from site s is kept with probability move_rate(s) /
    max_move, which is 1 when every site has the same move rate (a torus); a
    rejected proposal is a null step that changes nothing.  No running float
    total is kept, so no rate can drift.  The per-site start state is copied
    from the layout cached on `initial` (`LabeledPartition.start_layout`).

    Every draw comes from one `random.Random`, seeded from `config.seed`
    through a SeedSequence.  Each event takes a holding-time uniform and an
    event-type uniform, then:
      - coalescence: a site index in the class; past two blocks the
        merge-size uniform; then two indices for a pair, or `sample` for
        2 < k < b;
      - killing: an alive-block index;
      - migration: an alive-block index, the thinning uniform (only when
        move rates differ) and the move uniform.
    An index below n takes n.bit_length() bits from `getrandbits` until
    they fall below n, the loop `random.Random` runs inside `choice` and
    `randrange`.  Block ids stay in least-element order, so the survivor of
    a merge is its least id.
    """
    geo = config.geography
    kernel = config.kernel
    # mix the seed first: raw consecutive integer seeds bias the stream's
    # opening draws, which shows up in first-event statistics
    mixed = int.from_bytes(
        np.random.SeedSequence(config.seed).generate_state(4).tobytes(), "little")
    rng = random.Random(mixed)
    random_, getrandbits = rng.random, rng.getrandbits
    log = math.log
    sample_move = geo.sample_move

    n_sites = geo.size
    move_rates = geo.move_rates.tolist()
    max_move = max(move_rates)
    uniform_moves = min(move_rates) == max_move

    # block arrays indexed by block id; ids follow the least-element order
    # of `initial` and a merge keeps its least id, so the surviving ids stay
    # in least-element order and min_of is read only for the final summary
    layout = initial.start_layout(n_sites)
    site_of: list = list(layout.sites)
    size_of = list(layout.sizes)
    min_of = layout.mins
    track = config.track_elements
    elems = [set(b) for b in initial.blocks] if track else None

    n_alive = len(site_of)
    counts = list(layout.counts)
    rosters = list(map(list, layout.rosters))
    pos_in_roster = list(layout.roster_pos)
    alive = list(range(n_alive))
    alive_pos = list(range(n_alive))
    # alive blocks at sites they can leave: with non-uniform move rates the
    # proposal rate max_move * n_alive is only real while one is left
    # (uniform rates never read it)
    mobile = [1 if r > 0.0 else 0 for r in move_rates]
    n_mobile = 0 if uniform_moves else sum(mobile[s] for s in site_of)

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
    for c, members in layout.classes:
        occ_pos[c] = len(occupied)
        occupied.append(c)
        sites_with[c] = list(members)
    occ_weight = [lam[c] * len(sites_with[c]) for c in occupied]
    pos_in_class = list(layout.class_pos)

    merge_cum = kernel.merge_size_cumulative_array
    # a Kingman measure merges pairs only, so it never needs a merge-size law
    binary = kernel.binary_merges

    rec = TrajectoryRecord(initial=initial, seed=config.seed)
    events = rec.events
    record = config.record_events
    killing = config.killing
    horizon = math.inf if config.horizon is None else config.horizon
    budget = config.event_budget or 0  # events counted from 1; 0: none
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

    stop_reason = block_stop(n_alive)
    # the totals change only with a count class, the alive count or the
    # mobile count; an event that changes one of them marks them stale
    stale = True
    while not stop_reason:
        if stale:
            stale = False
            coal_tot = sum(occ_weight)
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
            only_coal = mig_tot == 0.0 and not killing
            kill_from = coal_tot + mig_tot if killing else math.inf
            alive_bits = n_alive.bit_length()
        t_next = t - log(1.0 - random_()) / total  # Exp(total)
        if t_next > horizon:
            t = horizon
            stop_reason = "HORIZON"
            break
        if next_probe <= t_next:
            flush_probes(t_next, n_alive)
        t = t_next
        u = random_() * total

        if u < coal_tot or only_coal:
            # ---- coalescence: class b with weight lambda_b |S_b| ----
            acc = 0.0
            for i, w in enumerate(occ_weight):
                acc += w
                if u < acc:
                    break
            # (a u rounded onto the total falls through to the last class)
            b = occupied[i]
            members = sites_with[b]
            n = len(members)
            nbits = n.bit_length()
            r = getrandbits(nbits)
            while r >= n:
                r = getrandbits(nbits)
            s = members[r]
            roster = rosters[s]
            k = 2
            if b > 2:
                # the uniform is drawn even when the law is a point mass, so
                # a Kingman run keeps the stream of the law-based draw
                u_k = random_()
                if not binary:
                    k = min(b, 2 + bisect_right(merge_cum(b), u_k))
            if k == 2:
                # a pair: two distinct uniform indices, none drawn when b == 2
                if b == 2:
                    x, y = roster
                else:
                    nbits = b.bit_length()
                    i = getrandbits(nbits)
                    while i >= b:
                        i = getrandbits(nbits)
                    nbits = (b - 1).bit_length()
                    j = getrandbits(nbits)
                    while j >= b - 1:
                        j = getrandbits(nbits)
                    if j >= i:
                        j += 1
                    x, y = roster[i], roster[j]
                survivor, bid = (x, y) if x < y else (y, x)
                size_of[survivor] += size_of[bid]
                if track:
                    elems[survivor] |= elems[bid]
                    elems[bid] = None
                last = roster.pop()
                if last != bid:
                    p = pos_in_roster[bid]
                    roster[p] = last
                    pos_in_roster[last] = p
                last = alive.pop()
                if last != bid:
                    p = alive_pos[bid]
                    alive[p] = last
                    alive_pos[last] = p
                site_of[bid] = None
                if record:
                    events.append((t, "MERGE", (s, (survivor, bid), 2)))
            else:
                chosen = list(roster) if k == b else rng.sample(roster, k)
                survivor = min(chosen)
                for bid in chosen:
                    if bid == survivor:
                        continue
                    size_of[survivor] += size_of[bid]
                    if track:
                        elems[survivor] |= elems[bid]
                        elems[bid] = None
                    last = roster.pop()
                    if last != bid:
                        p = pos_in_roster[bid]
                        roster[p] = last
                        pos_in_roster[last] = p
                    last = alive.pop()
                    if last != bid:
                        p = alive_pos[bid]
                        alive[p] = last
                        alive_pos[last] = p
                    site_of[bid] = None
                if record:
                    events.append((t, "MERGE", (s, tuple(sorted(chosen)), k)))
            n_alive -= k - 1
            if not uniform_moves:
                n_mobile -= (k - 1) * mobile[s]
            stale = True
            n_merges += 1
            if n_alive <= floor:
                stop_reason = block_stop(n_alive)
            c = b - (k - 1)
            dest = None
        else:
            # ---- killing or a migration proposal: a uniform alive block ----
            r = getrandbits(alive_bits)
            while r >= n_alive:
                r = getrandbits(alive_bits)
            bid = alive[r]
            s = site_of[bid]
            if u < kill_from:
                if not uniform_moves and move_rates[s] <= max_move * random_():
                    n_rejected += 1
                    continue
                dest = sample_move(s, random_())
            else:
                dest = None
            roster = rosters[s]
            last = roster.pop()
            if last != bid:
                p = pos_in_roster[bid]
                roster[p] = last
                pos_in_roster[last] = p
            if dest is None:
                last = alive.pop()
                if last != bid:
                    p = alive_pos[bid]
                    alive[p] = last
                    alive_pos[last] = p
                site_of[bid] = CEMETERY
                n_alive -= 1
                if not uniform_moves:
                    n_mobile -= mobile[s]
                stale = True
                n_kills += 1
                if record:
                    events.append((t, "KILL", (bid,)))
                if n_alive <= floor:
                    stop_reason = block_stop(n_alive)
            else:
                site_of[bid] = dest
                roster = rosters[dest]
                pos_in_roster[bid] = len(roster)
                roster.append(bid)
                if record:
                    events.append((t, "MIGRATE", (bid, s, dest)))
            b = counts[s]
            c = b - 1

        # ---- site s went from b to c blocks; dest, if any, gains one ----
        # (each class move is written out in place rather than called: this
        # path runs once per event)
        counts[s] = c
        if b >= 2:
            members = sites_with[b]
            last = members.pop()
            if last != s:
                p = pos_in_class[s]
                members[p] = last
                pos_in_class[last] = p
            i = occ_pos[b]
            if members:
                occ_weight[i] = lam[b] * len(members)
            else:
                last_c = occupied.pop()
                last_w = occ_weight.pop()
                if last_c != b:
                    occupied[i] = last_c
                    occ_weight[i] = last_w
                    occ_pos[last_c] = i
            if c >= 2:
                members = sites_with[c]
                pos_in_class[s] = len(members)
                members.append(s)
                if len(members) == 1:
                    occ_pos[c] = len(occupied)
                    occupied.append(c)
                    occ_weight.append(lam[c])
                else:
                    occ_weight[occ_pos[c]] = lam[c] * len(members)
            stale = True
        if dest is not None:
            b = counts[dest]
            counts[dest] = b + 1
            if b:
                if b == max_seen:
                    max_seen += 1
                    if max_seen == len(lam):
                        lam.append(kernel.lambda_total(max_seen))
                        sites_with.append([])
                        occ_pos.append(0)
                if b >= 2:
                    members = sites_with[b]
                    last = members.pop()
                    if last != dest:
                        p = pos_in_class[dest]
                        members[p] = last
                        pos_in_class[last] = p
                    i = occ_pos[b]
                    if members:
                        occ_weight[i] = lam[b] * len(members)
                    else:
                        last_c = occupied.pop()
                        last_w = occ_weight.pop()
                        if last_c != b:
                            occupied[i] = last_c
                            occ_weight[i] = last_w
                            occ_pos[last_c] = i
                c = b + 1
                members = sites_with[c]
                pos_in_class[dest] = len(members)
                members.append(dest)
                if len(members) == 1:
                    occ_pos[c] = len(occupied)
                    occupied.append(c)
                    occ_weight.append(lam[c])
                else:
                    occ_weight[occ_pos[c]] = lam[c] * len(members)
                stale = True
            if not uniform_moves:
                n_mobile += mobile[dest] - mobile[s]
                stale = True

        n_events += 1
        if n_events == budget and not stop_reason:
            stop_reason = "BUDGET"
            rec.budget_exhausted = True

    flush_probes(t, n_alive)
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
    rec.final_block_summary = [(m, size, s) for m, size, s
                               in zip(min_of, size_of, site_of) if s is not None]
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
            # ids follow least-element order, as in `simulate`
            survivor = min(chosen)
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
