"""The pure-Python event loop of `engine.simulate`, the reference that the
compiled loop (src/spatial_coalescent/_engine.c) must follow bit for bit.

`simulate` here is the Python loop the engine ran before the loop moved to
C, kept as it was: the same draws in the same order from the same seeded
`random.Random`, the same events, probes, counters and final state.  Its
start state is `_StartLayout`, the per-site tuples that
`LabeledPartition.start_layout` returned before it became flat arrays, built
afresh for each run.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from spatial_coalescent.engine import (
    CEMETERY,
    LabeledPartition,
    SimulationConfig,
    TrajectoryRecord,
)
from spatial_coalescent.errors import ZeroRateDeadlock


class _StartLayout(NamedTuple):
    sites: tuple       # site of each block
    mins: tuple        # least element of each block
    sizes: tuple       # size of each block
    rosters: tuple     # block ids at each site, in id order
    roster_pos: tuple  # index of each block in its site's roster
    counts: tuple      # blocks at each site
    classes: tuple     # (c, sites holding c >= 2 blocks), c in order of first site
    class_pos: tuple   # index of each site in its class (0 below 2 blocks)

    @classmethod
    def of(cls, part: LabeledPartition, n_sites: int) -> "_StartLayout":
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
        if "blocks" in vars(part):
            mins = tuple(min(b) for b in part.blocks)
            sizes = tuple(len(b) for b in part.blocks)
        else:  # a singleton start whose blocks were never built
            mins, sizes = range(1, part.n + 1), (1,) * part.n
        return cls(sites=part.labels, mins=mins, sizes=sizes,
                   rosters=tuple(map(tuple, rosters)),
                   roster_pos=tuple(roster_pos), counts=tuple(counts),
                   classes=tuple((c, tuple(m)) for c, m in classes.items()),
                   class_pos=tuple(class_pos))


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
    from `_StartLayout.of(initial, n_sites)`.

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
    layout = _StartLayout.of(initial, n_sites)
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
            # left to right, as the compiled loop adds (and `sum` did up to
            # Python 3.11; from 3.12 it compensates)
            coal_tot = 0.0
            for w in occ_weight:
                coal_tot += w
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
