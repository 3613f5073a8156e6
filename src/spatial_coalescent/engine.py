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
experiment needs partition identity.  A start of singletons
(`LabeledPartition.singletons`, which `singletons_at` and
`singletons_per_site` return) holds only its labels, so a counts-only run
from it never builds a block set.  Block ids follow the least-element
order of the initial partition and a merge keeps its least id, so the ids
of the surviving blocks stay in least-element order.

The event loop runs in C (`_engine.c`, through ctypes).  One seeded
Mersenne Twister stream drives every draw, making trajectories
bit-reproducible: Python mixes the seed, and the loop seeds the generator
from it as `random.Random` would and makes the draws `random.Random` would
make, uniform indices by rejection from its raw bits as in `choice` and
`randrange`.  So every record is bit for bit that of the Python loop kept
as the reference in tests/engine_oracle.py.  The loop reads the geography's
kernel as its flat move table (`GeographySpec.move_table`).  The same
library holds the few-block sampler (`sc_few_block`, called by
`experiments.few_block_torus_sample`), built against numpy's random
headers and its `libnpyrandom.a`.  The first `simulate` or few-block
sample of a process builds the library with `cc` if none exists for this
source, into `__pycache__/` beside this file, or into
`~/.cache/spatial_coalescent/` where the package cannot be written to;
importing the package neither builds nor loads it.  Without a compiler
both raise `EngineBuildFailed`.  lambda_b past the kernel's table and the
merge-size laws come from the kernel through a callback, as the loop
reaches them; the loop also calls it every 2^16 steps, so that a signal
handler (Ctrl-C) runs and stops the run.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (EngineBuildFailed, IncompatibleVariants, ZeroRateDeadlock,
                     check_count)
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
    """Start state of `simulate` for one partition and site count, as flat
    C arrays that each replica copies.  Block ids are the indices of
    `LabeledPartition.blocks`."""
    site_of: array      # int32: site of each block
    mins: tuple         # least element of each block
    sizes: array        # int64: size of each block
    counts: array       # int64: blocks at each site
    roster_ids: array   # int32: the block ids at site 0, then at site 1, ...;
    #                     each site's in id order

    @classmethod
    def of(cls, part: "LabeledPartition", n_sites: int) -> "_StartLayout":
        for lab in part.labels:
            if lab == CEMETERY or not (0 <= lab < n_sites):
                raise ValueError(f"initial label {lab!r} is not a site")
        site_of = array("i", part.labels)
        if "blocks" in vars(part):
            mins = tuple(min(b) for b in part.blocks)
            sizes = array("q", map(len, part.blocks))
        else:  # a singleton start whose blocks were never built
            mins, sizes = range(1, part.n + 1), array("q", [1]) * part.n
        labels = np.frombuffer(site_of, dtype=np.int32)
        counts = np.bincount(labels, minlength=n_sites).astype(np.int64)
        roster_ids = np.argsort(labels, kind="stable").astype(np.int32)
        return cls(site_of=site_of, mins=mins, sizes=sizes,
                   counts=array("q", counts.tobytes()),
                   roster_ids=array("i", roster_ids.tobytes()))


class LabeledPartition:
    """Partition of a finite integer ground set with per-block site labels.

    Blocks are kept sorted by least element.  Labels are site indices of a
    geography, or the cemetery mark for killed blocks.  The ground set is
    built on first read.  A start of singletons (`singletons`) stores only
    its labels and n: its blocks {1}, ..., {n} are built on first read too,
    so reading `blocks`, `==`, `hash` or `restrict_to` gives the same
    frozensets as the explicit partition.
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
        self.n = n if n is not None else (max(union) if union else 0)
        self._layouts: dict[int, _StartLayout] = {}

    @classmethod
    def singletons(cls, labels) -> "LabeledPartition":
        """One singleton block per label: element i+1 at labels[i]."""
        part = cls.__new__(cls)
        part.labels = tuple(labels)
        part.n = len(part.labels)
        part._layouts = {}
        return part

    @cached_property
    def blocks(self) -> tuple:
        # reached by a singleton start only: __init__ stores its blocks
        return tuple(frozenset((e,)) for e in range(1, self.n + 1))

    @cached_property
    def ground(self) -> frozenset:
        return frozenset().union(*self.blocks)

    def start_layout(self, n_sites: int) -> "_StartLayout":
        """The per-site state `simulate` starts from on a geography of
        `n_sites` sites, computed once per site count and kept."""
        layout = self._layouts.get(n_sites)
        if layout is None:
            layout = self._layouts[n_sites] = _StartLayout.of(self, n_sites)
        return layout

    def block_count(self) -> int:
        return len(self.labels)

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
    check_count("n_per_site", n_per_site, 1)
    return LabeledPartition.singletons(
        [s for s in range(geography.size) for _ in range(n_per_site)])


def singletons_at(sites) -> LabeledPartition:
    """One singleton block per entry of `sites` (element i+1 at sites[i])."""
    return LabeledPartition.singletons(sites)


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
        # NaN fails every comparison: a NaN horizon would never be passed,
        # a NaN probe time never reached, a NaN budget never spent and a NaN
        # threshold met at once; each check is written so that NaN fails it
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be finite and positive")
        if self.stop_blocks_at_most is not None:
            check_count("block threshold", self.stop_blocks_at_most, 1)
        if not all(0.0 <= p < math.inf for p in self.probe_times):
            raise ValueError("probe times must be finite and >= 0")
        if self.event_budget is not None:
            check_count("event budget", self.event_budget, 1)


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
    and a proposal from site s is kept with probability move_rates[s] /
    max_move, which is 1 when every site has the same move rate (a torus); a
    rejected proposal is a null step that changes nothing.  No running float
    total is kept, so no rate can drift.  The per-site start state is copied
    from the layout cached on `initial` (`LabeledPartition.start_layout`).

    Every draw comes from one Mersenne Twister stream, seeded as
    `random.Random` would be from four words of `config.seed`'s
    SeedSequence.  Each event takes a holding-time uniform and an
    event-type uniform, then:
      - coalescence: a site index in the class; past two blocks the
        merge-size uniform; then two indices for a pair, or `sample` for
        2 < k < b;
      - killing: an alive-block index;
      - migration: an alive-block index, the thinning uniform (only when
        move rates differ) and the move uniform.
    An index below n takes n.bit_length() bits of the stream until they
    fall below n, as `random.Random.getrandbits` does inside `choice` and
    `randrange`.  Block ids stay in least-element order, so the survivor of
    a merge is its least id.

    The loop runs in C (`_engine.c`), seeds its Mersenne Twister as
    `random.Random` does and makes the draws `random.Random` would, so its
    records are those of the Python loop in tests/engine_oracle.py; the
    first call builds it (see `_loop`).  Merges come back as a log, which is
    replayed here when elements are tracked.
    """
    loop = _loop()
    geo = config.geography
    kernel = config.kernel
    # mix the seed first: raw consecutive integer seeds bias the stream's
    # opening draws, which shows up in first-event statistics; the loop
    # seeds as random.Random(mixed) does, mixed being these four 32-bit
    # words, low first
    key = np.random.SeedSequence(config.seed).generate_state(4)

    layout = initial.start_layout(geo.size)
    n_blocks, n_sites = len(layout.site_of), geo.size
    move_rates, move_start, move_cum, move_dest = geo.move_table
    lam = kernel.lambda_table(kernel.b_max)
    # a Kingman measure merges pairs only, so it never needs a merge-size law
    binary = kernel.binary_merges
    # the address of each merge-size row by b, 0 until the loop fetches it
    rows = None if binary else np.zeros(n_blocks + 1, dtype=np.uintp)
    track = config.track_elements
    threshold = config.stop_blocks_at_most
    # stop once at most `floor` blocks are alive (-1: never)
    floor = max(-1 if threshold is None else threshold,
                1 if config.stop_when_absorbed else -1)
    probes = sorted(config.probe_times)
    probe_at = array("d", probes)
    # the final site and size of each block, the final count of each site
    # and the count at each probe, in one buffer
    final = np.empty(2 * n_blocks + n_sites + len(probes), dtype=np.int64)
    at = _addr(final)
    out = _Output(final_site=at, final_size=at + 8 * n_blocks,
                  final_counts=at + 16 * n_blocks,
                  probe_counts=at + 8 * (2 * n_blocks + n_sites))
    errors: list = []
    try:
        status = loop.sc_simulate(ctypes.byref(_Input(
            key=_addr(key), key_len=len(key), n_blocks=n_blocks,
            n_sites=n_sites,
            site_of=_addr(layout.site_of), size_of=_addr(layout.sizes),
            counts=_addr(layout.counts), roster_ids=_addr(layout.roster_ids),
            move_rates=_addr(move_rates), move_start=_addr(move_start),
            move_cum=_addr(move_cum), move_dest=_addr(move_dest),
            lam=_addr(lam), lam_avail=len(lam),
            rows=None if rows is None else _addr(rows), binary=binary,
            call=_callback(errors, functools.partial(_answer, kernel, out,
                                                     [])),
            killing=config.killing,
            log_merges=config.record_events or track,
            log_moves=config.record_events,
            horizon=math.inf if config.horizon is None else config.horizon,
            budget=config.event_budget or 0, floor=floor,
            threshold=-1 if threshold is None else threshold,
            probes=_addr(probe_at), n_probes=len(probes))),
            ctypes.byref(out))
        log_times = out.ev_time[:out.n_ev]
        log = out.ev_data[:out.ev_len]
    finally:
        loop.sc_free(ctypes.byref(out))
    if status == _DEADLOCK:
        raise ZeroRateDeadlock("all rates vanished before the stop condition",
                               time=out.t, blocks=out.n_alive)
    _raise_status(status, errors)

    rec = TrajectoryRecord(initial=initial, seed=config.seed)
    merges = _read_log(log_times, log, rec.events if config.record_events
                       else None)
    final_site, final_size = final[:n_blocks], final[n_blocks:2 * n_blocks]
    final_counts = final[2 * n_blocks:2 * n_blocks + n_sites]
    probe_counts = final[2 * n_blocks + n_sites:][:out.n_probed]
    rec.probes = list(zip(probes, probe_counts.tolist()))
    rec.stop_reason = _STOP_REASONS[out.stop]
    # a run stopped by the horizon ends at it, in the type it was given
    rec.final_time = (config.horizon if rec.stop_reason == "HORIZON"
                      else out.t)
    rec.budget_exhausted = bool(out.budget_exhausted)
    rec.final_counts = final_counts.tolist()
    rec.stats = {
        "events": {"MERGE": out.n_merges,
                   "MIGRATE": out.n_events - out.n_merges - out.n_kills,
                   "KILL": out.n_kills},
        "thinning_rejections": out.n_rejected,
        "max_site_blocks": out.max_seen,
        "lambda_table_size": out.lam_len,
    }
    kept = np.flatnonzero(final_site != _MERGED).tolist()
    labels = [CEMETERY if s == _CEMETERY else s
              for s in final_site[kept].tolist()]
    mins = layout.mins
    rec.final_block_summary = [
        (mins[bid], size, s)
        for bid, size, s in zip(kept, final_size[kept].tolist(), labels)]
    if track:
        elems = [set(b) for b in initial.blocks]
        for ids in merges:
            survivor = elems[ids[0]]
            for bid in ids[1:]:
                survivor |= elems[bid]
        rec.final_partition = LabeledPartition(
            [elems[bid] for bid in kept], labels, n=initial.n)
    return rec


def _read_log(times: list, log: list, events: list | None) -> list:
    """The merged id tuples of the event log, in event order; with `events`,
    every event is appended to it as a (time, tag, payload) tuple."""
    merges = []
    i = 0
    for t in times:
        tag = log[i]
        if tag == _EV_MERGE:
            s, k = log[i + 1], log[i + 2]
            ids = tuple(log[i + 3:i + 3 + k])
            merges.append(ids)
            i += 3 + k
            if events is not None:
                events.append((t, "MERGE", (s, ids, k)))
        elif tag == _EV_MIGRATE:
            events.append((t, "MIGRATE", tuple(log[i + 1:i + 4])))
            i += 4
        else:
            events.append((t, "KILL", (log[i + 1],)))
            i += 2
    return merges


# ----------------------------------------------------------------------
# the compiled library: the event loop and the few-block sampler
# ----------------------------------------------------------------------

_SOURCE = Path(__file__).with_name("_engine.c")
# no -ffast-math and no -march=native: a contracted multiply-add or a
# reordered sum would change the bits of the stream
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILER = "cc"

# the loops' status, sc_simulate's stop codes, site marks, event tags and
# requests (_engine.c)
_DEADLOCK, _CALLBACK_FAILED = 1, 3
_STOP_REASONS = ("", "HORIZON", "BLOCKS_AT_MOST", "ABSORBED", "BUDGET")
_MERGED, _CEMETERY = -1, -2
_EV_MERGE, _EV_MIGRATE = 0, 1
_ASK_LAMBDA, _ASK_ROW = 1, 2

_p = ctypes.c_void_p
_i = ctypes.c_int64
_Call = ctypes.CFUNCTYPE(ctypes.c_int)


class _Input(ctypes.Structure):
    _fields_ = [
        ("key", _p), ("key_len", _i), ("n_blocks", _i), ("n_sites", _i),
        ("site_of", _p), ("size_of", _p), ("counts", _p), ("roster_ids", _p),
        ("move_rates", _p), ("move_start", _p), ("move_cum", _p),
        ("move_dest", _p), ("lam", _p), ("lam_avail", _i), ("rows", _p),
        ("binary", _i), ("call", _Call),
        ("killing", _i), ("log_merges", _i), ("log_moves", _i),
        ("horizon", ctypes.c_double), ("budget", _i), ("floor", _i),
        ("threshold", _i), ("probes", _p), ("n_probes", _i),
    ]


class _Output(ctypes.Structure):
    _fields_ = [
        ("t", ctypes.c_double), ("status", _i), ("stop", _i),
        ("budget_exhausted", _i), ("n_alive", _i), ("n_events", _i),
        ("n_merges", _i), ("n_kills", _i), ("n_rejected", _i),
        ("max_seen", _i), ("lam_len", _i), ("n_probed", _i),
        ("probe_counts", _p), ("final_site", _p), ("final_size", _p),
        ("final_counts", _p), ("ev_time", ctypes.POINTER(ctypes.c_double)),
        ("ev_data", ctypes.POINTER(_i)), ("n_ev", _i), ("ev_len", _i),
        ("ev_cap", _i), ("ev_data_cap", _i), ("ask", _i), ("ask_b", _i),
        ("answer", _p), ("answer_len", _i),
    ]


class _Pcg64(ctypes.Structure):
    """The few-block sampler's generator (`pcg64`): numpy's PCG64 state,
    the LCG's state and increment as 64-bit words, low first, and the
    buffered 32-bit half."""
    _fields_ = [
        ("state", ctypes.c_uint64 * 2), ("inc", ctypes.c_uint64 * 2),
        ("has_uint32", ctypes.c_uint64), ("uinteger", ctypes.c_uint64),
    ]

    @classmethod
    def of(cls, state: dict) -> "_Pcg64":
        """The generator at `state`, the public `PCG64.state` dict."""
        def words(x: int):
            return (ctypes.c_uint64 * 2)(x & 0xFFFFFFFFFFFFFFFF, x >> 64)
        lcg = state["state"]
        return cls(words(lcg["state"]), words(lcg["inc"]),
                   state["has_uint32"], state["uinteger"])


class _Sample(ctypes.Structure):
    """sc_few_block's arguments, counters and merge log (`sc_sample`)."""
    _fields_ = [
        ("rng", _Pcg64), ("replicas", _i), ("n", _i), ("start", _p),
        ("lam", _p), ("rows", _p), ("cuts", _p), ("n_cuts", _i), ("steps", _p),
        ("d", _i), ("side", _i), ("width", _i), ("max_steps", _i),
        ("call", _Call),
        ("log_replica", _p), ("log_k", _p), ("log_slots", _p),
        ("log_time", _p), ("n_merges", _i), ("n_slots", _i),
        ("chunk_calls", _i), ("chunk_replicas", _i), ("chunk_cells", _i),
        ("chunk_steps", _i), ("chunk_cuts", _i), ("lockstep_events", _i),
        ("lockstep_skipped", _i),
    ]


def _addr(buffer) -> int:
    """The address of the data of an `array.array` or a C-contiguous
    numpy array."""
    if isinstance(buffer, array):
        return buffer.buffer_info()[0]
    return buffer.__array_interface__["data"][0]


def _callback(errors: list, answer=None) -> _Call:
    """A loop's callback: a generator that ctypes resumes through `send`.

    Each resume runs `answer()`, if given, which answers the loop's request;
    a poll needs no answer.  It returns 0, or 1 once it has caught an
    exception, which the caller raises from `errors` when the loop has
    stopped.  The interpreter runs pending signal handlers as a frame starts
    or resumes: here that is at the `yield`, inside the `try`, where a plain
    function would meet a KeyboardInterrupt before its `try` and ctypes
    would only print it.
    """
    def answers():
        try:
            while True:
                yield 0
                if answer is not None:
                    answer()
        except GeneratorExit:  # closed after a run that needed no stop
            raise
        except BaseException as exc:
            errors.append(exc)
        yield 1

    resume = answers()
    next(resume)
    return _Call(functools.partial(resume.send, None))


def _answer(kernel: RateKernel, out: _Output, kept: list) -> None:
    """Answer sc_simulate's request in `out`: the lambda_b table grown to
    hold `ask_b`, as `lambda_total(b)` grows it, or the cumulative
    merge-size law of `ask_b`, kept in `kept` until the call returns."""
    if out.ask == _ASK_LAMBDA:
        kernel.lambda_total(out.ask_b)
        table = kernel.lambda_table(kernel.b_max)
    elif out.ask == _ASK_ROW:
        table = kernel.merge_size_cumulative(out.ask_b)
    else:
        return
    kept.append(table)
    out.answer, out.answer_len = _addr(table), len(table)


def _raise_status(status: int, errors: list) -> None:
    """Raise what stopped a loop that returned `status`, unless it is OK:
    the callback's exception, or MemoryError."""
    if status == _CALLBACK_FAILED:
        raise errors[0]
    if status:
        raise MemoryError("the compiled loop could not allocate its state")


def _numpy_random_dirs() -> tuple[Path, Path]:
    """numpy's include directory, which holds numpy/random/bitgen.h, and
    the directory of numpy/random/lib/libnpyrandom.a, numpy's
    distributions, which the library is built against."""
    return Path(np.get_include()), Path(np.__file__).parent / "random" / "lib"


@functools.cache
def _loop() -> ctypes.CDLL:
    """The compiled library of `_engine.c`, built on first use.  Its entry
    points: `sc_simulate`, the event loop of `simulate`; `sc_few_block`,
    the few-block sampler (`experiments.few_block_torus_sample`);
    `sc_choice`, the sampler's `Generator.choice`; and `sc_pcg64`, which
    jumps the sampler's generator ahead and wraps it as a numpy
    `bitgen_t`.  The library links numpy's distributions
    (`_numpy_random_dirs`), whose functions it exports too.

    The library is named by the sha256 of `_engine.c`, the compiler flags,
    numpy's version and numpy's include and lib directories, so a process
    loads the one built for its source and its numpy and builds it only
    if it is missing.  It lives in `__pycache__/` beside this file or,
    where the package cannot be written to (an install owned by another
    user), in `~/.cache/spatial_coalescent/`.  The build writes a temporary
    file and renames it into place, so a process never loads a half-written
    library, and then deletes the other `_engine.*.so` files of that
    directory, the libraries of earlier sources.  Without a C compiler `cc`
    on PATH, without numpy's bitgen.h or libnpyrandom.a, or with neither
    directory writable, it raises EngineBuildFailed.
    """
    name = _library_name()
    places = (_SOURCE.parent / "__pycache__",
              Path.home() / ".cache" / "spatial_coalescent")
    path = next((place / name for place in places
                 if (place / name).exists()), None)
    lib = ctypes.CDLL(str(path or _build(name, places)))
    lib.sc_simulate.argtypes = [ctypes.POINTER(_Input), ctypes.POINTER(_Output)]
    lib.sc_simulate.restype = _i
    lib.sc_free.argtypes = [ctypes.POINTER(_Output)]
    lib.sc_free.restype = None
    lib.sc_few_block.argtypes = [ctypes.POINTER(_Sample)]
    lib.sc_few_block.restype = _i
    # bitgen, pop, k, idx, work
    lib.sc_choice.argtypes = [_p, _i, _i, _p, _p]
    lib.sc_choice.restype = None
    # generator, delta, bitgen (or None)
    lib.sc_pcg64.argtypes = [ctypes.POINTER(_Pcg64), ctypes.c_uint64, _p]
    lib.sc_pcg64.restype = None
    return lib


def _library_name() -> str:
    """`_engine.<key>.so`, the key taken from the sha256 of `_engine.c`,
    the compiler flags, numpy's version and its include and lib
    directories."""
    include, lib_dir = _numpy_random_dirs()
    built_with = "\0".join((*_CFLAGS, np.__version__, str(include),
                             str(lib_dir)))
    key = hashlib.sha256(_SOURCE.read_bytes() + built_with.encode())
    return f"_engine.{key.hexdigest()[:16]}.so"


def _build(name: str, places: tuple) -> Path:
    """Build the library as `name` in the first of `places` that can be
    written to, delete the other `_engine.*.so` files there, and return
    its path."""
    compiler = shutil.which(_COMPILER)
    if compiler is None:
        raise EngineBuildFailed(
            f"no C compiler {_COMPILER!r} on PATH: simulate and the few-block "
            f"sampler build their library from {_SOURCE.name} with it on "
            f"first use",
            compiler=_COMPILER)
    include, lib_dir = _numpy_random_dirs()
    for needed in (include / "numpy" / "random" / "bitgen.h",
                   lib_dir / "libnpyrandom.a"):
        if not needed.is_file():
            raise EngineBuildFailed(
                f"numpy's {needed.name} is missing: {_SOURCE.name} is built "
                f"against {needed}", missing=str(needed))
    for place in places:
        try:
            place.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp",
                                       dir=place)
        except OSError:
            continue
        os.close(fd)
        try:
            done = subprocess.run(
                [compiler, *_CFLAGS, f"-I{include}", "-o", tmp, str(_SOURCE),
                 f"-L{lib_dir}", "-lnpyrandom", "-lm"],
                capture_output=True, text=True)
            if done.returncode:
                raise EngineBuildFailed(
                    f"{_COMPILER} could not build {_SOURCE.name}: "
                    f"{done.stderr.strip()}", compiler=_COMPILER)
            os.chmod(tmp, 0o755)  # mkstemp made it private to this user
            os.replace(tmp, place / name)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for stale in place.glob("_engine.*.so"):
            if stale.name != name:
                try:
                    stale.unlink()
                except OSError:  # gone already, or not ours to delete
                    pass
        return place / name
    raise EngineBuildFailed(
        f"cannot write the engine library {name}: neither "
        + " nor ".join(map(str, places)) + " is a writable directory",
        compiler=_COMPILER, directories=[str(place) for place in places])


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

    rec = simulate(full, replace(config, record_events=True,
                                 track_elements=True))

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

    series = [[] for _ in subsets]

    def record(time: float) -> None:
        state = snapshot()
        for i, sub in enumerate(subsets):
            series[i].append((time, state if i == 0 else state.restrict_to(sub)))

    record(0.0)
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
        record(time)

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
