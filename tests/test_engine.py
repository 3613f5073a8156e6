import hashlib
import math
import os
import shutil
import signal
import subprocess
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sp_stats

from partitions import GroundSetMismatch, partition_distance, restrict_partition
from spatial_coalescent import engine
from spatial_coalescent.engine import (
    CEMETERY,
    LabeledPartition,
    SimulationConfig,
    coupled_simulate,
    simulate,
    singletons_at,
    singletons_per_site,
)
from spatial_coalescent.errors import (EngineBuildFailed, IncompatibleVariants,
                                       ZeroRateDeadlock)
from spatial_coalescent.experiments import spawn_seeds
from spatial_coalescent.geometry import (
    build_torus,
    complete_graph,
    generic_graph,
    simple_walk,
    single_site,
)
from spatial_coalescent.measure import LambdaMeasure
from spatial_coalescent.rates import RateKernel
from torus_oracle import pairwise_first_coalescence_times

import numpy as _np


# ---------------------------------------------------------------- partitions

def test_restriction_drops_and_reorders():
    pi = LabeledPartition([{1, 3}, {2}], [0, 1], n=3)
    r = restrict_partition(pi, 2)
    assert r.as_pairs() == (((1,), 0), ((2,), 1))


def test_restriction_to_n_is_identity():
    pi = LabeledPartition([{1, 2, 5}, {3}, {4}], [0, 1, 0], n=5)
    assert restrict_partition(pi, 5) == pi


def test_restriction_example_three_blocks():
    pi = LabeledPartition([{1, 2, 5}, {3}, {4}], [0, 1, 0], n=5)
    r = restrict_partition(pi, 3)
    assert r.as_pairs() == (((1, 2), 0), ((3,), 1))


def test_min_element_ordering_enforced():
    pi = LabeledPartition([{2, 4}, {1, 3}], [0, 0], n=4)
    mins = [min(b) for b in pi.blocks]
    assert mins == sorted(mins)


def test_distance_identical_zero():
    pi = LabeledPartition([{1, 2}, {3}], [0, 1], n=3)
    assert partition_distance(pi, pi) == 0.0


def test_distance_first_difference_level_three():
    a = LabeledPartition([{1}, {2}, {3}], [0, 0, 0], n=3)
    b = LabeledPartition([{1}, {2}, {3}], [0, 0, 1], n=3)
    assert partition_distance(a, b) == pytest.approx(0.125)


def test_distance_label_of_first_block():
    a = LabeledPartition([{1}, {2}], [0, 0], n=2)
    b = LabeledPartition([{1}, {2}], [1, 0], n=2)
    assert partition_distance(a, b) == pytest.approx(0.5)


def test_distance_ground_set_mismatch():
    a = LabeledPartition([{1}], [0], n=1)
    b = LabeledPartition([{1}, {2}], [0, 0], n=2)
    with pytest.raises(GroundSetMismatch):
        partition_distance(a, b)


@pytest.mark.parametrize("case", ["at", "per-site"])
def test_singleton_start_equals_explicit_partition(case):
    geo = complete_graph(3)
    if case == "at":
        start, labels = singletons_at([2, 0, 2, 1, 0]), [2, 0, 2, 1, 0]
    else:
        start, labels = singletons_per_site(geo, 2), [0, 0, 1, 1, 2, 2]
    n = len(labels)
    explicit = LabeledPartition([{e} for e in range(1, n + 1)], labels, n=n)
    # the layout first, while the singleton start has built no block
    lazy_layout = start.start_layout(geo.size)
    assert "blocks" not in vars(start)
    for name, lazy, full in zip(lazy_layout._fields, lazy_layout,
                                explicit.start_layout(geo.size)):
        assert tuple(lazy) == tuple(full), name
    assert start.block_count() == explicit.block_count() == n
    assert start.n == explicit.n
    assert start == explicit and hash(start) == hash(explicit)
    assert start.blocks == explicit.blocks
    assert start.ground == explicit.ground == frozenset(range(1, n + 1))
    assert start.restrict_to({2, 3, 5}) == explicit.restrict_to({2, 3, 5})


def test_counts_only_run_builds_no_block(kingman):
    start = singletons_per_site(complete_graph(2), 4)
    simulate(start, SimulationConfig(kernel=kingman, geography=complete_graph(2),
                                     seed=1, stop_when_absorbed=True,
                                     record_events=False, track_elements=False))
    assert "blocks" not in vars(start)


@pytest.mark.parametrize("sites", [[0, 3], [-1, 0], [0, CEMETERY]],
                         ids=["past-last", "negative", "cemetery"])
def test_singleton_start_off_the_geography_raises(kingman, sites):
    with pytest.raises(ValueError, match="not a site"):
        simulate(singletons_at(sites), SimulationConfig(
            kernel=kingman, geography=complete_graph(3), seed=1, horizon=1.0))


def test_singleton_start_on_a_large_torus_stays_small():
    # 17^3 sites x 10 blocks: a frozenset per block peaks at about 31 MB
    geo = build_torus(8, simple_walk(3))
    tracemalloc.start()
    try:
        start = singletons_per_site(geo, 10)
        start.start_layout(geo.size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert start.block_count() == 49_130
    assert peak < 8e6, peak


@st.composite
def labeled_partitions(draw, n=5, sites=2):
    assignment = [draw(st.integers(0, n - 1)) for _ in range(n)]
    blocks = {}
    for e, g in enumerate(assignment, start=1):
        blocks.setdefault(g, set()).add(e)
    blist = sorted(blocks.values(), key=min)
    labels = [draw(st.integers(0, sites - 1)) for _ in blist]
    return LabeledPartition(blist, labels, n=n)


@settings(max_examples=80, deadline=None)
@given(labeled_partitions(), labeled_partitions(), labeled_partitions())
def test_distance_is_ultrametric(a, b, c):
    assert partition_distance(a, c) <= max(
        partition_distance(a, b), partition_distance(b, c)) + 1e-15


# ---------------------------------------------------------------- simulate

@pytest.fixture(scope="module")
def kingman():
    return RateKernel(LambdaMeasure.unit_atom(0.0))


@pytest.fixture(scope="module")
def one_atom():
    return RateKernel(LambdaMeasure.unit_atom(1.0))


def test_total_collapse_single_merge(one_atom):
    times = []
    for seed in range(300):
        rec = simulate(singletons_at([0] * 5), SimulationConfig(
            kernel=one_atom, geography=single_site(), seed=seed,
            stop_when_absorbed=True))
        merges = [e for e in rec.events if e[1] == "MERGE"]
        assert len(merges) == 1
        assert merges[0][2][2] == 5            # merge size k = 5
        assert rec.live_counts_total() == 1
        times.append(rec.final_time)
    # single Exp(1) waiting time
    assert np.mean(times) == pytest.approx(1.0, abs=4 * 1.0 / math.sqrt(300))


def test_kingman_death_chain_mean(kingman):
    n, reps = 10, 3000
    times = []
    for seed in range(reps):
        rec = simulate(singletons_at([0] * n), SimulationConfig(
            kernel=kingman, geography=single_site(), seed=seed,
            stop_when_absorbed=True, record_events=False,
            track_elements=False))
        times.append(rec.final_time)
    mean, se = np.mean(times), np.std(times, ddof=1) / math.sqrt(reps)
    assert abs(mean - 2 * (1 - 1 / n)) <= 3 * se


def test_kingman_merges_never_build_a_merge_law(monkeypatch):
    def no_law(self, b):
        raise AssertionError(f"merge-size law requested for b = {b}")

    monkeypatch.setattr(RateKernel, "merge_size_cumulative", no_law)
    rec = simulate(singletons_at([0] * 3000), SimulationConfig(
        kernel=RateKernel(LambdaMeasure.unit_atom(0.0)), geography=single_site(),
        seed=3, stop_when_absorbed=True, record_events=False,
        track_elements=False))
    assert rec.live_counts_total() == 1
    assert rec.stats["events"]["MERGE"] == 2999


def test_separated_blocks_cannot_merge(kingman):
    two_cycle = generic_graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rec = simulate(singletons_at([0, 1]), SimulationConfig(
        kernel=kingman, geography=two_cycle, horizon=1e-9, seed=1))
    assert not [e for e in rec.events if e[1] == "MERGE"]
    assert rec.live_counts_total() == 2


def test_merge_decrements_and_strict_times(kingman):
    rec = simulate(singletons_per_site(complete_graph(3), 4),
                   SimulationConfig(kernel=kingman, geography=complete_graph(3),
                                    seed=7, stop_when_absorbed=True))
    count = 12
    last_t = 0.0
    for t, tag, payload in rec.events:
        assert t > last_t
        last_t = t
        if tag == "MERGE":
            count -= payload[2] - 1
    assert count == rec.live_counts_total() == 1


def test_first_merge_pair_uniform(kingman):
    # 5 singletons at one site; the first merging pair over C(5,2)=10
    counts = {}
    reps = 10_000
    for seed in range(reps):
        rec = simulate(singletons_at([0] * 5), SimulationConfig(
            kernel=kingman, geography=single_site(), seed=seed,
            event_budget=1))
        merges = [e for e in rec.events if e[1] == "MERGE"]
        pair = tuple(merges[0][2][1])
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 10
    res = sp_stats.chisquare(list(counts.values()))
    assert res.pvalue > 0.01


def test_holding_time_exponential(kingman):
    # frozen start: blocks (3, 2) on the complete 2-graph
    # rate = lambda_3 + lambda_2 + 5 migrations = 3 + 1 + 5 = 9
    first = []
    for seed in range(2000):
        rec = simulate(singletons_at([0, 0, 0, 1, 1]), SimulationConfig(
            kernel=kingman, geography=complete_graph(2), seed=seed,
            event_budget=1))
        first.append(rec.events[0][0])
    res = sp_stats.kstest(first, "expon", args=(0, 1.0 / 9.0))
    assert res.pvalue > 0.01


def test_engine_pair_on_torus_matches_relative_walk_sampler(kingman):
    # first coalescence of two blocks N apart on the N = 4 torus: the count-
    # class engine against the independent relative-walk sampler
    N = 4
    walk = simple_walk(3)
    geo = build_torus(N, walk)
    # sites are numbered in the lexicographic order of [-N, N]^3
    side = 2 * N + 1
    start = singletons_at([np.ravel_multi_index((N, N, N), (side,) * 3),
                           np.ravel_multi_index((2 * N, N, N), (side,) * 3)])
    times = [simulate(start, SimulationConfig(
        kernel=kingman, geography=geo, seed=s, stop_blocks_at_most=1,
        record_events=False, track_elements=False)).final_time
        for s in spawn_seeds(2024, 300)]
    ref = pairwise_first_coalescence_times(
        N, walk, kingman.lambda_bk(2, 2), 3000, seed=2025,
        separation=[N, 0, 0])
    assert sp_stats.ks_2samp(times, ref).pvalue > 1e-3


def test_thinned_migration_holding_time(kingman):
    # site 0 keeps a jump with probability 1/2, site 1 never: move rates 0.5
    # and 1, so proposals from site 0 are thinned at rate 1/2
    lazy = generic_graph(np.array([[0.5, 0.5], [1.0, 0.0]]))
    holds, rejected = [], 0
    reps = 2000
    for seed in range(reps):
        rec = simulate(singletons_at([0]), SimulationConfig(
            kernel=kingman, geography=lazy, seed=seed, event_budget=1,
            track_elements=False))
        (t, tag, payload), = rec.events
        assert (tag, payload) == ("MIGRATE", (0, 0, 1))
        holds.append(t)
        rejected += rec.stats["thinning_rejections"]
    se = np.std(holds, ddof=1) / math.sqrt(reps)
    assert abs(np.mean(holds) - 1 / 0.5) <= 4 * se
    # a geometric number of rejections with mean 1 before each acceptance
    assert 0.8 * reps < rejected < 1.2 * reps


def test_killing_rate_one_per_block(kingman):
    # blocks at distinct sites of a complete graph: no coalescence possible
    # before migration; with a tiny horizon-free run count kills by time t
    t = 0.7
    n = 6
    kills = []
    for seed in range(1500):
        rec = simulate(singletons_at(list(range(n))), SimulationConfig(
            kernel=kingman, geography=complete_graph(n), killing=True,
            horizon=t, seed=seed, track_elements=False))
        kills.append(sum(1 for e in rec.events if e[1] == "KILL"))
    mean = np.mean(kills)
    se = np.std(kills, ddof=1) / math.sqrt(len(kills))
    assert abs(mean - n * (1 - math.exp(-t))) <= 3 * se


def test_killed_blocks_go_to_cemetery(kingman):
    rec = simulate(singletons_at([0, 1]), SimulationConfig(
        kernel=kingman, geography=complete_graph(2), killing=True,
        horizon=50.0, seed=3))
    if any(e[1] == "KILL" for e in rec.events):
        assert any(lab == CEMETERY for lab in rec.final_partition.labels)


def test_event_budget_stops_run(kingman):
    rec = simulate(singletons_at([0] * 30), SimulationConfig(
        kernel=kingman, geography=single_site(), seed=5, event_budget=4))
    assert rec.budget_exhausted
    assert rec.stop_reason == "BUDGET"
    assert len(rec.events) == 4


def test_ctrl_c_stops_a_long_run(kingman):
    # one block hopping between two sites for 10^8 events (about 12 s):
    # the compiled loop hands control back every 2^16 steps, so a SIGINT
    # sent 50 ms in raises KeyboardInterrupt out of simulate at once
    config = SimulationConfig(kernel=kingman, geography=complete_graph(2),
                              seed=0, record_events=False,
                              track_elements=False, event_budget=10**8)
    engine._loop()  # built and loaded before the clock starts
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    timer = threading.Timer(0.05, os.kill, (os.getpid(), signal.SIGINT))
    start = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            timer.start()
            simulate(singletons_at([0]), config)
    finally:
        timer.cancel()
        signal.signal(signal.SIGINT, previous)
    assert time.perf_counter() - start < 3.0


@pytest.mark.parametrize("field, value, needle", [
    ("horizon", math.nan, "horizon"),
    ("horizon", math.inf, "horizon"),
    ("horizon", 0.0, "horizon"),
    ("probe_times", (-1.0, 2.0), "probe times"),
    ("probe_times", (1.0, math.nan), "probe times"),
    ("probe_times", (math.inf,), "probe times"),
    ("event_budget", 0, "event budget"),
    ("event_budget", -3, "event budget"),
], ids=["horizon-nan", "horizon-inf", "horizon-0", "probe-negative",
        "probe-nan", "probe-inf", "budget-0", "budget-negative"])
def test_config_rejects_values_that_cannot_stop_or_probe(kingman, field, value,
                                                         needle):
    # a NaN horizon is never passed, a negative probe would report a count
    # before the start, a NaN one was dropped, and a budget below 1 still
    # ran one event
    with pytest.raises(ValueError, match=needle):
        SimulationConfig(kernel=kingman, geography=single_site(),
                         **{field: value})


@pytest.mark.parametrize("field, value", [
    ("event_budget", math.nan), ("event_budget", math.inf),
    ("event_budget", 2.5), ("stop_blocks_at_most", math.nan),
    ("stop_blocks_at_most", math.inf), ("stop_blocks_at_most", 2.5),
    ("stop_blocks_at_most", 0), ("b_max", math.nan), ("b_max", 2.5),
    ("b_max", 1), ("n_per_site", -1), ("n_per_site", 2.5),
    ("count", math.nan),
], ids=["budget-nan", "budget-inf", "budget-2.5", "threshold-nan",
        "threshold-inf", "threshold-2.5", "threshold-0", "b_max-nan",
        "b_max-2.5", "b_max-1", "per-site--1", "per-site-2.5",
        "seeds-nan"])
def test_counts_must_be_integers(kingman, field, value):
    # unchecked, a NaN budget is never spent, a NaN threshold ends the run
    # at t = 0 as absorbed, a NaN b_max builds a table to b = 3,
    # singletons_per_site(geo, -1) gave an empty start and 2.5 a TypeError,
    # and spawn_seeds(0, nan) a TypeError
    with pytest.raises(ValueError, match="integer"):
        if field == "b_max":
            RateKernel(LambdaMeasure.unit_atom(0.0), b_max=value)
        elif field == "n_per_site":
            singletons_per_site(complete_graph(2), value)
        elif field == "count":
            spawn_seeds(0, value)
        else:
            SimulationConfig(kernel=kingman, geography=single_site(),
                             **{field: value})


def test_probe_at_time_zero_reports_the_start(kingman):
    rec = simulate(singletons_at([0] * 5), SimulationConfig(
        kernel=kingman, geography=single_site(), seed=2, horizon=1.0,
        probe_times=(0.0,)))
    assert rec.probes == [(0.0, 5)]


def test_deadlock_detected(kingman):
    # two isolated sites with no movement: absorption is unreachable
    frozen = generic_graph(np.eye(2))
    with pytest.raises(ZeroRateDeadlock):
        simulate(singletons_at([0, 1]), SimulationConfig(
            kernel=kingman, geography=frozen, seed=1,
            stop_when_absorbed=True))


def test_deadlock_detected_with_thinned_moves(kingman):
    # sites 0 and 1 hold their blocks forever, site 2 moves: the proposal
    # rate stays positive but no real event can happen
    frozen = generic_graph(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                     [1.0, 0.0, 0.0]]))
    with pytest.raises(ZeroRateDeadlock):
        simulate(singletons_at([0, 1]), SimulationConfig(
            kernel=kingman, geography=frozen, seed=1,
            stop_when_absorbed=True))


def test_bit_reproducible(kingman):
    cfgs = [SimulationConfig(kernel=kingman, geography=complete_graph(2),
                             seed=11, stop_when_absorbed=True)
            for _ in range(2)]
    a = simulate(singletons_per_site(complete_graph(2), 3), cfgs[0])
    b = simulate(singletons_per_site(complete_graph(2), 3), cfgs[1])
    assert a.events == b.events
    assert a.final_time == b.final_time


_LAZY_3 = np.array([[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]])


def _stream_case(case, kingman, beta):
    """(initial partition, SimulationConfig fields) of a named engine case."""
    if case == "beta-one-site":
        return singletons_at([0] * 200), dict(
            kernel=beta, geography=single_site(), stop_when_absorbed=True,
            probe_times=(0.01, 0.1))
    if case == "generic-kill":
        geo = generic_graph(_LAZY_3)
        return singletons_per_site(geo, 6), dict(
            kernel=beta, geography=geo, killing=True, horizon=5.0,
            probe_times=(0.1, 0.5, 2.0))
    # N = 4 is the benchmark's torus_counts case, run to t = volume
    N, horizon = {"kingman-torus": (2, 27.0),
                  "kingman-torus-4": (4, 729.0)}[case]
    geo = build_torus(N, simple_walk(3))
    return singletons_per_site(geo, 10), dict(
        kernel=kingman, geography=geo, horizon=horizon,
        probe_times=(0.5 * horizon, horizon))


@pytest.mark.parametrize("case", ["beta-one-site", "generic-kill",
                                  "kingman-torus"])
def test_counts_only_run_matches_full_run(case, kingman, beta_heavy_kernel):
    # dropping events and element sets must not touch the random stream
    init, kw = _stream_case(case, kingman, beta_heavy_kernel)
    totals = {"MERGE": 0, "MIGRATE": 0, "KILL": 0, "rejected": 0}
    for seed in range(3):
        full = simulate(init, SimulationConfig(seed=seed, **kw))
        counts = simulate(init, SimulationConfig(
            seed=seed, record_events=False, track_elements=False, **kw))
        assert counts.events == [] and counts.final_partition is None
        for attr in ("probes", "final_time", "final_block_summary", "stats",
                     "stop_reason"):
            assert getattr(counts, attr) == getattr(full, attr), attr
        for tag, n in full.stats["events"].items():
            totals[tag] += n
        totals["rejected"] += full.stats["thinning_rejections"]
    # the case reaches the paths it is here for
    expect = {"beta-one-site": ("MERGE",),
              "generic-kill": ("MERGE", "MIGRATE", "KILL", "rejected"),
              "kingman-torus": ("MERGE", "MIGRATE")}[case]
    assert all(totals[key] > 0 for key in expect), totals


# SHA-256 of the records below, taken from the engine before its per-event
# work was cut; a change to any draw or to its order changes them
_PINNED_STREAMS = {
    "beta-one-site":
        "9ab7010c63f855991885af4db8d9720c6b81a73b9a1dab9c153fef7270c6c6d0",
    "generic-kill":
        "6573a0c01044248914974990f8bcb5eb51db1f7bcbe3756216f8ce3009b35749",
    "kingman-torus":
        "7901ad92a3f8139ba48cb1c2be32b7ac9887a5fbd6aa0f18fda416d8e6297816",
    "kingman-torus-4":
        "bfde69504302302a54f9ff9c087dc02cb42fbb12fdb9a05d107200ca3c652483",
}


def _stream_digest(case, kingman, beta) -> str:
    init, kw = _stream_case(case, kingman, beta)
    h = hashlib.sha256()
    for seed in ([0] if case == "kingman-torus-4" else range(3)):
        for record in (True, False):
            rec = simulate(init, SimulationConfig(
                seed=seed, record_events=record, track_elements=record, **kw))
            h.update(repr((rec.events, rec.probes, rec.final_time,
                           rec.stop_reason, rec.final_block_summary,
                           rec.final_counts, rec.stats)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(_PINNED_STREAMS))
def test_simulate_stream_is_pinned(case, kingman, beta_heavy_kernel):
    # every trajectory, with and without recording, is bit-identical to the
    # pinned one: same draws, same order, same events and counters
    assert _stream_digest(case, kingman, beta_heavy_kernel) == \
        _PINNED_STREAMS[case]


def test_engine_library_lies_under_a_gitignored_path(kingman):
    # the first simulate builds the loop into __pycache__/ beside engine.py,
    # named by the hash of its source, which a checkout never commits
    simulate(singletons_at([0, 0]), SimulationConfig(
        kernel=kingman, geography=single_site(), seed=1, horizon=1.0))
    library = Path(engine._loop()._name)
    package = Path(engine.__file__).parent
    assert library.parent == package / "__pycache__"
    assert library.name.startswith("_engine.") and library.suffix == ".so"
    root = Path(__file__).resolve().parents[1]
    assert "__pycache__/" in (root / ".gitignore").read_text().split()
    if (root / ".git").exists() and shutil.which("git"):
        check = subprocess.run(["git", "check-ignore", "-q", str(library)],
                               cwd=root)
        assert check.returncode == 0


def test_library_name_covers_numpy_version_and_directories(monkeypatch,
                                                         tmp_path):
    # a library built against one numpy is never loaded with another
    name = engine._library_name()
    assert name.startswith("_engine.") and name.endswith(".so")
    monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
    assert engine._library_name() != name
    monkeypatch.undo()
    include, lib_dir = engine._numpy_random_dirs()
    for dirs in ((tmp_path, lib_dir), (include, tmp_path)):
        monkeypatch.setattr(engine, "_numpy_random_dirs", lambda: dirs)
        assert engine._library_name() != name


@pytest.mark.parametrize("present", [[], ["numpy/random/bitgen.h"]],
                         ids=["nothing", "header-only"])
def test_build_without_numpy_random_files_names_the_missing_one(
        monkeypatch, tmp_path, present):
    # numpy's random headers and libnpyrandom.a looked up in an empty
    # directory: EngineBuildFailed (exit 4) names the first file missing,
    # before anything is written
    for rel in present:
        (tmp_path / rel).parent.mkdir(parents=True)
        (tmp_path / rel).write_text("")
    monkeypatch.setattr(engine, "_numpy_random_dirs",
                        lambda: (tmp_path, tmp_path))
    missing = "libnpyrandom.a" if present else "bitgen.h"
    places = (tmp_path / "here", tmp_path / "there")
    with pytest.raises(EngineBuildFailed, match=rf"numpy's {missing} is "
                       "missing") as caught:
        engine._build(engine._library_name(), places)
    assert caught.value.context["missing"].endswith(missing)
    assert not any(place.exists() for place in places)


def test_build_deletes_the_stale_libraries_of_its_directory(tmp_path):
    # the libraries of earlier sources in the directory the build wrote to
    # go; a build in progress (*.tmp), other files and the other place stay
    here, there = tmp_path / "pycache", tmp_path / "cache"
    here.mkdir()
    there.mkdir()
    kept = ["_engine.feedfacefeedface.so.x1y2z3.tmp", "other.so"]
    for name in [*kept, "_engine.0123456789abcdef.so"]:
        (here / name).write_text("")
    (there / "_engine.0123456789abcdef.so").write_text("")
    name = engine._library_name()
    assert engine._build(name, (here, there)) == here / name
    assert sorted(p.name for p in here.iterdir()) == sorted([name, *kept])
    assert [p.name for p in there.iterdir()] == ["_engine.0123456789abcdef.so"]


def test_build_without_128_bit_integers_fails_to_build(monkeypatch,
                                                        tmp_path):
    # the few-block sampler's PCG64 needs unsigned __int128: a compiler
    # without it, here one that has the macro taken away, stops at the
    # source's #error, which is EngineBuildFailed (exit 4), and writes
    # no library
    monkeypatch.setattr(engine, "_CFLAGS",
                        (*engine._CFLAGS, "-U__SIZEOF_INT128__"))
    with pytest.raises(EngineBuildFailed, match="unsigned __int128"):
        engine._build(engine._library_name(), (tmp_path,))
    assert list(tmp_path.iterdir()) == []


def test_merge_survivor_is_least_id(beta_heavy_kernel):
    # ids follow least-element order and a merge keeps its least id, so the
    # counts-only summary agrees with the element sets
    rnd = np.random.default_rng(7)
    sites = rnd.integers(0, 3, size=60).tolist()
    rec = simulate(singletons_at(sites), SimulationConfig(
        kernel=beta_heavy_kernel, geography=complete_graph(3), seed=4,
        horizon=2.0))
    assert any(p[2] > 2 for _, tag, p in rec.events if tag == "MERGE")
    part = rec.final_partition
    assert rec.final_block_summary == [
        (min(b), len(b), lab) for b, lab in zip(part.blocks, part.labels)]


def test_gamma_accounting(kingman):
    # mean (k-1) per merge at sites with b blocks, times lambda_b,
    # estimates gamma_b: for Kingman every merge has k=2 so the check is
    # that the block-count decrement always equals 1
    rec = simulate(singletons_at([0] * 8), SimulationConfig(
        kernel=kingman, geography=single_site(), seed=2,
        stop_when_absorbed=True))
    assert all(p[2] == 2 for _, tag, p in rec.events if tag == "MERGE")


# ---------------------------------------------------------------- coupling

def test_coupled_restriction_consistency(kingman):
    geo = complete_graph(2)
    full = singletons_at([0, 1, 0, 1, 0, 1])
    for seed in range(25):
        outs = coupled_simulate([full, restrict_partition(full, 3)],
                                SimulationConfig(kernel=kingman, geography=geo,
                                                 seed=seed, horizon=3.0))
        full_series, sub_series = outs[0][1], outs[1][1]
        for (t1, pf), (t2, ps) in zip(full_series, sub_series):
            assert t1 == t2
            assert restrict_partition(pf, 3) == ps


def test_coupled_class_domination(kingman):
    geo = single_site()
    full = singletons_at([0] * 6)
    classes = [full.restrict_to({1, 2, 3}), full.restrict_to({4, 5, 6})]
    for seed in range(25):
        outs = coupled_simulate([full] + classes, SimulationConfig(
            kernel=kingman, geography=geo, seed=seed, horizon=3.0))
        f, c1, c2 = (o[1] for o in outs)
        for step in range(len(f)):
            assert f[step][1].block_count() <= (
                c1[step][1].block_count() + c2[step][1].block_count())


def test_coupled_single_variant_matches_simulate(kingman):
    geo = complete_graph(2)
    init = singletons_at([0, 1, 0])
    cfg = SimulationConfig(kernel=kingman, geography=geo, seed=9, horizon=2.0)
    (rec, _series), = coupled_simulate([init], cfg)
    solo = simulate(init, SimulationConfig(kernel=kingman, geography=geo,
                                           seed=9, horizon=2.0))
    assert rec.events == solo.events


def test_coupled_rejects_non_restriction(kingman):
    a = singletons_at([0, 0])
    foreign = LabeledPartition([{1}, {2}], [1, 1], n=2)  # different labels
    with pytest.raises(IncompatibleVariants):
        coupled_simulate([a, foreign], SimulationConfig(
            kernel=kingman, geography=complete_graph(2), seed=1, horizon=1.0))
