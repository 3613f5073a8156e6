"""The compiled event loop of `simulate` against the reference Python loop
(tests/engine_oracle.py): every field of every record must be equal, for
each kernel, geography and stop rule, with recording on and off."""

import bisect
import ctypes
import itertools
import math
import shutil
import subprocess

import numpy as np
import pytest

import engine_oracle
from conftest import wide_kernel
from spatial_coalescent import engine
from spatial_coalescent.engine import (
    SimulationConfig,
    simulate,
    singletons_at,
    singletons_per_site,
)
from spatial_coalescent.errors import ZeroRateDeadlock
from spatial_coalescent.geometry import (
    build_torus,
    complete_graph,
    generic_graph,
    simple_walk,
    single_site,
)
from spatial_coalescent.measure import DensityPiece, LambdaMeasure
from spatial_coalescent.rates import RateKernel

FIELDS = ("events", "probes", "final_time", "stop_reason", "final_counts",
          "final_block_summary", "final_partition", "stats", "budget_exhausted")

MEASURES = {
    "kingman": lambda: LambdaMeasure.unit_atom(0.0),
    "beta1.5": lambda: LambdaMeasure.beta(1.5),
    "atom1+beta": lambda: LambdaMeasure(
        atoms=[(1.0, 0.5)],
        pieces=[DensityPiece((0.0, 0.6), "beta", {"alpha": 1.5})]),
}

# site 2 never moves; sites 0, 1 and 3 move at rates 0.5, 0.2 and 0.75
_UNEQUAL = np.array([[0.5, 0.3, 0.2, 0.0], [0.1, 0.8, 0.1, 0.0],
                     [0.0, 0.0, 1.0, 0.0], [0.25, 0.25, 0.25, 0.25]])


def _start(geography):
    """(geography, start): sizes that reach multiple mergers at one site,
    sample's pool and set branches (b above 21 and above 85), set-branch
    samples at two sites in turn, and, on the torus, sites that gain
    blocks; "wide" bisects a row of ten destinations and a row with a
    repeated value (`wide_kernel`)."""
    if geography == "one-site":
        return single_site(), singletons_at([0] * 100)
    if geography == "complete":
        geo = complete_graph(4)
        return geo, singletons_at([0] * 30 + [1] * 28 + [2] * 3 + [3])
    if geography == "torus":
        geo = build_torus(2, simple_walk(3))
        return geo, singletons_per_site(geo, 2)
    if geography == "wide":
        geo = generic_graph(wide_kernel())
        return geo, singletons_per_site(geo, 8)
    geo = generic_graph(_UNEQUAL)
    return geo, singletons_per_site(geo, 8)


SETTINGS = {
    "absorb": dict(stop_when_absorbed=True, horizon=50.0),
    "kill-probes": dict(killing=True, horizon=3.0,
                        probe_times=(0.0, 0.05, 0.5, 1.0, 10.0)),
    # an integer horizon and probe time: a run ends at the value it was given
    "budget": dict(horizon=20, event_budget=60, probe_times=(0.2, 1)),
    "threshold": dict(horizon=20.0, stop_blocks_at_most=5,
                      probe_times=(0.1, 0.3)),
}

RECORDING = [(True, True), (False, False), (True, False), (False, True)]


def _both(init, **fields):
    """The records of the compiled and the reference loop."""
    cfg = SimulationConfig(**fields)
    return simulate(init, cfg), engine_oracle.simulate(init, cfg)


def _assert_same(got, want):
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    # equal numbers can still differ in type, and in a report's JSON
    assert type(got.final_time) is type(want.final_time)
    assert [type(t) for t, _c in got.probes] == [type(t) for t, _c in want.probes]


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("geography", ["one-site", "complete", "torus",
                                       "unequal", "wide"])
@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_compiled_loop_equals_reference(measure, geography, setting):
    kernel = RateKernel(MEASURES[measure]())
    geo, init = _start(geography)
    for seed in (0, 1):
        for record, track in RECORDING:
            got, want = _both(init, kernel=kernel, geography=geo, seed=seed,
                              record_events=record, track_elements=track,
                              **SETTINGS[setting])
            _assert_same(got, want)


def test_reference_cases_reach_every_path():
    # the grid above draws pairs and multiple mergers of every size up to
    # the whole site, kills, thinning rejections, and stops of every reason
    seen = {"k==b": 0, "2<k<b": 0, "KILL": 0, "rejected": 0}
    reasons = set()
    for measure in MEASURES:
        kernel = RateKernel(MEASURES[measure]())
        for geography in ("one-site", "unequal"):
            geo, init = _start(geography)
            for setting, seed in itertools.product(SETTINGS.values(), (0, 1)):
                rec = simulate(init, SimulationConfig(
                    kernel=kernel, geography=geo, seed=seed, **setting))
                reasons.add(rec.stop_reason)
                seen["KILL"] += rec.stats["events"]["KILL"]
                seen["rejected"] += rec.stats["thinning_rejections"]
                if geography == "unequal" or setting.get("killing"):
                    continue
                # one site: its count is the alive count
                alive = init.block_count()
                for _t, tag, (_s, _ids, k) in rec.events:
                    if k > 2:
                        seen["k==b" if k == alive else "2<k<b"] += 1
                    alive -= k - 1
    assert reasons == {"ABSORBED", "HORIZON", "BUDGET", "BLOCKS_AT_MOST"}
    assert all(seen.values()), seen


def test_wide_graph_draws_every_row(kingman_kernel):
    # the "wide" geography's moves bisect site 0's row of ten destinations
    # and site 2's row [0.5, 0.5, 1.0], whose second destination, of weight
    # 1e-20, no uniform reaches; site 1 keeps what comes to it
    geo, init = _start("wide")
    moves = set()
    for seed in (0, 1):
        rec = simulate(init, SimulationConfig(
            kernel=kingman_kernel, geography=geo, seed=seed, horizon=10.0))
        moves |= {(s, dest) for _t, tag, (_bid, s, dest) in rec.events
                  if tag == "MIGRATE"}
    assert {dest for s, dest in moves if s == 0} == set(range(1, 11))
    assert {dest for s, dest in moves if s == 2} == {3, 5}
    assert not any(s == 1 for s, _dest in moves)


def test_bisect_is_pythons_bisect_right(tmp_path):
    # the loop's bisect_right, built from its source with the library's
    # flags, against bisect.bisect_right on non-decreasing rows with runs of
    # equal values, at each value (where the tie rule decides), either side
    # of it, and outside the row
    compiler = shutil.which(engine._COMPILER)
    if compiler is None:
        pytest.skip(f"no C compiler {engine._COMPILER!r} on PATH")
    source = tmp_path / "bisect.c"
    source.write_text(
        f'#include "{engine._SOURCE}"\n'
        "int64_t bisect_for_test(const double *a, int64_t n, double x)\n"
        "{ return bisect_right(a, n, x); }\n")
    include, lib_dir = engine._numpy_random_dirs()
    built = subprocess.run(
        [compiler, *engine._CFLAGS, f"-I{include}", "-o",
         str(tmp_path / "bisect.so"), str(source), f"-L{lib_dir}",
         "-lnpyrandom", "-lm"], capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    c_bisect = ctypes.CDLL(str(tmp_path / "bisect.so")).bisect_for_test
    c_bisect.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_double]
    c_bisect.restype = ctypes.c_int64
    rng = np.random.default_rng(5)
    rows = [[], [0.5], [0.5, 0.5, 1.0], [1.0] * 9, [0.0] * 4 + [1.0]]
    for n in range(1, 40):
        rows.append(np.sort(rng.integers(0, 6, n) / 4.0).tolist())
    for row in rows:
        a = np.array(row, dtype=float)
        xs = {-1.0, 0.0, 2.0, math.inf, -math.inf}
        for v in row:
            xs |= {v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)}
        for x in sorted(xs):
            assert c_bisect(a.ctypes.data, len(a), x) == \
                bisect.bisect_right(row, x), (row, x)


def test_lambda_table_reaches_the_start_block_count():
    # b_max = 2 at the start: sites that gain a fourth block read lambda_4,
    # which the loop is given up front, with the table grown to the start's
    # block count, as no site can hold more; the records are the
    # reference's, whose table grows inside the run
    geo = build_torus(1, simple_walk(3))
    init = singletons_per_site(geo, 3)
    kernels = [RateKernel(LambdaMeasure.beta(1.5), b_max=2) for _ in range(2)]
    recs = [run(init, SimulationConfig(kernel=k, geography=geo, seed=5,
                                       horizon=4.0))
            for run, k in zip((simulate, engine_oracle.simulate), kernels)]
    _assert_same(*recs)
    assert recs[0].stats["max_site_blocks"] >= 4
    assert kernels[0].b_max >= init.block_count()


@pytest.mark.parametrize("kernel_rows", [
    np.eye(2),
    np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]),
], ids=["frozen", "thinned"])
def test_deadlock_raised_like_the_reference(kingman_kernel, kernel_rows):
    geo = generic_graph(kernel_rows)
    cfg = SimulationConfig(kernel=kingman_kernel, geography=geo, seed=1,
                           stop_when_absorbed=True)
    errors = []
    for run in (simulate, engine_oracle.simulate):
        with pytest.raises(ZeroRateDeadlock) as info:
            run(singletons_at([0, 1]), cfg)
        errors.append((str(info.value), info.value.context))
    assert errors[0] == errors[1]


def test_kernel_error_inside_the_loop_propagates(monkeypatch):
    # a merge-size law is fetched from inside the compiled loop; an
    # exception raised there reaches the caller unchanged
    def broken(self, b):
        raise RuntimeError(f"no law for b = {b}")

    monkeypatch.setattr(RateKernel, "merge_size_cumulative", broken)
    with pytest.raises(RuntimeError, match="no law for b = 10"):
        simulate(singletons_at([0] * 10), SimulationConfig(
            kernel=RateKernel(LambdaMeasure.beta(1.5)),
            geography=single_site(), seed=0, stop_when_absorbed=True))


def test_zero_blocks_and_no_horizon(kingman_kernel):
    # an empty start with nothing to wait for: both loops deadlock
    with pytest.raises(ZeroRateDeadlock):
        simulate(singletons_at([]), SimulationConfig(
            kernel=kingman_kernel, geography=single_site(), seed=0))
    got, want = _both(singletons_at([]), kernel=kingman_kernel,
                      geography=single_site(), seed=0, horizon=1.0,
                      probe_times=(0.5, math.nextafter(1.0, 2.0)))
    _assert_same(got, want)
