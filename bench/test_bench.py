"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the checkers count a perturbed rate row or a wrong verdict as failed,
and that the oracles and the span accounting hold on known cases.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import oracles
import run
import speed
import workloads
from spans import Tracer
from speed import SpeedProbe

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pkg():
    import sys
    sys.path.insert(0, str(run.SRC))
    return run.Package()


def _tiny(monkeypatch):
    monkeypatch.setattr(workloads.TorusCounts, "N", 1)
    monkeypatch.setattr(workloads.TorusCounts, "per_site", 2)
    monkeypatch.setattr(workloads.TorusCounts, "min_ops", 5)
    monkeypatch.setattr(workloads.SiteDust, "n", 12)
    monkeypatch.setattr(workloads.SiteDust, "replicas", 30)


@pytest.mark.parametrize("workload", ["torus_counts", "site_dust"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(workload, trace, monkeypatch, capsys):
    _tiny(monkeypatch)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in
              SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def _rate_outcome(pkg, spec, measure, verdict, b_rows=(10, 40)):
    kernel = pkg.rates.RateKernel(measure, b_max=64)
    data = {"kernel": kernel, "verdict": verdict,
            "merge": {b: kernel.merge_size_cumulative(b) for b in range(2, 21)},
            "rows": {b: kernel.lambda_bk_row(b).copy() for b in b_rows},
            "spec": spec, "expected": "COMES_DOWN"}
    return data


def _check(data):
    wl = workloads.RateTables.__new__(workloads.RateTables)
    wl.sample_b = [2, 3, 17, 64]
    out = workloads.Outcome(True, "", data)
    return wl.check([("beta15", out)])


def test_rate_checker_passes_the_production_tables(pkg):
    data = _rate_outcome(pkg, oracles.beta(1.5), pkg.measure.LambdaMeasure.beta(1.5),
                         "COMES_DOWN")
    res = _check(data)
    assert res.failed == 0, res.notes
    assert 0.0 < res.gauges["max_rel_err"] < workloads.CHECK_TOL


@pytest.mark.parametrize("k", [2, 9])
def test_rate_checker_fails_a_perturbed_row(pkg, k):
    data = _rate_outcome(pkg, oracles.beta(1.5), pkg.measure.LambdaMeasure.beta(1.5),
                         "COMES_DOWN")
    data["rows"][10][k - 2] *= 1.0 + 1e-4
    res = _check(data)
    assert res.failed == 1
    assert res.gauges["max_rel_err"] == pytest.approx(1e-4, rel=1e-3)


def test_rate_checker_fails_a_wrong_verdict(pkg):
    data = _rate_outcome(pkg, oracles.beta(1.5), pkg.measure.LambdaMeasure.beta(1.5),
                         "STAYS_INFINITE")
    assert _check(data).failed == 1


def test_rate_checker_fails_a_perturbed_merge_law(pkg):
    data = _rate_outcome(pkg, oracles.LEBESGUE, pkg.measure.LambdaMeasure.lebesgue(),
                         "COMES_DOWN")
    data["merge"][7] = data["merge"][7] * (1.0 + 1e-3)
    assert _check(data).failed == 1


def test_torus_checker_catches_lost_mass_and_rising_counts(pkg):
    geo = pkg.geometry.build_torus(1, pkg.geometry.simple_walk(3))
    kernel = pkg.rates.RateKernel(pkg.measure.LambdaMeasure.unit_atom(0.0))
    initial = pkg.engine.singletons_per_site(geo, 2)
    rec = pkg.engine.simulate(initial, pkg.engine.SimulationConfig(
        kernel=kernel, geography=geo, horizon=27.0, seed=5,
        probe_times=(13.5, 27.0), record_events=False, track_elements=False))
    n0 = initial.block_count()
    assert workloads.check_torus_replica(rec, n0) == ""
    assert workloads.check_torus_replica(rec, n0 + 1).startswith("mass")
    rec.probes[1] = (rec.probes[1][0], rec.probes[0][1] + 1)
    assert "non-increasing" in workloads.check_torus_replica(rec, n0)


def test_oracle_rows_match_direct_quadrature():
    alpha, b = 1.5, 12
    norm = math.exp(-oracles.betaln(2 - alpha, alpha))
    for spec, lo, hi in ((oracles.beta(alpha), 0.0, 1.0),
                         ((("beta", alpha, 0.0, 0.6),), 0.0, 0.6)):
        row = oracles.lambda_bk_row(spec, b)
        for k in range(2, b + 1):
            ref, _ = integrate.quad(
                lambda x: x ** (k - 1 - alpha) * (1 - x) ** (b - k + alpha - 1) * norm,
                lo, hi, epsabs=0, epsrel=1e-12, limit=200)
            assert row[k - 2] == pytest.approx(ref, rel=1e-8)


def test_oracle_totals_and_laws():
    # Kingman: lambda_b = gamma_b = C(b,2) and every merge is binary
    for b in (2, 5, 40):
        assert oracles.lambda_total(oracles.KINGMAN, b) == pytest.approx(b * (b - 1) / 2)
        assert oracles.gamma_total(oracles.KINGMAN, b) == pytest.approx(b * (b - 1) / 2)
    assert np.allclose(oracles.merge_size_cumulative(oracles.KINGMAN, 9), 1.0)
    # Lebesgue (Bolthausen-Sznitman): lambda_b = b - 1
    assert oracles.lambda_total(oracles.LEBESGUE, 30) == pytest.approx(29.0)
    # Kingman absorption from n blocks: 2 (1 - 1/n)
    assert oracles.absorption_mean(oracles.KINGMAN, 10) == pytest.approx(1.8)


def test_oracle_green_constant():
    assert oracles.green_simple_walk(3) == pytest.approx(1.5163860591519809, rel=1e-12)


def test_self_times_add_up_to_the_outer_span():
    tracer = Tracer()

    def work(depth):
        with tracer.span(f"layer{depth}.f"):
            sum(range(20_000))
            if depth < 3:
                work(depth + 1)
                work(depth + 1)

    with tracer.span("bench.timed"):
        work(0)
    total = tracer.inclusive("bench.timed")
    selfs = sum(tracer.self_time(name) for name in tracer.stats)
    assert selfs == pytest.approx(total, rel=1e-9)
    assert tracer.calls("layer3.f") == 8
    assert tracer.inclusive("layer1.f") <= tracer.inclusive("layer0.f")


def test_install_and_restore_leave_the_package_unchanged(pkg):
    before = (pkg.engine.simulate, pkg.experiments.simulate,
              pkg.rates.RateKernel.__dict__["ensure_b"],
              pkg.geometry.GeographySpec.__dict__["sample_move"])
    tracer = Tracer()
    tracer.install(pkg)
    assert pkg.experiments.simulate is not before[1]
    tracer.restore()
    after = (pkg.engine.simulate, pkg.experiments.simulate,
             pkg.rates.RateKernel.__dict__["ensure_b"],
             pkg.geometry.GeographySpec.__dict__["sample_move"])
    assert after == before


def test_probe_converts_intervals_at_the_sampled_speed():
    probe = SpeedProbe(capacity=16)
    for t in range(10):
        probe.record(float(t), 2.0 if t < 5 else 0.5)
    assert probe.seconds(0.5, 3.5) == pytest.approx(6.0)
    assert probe.seconds(5.5, 8.5) == pytest.approx(1.5)
    # a short interval takes the speed of its nearest samples
    assert probe.seconds(1.0, 1.1) == pytest.approx(0.2)


def test_probe_clock_excludes_calibration():
    probe = SpeedProbe().start()
    wall0, clock0, paused0 = time.perf_counter(), probe.clock(), probe.paused
    sum(range(3_000_000))
    probe.stop()
    assert len(probe.speeds) > 2 * speed.MIN_SAMPLES
    assert all(s > 0 for s in probe.speeds)
    calibrating = probe.paused - paused0
    assert calibrating > 0
    assert probe.clock() - clock0 == pytest.approx(
        time.perf_counter() - wall0 - calibrating, abs=1e-3)
