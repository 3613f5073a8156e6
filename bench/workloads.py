"""The four benchmark workloads and the checks behind their failure counts.

Each workload is a closed loop with one client: operations run back to
back, each starting after the previous one ends.  A run is a number of
passes sized from `--seconds` with a fixed nominal cost per pass, so the
parent and a change do the same work for the same arguments.  Every pass
has its own set-up, timed apart from the pass.

The package sees only inputs generated from the seed.  Correctness is
judged against `oracles`, which never imports the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import tempfile
from dataclasses import dataclass, field

import numpy as np

import oracles

# Per-entry checks use |x - ref| / max(|ref|, ROW_FLOOR * max|row|): the
# quadrature guarantees accuracy relative to a row's largest entry, so
# entries hundreds of orders of magnitude below it are reported in
# max_rel_err but do not fail the check.
CHECK_TOL = 1e-6
ROW_FLOOR = 1e-12
# Statistical checks run on every seed, about a hundred of them when two
# commits are compared, so each holds its false-alarm rate near 1e-4:
# criterion 9's 0.01 level split over those runs, and a 4-sigma band for
# the sample mean.
P_MIN = 1e-4
Z_MAX = 4.0
MULTI_MERGE_MAX = 0.02      # criterion 9
# Error bound the lattice Green route reports for d = 3 at the commit that
# defined this benchmark; the structure report carries kappa but not it.
GREEN_REPORTED_ERR = 0.0039


@dataclass
class Outcome:
    """What one operation returned, kept for the checks after timing."""
    ok: bool = True
    error: str = ""
    data: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    failed: int = 0                      # operations that failed a check
    notes: list = field(default_factory=list)
    gauges: dict = field(default_factory=dict)


def _floored_rel_err(value, ref) -> float:
    value, ref = np.asarray(value, float), np.asarray(ref, float)
    if value.shape != ref.shape:
        return math.inf
    scale = np.maximum(np.abs(ref), ROW_FLOOR * float(np.max(np.abs(ref))))
    return float(np.max(np.abs(value - ref) / scale))


# ----------------------------------------------------------------------
# rate_tables
# ----------------------------------------------------------------------

class RateTables:
    """Fresh rate tables for five measures; quadrature in measure/rates."""

    name = "rate_tables"
    nominal_pass_s = 20.0
    bk_rows = (10, 100, 1000)
    merge_rows = range(2, 101)
    table_b = 10_000

    def __init__(self, pkg, seed: int, seconds: float, _workdir: str):
        self.pkg = pkg
        rng = np.random.default_rng(seed)
        self.passes = max(1, round(seconds / self.nominal_pass_s))
        self.setups = max(3, self.passes)
        # the seed picks where the totals are checked; the jobs and their
        # order are fixed, so every seed times the same work
        sampled = np.unique(np.round(np.geomspace(2, self.table_b, 24)
                                     * rng.uniform(0.9, 1.0, 24)).astype(int))
        self.sample_b = sorted({2, 3, self.table_b, *map(int, sampled)})

    def setup(self, _i):
        m = self.pkg.measure
        mixture = m.LambdaMeasure(
            atoms=[(0.3, 1.0)],
            pieces=[m.DensityPiece((0.0, 0.6), "beta", {"alpha": 1.5})])
        jobs = [
            ("kingman", m.LambdaMeasure.unit_atom(0.0), oracles.KINGMAN, "COMES_DOWN"),
            ("lebesgue", m.LambdaMeasure.lebesgue(), oracles.LEBESGUE, "STAYS_INFINITE"),
            ("beta05", m.LambdaMeasure.beta(0.5), oracles.beta(0.5), "STAYS_INFINITE"),
            ("beta15", m.LambdaMeasure.beta(1.5), oracles.beta(1.5), "COMES_DOWN"),
            ("mixture", mixture, (("atom", 0.3, 1.0), ("beta", 1.5, 0.0, 0.6)),
             "COMES_DOWN"),
        ]
        return jobs

    def ops(self, jobs):
        rates = self.pkg.rates
        for label, measure, spec, expected in jobs:
            def op(measure=measure):
                kernel = rates.RateKernel(measure)
                kernel.ensure_b(self.table_b)
                merge = {b: kernel.merge_size_cumulative(b) for b in self.merge_rows}
                rows = {b: kernel.lambda_bk_row(b) for b in self.bk_rows}
                verdict = rates.cdi_classify(kernel, b_max=1000)
                return {"kernel": kernel, "merge": merge, "rows": rows,
                        "verdict": verdict.verdict}
            yield label, op, {"spec": spec, "expected": expected}

    def check(self, outcomes) -> CheckResult:
        res = CheckResult(gauges={"max_rel_err": 0.0, "quadrature_error": 0.0,
                                  "bk_row_err.beta15": 0.0})
        worst = (0.0, "")
        for label, out in outcomes:
            if not out.ok:
                res.failed += 1
                res.notes.append(f"{label}: {out.error}")
                continue
            bad = check_rate_job(out.data, out.data["spec"], out.data["expected"],
                                 self.sample_b)
            if bad["fail"]:
                res.failed += 1
                res.notes.append(f"{label}: {bad['fail']}")
            if bad["max_rel_err"] >= worst[0]:
                worst = (bad["max_rel_err"], f"{label} {bad['where']}")
            res.gauges["quadrature_error"] = max(
                res.gauges["quadrature_error"], out.data["kernel"].quadrature_error)
            if label == "beta15":
                res.gauges["bk_row_err.beta15"] = bad["bk_row_1000_err"]
        res.gauges["max_rel_err"] = worst[0]
        res.notes.append(f"max_rel_err {worst[0]:.3e} at {worst[1]}")
        return res


def check_rate_job(data: dict, spec, expected: str, sample_b) -> dict:
    """Compare one job's tables with the closed forms.

    Returns the first failed check (or "") and the worst plain relative
    error over every entry compared, with where it occurs.
    """
    fail = []
    worst = [0.0, ""]

    def compare(kind, value, ref, floored):
        plain = oracles.rel_err(value, ref)
        if plain >= worst[0]:
            where = kind
            if np.ndim(ref):   # entries run over k = 2..b
                with np.errstate(divide="ignore", invalid="ignore"):
                    err = np.abs(np.asarray(value) - ref) / np.abs(ref)
                where += f" at k = {int(np.nanargmax(err)) + 2}"
            worst[0], worst[1] = plain, where
        err = _floored_rel_err(value, ref) if floored else plain
        if not err <= CHECK_TOL:
            fail.append(f"{kind} error {err:.3e} > {CHECK_TOL}")
        return plain

    if data["verdict"] != expected:
        fail.append(f"verdict {data['verdict']} != {expected}")
    kernel = data["kernel"]
    lam = kernel.lambda_table(max(sample_b))
    gam = kernel.gamma_table(max(sample_b))
    for b in sample_b:
        compare(f"lambda_{b}", lam[b], oracles.lambda_total(spec, b), False)
        compare(f"gamma_{b}", gam[b], oracles.gamma_total(spec, b), False)
    for b, cum in data["merge"].items():
        compare(f"merge_cumulative({b})", cum,
                oracles.merge_size_cumulative(spec, b), False)
    bk_1000 = 0.0
    for b, row in data["rows"].items():
        err = compare(f"lambda_bk_row({b})", row, oracles.lambda_bk_row(spec, b), True)
        if b == 1000:
            bk_1000 = err
    return {"fail": "; ".join(fail), "max_rel_err": worst[0], "where": worst[1],
            "bk_row_1000_err": bk_1000}


# ----------------------------------------------------------------------
# torus_counts
# ----------------------------------------------------------------------

class TorusCounts:
    """Counts-only replicas on the N = 4 torus: migrations dominate."""

    name = "torus_counts"
    nominal_op_s = 0.3
    min_ops = 60
    N, per_site = 4, 10

    def __init__(self, pkg, seed: int, seconds: float, _workdir: str):
        self.pkg = pkg
        self.seed = seed
        self.replicas = max(self.min_ops, round(seconds / self.nominal_op_s))
        self.passes = 1
        self.setups = 3

    def setup(self, _i):
        pkg = self.pkg
        geo = pkg.geometry.build_torus(self.N, pkg.geometry.simple_walk(3))
        kernel = pkg.rates.RateKernel(pkg.measure.LambdaMeasure.unit_atom(0.0))
        initial = pkg.engine.singletons_per_site(geo, self.per_site)
        seeds = pkg.experiments.spawn_seeds(self.seed, self.replicas)
        return geo, kernel, initial, seeds

    def ops(self, state):
        engine = self.pkg.engine
        geo, kernel, initial, seeds = state
        vol = float(geo.size)
        for s in seeds:
            def op(s=s):
                rec = engine.simulate(initial, engine.SimulationConfig(
                    kernel=kernel, geography=geo, horizon=vol, seed=s,
                    probe_times=(0.5 * vol, vol), record_events=False,
                    track_elements=False))
                return {"rec": rec}
            yield "replica", op, {"n0": initial.block_count()}

    @staticmethod
    def digest(data: dict) -> dict:
        """Kingman merges are binary: one merge per block lost."""
        rec = data["rec"]
        return {**data, "merges": data["n0"] - rec.live_counts_total()}

    def check(self, outcomes) -> CheckResult:
        res = CheckResult()
        for _label, out in outcomes:
            why = out.error if not out.ok else check_torus_replica(
                out.data["rec"], out.data["n0"])
            if why:
                res.failed += 1
                res.notes.append(why)
        return res


def check_torus_replica(rec, n0: int) -> str:
    """Mass conservation and monotone probe counts; "" when both hold."""
    mass = sum(size for _min, size, _site in rec.final_block_summary)
    if mass != n0:
        return f"mass {mass} != {n0}"
    counts = [n0] + [c for _t, c in rec.probes] + [rec.live_counts_total()]
    if len(rec.probes) != 2 or any(a < b for a, b in zip(counts, counts[1:])):
        return f"probe counts {counts} not non-increasing"
    if rec.live_counts_total() != len(rec.final_block_summary):
        return "final counts disagree with the block summary"
    return ""


# ----------------------------------------------------------------------
# site_dust
# ----------------------------------------------------------------------

class SiteDust:
    """Beta(1.5) from 200 singletons at one site until absorption; the
    first replicas of each pass fill the merge-size laws lazily, as in
    every fresh CLI process."""

    name = "site_dust"
    nominal_pass_s = 15.0
    n = 200
    replicas = 4000
    alpha = 1.5

    def __init__(self, pkg, seed: int, seconds: float, _workdir: str):
        self.pkg = pkg
        self.seed = seed
        self.passes = max(1, round(seconds / self.nominal_pass_s))
        self.setups = max(3, self.passes)

    def setup(self, i):
        pkg = self.pkg
        kernel = pkg.rates.RateKernel(pkg.measure.LambdaMeasure.beta(self.alpha))
        geo = pkg.geometry.single_site()
        initial = pkg.engine.singletons_at([0] * self.n)
        seeds = pkg.experiments.spawn_seeds(self.seed * 1000 + i, self.replicas)
        return kernel, geo, initial, seeds

    def ops(self, state):
        engine = self.pkg.engine
        kernel, geo, initial, seeds = state
        for s in seeds:
            def op(s=s):
                rec = engine.simulate(initial, engine.SimulationConfig(
                    kernel=kernel, geography=geo, seed=s, stop_when_absorbed=True))
                return {"rec": rec, "kernel": kernel}
            yield "replica", op, {}

    def digest(self, data: dict) -> dict:
        """Keep what the checks need, not the event log of every replica."""
        rec = data["rec"]
        return {
            "kernel": data["kernel"], "time": rec.final_time,
            "merges": sum(1 for _t, tag, _p in rec.events if tag == "MERGE"),
            "one_block": (rec.stop_reason == "ABSORBED" and
                          rec.final_partition.blocks
                          == (frozenset(range(1, self.n + 1)),)),
        }

    def check(self, outcomes) -> CheckResult:
        res = CheckResult(gauges={"max_rel_err": 0.0, "quadrature_error": 0.0})
        spec = oracles.beta(self.alpha)
        times, kernels = [], {}
        for _label, out in outcomes:
            if not out.ok:
                res.failed += 1
                res.notes.append(out.error)
                continue
            kernels[id(out.data["kernel"])] = out.data["kernel"]
            if not out.data["one_block"]:
                res.failed += 1
                res.notes.append(f"final partition is not the block {{1..{self.n}}}")
            times.append(out.data["time"])
        exact = oracles.absorption_mean(spec, self.n)
        z = math.inf
        if len(times) > 1:
            se = statistics.stdev(times) / math.sqrt(len(times))
            z = (statistics.fmean(times) - exact) / se
            res.notes.append(f"mean absorption time {statistics.fmean(times):.4f} "
                             f"+- {se:.4f} vs exact {exact:.4f}: z = {z:+.2f}")
        if not abs(z) <= Z_MAX:
            res.notes.append(f"|z| = {abs(z):.2f} > {Z_MAX}: the sample fails")
            res.failed = len(outcomes)
        for kernel in kernels.values():
            # the laws the engine drew from, filled during the pass
            for b in range(2, self.n + 1):
                err = oracles.rel_err(kernel.merge_size_cumulative(b),
                                      oracles.merge_size_cumulative(spec, b))
                res.gauges["max_rel_err"] = max(res.gauges["max_rel_err"], err)
            res.gauges["quadrature_error"] = max(res.gauges["quadrature_error"],
                                                 kernel.quadrature_error)
        return res


# ----------------------------------------------------------------------
# torus_structure_cli
# ----------------------------------------------------------------------

class TorusStructureCli:
    """`coalsim experiment` runs of `structure`, driven in-process, one per
    pass, each with its own seed.  The lockstep sampler runs until the
    slowest replica has coalesced, so its time varies from seed to seed by
    a third; a run of two passes reports their median (their mean)."""

    name = "torus_structure_cli"
    nominal_pass_s = 10.0   # sizing only: --seconds 20 gives two passes
    N, n_blocks, replicas = 8, 3, 100

    def __init__(self, pkg, seed: int, seconds: float, workdir: str):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        self.passes = max(1, round(seconds / self.nominal_pass_s))
        self.setups = max(3, self.passes)

    def setup(self, i):
        tmp = tempfile.mkdtemp(prefix="structure-", dir=self.workdir)
        config = {
            "seed": int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0]),
            "measure": {"atoms": [[0.0, 1.0]]},
            "geography": {"topology": "torus", "N": self.N,
                          "walk": {"dimension": 3}},
            "experiment": {"name": "structure",
                           "params": {"n_blocks": self.n_blocks}},
            "replicas": self.replicas,
        }
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return tmp, path

    def ops(self, state):
        cli = self.pkg.cli
        tmp, path = state
        out_dir = os.path.join(tmp, "out")

        def op():
            stdout = io.StringIO()
            code = 0
            try:
                with contextlib.redirect_stdout(stdout):
                    cli.main(["experiment", "--config", path, "--out", out_dir],
                             standalone_mode=False)
            except SystemExit as exc:   # the CLI exits through sys.exit on errors
                code = exc.code if isinstance(exc.code, int) else 1
            if code:
                raise RuntimeError(f"coalsim exited {code}: {stdout.getvalue().strip()}")
            return {"out_dir": out_dir}
        yield "cli_run", op, {}

    def check(self, outcomes) -> CheckResult:
        res = CheckResult(gauges={"bytes_written": 0})
        green = oracles.green_simple_walk(3)
        lam22 = float(oracles.lambda_bk_row(oracles.KINGMAN, 2)[0])
        for _label, out in outcomes:
            why = out.error if not out.ok else self._check_run(
                out.data["out_dir"], green, lam22, res)
            if why:
                res.failed += 1
                res.notes.append(why)
        return res

    def _check_run(self, out_dir, green, lam22, res) -> str:
        names = ("report.json", "manifest.json")
        missing = [n for n in names if not os.path.isfile(os.path.join(out_dir, n))]
        if missing:
            return f"missing {missing}"
        res.gauges["bytes_written"] += sum(
            os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        p = report["pair_uniformity_pvalue"]
        multi = report["multi_merge_fraction"]
        g_implied = 2.0 / report["kappa"] - 2.0 / lam22
        res.notes.append(f"pair uniformity p = {p:.4f}, multi-merge fraction "
                         f"{multi}, G from kappa {g_implied:.7f} vs {green:.7f}")
        if not p > P_MIN:
            return f"pair uniformity p = {p} <= {P_MIN}"
        if not multi <= MULTI_MERGE_MAX:
            return f"multi-merge fraction {multi} > {MULTI_MERGE_MAX}"
        if not abs(g_implied - green) <= GREEN_REPORTED_ERR:
            return f"Green value {g_implied} off the oracle {green} by more " \
                   f"than {GREEN_REPORTED_ERR}"
        return ""


WORKLOADS = {w.name: w for w in (RateTables, TorusCounts, SiteDust,
                                  TorusStructureCli)}
