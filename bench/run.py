"""Benchmark for spatial_coalescent: one command, four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
`src/` and the CLI is driven in-process.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
workload runs once untraced and once with spans around the public calls
into each layer, and the metrics are the per-layer ones.  Earlier lines
give provenance, the checks and a table of every metric with its unit and
sample count.  See bench/README.md.
"""

from __future__ import annotations

import os
import time

# one process, one worker thread: fixed before numpy loads a BLAS
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import speed  # noqa: E402

# every interval of an untraced run is converted to reference seconds by a
# host-speed probe running from here to the end of the timed phase
PROBE = speed.SpeedProbe().start()
T_START = PROBE.clock()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("measure", "rates", "geometry", "engine", "experiments", "cli")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
}
RATE_JOBS = ("kingman", "lebesgue", "beta05", "beta15", "mixture")
PER_LAYER_UNITS = {
    "measure.integrate_vector.s": "s",
    "measure.integrate_vector.calls": "count",
    "measure.mass.s": "s",
    "measure.self_s": "s",
    "rates.kernel_init.s": "s",
    "rates.ensure_b.s": "s",
    "rates.bk_row.s": "s",
    "rates.classify.s": "s",
    "rates.merge_row.s": "s",
    "rates.merge_row.calls": "count",
    "rates.self_s": "s",
    "rates.quadrature_error": "1",
    "rates.max_rel_err": "1",
    "rates.bk_row_err.beta15": "1",
    "rates.kernel_init.beta15.s": "s",
    "rates.ensure_b.beta05.s": "s",
    "rates.ensure_b.beta15.s": "s",
    "rates.merge_row.beta15.s": "s",
    **{f"rates.job.{job}.s": "s" for job in RATE_JOBS},
    "geometry.green_lattice.s": "s",
    "geometry.green_mc.s": "s",
    "geometry.sample_move.calls": "count",
    "geometry.sample_move.s": "s",
    "geometry.build_torus.s": "s",
    "geometry.self_s": "s",
    "engine.simulate.self_s": "s",
    "engine.events.merge": "count",
    "engine.events.migrate": "count",
    "engine.events_per_s": "1/s",
    "engine.merge_frac": "1",
    "experiments.torus_kappa.self_s": "s",
    "experiments.few_block_sample.s": "s",
    "experiments.structure_stats.self_s": "s",
    "experiments.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "bench.self_s": "s",
    "trace.setup_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Where each row of ROADMAP's baseline table is now read off.
BASELINE_ROWS = {
    "tier-1 full suite": None,
    "rates RateKernel(beta(1.5)) to b = 256": "rates.kernel_init.beta15.s @ rate_tables; "
                                               "rates.kernel_init.s @ site_dust",
    "rates ensure_b(10^4), alpha = 1.5 / 0.5": "rates.ensure_b.beta15.s / "
                                               "rates.ensure_b.beta05.s @ rate_tables",
    "rates merge_size_cumulative(b), b = 2..200, beta(1.5)": "rates.merge_row.s @ site_dust "
                                                             "(b = 2..100: rates.merge_row."
                                                             "beta15.s @ rate_tables)",
    "rates lambda_bk_row(1000), beta(1.5), worst relative error":
        "rates.bk_row_err.beta15 @ rate_tables",
    "geometry Green d = 3, lattice / Monte Carlo": "geometry.green_lattice.s / "
                                                   "geometry.green_mc.s @ torus_structure_cli",
    "engine torus N = 4, 10 blocks/site, Kingman": "engine.events_per_s @ torus_counts",
    "engine coupled_simulate, 200 blocks": None,
    "experiments partition_structure_experiment N = 8, n = 3":
        "experiments.few_block_sample.s @ torus_structure_cli (100 replicas per pass)",
}


def _git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Package:
    """The package's modules, imported from src/."""

    def __init__(self):
        import spatial_coalescent.cli as cli
        import spatial_coalescent.engine as engine
        import spatial_coalescent.experiments as experiments
        import spatial_coalescent.geometry as geometry
        import spatial_coalescent.measure as measure
        import spatial_coalescent.rates as rates
        self.measure, self.rates, self.geometry = measure, rates, geometry
        self.engine, self.experiments, self.cli = engine, experiments, cli


def measure_workload(wl, clock, tracer=None) -> dict:
    """Run every set-up, then every pass; record their intervals on
    `clock` apart, for `durations` to convert once the run is over.

    With a tracer, its spans are installed for the set-ups and passes and
    removed before the checks, which run untimed.
    """
    phase = tracer.span if tracer else (lambda _name: contextlib.nullcontext())
    if tracer:
        tracer.install(wl.pkg)
    setup_iv, states = [], []
    pass_iv, op_iv, outcomes = [], [], []
    per_label: dict[str, dict] = {}
    try:
        for i in range(wl.setups):
            t0 = clock()
            with phase("bench.setup"):
                states.append(wl.setup(i))
            setup_iv.append((t0, clock()))
        for i in range(wl.passes):
            ops = list(wl.ops(states[i]))
            t0 = clock()
            with phase("bench.timed"):
                _run_ops(wl, ops, clock, op_iv, outcomes, tracer, per_label)
            pass_iv.append((t0, clock()))
    finally:
        if tracer:
            tracer.restore()
    return {"setup_iv": setup_iv, "pass_iv": pass_iv, "op_iv": op_iv,
            "outcomes": outcomes, "per_label": per_label}


def durations(run: dict, seconds) -> dict:
    """Add the set-up, pass and operation times, `seconds(a, b)` each."""
    for key, intervals in (("setup_s", "setup_iv"), ("walls", "pass_iv"),
                           ("latencies", "op_iv")):
        run[key] = [seconds(a, b) for a, b in run[intervals]]
    return run


def _run_ops(wl, ops, clock, op_iv, outcomes, tracer, per_label):
    """Run operations back to back.  Only `op()` is inside the latency;
    the workload's digest, which drops what the checks do not need, and
    the per-label span bookkeeping run between operations."""
    digest = getattr(wl, "digest", None)
    for label, op, context in ops:
        before = tracer.snapshot() if tracer else None
        t0 = clock()
        try:
            data = op()
            ok, error = True, ""
        except Exception as exc:  # an operation that raises counts as failed
            data, ok, error = {}, False, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        t1 = clock()
        op_iv.append((t0, t1))
        latency = t1 - t0
        data = {**context, **data}
        if ok and digest:
            data = digest(data)
        outcomes.append((label, Outcome(ok, error, data)))
        delta = per_label.setdefault(label, {})
        delta["op_s"] = delta.get("op_s", 0.0) + latency
        if tracer:
            for name, rec in tracer.stats.items():
                prev = before.get(name, (0, 0.0, 0.0))[1]
                delta[name] = delta.get(name, 0.0) + rec[1] - prev


def end_to_end(run: dict, import_s: float) -> dict:
    walls, lat = run["walls"], run["latencies"]
    return {
        "setup_s": import_s + statistics.median(run["setup_s"]),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(lat) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, run: dict, untraced: dict, check, merges: int) -> dict:
    ops = max(len(run["latencies"]), 1)
    migrations = tracer.calls("geometry.sample_move")
    engine_self = tracer.self_time("engine.simulate")
    events = merges + migrations
    label_s = run["per_label"]
    metrics = {
        "measure.integrate_vector.s": tracer.inclusive("measure.integrate_vector"),
        "measure.integrate_vector.calls": tracer.calls("measure.integrate_vector"),
        "measure.mass.s": tracer.inclusive("measure.mass"),
        "rates.kernel_init.s": tracer.inclusive("rates.kernel_init"),
        "rates.ensure_b.s": tracer.inclusive("rates.ensure_b"),
        "rates.bk_row.s": tracer.inclusive("rates.bk_row"),
        "rates.classify.s": tracer.inclusive("rates.classify"),
        "rates.merge_row.s": tracer.inclusive("rates.merge_row"),
        "rates.merge_row.calls": tracer.calls("rates.merge_row"),
        "rates.quadrature_error": check.gauges.get("quadrature_error", 0.0),
        "rates.max_rel_err": check.gauges.get("max_rel_err", 0.0),
        "rates.bk_row_err.beta15": check.gauges.get("bk_row_err.beta15", 0.0),
        "rates.kernel_init.beta15.s": label_s.get("beta15", {}).get("rates.kernel_init", 0.0),
        "rates.ensure_b.beta05.s": label_s.get("beta05", {}).get("rates.ensure_b", 0.0),
        "rates.ensure_b.beta15.s": label_s.get("beta15", {}).get("rates.ensure_b", 0.0),
        "rates.merge_row.beta15.s": label_s.get("beta15", {}).get("rates.merge_row", 0.0),
        **{f"rates.job.{job}.s": label_s.get(job, {}).get("op_s", 0.0)
           for job in RATE_JOBS},
        "geometry.green_lattice.s": tracer.inclusive("geometry.green_lattice"),
        "geometry.green_mc.s": tracer.inclusive("geometry.green_mc"),
        "geometry.sample_move.calls": migrations,
        "geometry.sample_move.s": tracer.inclusive("geometry.sample_move"),
        "geometry.build_torus.s": tracer.inclusive("geometry.build_torus"),
        "engine.simulate.self_s": engine_self,
        "engine.events.merge": merges / ops,
        "engine.events.migrate": migrations / ops,
        "engine.events_per_s": events / engine_self if engine_self else 0.0,
        "engine.merge_frac": merges / events if events else 0.0,
        "experiments.torus_kappa.self_s": tracer.self_time("experiments.torus_kappa"),
        "experiments.few_block_sample.s": tracer.inclusive("experiments.few_block_sample"),
        "experiments.structure_stats.self_s": tracer.self_time("experiments.structure_stats"),
        "cli.self_s": tracer.self_time("cli.main"),
        "cli.bytes_written": check.gauges.get("bytes_written", 0),
        "bench.self_s": tracer.layer_self("bench"),
        "trace.setup_s": sum(run["setup_s"]),
        "trace.wall_s": sum(run["walls"]),
        "trace.overhead_s": sum(run["walls"]) - sum(untraced["walls"]),
    }
    for layer in ("measure", "rates", "geometry", "experiments"):
        metrics[f"{layer}.self_s"] = tracer.layer_self(layer)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        # spans time the traced run in host seconds; a probe would add its
        # calibration to whichever span it interrupts
        PROBE.stop()
    if not (SRC / "spatial_coalescent" / "__init__.py").is_file():
        PROBE.stop()
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    pkg = Package()
    import_iv = (T_START, PROBE.clock())

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        # a traced run times the workload twice (untraced, then traced), so
        # each of the two is sized for half of --seconds
        seconds = args.seconds / 2 if args.trace else args.seconds

        def make():
            return WORKLOADS[args.workload](pkg, args.seed, seconds, workdir)

        if args.trace:
            host_seconds = (lambda a, b: b - a)
            untraced = durations(measure_workload(make(), time.perf_counter),
                                 host_seconds)
            wl = make()
            tracer = Tracer()
            run = durations(measure_workload(wl, time.perf_counter, tracer),
                            host_seconds)
        else:
            wl = make()
            PROBE.start()
            run = measure_workload(wl, PROBE.clock)
            PROBE.stop()
            durations(run, PROBE.seconds)
            import_s = PROBE.seconds(*import_iv)
            host_wall_s = [b - a for a, b in run["pass_iv"]]
        check = wl.check(run["outcomes"])
    finally:
        PROBE.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    attempted = len(run["outcomes"])
    failed = min(check.failed, attempted)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "passes": wl.passes, "setups": wl.setups,
        "speed_probe": {"interval_s": speed.INTERVAL_S,
                        "arith_ref_s": speed.ARITH_REF_S,
                        "reads_ref_s": speed.READS_REF_S,
                        "copy_ref_s": speed.COPY_REF_S,
                        "calibration_s": round(PROBE.paused, 3),
                        "samples": len(PROBE.speeds)},
        "baseline_rows": BASELINE_ROWS,
    }
    print(json.dumps({"provenance": provenance}))
    for note in check.notes[:20]:
        print(f"check: {note}")

    if args.trace:
        merges = sum(out.data.get("merges", 0) for _l, out in run["outcomes"])
        metrics = per_layer(tracer, run, untraced, check, merges)
        units = PER_LAYER_UNITS
        accounted = sum(tracer.layer_self(layer) for layer in LAYERS + ("bench",))
        print(f"trace: layer self times + bench.self_s = {accounted:.6f} s; "
              f"traced set-up + wall = "
              f"{metrics['trace.setup_s'] + metrics['trace.wall_s']:.6f} s")
    else:
        metrics = end_to_end(run, import_s)
        units = END_TO_END_UNITS
    samples = {"setup_s": len(run["setup_s"]), "wall_s": len(run["walls"]),
               "ops_per_s": len(run["latencies"]), "peak_rss_mb": 1}
    for name, value in metrics.items():
        n = "" if args.trace else f"n={samples[name]}"
        print(f"{name:40s} {value:>16.6g} {units[name]:6s} {n}")
    print(f"{'failed_frac':40s} {failed / attempted:>16.6g} {'1':6s} n={attempted}")
    if not args.trace:
        # figures too noisy for a bound: the latency percentiles, what the
        # timed phase took on this host, and the probe's speed
        for q in (50, 90):
            ms = 1e3 * float(numpy.percentile(run["latencies"], q))
            print(f"{f'op_p{q}_ms':40s} {ms:>16.6g} {'ms':6s} n={len(run['latencies'])}")
        host = statistics.median(host_wall_s)
        print(f"{'host_wall_s':40s} {host:>16.6g} {'s':6s} n={len(host_wall_s)}")
        print(f"{'host_speed':40s} {metrics['wall_s'] / host:>16.6g} {'1':6s} "
              f"n={len(PROBE.speeds)}")
    if "max_rel_err" in check.gauges and args.workload == "rate_tables":
        print(f"{'max_rel_err':40s} {check.gauges['max_rel_err']:>16.6g} {'1':6s}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": (float(v) if isinstance(v, float) else v),
                           "unit": units[name]}
                    for name, v in metrics.items()},
    }
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print("bench: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
