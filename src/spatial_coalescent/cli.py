"""Batch command-line interface: strict JSON configs, reproducible seeding,
and on-disk artifacts (report JSON, raw CSV/JSONL, manifest).

Determinism contract: the report for a given (config, seed) is byte
identical across reruns.  Wall-clock time and library versions live only in
the manifest, which is the one artifact allowed to vary between runs.

Exit codes: 0 success, 2 config parse/validation failure, 3 event budget
exceeded, 4 internal error.  Failures emit a machine-readable error JSON on
stdout.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import sys
import time
from contextlib import contextmanager
from typing import Annotated, Any, Literal, Optional

import click
import numpy as np
import pydantic
import scipy
from pydantic import BaseModel, ConfigDict, Field

from . import __version__
from .engine import SimulationConfig, simulate, singletons_per_site
from .errors import BudgetExceeded, CoalescentError
from .experiments import (
    block_count_limit_experiment,
    block_decay_shape,
    class_coupling_check,
    estimate_Tnk,
    pairwise_torus_experiment,
    partition_structure_experiment,
    stay_infinite_trend,
    torus_kappa,
)
from .geometry import (
    WalkSpec,
    build_torus,
    complete_graph,
    generic_graph,
    green_function,
    simple_walk,
    single_site,
)
from .measure import LambdaMeasure
from .rates import RateKernel, cdi_classify

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


# ----------------------------------------------------------------------
# config schema (strict: unknown fields rejected)
# ----------------------------------------------------------------------

class _Strict(BaseModel):
    model_config = ConfigDict(extra="forbid")


class PieceConfig(_Strict):
    interval: tuple[float, float]
    tag: str
    # numbers, or a list of numbers (the polynomial piece's coefficients)
    params: dict[str, float | list[float]] = Field(default_factory=dict)


class MeasureConfig(_Strict):
    atoms: list[tuple[float, float]] = Field(default_factory=list)
    pieces: list[PieceConfig] = Field(default_factory=list)

    def build(self) -> LambdaMeasure:
        with _invalid_as("measure"):
            return LambdaMeasure.from_dict(
                {"atoms": [list(a) for a in self.atoms],
                 "pieces": [p.model_dump() for p in self.pieces]})


class WalkConfig(_Strict):
    dimension: int = 3
    offsets: Optional[list[list[int]]] = None
    probabilities: Optional[list[float]] = None

    def build(self) -> WalkSpec:
        with _invalid_as("geography.walk"):
            if self.offsets is None:
                return simple_walk(self.dimension)
            return WalkSpec(self.dimension,
                            tuple(tuple(o) for o in self.offsets),
                            tuple(self.probabilities or ()))


class GeographyConfig(_Strict):
    topology: str  # torus | complete | single | graph
    N: Optional[int] = None
    walk: WalkConfig = Field(default_factory=WalkConfig)
    sites: Optional[int] = None
    kernel: Optional[list[list[float]]] = None
    site_budget: int = 1_000_000

    def build(self):
        with _invalid_as("geography"):
            return self._build()

    def _build(self):
        if self.topology == "torus":
            if self.N is None:
                raise _ValidationFailure(["geography: torus requires N"])
            return build_torus(self.N, self.walk.build(), self.site_budget)
        if self.topology == "complete":
            if self.sites is None:
                raise _ValidationFailure(["geography: complete requires sites"])
            return complete_graph(self.sites)
        if self.topology == "single":
            return single_site()
        if self.topology == "graph":
            if self.kernel is None:
                raise _ValidationFailure(["geography: graph requires kernel"])
            return generic_graph(np.asarray(self.kernel, dtype=float))
        raise _ValidationFailure([f"geography: unknown topology {self.topology!r}"])


class KernelConfig(_Strict):
    b_max: int = 256

    def build(self, measure: LambdaMeasure) -> RateKernel:
        with _invalid_as("kernel"):
            return RateKernel(measure, b_max=self.b_max)


class ExperimentConfig(_Strict):
    name: str
    params: dict[str, Any] = Field(default_factory=dict)


class RunConfig(_Strict):
    version: str = "1"
    seed: int
    measure: Optional[MeasureConfig] = None
    geography: Optional[GeographyConfig] = None
    kernel: KernelConfig = Field(default_factory=KernelConfig)
    experiment: Optional[ExperimentConfig] = None
    replicas: Optional[int] = None
    out_dir: Optional[str] = None
    event_budget: Optional[int] = None
    # simulate-specific
    n_per_site: Optional[int] = None
    horizon: Optional[float] = None
    stop_blocks_at_most: Optional[int] = None
    killing: bool = False
    probe_times: list[float] = Field(default_factory=list)
    # rates-specific
    b_max_table: Optional[int] = None
    # green-specific
    dimension: Optional[int] = None
    method: Optional[Literal["BESSEL", "LATTICE_SUM", "MONTE_CARLO"]] = None

    @pydantic.model_validator(mode="after")
    def _budgets_positive(self):
        if self.replicas is not None and self.replicas <= 0:
            raise ValueError("replicas must be positive")
        if self.event_budget is not None and self.event_budget <= 0:
            raise ValueError("event_budget must be positive")
        return self


class _ValidationFailure(Exception):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@contextmanager
def _invalid_as(section: str):
    """Report a ValueError raised while building `section` from config
    values as a validation failure (exit 2).  A ValueError anywhere else is
    an internal error (exit 4)."""
    try:
        yield
    except ValueError as e:
        raise _ValidationFailure([f"{section}: {e}"]) from e


def parse_config(path: str) -> RunConfig:
    """Read and strictly validate a JSON run config."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise _ConfigError("PARSE_ERROR", f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise _ConfigError("PARSE_ERROR",
                           f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    return validate_config(raw)


def validate_config(raw: dict) -> RunConfig:
    try:
        return RunConfig.model_validate(raw)
    except pydantic.ValidationError as e:
        msgs = [f"{'.'.join(str(p) for p in err['loc'])}: {err['msg']}"
                for err in e.errors()]
        raise _ConfigError("VALIDATION_ERROR", "; ".join(msgs),
                           violations=msgs)


class _ConfigError(Exception):
    def __init__(self, code, message, violations=()):
        self.code = code
        self.message = message
        self.violations = list(violations)
        super().__init__(message)


# ----------------------------------------------------------------------
# artifact persistence
# ----------------------------------------------------------------------

def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class ArtifactWriter:
    """Writes report/raw/manifest into out_dir; every file is listed in the
    manifest.  Reports carry no timestamps so reruns are byte identical."""

    def __init__(self, out_dir: Optional[str], config_raw: dict, seed: int):
        self.out_dir = out_dir
        self.config_raw = config_raw
        self.seed = seed
        self.files: list[str] = []
        self.t0 = time.monotonic()
        if out_dir:
            import os
            os.makedirs(out_dir, exist_ok=True)

    @property
    def config_hash(self) -> str:
        # where the artifacts land is not part of the run identity
        semantic = {k: v for k, v in self.config_raw.items() if k != "out_dir"}
        return _sha256(_canonical_json(semantic))

    def write_text(self, name: str, text: str) -> None:
        if not self.out_dir:
            return
        import os
        with open(os.path.join(self.out_dir, name), "w") as fh:
            fh.write(text)
        self.files.append(name)

    def write_report(self, report: dict) -> str:
        text = _canonical_json(report)
        self.write_text("report.json", text)
        return text

    def finish(self, stats: Optional[dict] = None) -> None:
        """Write the manifest; `stats` (run counters) go here, never into
        the report, so that reports stay byte identical."""
        if not self.out_dir:
            return
        manifest = {
            "config": self.config_raw,
            "config_sha256": self.config_hash,
            "seed": self.seed,
            "versions": {
                "artifact": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "wall_time_seconds": time.monotonic() - self.t0,
            "files": sorted(self.files) + ["manifest.json"],
        }
        if stats is not None:
            manifest["stats"] = stats
        import os
        with open(os.path.join(self.out_dir, "manifest.json"), "w") as fh:
            fh.write(_canonical_json(manifest))


def _fail(code: str, message: str, exit_code: int, **context):
    payload = {"error": code, "message": message}
    if context:
        payload["context"] = {k: v for k, v in context.items()}
    click.echo(json.dumps(payload, sort_keys=True, default=str))
    sys.exit(exit_code)


def _guarded(fn):
    """Map module errors onto the exit-code contract."""
    @functools.wraps(fn)
    def wrapper(*a, **kw):
        try:
            return fn(*a, **kw)
        except _ConfigError as e:
            _fail(e.code, e.message, EXIT_VALIDATION, violations=e.violations)
        except _ValidationFailure as e:
            _fail("VALIDATION_ERROR", str(e), EXIT_VALIDATION,
                  violations=e.violations)
        except BudgetExceeded as e:
            _fail("BUDGET_EXCEEDED", str(e), EXIT_BUDGET, **e.context)
        except CoalescentError as e:
            _fail(e.code, str(e), EXIT_INTERNAL, **e.context)
        except click.exceptions.Exit:
            raise
        except SystemExit:
            raise
        except Exception as e:
            _fail("INTERNAL_ERROR", f"{type(e).__name__}: {e}", EXIT_INTERNAL)
    return wrapper


def _load(config, seed, replicas, out, budget):
    cfg = parse_config(config)
    raw = json.loads(json.dumps(cfg.model_dump(mode="json"), sort_keys=True))
    if seed is not None:
        cfg = cfg.model_copy(update={"seed": seed})
        raw["seed"] = seed
    if replicas is not None:
        cfg = cfg.model_copy(update={"replicas": replicas})
        raw["replicas"] = replicas
    if budget is not None:
        cfg = cfg.model_copy(update={"event_budget": budget})
        raw["event_budget"] = budget
    if out is not None:
        cfg = cfg.model_copy(update={"out_dir": out})
        raw["out_dir"] = out
    writer = ArtifactWriter(cfg.out_dir, raw, cfg.seed)
    return cfg, writer


_OPTIONS = {
    "config": click.option("--config", required=True, type=click.Path(),
                           help="JSON run config"),
    "seed": click.option("--seed", type=int, default=None, help="override master seed"),
    "replicas": click.option("--replicas", type=int, default=None,
                             help="override replica count"),
    "out": click.option("--out", type=click.Path(), default=None, help="output directory"),
    "budget": click.option("--budget", type=int, default=None, help="override event budget"),
    "format": click.option("--format", "fmt", type=click.Choice(["json", "csv", "jsonl"]),
                           default="json", help="primary raw-output format"),
}
_COMMON = ("config", "seed", "replicas", "out", "budget")


def _with_options(*names):
    """Attach the named options from _OPTIONS, in the given order."""
    def deco(fn):
        for name in reversed(names):
            fn = _OPTIONS[name](fn)
        return fn
    return deco


@click.group()
@click.version_option(__version__)
def main():
    """Coalescent-rate tables, dichotomy classification, random-walk Green
    functions, exact trajectory simulation, and Monte Carlo experiments."""


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

@main.command()
@_with_options("config", "seed", "out")
@_guarded
def rates(config, seed, out):
    """Per-merge and total rate tables as CSV."""
    cfg, writer = _load(config, seed, None, out, None)
    if cfg.measure is None:
        raise _ValidationFailure(["rates: config requires a measure"])
    t0 = time.perf_counter()
    kernel = cfg.kernel.build(cfg.measure.build())
    t1 = time.perf_counter()
    b_hi = cfg.b_max_table or min(cfg.kernel.b_max, 64)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["b", "k", "value"])
    for b in range(2, b_hi + 1):
        row = kernel.lambda_bk_row(b)
        for k in range(2, b + 1):
            w.writerow([b, k, repr(float(row[k - 2]))])
        w.writerow([b, "lambda", repr(kernel.lambda_total(b))])
        w.writerow([b, "gamma", repr(kernel.gamma_total(b))])
    text = buf.getvalue()
    t2 = time.perf_counter()
    rows = text.count("\n") - 1
    click.echo(text, nl=False)
    writer.write_text("rates.csv", text)
    writer.write_report({"b_max": b_hi, "rows": rows,
                         "config_sha256": writer.config_hash})
    writer.finish(stats={"b_max": b_hi, "rows": rows,
                         "kernel_build_s": t1 - t0, "table_s": t2 - t1})


@main.command()
@_with_options("config", "seed", "out")
@_guarded
def classify(config, seed, out):
    """Comes-down-from-infinity dichotomy verdict as JSON."""
    cfg, writer = _load(config, seed, None, out, None)
    if cfg.measure is None:
        raise _ValidationFailure(["classify: config requires a measure"])
    t0 = time.perf_counter()
    kernel = cfg.kernel.build(cfg.measure.build())
    t1 = time.perf_counter()
    b_max = max(cfg.kernel.b_max, 1000)
    verdict = cdi_classify(kernel, b_max=b_max)
    t2 = time.perf_counter()
    report = {
        "verdict": verdict.verdict,
        "partial_sum": verdict.partial_sum,
        "tail_bound": verdict.tail_bound,
        "complete_collapse": verdict.complete_collapse,
        "note": verdict.note,
        "config_sha256": writer.config_hash,
    }
    click.echo(_canonical_json(report), nl=False)
    writer.write_report(report)
    writer.finish(stats={"decided_by": verdict.decided_by, "b_max": b_max,
                         "kernel_build_s": t1 - t0, "verdict_s": t2 - t1})


@main.command()
@_with_options(*_COMMON)
@_guarded
def green(config, seed, replicas, out, budget):
    """Random-walk Green function at the origin.  Without a `method`, the
    exact BESSEL route for axis walks and the lattice sum otherwise."""
    cfg, writer = _load(config, seed, replicas, out, budget)
    walk_cfg = (cfg.geography.walk if cfg.geography is not None
                else WalkConfig(dimension=cfg.dimension or 3))
    walk = walk_cfg.build()
    axis_walk = walk.axis_rates is not None
    method = cfg.method or ("BESSEL" if axis_walk else "LATTICE_SUM")
    if method == "BESSEL" and not axis_walk:
        raise _ValidationFailure(["method: BESSEL needs an axis walk (every "
                                  "step +-e_i, with P(+e_i) = P(-e_i) > 0)"])
    kwargs = {}
    if method == "MONTE_CARLO":
        kwargs["seed"] = cfg.seed
        if cfg.replicas:
            kwargs["replicas"] = cfg.replicas
    t0 = time.perf_counter()
    est, err = green_function(walk, method, **kwargs)
    t1 = time.perf_counter()
    report = {"estimate": est, "error": err, "method": method,
              "budget": cfg.event_budget, "dimension": walk.dimension,
              "config_sha256": writer.config_hash}
    click.echo(_canonical_json(report), nl=False)
    writer.write_report(report)
    writer.finish(stats={"method": method, "green_s": t1 - t0})


def _trajectory_jsonl(rec, config_hash, seed) -> str:
    lines = [json.dumps({"type": "header", "config_sha256": config_hash,
                         "seed": seed}, sort_keys=True)]
    for t, tag, payload in rec.events:
        lines.append(json.dumps({"type": "event", "time": t, "tag": tag,
                                 "payload": payload}, sort_keys=True,
                                default=list))
    lines.append(json.dumps({"type": "final", "time": rec.final_time,
                             "stop_reason": rec.stop_reason,
                             "block_count": rec.live_counts_total(),
                             "budget_exhausted": rec.budget_exhausted},
                            sort_keys=True))
    return "\n".join(lines) + "\n"


def _trajectory_csv(rec, n_start: int) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["time", "block_count"])
    count = n_start
    w.writerow([0.0, count])
    for t, tag, payload in rec.events:
        if tag == "MERGE":
            count -= payload[2] - 1
        elif tag == "KILL":
            count -= 1
        w.writerow([t, count])
    return buf.getvalue()


@main.command()
@_with_options("config", "seed", "out", "budget", "format")
@_guarded
def simulate_cmd(config, seed, out, budget, fmt):
    """Exact trajectory simulation; JSONL events or CSV block counts."""
    cfg, writer = _load(config, seed, None, out, budget)
    if cfg.measure is None or cfg.geography is None:
        raise _ValidationFailure(["simulate: config requires measure and geography"])
    kernel = cfg.kernel.build(cfg.measure.build())
    geo = cfg.geography.build()
    init = singletons_per_site(geo, cfg.n_per_site or 1)
    with _invalid_as("simulate"):
        sim_cfg = SimulationConfig(
            kernel=kernel, geography=geo, killing=cfg.killing,
            horizon=cfg.horizon, stop_blocks_at_most=cfg.stop_blocks_at_most,
            seed=cfg.seed, probe_times=tuple(cfg.probe_times),
            event_budget=cfg.event_budget, track_elements=False)
    rec = simulate(init, sim_cfg)
    if fmt == "csv":
        writer.write_text("trajectory.csv", _trajectory_csv(rec, init.block_count()))
    else:
        writer.write_text("trajectory.jsonl",
                          _trajectory_jsonl(rec, writer.config_hash, cfg.seed))
    report = {
        "final_time": rec.final_time,
        "stop_reason": rec.stop_reason,
        "events": len(rec.events),
        "final_block_count": rec.live_counts_total(),
        "budget_exhausted": rec.budget_exhausted,
        "probes": [[t, c] for t, c in rec.probes],
        "config_sha256": writer.config_hash,
    }
    click.echo(_canonical_json(report), nl=False)
    writer.write_report(report)
    writer.finish(stats=rec.stats)
    if rec.budget_exhausted:
        _fail("BUDGET_EXCEEDED",
              f"event budget {cfg.event_budget} exhausted at t={rec.final_time}; "
              "partial trajectory flushed", EXIT_BUDGET,
              events=len(rec.events))


main.add_command(simulate_cmd, name="simulate")


# ---- experiment params: one strict model per experiment, validated at the
# config boundary so that a bad value exits 2 before any work starts

PosInt = Annotated[int, Field(ge=1)]
PosFloat = Annotated[float, Field(gt=0.0)]


class _TorusParams(_Strict):
    # the torus half-width; defaults to geography.N
    N: Optional[PosInt] = None

    def torus_N(self, cfg: RunConfig) -> int:
        N = self.N if self.N is not None else cfg.geography.N
        if N is None:
            raise _ValidationFailure(
                ["experiment.params.N: set params.N or geography.N"])
        return N


class HittingTimeParams(_Strict):
    n: int = Field(ge=2)
    k: int = Field(2, ge=2)


class TrendParams(_Strict):
    n_grid: list[PosInt] = Field(min_length=2)
    t_probe: PosFloat | list[PosFloat] = 0.5


class PairwiseParams(_TorusParams):
    separation: Optional[list[int]] = None
    kappa_value: Optional[PosFloat] = None


class BlockCountParams(_TorusParams):
    n_per_site: Optional[PosInt] = None
    times: list[PosFloat] = Field(default_factory=lambda: [0.5, 1.0],
                                  min_length=1)
    kappa_value: Optional[PosFloat] = None

    @pydantic.field_validator("times")
    @classmethod
    def _increasing(cls, times):
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must increase")
        return times


class StructureParams(_TorusParams):
    n_blocks: int = Field(ge=2)
    kappa_value: Optional[PosFloat] = None


class CouplingParams(_Strict):
    class_split: list[list[PosInt]] = Field(min_length=1)
    t: PosFloat = 1.0

    @pydantic.model_validator(mode="after")
    def _covers_one_to_n(self):
        elems = sorted(set().union(*map(set, self.class_split)))
        if elems != list(range(1, len(elems) + 1)):
            raise ValueError("class_split must cover 1..n")
        return self


class DecayShapeParams(_Strict):
    N_values: list[PosInt] = Field(min_length=1)
    t_grid: list[PosFloat] = Field(min_length=1)


_EXPERIMENTS = {}


def _experiment(name, params_model=_Strict):
    def deco(fn):
        _EXPERIMENTS[name] = (params_model, fn)
        return fn
    return deco


def _experiment_params(params_model, raw: dict):
    try:
        return params_model.model_validate(raw)
    except pydantic.ValidationError as e:
        raise _ValidationFailure(
            [".".join(["experiment.params", *map(str, err["loc"])])
             + f": {err['msg']}" for err in e.errors()]) from e


@_experiment("hitting_time", HittingTimeParams)
def _run_hitting_time(cfg: RunConfig, p: HittingTimeParams, kernel: RateKernel):
    geo = cfg.geography.build()
    rep = estimate_Tnk(p.n, p.k, geo, kernel,
                       replicas=cfg.replicas or 400, seed=cfg.seed)
    out = rep.to_dict()
    raw = "replica,time\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(rep.per_replica))
    return out, raw, "hitting_times.csv"


@_experiment("trend", TrendParams)
def _run_trend(cfg: RunConfig, p: TrendParams, kernel: RateKernel):
    geo = cfg.geography.build()
    res = stay_infinite_trend(kernel, geo, p.n_grid, p.t_probe,
                              replicas=cfg.replicas or 200, seed=cfg.seed,
                              killing=cfg.killing)
    report = {"growth_exponent": res["growth_exponent"],
              "probes": list(res["probes"]),
              "per_n": {str(n): {str(t): list(v) for t, v in d.items()}
                        for n, d in res["per_n"].items()}}
    return report, None, None


@_experiment("pairwise", PairwiseParams)
def _run_pairwise(cfg: RunConfig, p: PairwiseParams, kernel: RateKernel):
    walk = cfg.geography.walk.build()
    if p.separation is not None and len(p.separation) != walk.dimension:
        raise _ValidationFailure(
            [f"experiment.params.separation: needs {walk.dimension} entries"])
    comp = pairwise_torus_experiment(
        p.torus_N(cfg), walk, kernel,
        replicas=cfg.replicas or 2000, seed=cfg.seed,
        separation=p.separation, kappa_value=p.kappa_value)
    times = comp.extras.pop("rescaled_times")
    raw = "replica,rescaled_time\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(times))
    return comp.to_dict(), raw, "pairwise_times.csv"


@_experiment("block_count", BlockCountParams)
def _run_block_count(cfg: RunConfig, p: BlockCountParams, kernel: RateKernel):
    walk = cfg.geography.walk.build()
    res = block_count_limit_experiment(
        p.torus_N(cfg), walk, kernel,
        p.n_per_site or cfg.n_per_site or 10, p.times,
        replicas=cfg.replicas or 500, seed=cfg.seed,
        kappa_value=p.kappa_value,
        event_budget=cfg.event_budget)
    samples = res.pop("samples")
    report = {"kappa": res["kappa"],
              "joint_chi2_pvalue": res["joint_chi2_pvalue"],
              "per_time": [c.to_dict() for c in res["per_time"]],
              "stats": res.pop("stats")}
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["replica"] + [f"count_t{j}" for j in range(samples.shape[1])])
    for i, row in enumerate(samples):
        w.writerow([i] + [int(v) for v in row])
    return report, buf.getvalue(), "block_counts.csv"


@_experiment("structure", StructureParams)
def _run_structure(cfg: RunConfig, p: StructureParams, kernel: RateKernel):
    walk = cfg.geography.walk.build()
    res = partition_structure_experiment(
        p.torus_N(cfg), walk, kernel,
        p.n_blocks, replicas=cfg.replicas or 3000, seed=cfg.seed,
        kappa_value=p.kappa_value)
    return res, None, None


@_experiment("coupling", CouplingParams)
def _run_coupling(cfg: RunConfig, p: CouplingParams, kernel: RateKernel):
    geo = cfg.geography.build()
    res = class_coupling_check(geo, kernel, p.class_split, p.t,
                               replicas=cfg.replicas or 100, seed=cfg.seed)
    return res, None, None


@_experiment("decay_shape", DecayShapeParams)
def _run_decay_shape(cfg: RunConfig, p: DecayShapeParams, kernel: RateKernel):
    walk = cfg.geography.walk.build()
    res = block_decay_shape(kernel, walk, p.N_values, p.t_grid,
                            replicas=cfg.replicas or 50, seed=cfg.seed)
    return res, None, None


@_experiment("kappa")
def _run_kappa(cfg: RunConfig, _p, kernel: RateKernel):
    walk = cfg.geography.walk.build()
    return torus_kappa(walk, kernel, seed=cfg.seed), None, None


@main.command()
@_with_options(*_COMMON)
@_guarded
def experiment(config, seed, replicas, out, budget):
    """Run the experiment named in the config; report JSON plus raw CSV."""
    cfg, writer = _load(config, seed, replicas, out, budget)
    if cfg.experiment is None:
        raise _ValidationFailure(["experiment: config requires an experiment section"])
    entry = _EXPERIMENTS.get(cfg.experiment.name)
    if entry is None:
        raise _ValidationFailure(
            [f"experiment: unknown name {cfg.experiment.name!r}; "
             f"known: {sorted(_EXPERIMENTS)}"])
    if cfg.measure is None or cfg.geography is None:
        raise _ValidationFailure(
            ["experiment: config requires measure and geography"])
    params_model, runner = entry
    params = _experiment_params(params_model, cfg.experiment.params)
    t0 = time.perf_counter()
    kernel = cfg.kernel.build(cfg.measure.build())
    t1 = time.perf_counter()
    report, raw, raw_name = runner(cfg, params, kernel)
    t2 = time.perf_counter()
    stats = {"kernel_build_s": t1 - t0, "run_s": t2 - t1,
             **report.pop("stats", {})}
    report = json.loads(json.dumps(report, sort_keys=True, default=_json_default))
    report["experiment"] = cfg.experiment.name
    report["seed"] = cfg.seed
    report["config_sha256"] = writer.config_hash
    click.echo(_canonical_json(report), nl=False)
    writer.write_report(report)
    if raw is not None and raw_name:
        writer.write_text(raw_name, raw)
    writer.finish(stats=stats)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, frozenset, tuple)):
        return sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")

