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
import math
import os
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
    check_torus_walk,
    complete_graph,
    generic_graph,
    green_function,
    green_method,
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


PosInt = Annotated[int, Field(ge=1)]
PosFloat = Annotated[float, Field(gt=0.0)]


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

    def build(self):
        with _invalid_as("geography"):
            return self._build()

    def _build(self):
        if self.topology == "torus":
            if self.N is None:
                raise _ConfigError(["geography: torus requires N"])
            return build_torus(self.N, self.walk.build())
        if self.topology == "complete":
            if self.sites is None:
                raise _ConfigError(["geography: complete requires sites"])
            return complete_graph(self.sites)
        if self.topology == "single":
            return single_site()
        if self.topology == "graph":
            if self.kernel is None:
                raise _ConfigError(["geography: graph requires kernel"])
            return generic_graph(np.asarray(self.kernel, dtype=float))
        raise _ConfigError([f"geography: unknown topology {self.topology!r}"])


class ExperimentConfig(_Strict):
    name: str
    params: dict[str, Any] = Field(default_factory=dict)


class RunConfig(_Strict):
    seed: int
    measure: Optional[MeasureConfig] = None
    geography: Optional[GeographyConfig] = None
    experiment: Optional[ExperimentConfig] = None
    replicas: Optional[PosInt] = None
    out_dir: Optional[str] = None
    event_budget: Optional[PosInt] = None
    # simulate- and block_count-specific
    n_per_site: Optional[PosInt] = None
    horizon: Optional[float] = None
    stop_blocks_at_most: Optional[int] = None
    killing: bool = False
    probe_times: list[float] = Field(default_factory=list)
    # rates-specific
    b_max_table: Optional[Annotated[int, Field(ge=2)]] = None
    # green-specific
    dimension: Optional[PosInt] = None
    method: Optional[Literal["BESSEL", "CUBATURE"]] = None

    def require(self, command: str, *sections: str) -> None:
        if any(getattr(self, name) is None for name in sections):
            raise _ConfigError([f"{command}: config requires "
                                + " and ".join(sections)])


class _ConfigError(Exception):
    """A config that cannot describe a run (exit 2)."""

    def __init__(self, violations, code="VALIDATION_ERROR"):
        self.violations = list(violations)
        self.code = code
        super().__init__("; ".join(self.violations))


@contextmanager
def _invalid_as(section: str):
    """Report a ValueError raised while building `section` from config
    values as a config error (exit 2).  A ValueError anywhere else is an
    internal error (exit 4)."""
    try:
        yield
    except ValueError as e:
        raise _ConfigError([f"{section}: {e}"]) from e


def _validate(model, raw, *prefix):
    """`model` validated from `raw`; each pydantic error becomes one
    violation, located by its dotted path under `prefix`."""
    try:
        return model.model_validate(raw)
    except pydantic.ValidationError as e:
        raise _ConfigError(
            [".".join(map(str, (*prefix, *err["loc"]))) + f": {err['msg']}"
             for err in e.errors()]) from None


def parse_config(path: str, **overrides) -> RunConfig:
    """Read a JSON run config, set the overrides that are not None, and
    validate the result once, strictly."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise _ConfigError([f"config file not found: {path}"], "PARSE_ERROR")
    except json.JSONDecodeError as e:
        raise _ConfigError([f"{path}:{e.lineno}:{e.colno}: {e.msg}"],
                           "PARSE_ERROR")
    if isinstance(raw, dict):
        raw.update((k, v) for k, v in overrides.items() if v is not None)
    return _validate(RunConfig, raw)


# ----------------------------------------------------------------------
# artifact persistence
# ----------------------------------------------------------------------

def _canonical_json(obj) -> str:
    # keys become strings (and numpy values plain ones) before sorting, so
    # int and str keys sort alike, as text; NaN and infinity are not JSON,
    # so they raise
    plain = json.loads(json.dumps(obj, default=_json_default, allow_nan=False))
    return json.dumps(plain, sort_keys=True, indent=2) + "\n"


def _finite_or_null(value: float):
    """A proved upper bound as a report value: null where no finite bound
    exists (+inf), since report.json holds no infinity."""
    return None if value == math.inf else value


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class ArtifactWriter:
    """Writes report/raw/manifest into the config's out_dir; every file is
    listed in the manifest.  Reports carry no timestamps so reruns are byte
    identical."""

    def __init__(self, cfg: RunConfig):
        self.out_dir = cfg.out_dir
        self.config = cfg.model_dump(mode="json")
        self.seed = cfg.seed
        self.files: list[str] = []
        self.t0 = time.monotonic()
        if self.out_dir:
            os.makedirs(self.out_dir, exist_ok=True)

    @property
    def config_hash(self) -> str:
        # where the artifacts land is not part of the run identity
        semantic = {k: v for k, v in self.config.items() if k != "out_dir"}
        return _sha256(_canonical_json(semantic))

    def write_text(self, name: str, text: str) -> None:
        if not self.out_dir:
            return
        with open(os.path.join(self.out_dir, name), "w") as fh:
            fh.write(text)
        self.files.append(name)

    def finish(self, report: dict, stats: dict) -> str:
        """Write report.json (with the config hash) and then the manifest,
        and return the report's canonical text.  `stats` (run counters and
        timings) go only into the manifest, so that reports stay byte
        identical."""
        text = _canonical_json({**report, "config_sha256": self.config_hash})
        self.write_text("report.json", text)
        if self.out_dir:
            manifest = {
                "config": self.config,
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
                "stats": stats,
            }
            with open(os.path.join(self.out_dir, "manifest.json"), "w") as fh:
                fh.write(_canonical_json(manifest))
        return text


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
            _fail(e.code, str(e), EXIT_VALIDATION, violations=e.violations)
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


def _load(config, **overrides):
    cfg = parse_config(config, **overrides)
    return cfg, ArtifactWriter(cfg)


def _reject_unread(cfg: RunConfig, reads, what: str) -> None:
    """A config error naming each field outside `reads` that the config sets
    away from its default: `what` would ignore it."""
    # compared with the default, not None: killing defaults to False and
    # probe_times to []
    ignored = [name for name, field in RunConfig.model_fields.items()
               if name not in reads and getattr(cfg, name)
               != field.get_default(call_default_factory=True)]
    if ignored:
        raise _ConfigError([f"{name}: {what} does not use it"
                            for name in ignored])


_OPTIONS = {
    "config": click.option("--config", required=True, type=click.Path(),
                           help="JSON run config"),
    "seed": click.option("--seed", type=int, default=None, help="override master seed"),
    "replicas": click.option("--replicas", type=int, default=None,
                             help="override replica count"),
    "out": click.option("--out", "out_dir", type=click.Path(), default=None,
                        help="output directory"),
    "budget": click.option("--budget", "event_budget", type=int, default=None,
                           help="override event budget"),
    "format": click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]),
                           default="jsonl", help="raw trajectory format"),
}


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
def rates(config, **overrides):
    """Per-merge and total rate tables as CSV."""
    cfg, writer = _load(config, **overrides)
    cfg.require("rates", "measure")
    t0 = time.perf_counter()
    kernel = RateKernel(cfg.measure.build())
    t1 = time.perf_counter()
    b_hi = 64 if cfg.b_max_table is None else cfg.b_max_table
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
    writer.finish({"b_max": b_hi, "rows": rows},
                  {"b_max": b_hi, "rows": rows,
                   "kernel_build_s": t1 - t0, "table_s": t2 - t1})


@main.command()
@_with_options("config", "seed", "out")
@_guarded
def classify(config, **overrides):
    """Comes-down-from-infinity dichotomy verdict as JSON."""
    cfg, writer = _load(config, **overrides)
    cfg.require("classify", "measure")
    t0 = time.perf_counter()
    kernel = RateKernel(cfg.measure.build())
    t1 = time.perf_counter()
    b_max = 1000
    verdict = cdi_classify(kernel, b_max=b_max)
    t2 = time.perf_counter()
    report = {
        "verdict": verdict.verdict,
        "partial_sum": verdict.partial_sum,
        "tail_bound": _finite_or_null(verdict.tail_bound),
        "complete_collapse": verdict.complete_collapse,
        "note": verdict.note,
    }
    click.echo(writer.finish(
        report, {"decided_by": verdict.decided_by, "b_max": b_max,
                 "kernel_build_s": t1 - t0, "verdict_s": t2 - t1}), nl=False)


# the fields `green` reads
_GREEN_READS = frozenset({"seed", "geography", "dimension", "method", "out_dir"})


@main.command()
@_with_options("config", "seed", "out")
@_guarded
def green(config, **overrides):
    """Random-walk Green function at the origin.  Without a `method`, the
    walk's exact route (geometry.green_method): BESSEL for an axis walk,
    CUBATURE, a cubature of G's Fourier integral, for any other symmetric
    walk.  A walk the route cannot take is a config error; a bound above
    the route's limit is TRUNCATION_UNSTABLE, exit 4."""
    cfg, writer = _load(config, **overrides)
    _reject_unread(cfg, _GREEN_READS, "green")
    walk_cfg = (cfg.geography.walk if cfg.geography is not None
                else WalkConfig(dimension=3 if cfg.dimension is None
                                else cfg.dimension))
    walk = walk_cfg.build()
    method = cfg.method or green_method(walk)
    t0 = time.perf_counter()
    with _invalid_as("method"):
        est, err = green_function(walk, method)
    t1 = time.perf_counter()
    report = {"estimate": est, "error": err, "method": method,
              "dimension": walk.dimension}
    click.echo(writer.finish(report, {"method": method, "green_s": t1 - t0}),
               nl=False)


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
def simulate_cmd(config, fmt, **overrides):
    """Exact trajectory simulation; JSONL events or CSV block counts.
    Without a horizon the run also stops once one block is left."""
    cfg, writer = _load(config, **overrides)
    cfg.require("simulate", "measure", "geography")
    kernel = RateKernel(cfg.measure.build())
    geo = cfg.geography.build()
    init = singletons_per_site(geo, cfg.n_per_site or 1)
    with _invalid_as("simulate"):
        sim_cfg = SimulationConfig(
            kernel=kernel, geography=geo, killing=cfg.killing,
            horizon=cfg.horizon, stop_blocks_at_most=cfg.stop_blocks_at_most,
            stop_when_absorbed=cfg.horizon is None,
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
    }
    click.echo(writer.finish(report, rec.stats), nl=False)
    if rec.budget_exhausted:
        _fail("BUDGET_EXCEEDED",
              f"event budget {cfg.event_budget} exhausted at t={rec.final_time}; "
              "partial trajectory flushed", EXIT_BUDGET,
              events=len(rec.events))


main.add_command(simulate_cmd, name="simulate")


# ---- experiment params: one strict model per experiment, validated at the
# config boundary so that a bad value exits 2 before any work starts

class HittingTimeParams(_Strict):
    n: int = Field(ge=2)
    k: int = Field(2, ge=2)


class TrendParams(_Strict):
    n_grid: list[PosInt] = Field(min_length=2)
    t_probe: PosFloat | list[PosFloat] = 0.5

    @pydantic.field_validator("n_grid")
    @classmethod
    def _distinct(cls, n_grid):
        # the growth exponent is a fit over the distinct sizes
        if len(set(n_grid)) != len(n_grid):
            raise ValueError("n_grid values must be distinct")
        return n_grid


class PairwiseParams(_Strict):
    separation: Optional[list[int]] = None
    kappa_value: Optional[PosFloat] = None


class BlockCountParams(_Strict):
    times: list[PosFloat] = Field(default_factory=lambda: [0.5, 1.0],
                                  min_length=1)
    kappa_value: Optional[PosFloat] = None

    @pydantic.field_validator("times")
    @classmethod
    def _increasing(cls, times):
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must increase")
        return times


class StructureParams(_Strict):
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
# the top-level fields every experiment reads
_EVERY_EXPERIMENT_READS = frozenset({"seed", "measure", "geography",
                                     "experiment", "out_dir"})


def _experiment(name, params_model=_Strict, reads=("replicas",)):
    """Register an experiment that reads the top-level fields in `reads`
    besides those every experiment reads; a config that sets any other
    field away from its default is a config error."""
    def deco(fn):
        _EXPERIMENTS[name] = (params_model, _EVERY_EXPERIMENT_READS | set(reads),
                              fn)
        return fn
    return deco


def _torus_walk(cfg: RunConfig) -> tuple[int, WalkSpec]:
    """N and walk of a torus study, which builds its torus itself from
    geography.N and a walk that must connect it."""
    geo = cfg.geography
    if geo.topology != "torus" or geo.N is None or geo.N < 1:
        raise _ConfigError([f"geography: experiment {cfg.experiment.name!r} "
                            "needs topology 'torus' with N >= 1"])
    walk = geo.walk.build()
    with _invalid_as("geography.walk"):
        check_torus_walk(geo.N, walk)
    return geo.N, walk


@_experiment("hitting_time", HittingTimeParams)
def _run_hitting_time(cfg: RunConfig, p: HittingTimeParams, kernel: RateKernel):
    geo = cfg.geography.build()
    rep = estimate_Tnk(p.n, p.k, geo, kernel,
                       replicas=cfg.replicas or 400, seed=cfg.seed)
    out = rep.to_dict()
    bound = _finite_or_null(out["extras"]["uniform_bound"])
    out["extras"] = {**out["extras"], "uniform_bound": bound}
    raw = "replica,time\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(rep.per_replica))
    return out, raw, "hitting_times.csv"


@_experiment("trend", TrendParams, reads=("replicas", "killing"))
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
    N, walk = _torus_walk(cfg)
    if p.separation is not None and len(p.separation) != walk.dimension:
        raise _ConfigError(
            [f"experiment.params.separation: needs {walk.dimension} entries"])
    comp = pairwise_torus_experiment(
        N, walk, kernel,
        replicas=cfg.replicas or 2000, seed=cfg.seed,
        separation=p.separation, kappa_value=p.kappa_value)
    times = comp.extras.pop("rescaled_times")
    stats = comp.extras.pop("stats")
    raw = "replica,rescaled_time\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(times))
    return {**comp.to_dict(), "stats": stats}, raw, "pairwise_times.csv"


@_experiment("block_count", BlockCountParams,
             reads=("replicas", "event_budget", "n_per_site"))
def _run_block_count(cfg: RunConfig, p: BlockCountParams, kernel: RateKernel):
    N, walk = _torus_walk(cfg)
    res = block_count_limit_experiment(
        N, walk, kernel, cfg.n_per_site or 10, p.times,
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
    N, walk = _torus_walk(cfg)
    res = partition_structure_experiment(
        N, walk, kernel,
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


@_experiment("kappa", reads=())
def _run_kappa(cfg: RunConfig, _p, kernel: RateKernel):
    walk = cfg.geography.walk.build()
    return torus_kappa(walk, kernel), None, None


@main.command()
@_with_options("config", "seed", "replicas", "out", "budget")
@_guarded
def experiment(config, **overrides):
    """Run the experiment named in the config; report JSON plus raw CSV."""
    cfg, writer = _load(config, **overrides)
    cfg.require("experiment", "experiment")
    entry = _EXPERIMENTS.get(cfg.experiment.name)
    if entry is None:
        raise _ConfigError(
            [f"experiment: unknown name {cfg.experiment.name!r}; "
             f"known: {sorted(_EXPERIMENTS)}"])
    cfg.require("experiment", "measure", "geography")
    params_model, reads, runner = entry
    _reject_unread(cfg, reads, f"experiment {cfg.experiment.name!r}")
    params = _validate(params_model, cfg.experiment.params,
                       "experiment", "params")
    t0 = time.perf_counter()
    kernel = RateKernel(cfg.measure.build())
    t1 = time.perf_counter()
    report, raw, raw_name = runner(cfg, params, kernel)
    t2 = time.perf_counter()
    stats = {"kernel_build_s": t1 - t0, "run_s": t2 - t1,
             **report.pop("stats", {})}
    if raw is not None:
        writer.write_text(raw_name, raw)
    report.update(experiment=cfg.experiment.name, seed=cfg.seed)
    click.echo(writer.finish(report, stats), nl=False)
