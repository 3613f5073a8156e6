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

import click
import numpy as np
import scipy

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
# config schema: JSON types only, unknown fields rejected
# ----------------------------------------------------------------------
#
# A check takes (value, path, errors) and returns the value as a run reads
# it: an integer given for a number becomes a float, a pair a list, and a
# section a dict with every field.  Each violation goes to `errors` as
# "dotted.path: reason"; the value returned with one is never read.  A
# section is a table of field -> (check, default), where the default is a
# JSON value that goes through the check, or _REQUIRED.

_REQUIRED = object()


def _bad(errors, path, reason):
    errors.append(f"{'.'.join(map(str, path)) or 'config'}: {reason}")


def _is(kinds, what, convert=lambda v: v):
    """A value of a type in `kinds` (true is no integer), as converted."""
    def check(v, path, errors):
        try:
            if type(v) in kinds:
                return convert(v)
        except OverflowError:   # an integer past the largest float
            pass
        _bad(errors, path, f"must be {what}")
    return check


def _where(check, ok, reason):
    """`check`, then `reason` at the same path if what it passed fails ok."""
    def run(v, path, errors):
        n = len(errors)
        v = check(v, path, errors)
        if len(errors) == n and not ok(v):
            _bad(errors, path, reason)
        return v
    return run


def _or_none(check):
    return lambda v, path, errors: (None if v is None
                                    else check(v, path, errors))


def _list(item):
    def check(v, path, errors):
        if type(v) is not list:
            return _bad(errors, path, "must be a list")
        return [item(x, (*path, i), errors) for i, x in enumerate(v)]
    return check


def _dict(item):
    def check(v, path, errors):
        if type(v) is not dict:
            return _bad(errors, path, "must be an object")
        return {k: item(x, (*path, k), errors) for k, x in v.items()}
    return check


def _pair(v, path, errors):
    if type(v) is not list or len(v) > 2:
        return _bad(errors, path, "must be a pair of numbers")
    return [_NUMBER(v[i], (*path, i), errors) if i < len(v)
            else _bad(errors, (*path, i), "required") for i in range(2)]


def _section(table):
    def check(v, path, errors):
        if type(v) is not dict:
            return _bad(errors, path, "must be an object")
        out = {}
        for name, (field, default) in table.items():
            if name in v:
                out[name] = field(v[name], (*path, name), errors)
            elif default is _REQUIRED:
                _bad(errors, (*path, name), "required")
            else:
                out[name] = field(default, (*path, name), errors)
        for name in v:
            if name not in table:
                _bad(errors, (*path, name), "unknown field")
        return out
    return check


def _int_from(low):
    return _where(_INT, lambda v: v >= low, f"must be at least {low}")


def _nonempty(check):
    return _where(check, len, "must not be empty")


def _number_or_list(number):
    items = _list(number)
    return lambda v, path, errors: (items if type(v) is list else number)(
        v, path, errors)


_INT, _STR = _is({int}, "an integer"), _is({str}, "a string")
_NUMBER = _is({int, float}, "a number", float)
_POS_INT = _int_from(1)
_POS_NUMBER = _where(_NUMBER, lambda v: v > 0.0, "must be greater than 0")

_RUN_FIELDS = {
    "seed": (_INT, _REQUIRED),
    "measure": (_or_none(_section({
        "atoms": (_list(_pair), []),
        "pieces": (_list(_section({
            "interval": (_pair, _REQUIRED),
            "tag": (_STR, _REQUIRED),
            # numbers, or a list of numbers (the polynomial's coefficients)
            "params": (_dict(_number_or_list(_NUMBER)), {}),
        })), []),
    })), None),
    "geography": (_or_none(_section({
        "topology": (_STR, _REQUIRED),  # torus | complete | single | graph
        "N": (_or_none(_INT), None),
        "walk": (_section({
            "dimension": (_INT, 3),
            "offsets": (_or_none(_list(_list(_INT))), None),
            "probabilities": (_or_none(_list(_NUMBER)), None),
        }), {}),
        "sites": (_or_none(_INT), None),
        "kernel": (_or_none(_list(_list(_NUMBER))), None),
    })), None),
    # its params are checked against the experiment's own table
    "experiment": (_or_none(_section({
        "name": (_STR, _REQUIRED),
        "params": (_is({dict}, "an object", dict), {}),
    })), None),
    "replicas": (_or_none(_POS_INT), None),
    "out_dir": (_or_none(_STR), None),
    "event_budget": (_or_none(_POS_INT), None),
    # simulate- and block_count-specific
    "n_per_site": (_or_none(_POS_INT), None),
    "horizon": (_or_none(_NUMBER), None),
    "stop_blocks_at_most": (_or_none(_INT), None),
    "killing": (_is({bool}, "true or false"), False),
    "probe_times": (_list(_NUMBER), []),
    # rates-specific
    "b_max_table": (_or_none(_int_from(2)), None),
    # green-specific
    "dimension": (_or_none(_POS_INT), None),
}
_RUN = _section(_RUN_FIELDS)


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


def _validate(check, raw, *prefix):
    """`raw` as `check` passes it, with every default filled in; a config
    error listing each violation, located by its dotted path under
    `prefix`, if there is any."""
    errors = []
    value = check(raw, prefix, errors)
    if errors:
        raise _ConfigError(errors)
    return value


def _set_fields(cfg: dict) -> dict:
    """The top-level fields of the run config `cfg` that it sets away from
    their defaults, with their values.  Compared with the default, not None:
    killing defaults to False and probe_times to []."""
    return {name: cfg[name] for name, (_check, default) in _RUN_FIELDS.items()
            if cfg[name] != default}


def _require(cfg: dict, command: str, *sections: str) -> None:
    if any(cfg[name] is None for name in sections):
        raise _ConfigError([f"{command}: config requires "
                            + " and ".join(sections)])


def _build_measure(measure: dict) -> LambdaMeasure:
    with _invalid_as("measure"):
        return LambdaMeasure.from_dict(measure)


def _build_walk(walk: dict) -> WalkSpec:
    with _invalid_as("geography.walk"):
        if walk["offsets"] is None:
            return simple_walk(walk["dimension"])
        return WalkSpec(walk["dimension"],
                        tuple(map(tuple, walk["offsets"])),
                        tuple(walk["probabilities"] or ()))


def _build_geography(geo: dict):
    topology = geo["topology"]
    needs = {"torus": "N", "complete": "sites",
             "graph": "kernel"}.get(topology)
    if needs is not None and geo[needs] is None:
        raise _ConfigError([f"geography: {topology} requires {needs}"])
    with _invalid_as("geography"):
        if topology == "torus":
            return build_torus(geo["N"], _build_walk(geo["walk"]))
        if topology == "complete":
            return complete_graph(geo["sites"])
        if topology == "single":
            return single_site()
        if topology == "graph":
            return generic_graph(np.asarray(geo["kernel"], dtype=float))
    raise _ConfigError([f"geography: unknown topology {topology!r}"])


class _NonFiniteNumber(ValueError):
    """A number in a config file that is not a finite float."""


def _non_json_constant(token: str):
    raise _NonFiniteNumber(f"{token} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise _NonFiniteNumber(f"{text} overflows a float")
    return value


def parse_config(path: str, **overrides) -> dict:
    """Read a JSON run config, set the overrides that are not None, and
    validate the result once, strictly.  The file must be RFC 8259 JSON:
    Python's NaN and Infinity tokens, and a number that overflows a float,
    are parse errors, so no config value is ever non-finite."""
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_non_json_constant,
                            parse_float=_finite_float)
    except FileNotFoundError:
        raise _ConfigError([f"config file not found: {path}"], "PARSE_ERROR")
    except json.JSONDecodeError as e:
        raise _ConfigError([f"{path}:{e.lineno}:{e.colno}: {e.msg}"],
                           "PARSE_ERROR")
    except _NonFiniteNumber as e:
        raise _ConfigError([f"{path}: {e}"], "PARSE_ERROR")
    if isinstance(raw, dict):
        raw.update((k, v) for k, v in overrides.items() if v is not None)
    return _validate(_RUN, raw)


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


def _csv_text(header, rows) -> str:
    """A header and rows as CSV text, as csv.writer writes them: numbers as
    str() gives them, lines ended by CRLF."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class ArtifactWriter:
    """Writes report/raw/manifest into the config's out_dir; every file is
    listed in the manifest.  Reports carry no timestamps so reruns are byte
    identical."""

    def __init__(self, cfg: dict):
        self.out_dir = cfg["out_dir"]
        self.config = cfg
        self.seed = cfg["seed"]
        self.files: list[str] = []
        self.t0 = time.monotonic()
        if self.out_dir:
            os.makedirs(self.out_dir, exist_ok=True)

    @property
    def config_hash(self) -> str:
        # where the artifacts land is not part of the run identity
        fields = _set_fields(self.config)
        fields.pop("out_dir", None)
        return _sha256(_canonical_json(fields))

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


def _reject_unread(cfg: dict, reads, what: str) -> None:
    """A config error naming each field outside `reads` that the config sets
    away from its default: `what` would ignore it."""
    ignored = [name for name in _set_fields(cfg) if name not in reads]
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
    _reject_unread(cfg, {"seed", "measure", "b_max_table", "out_dir"}, "rates")
    _require(cfg, "rates", "measure")
    t0 = time.perf_counter()
    kernel = RateKernel(_build_measure(cfg["measure"]))
    t1 = time.perf_counter()
    b_hi = 64 if cfg["b_max_table"] is None else cfg["b_max_table"]
    rows = []
    for b in range(2, b_hi + 1):
        row = kernel.lambda_bk_row(b).tolist()
        rows.extend([b, k, row[k - 2]] for k in range(2, b + 1))
        rows.append([b, "lambda", kernel.lambda_total(b)])
        rows.append([b, "gamma", kernel.gamma_total(b)])
    text = _csv_text(["b", "k", "value"], rows)
    t2 = time.perf_counter()
    click.echo(text, nl=False)
    writer.write_text("rates.csv", text)
    writer.finish({"b_max": b_hi, "rows": len(rows)},
                  {"b_max": b_hi, "rows": len(rows),
                   "kernel_build_s": t1 - t0, "table_s": t2 - t1})


@main.command()
@_with_options("config", "seed", "out")
@_guarded
def classify(config, **overrides):
    """Comes-down-from-infinity dichotomy verdict as JSON."""
    cfg, writer = _load(config, **overrides)
    _reject_unread(cfg, {"seed", "measure", "out_dir"}, "classify")
    _require(cfg, "classify", "measure")
    t0 = time.perf_counter()
    kernel = RateKernel(_build_measure(cfg["measure"]))
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
_GREEN_READS = frozenset({"seed", "geography", "dimension", "out_dir"})


@main.command()
@_with_options("config", "seed", "out")
@_guarded
def green(config, **overrides):
    """Random-walk Green function at the origin, by the walk's exact route
    (geometry.green_method): BESSEL for an axis walk, CUBATURE, a cubature
    of G's Fourier integral, for any other symmetric walk.  A walk the
    route cannot take is a config error; a bound above the route's limit
    is TRUNCATION_UNSTABLE, exit 4."""
    cfg, writer = _load(config, **overrides)
    # a geography's walk has its own dimension
    _reject_unread(cfg, _GREEN_READS - ({"dimension"} if cfg["geography"]
                                        else set()), "green")
    if cfg["geography"] is not None:
        walk = _build_walk(cfg["geography"]["walk"])
    else:
        walk = _build_walk({"dimension": cfg["dimension"] or 3,
                            "offsets": None, "probabilities": None})
    method = green_method(walk)
    t0 = time.perf_counter()
    with _invalid_as("geography.walk"):
        est, err = green_function(walk)
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
    count = n_start
    rows = [[0.0, count]]
    for t, tag, payload in rec.events:
        if tag == "MERGE":
            count -= payload[2] - 1
        elif tag == "KILL":
            count -= 1
        rows.append([t, count])
    return _csv_text(["time", "block_count"], rows)


@main.command()
@_with_options("config", "seed", "out", "budget", "format")
@_guarded
def simulate_cmd(config, fmt, **overrides):
    """Exact trajectory simulation; JSONL events or CSV block counts.
    Without a horizon the run also stops once one block is left."""
    cfg, writer = _load(config, **overrides)
    _reject_unread(cfg, {"seed", "measure", "geography", "n_per_site",
                         "horizon", "stop_blocks_at_most", "killing",
                         "probe_times", "event_budget", "out_dir"}, "simulate")
    _require(cfg, "simulate", "measure", "geography")
    kernel = RateKernel(_build_measure(cfg["measure"]))
    geo = _build_geography(cfg["geography"])
    init = singletons_per_site(geo, cfg["n_per_site"] or 1)
    with _invalid_as("simulate"):
        sim_cfg = SimulationConfig(
            kernel=kernel, geography=geo, killing=cfg["killing"],
            horizon=cfg["horizon"],
            stop_blocks_at_most=cfg["stop_blocks_at_most"],
            stop_when_absorbed=cfg["horizon"] is None,
            seed=cfg["seed"], probe_times=tuple(cfg["probe_times"]),
            event_budget=cfg["event_budget"], track_elements=False)
    rec = simulate(init, sim_cfg)
    if fmt == "csv":
        writer.write_text("trajectory.csv", _trajectory_csv(rec, init.block_count()))
    else:
        writer.write_text("trajectory.jsonl", _trajectory_jsonl(
            rec, writer.config_hash, cfg["seed"]))
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
              f"event budget {cfg['event_budget']} exhausted at "
              f"t={rec.final_time}; partial trajectory flushed", EXIT_BUDGET,
              events=len(rec.events))


main.add_command(simulate_cmd, name="simulate")


# ---- experiment params: one strict table per experiment, checked at the
# config boundary so that a bad value exits 2 before any work starts

_EXPERIMENTS = {}
# the top-level fields every experiment reads
_EVERY_EXPERIMENT_READS = frozenset({"seed", "measure", "geography",
                                     "experiment", "out_dir"})


def _experiment(name, params=_section({}), reads=("replicas",), table=None):
    """Register an experiment whose params pass the check `params`, and
    that reads the top-level fields in `reads` besides those every
    experiment reads; a config that sets any other field away from its
    default is a config error.  A run returns the experiment's report dict
    (see `experiments`); the rows under its `table` key go to the CSV file
    that `table` names."""
    def deco(fn):
        _EXPERIMENTS[name] = (params, _EVERY_EXPERIMENT_READS | set(reads),
                              fn, table)
        return fn
    return deco


def _torus_walk(cfg: dict) -> tuple[int, WalkSpec]:
    """N and walk of a torus study, which builds its torus itself from
    geography.N and a walk that must connect it."""
    geo = cfg["geography"]
    if geo["topology"] != "torus" or geo["N"] is None or geo["N"] < 1:
        raise _ConfigError([f"geography: experiment "
                            f"{cfg['experiment']['name']!r} needs topology "
                            "'torus' with N >= 1"])
    walk = _build_walk(geo["walk"])
    with _invalid_as("geography.walk"):
        check_torus_walk(geo["N"], walk)
    return geo["N"], walk


def _replicas(cfg: dict) -> dict:
    # a count the config sets; else the default in the experiment's signature
    return {} if cfg["replicas"] is None else {"replicas": cfg["replicas"]}


# Each run maps the config to the experiment's arguments.  It calls the
# experiment by its module-level name, which a tracer may wrap.

@_experiment("hitting_time", _section({"n": (_int_from(2), _REQUIRED),
                                        "k": (_int_from(2), 2)}),
             table="hitting_times.csv")
def _run_hitting_time(cfg: dict, p: dict, kernel: RateKernel):
    return estimate_Tnk(p["n"], p["k"], _build_geography(cfg["geography"]),
                        kernel, seed=cfg["seed"], **_replicas(cfg))


@_experiment("trend", _section({
    # the growth exponent is a fit over the distinct sizes
    "n_grid": (_where(_list(_POS_INT), lambda g: len(set(g)) == len(g) > 1,
                      "must hold 2 or more sizes, none repeated"), _REQUIRED),
    "t_probe": (_number_or_list(_POS_NUMBER), 0.5),
}), reads=("replicas", "killing"))
def _run_trend(cfg: dict, p: dict, kernel: RateKernel):
    return stay_infinite_trend(kernel, _build_geography(cfg["geography"]),
                               p["n_grid"], p["t_probe"],
                               seed=cfg["seed"], killing=cfg["killing"],
                               **_replicas(cfg))


_KAPPA_VALUE = (_or_none(_POS_NUMBER), None)


@_experiment("pairwise", _section({"separation": (_or_none(_list(_INT)), None),
                                   "kappa_value": _KAPPA_VALUE}),
             table="pairwise_times.csv")
def _run_pairwise(cfg: dict, p: dict, kernel: RateKernel):
    N, walk = _torus_walk(cfg)
    if p["separation"] is not None and len(p["separation"]) != walk.dimension:
        raise _ConfigError(
            [f"experiment.params.separation: needs {walk.dimension} entries"])
    return pairwise_torus_experiment(
        N, walk, kernel, seed=cfg["seed"], separation=p["separation"],
        kappa_value=p["kappa_value"], **_replicas(cfg))


@_experiment("block_count", _section({
    "times": (_where(_nonempty(_list(_POS_NUMBER)),
                     lambda t: all(a < b for a, b in zip(t, t[1:])),
                     "times must increase"), [0.5, 1.0]),
    "kappa_value": _KAPPA_VALUE,
}), reads=("replicas", "event_budget", "n_per_site"),
    table="block_counts.csv")
def _run_block_count(cfg: dict, p: dict, kernel: RateKernel):
    N, walk = _torus_walk(cfg)
    return block_count_limit_experiment(
        N, walk, kernel, cfg["n_per_site"] or 10, p["times"],
        seed=cfg["seed"], kappa_value=p["kappa_value"],
        event_budget=cfg["event_budget"], **_replicas(cfg))


@_experiment("structure", _section({"n_blocks": (_int_from(2), _REQUIRED),
                                    "kappa_value": _KAPPA_VALUE}))
def _run_structure(cfg: dict, p: dict, kernel: RateKernel):
    N, walk = _torus_walk(cfg)
    if p["n_blocks"] > 2 * walk.dimension:
        # the blocks start at 0 and at +-gap on each axis
        raise _ConfigError([f"experiment.params.n_blocks: must be at most "
                            f"{2 * walk.dimension} in {walk.dimension} "
                            "dimensions"])
    return partition_structure_experiment(
        N, walk, kernel, p["n_blocks"], seed=cfg["seed"],
        kappa_value=p["kappa_value"], **_replicas(cfg))


def _covers_one_to_n(p):
    elems = sorted(set().union(*map(set, p["class_split"])))
    return elems == list(range(1, len(elems) + 1))


def _disjoint(p):
    classes = p["class_split"]
    return sum(len(set(c)) for c in classes) == len(set().union(*classes))


@_experiment("coupling", _where(_where(_section({
    "class_split": (_nonempty(_list(_list(_POS_INT))), _REQUIRED),
    "t": (_POS_NUMBER, 1.0),
}), _covers_one_to_n, "class_split must cover 1..n"), _disjoint,
    "class_split classes must not share an element"))
def _run_coupling(cfg: dict, p: dict, kernel: RateKernel):
    return class_coupling_check(_build_geography(cfg["geography"]), kernel,
                                p["class_split"], p["t"], seed=cfg["seed"],
                                **_replicas(cfg))


@_experiment("decay_shape", _section({
    "N_values": (_nonempty(_list(_POS_INT)), _REQUIRED),
    "t_grid": (_nonempty(_list(_POS_NUMBER)), _REQUIRED)}))
def _run_decay_shape(cfg: dict, p: dict, kernel: RateKernel):
    return block_decay_shape(kernel, _build_walk(cfg["geography"]["walk"]),
                             p["N_values"], p["t_grid"], seed=cfg["seed"],
                             **_replicas(cfg))


@_experiment("kappa", reads=())
def _run_kappa(cfg: dict, _p, kernel: RateKernel):
    return torus_kappa(_build_walk(cfg["geography"]["walk"]), kernel)


@main.command()
@_with_options("config", "seed", "replicas", "out", "budget")
@_guarded
def experiment(config, **overrides):
    """Run the experiment named in the config; report JSON plus raw CSV."""
    cfg, writer = _load(config, **overrides)
    _require(cfg, "experiment", "experiment")
    name = cfg["experiment"]["name"]
    entry = _EXPERIMENTS.get(name)
    if entry is None:
        raise _ConfigError(
            [f"experiment: unknown name {name!r}; "
             f"known: {sorted(_EXPERIMENTS)}"])
    _require(cfg, "experiment", "measure", "geography")
    params_check, reads, runner, table_name = entry
    _reject_unread(cfg, reads, f"experiment {name!r}")
    params = _validate(params_check, cfg["experiment"]["params"],
                       "experiment", "params")
    t0 = time.perf_counter()
    kernel = RateKernel(_build_measure(cfg["measure"]))
    t1 = time.perf_counter()
    report = runner(cfg, params, kernel)
    t2 = time.perf_counter()
    stats = {"kernel_build_s": t1 - t0, "run_s": t2 - t1,
             **report.pop("stats", {})}
    table = report.pop("table", None)
    if table is not None:
        writer.write_text(table_name, _csv_text(*table))
    report.update(experiment=name, seed=cfg["seed"])
    click.echo(writer.finish(report, stats), nl=False)
