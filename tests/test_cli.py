import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import cli_run, coalsim, run_python
from spatial_coalescent import cli, experiments
from spatial_coalescent.geometry import green_function, simple_walk


def run_cli(tmp_path, cfg, *args, timeout=None, child=False):
    """`coalsim` on `cfg`, written to tmp_path/config.json: in this process
    (cli_run), or in a child interpreter with a `timeout` hang guard, which
    only a process can have, or with `child` set, for a report digest
    compared across interpreters (each hashes strings with its own seed)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    if child or timeout is not None:
        return coalsim(*args, "--config", path, timeout=timeout)
    return cli_run(*args, "--config", path)


KINGMAN = {"atoms": [[0.0, 1.0]]}
BETA_HEAVY = {"pieces": [{"interval": [0, 1], "tag": "beta",
                          "params": {"alpha": 1.5}}]}


# ---------------------------------------------------------------- validation

def test_minimal_config_valid(tmp_path):
    r = run_cli(tmp_path, {"seed": 1, "measure": KINGMAN, "b_max_table": 3},
                "rates")
    assert r.returncode == 0, r.stdout + r.stderr


def test_unknown_field_rejected(tmp_path):
    r = run_cli(tmp_path, {"seed": 1, "measure": KINGMAN, "bogus": 1},
                "classify")
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "VALIDATION_ERROR"
    assert "bogus" in payload["message"]


def test_zero_mass_measure_rejected(tmp_path):
    r = run_cli(tmp_path, {"seed": 1, "measure": {"atoms": [], "pieces": []}},
                "classify")
    assert r.returncode == 2, r.stdout + r.stderr
    assert "positive" in json.loads(r.stdout)["message"]


def test_infinite_mass_measure_rejected(tmp_path):
    # each atom mass is finite, their sum is not
    measure = {"atoms": [[0.0, 1e308], [0.5, 1e308]]}
    r = run_cli(tmp_path, {"seed": 1, "measure": measure}, "rates")
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "VALIDATION_ERROR"
    assert "measure" in payload["message"] and "finite" in payload["message"]


def test_negative_density_rejected(tmp_path):
    measure = {"atoms": [[0.0, 1.0]],
               "pieces": [{"interval": [0, 1], "tag": "constant",
                           "params": {"level": -0.5}}]}
    r = run_cli(tmp_path, {"seed": 1, "measure": measure}, "rates")
    assert r.returncode == 2, r.stdout + r.stderr
    assert "negative" in json.loads(r.stdout)["message"]


@pytest.mark.parametrize("coefficients, code", [([1, 1], 0), ([1, -1.5], 2)])
def test_polynomial_piece_in_config(tmp_path, coefficients, code):
    # 1 + x is a density; 1 - 1.5x dips below zero on (2/3, 1]
    measure = {"pieces": [{"interval": [0, 1], "tag": "polynomial",
                           "params": {"coefficients": coefficients}}]}
    r = run_cli(tmp_path, {"seed": 1, "measure": measure}, "classify")
    assert r.returncode == code, r.stdout + r.stderr
    if code:
        assert "negative" in json.loads(r.stdout)["message"]


@pytest.mark.parametrize("cfg, command, needle", [
    # green takes the walk's own route: a config names none
    ({"seed": 1, "dimension": 3, "method": "NOPE"}, "green", "method"),
    ({"seed": 1, "method": "BESSEL",
      "geography": {"topology": "torus", "N": 2,
                    "walk": {"dimension": 3,
                             "offsets": [[1, 1, 0], [-1, -1, 0], [0, 1, 1],
                                         [0, -1, -1], [1, 0, 1], [-1, 0, -1]],
                             "probabilities": [1 / 6] * 6}}},
     "green", "method"),
    ({"seed": 1, "measure": KINGMAN, "geography": {"topology": "single"},
      "horizon": -1.0}, "simulate", "horizon"),
    ({"seed": 1, "measure": KINGMAN,
      "geography": {"topology": "torus", "N": 0}}, "simulate", "N >= 1"),
    # a walk with drift has no exact Green route
    ({"seed": 1,
      "geography": {"topology": "torus", "N": 2,
                    "walk": {"dimension": 3,
                             "offsets": [[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                                         [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                             "probabilities": [0.3, 0.1, 0.15, 0.15, 0.15,
                                               0.15]}}},
     "green", "symmetric"),
    # the steps of positive probability span only a plane
    ({"seed": 1,
      "geography": {"topology": "torus", "N": 2,
                    "walk": {"dimension": 3,
                             "offsets": [[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                                         [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                             "probabilities": [0.25] * 4 + [0.0] * 2}}},
     "green", "span"),
    # a NaN horizon is never passed: the run went on to its event budget
    ({"seed": 1, "measure": KINGMAN, "geography": {"topology": "torus", "N": 1},
      "horizon": math.nan}, "simulate", "horizon"),
    # a probe before the start reported a count, a NaN one was dropped
    ({"seed": 1, "measure": KINGMAN, "geography": {"topology": "torus", "N": 1},
      "horizon": 2.0, "probe_times": [-1.0, 2.0]}, "simulate", "probe times"),
    ({"seed": 1, "measure": KINGMAN, "geography": {"topology": "torus", "N": 1},
      "horizon": 2.0, "probe_times": [math.nan]}, "simulate", "probe times"),
    # Monte Carlo is a test oracle, not a route, and green reads no replicas
    ({"seed": 1, "dimension": 3, "method": "MONTE_CARLO"}, "green", "method"),
    ({"seed": 1, "dimension": 3, "replicas": 100}, "green", "replicas"),
    # every command rejects a field it never reads, which would still
    # change config_sha256; a geography's walk sets green's dimension
    *[({"seed": 1, "measure": KINGMAN, "geography": {"topology": "single"},
        "replicas": 10, "killing": True, "dimension": 3}, command,
       "; ".join(f"{name}: {command} does not use it"
                 for name in ("geography", "replicas", "killing",
                              "dimension")))
      for command in ("rates", "classify")],
    ({"seed": 1, "measure": KINGMAN, "geography": {"topology": "single"},
      "replicas": 10, "b_max_table": 8, "dimension": 3,
      "experiment": {"name": "kappa"}}, "simulate",
     "; ".join(f"{name}: simulate does not use it"
               for name in ("experiment", "replicas", "b_max_table",
                            "dimension"))),
    ({"seed": 1, "dimension": 5,
      "geography": {"topology": "torus", "N": 2, "walk": {"dimension": 4}}},
     "green", "dimension: green does not use it"),
    # d = 3 has 6 distinct starts: a seventh block shared one, and the
    # stage-1 times came out far from their law
    ({"seed": 1, "measure": KINGMAN, "geography": {"topology": "torus", "N": 2},
      "experiment": {"name": "structure", "params": {"n_blocks": 7}}},
     "experiment", "experiment.params.n_blocks: must be at most 6"),
    # overlapping classes are no class split: the check was vacuous
    ({"seed": 1, "measure": KINGMAN, "geography": {"topology": "complete",
                                                   "sites": 2},
      "experiment": {"name": "coupling",
                     "params": {"class_split": [[1, 2], [2, 3]]}}},
     "experiment", "class_split classes must not share an element"),
])
def test_config_value_errors_exit_2(tmp_path, cfg, command, needle):
    r = run_cli(tmp_path, cfg, command)
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    if "NaN" in json.dumps(cfg):
        # NaN is not JSON: the config is refused as it is read, before the
        # engine's own NaN checks (tests/test_engine.py) could see it
        assert payload["error"] == "PARSE_ERROR"
        assert "NaN is not a JSON number" in payload["message"]
        return
    assert payload["error"] == "VALIDATION_ERROR"
    assert needle in payload["message"]


def test_internal_value_error_exits_4(tmp_path, monkeypatch):
    def broken(*_a, **_kw):
        raise ValueError("not a config problem")

    monkeypatch.setattr(cli, "cdi_classify", broken)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "measure": KINGMAN}))
    r = cli_run("classify", "--config", path)
    assert r.returncode == 4, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "INTERNAL_ERROR"
    assert "not a config problem" in payload["message"]


def test_block_count_reference_too_early_exits_4(tmp_path, monkeypatch):
    # the entrance law's series at kappa t, about 6e-4, needs more terms
    # than it may take: TRUNCATION_UNSTABLE, exit 4, not minutes of summing,
    # and before any replica is simulated
    runs = []
    monkeypatch.setattr(experiments, "simulate",
                        lambda *a, **kw: runs.append(1))
    cfg = {**BLOCK_COUNT_CFG,
           "experiment": {"name": "block_count",
                          "params": {"times": [0.001]}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    r = cli_run("experiment", "--config", path, "--out", tmp_path / "out")
    assert r.returncode == 4, r.stdout + r.stderr
    assert json.loads(r.stdout)["error"] == "TRUNCATION_UNSTABLE"
    assert runs == []


def test_bad_kernel_row_named(tmp_path):
    cfg = {"seed": 1, "measure": KINGMAN,
           "geography": {"topology": "graph",
                         "kernel": [[0.5, 0.5], [0.9, 0.9]]},
           "n_per_site": 2, "horizon": 1.0}
    r = run_cli(tmp_path, cfg, "simulate")
    assert r.returncode == 2, r.stdout + r.stderr
    assert "[1]" in json.loads(r.stdout)["message"]


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    r = cli_run("classify", "--config", path)
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "PARSE_ERROR"
    assert ":1:" in payload["message"]


def test_missing_file_is_parse_error(tmp_path):
    r = cli_run("classify", "--config", tmp_path / "nope.json")
    assert r.returncode == 2, r.stdout + r.stderr
    assert json.loads(r.stdout)["error"] == "PARSE_ERROR"


def _params_config(name, **params):
    return json.dumps({"seed": 1, "measure": KINGMAN,
                       "geography": {"topology": "torus", "N": 2},
                       "replicas": 4,
                       "experiment": {"name": name, "params": params}})


# Python's json reads NaN, Infinity and -Infinity, which RFC 8259 does not
# have, and 1e400 as infinity.  Read that way, the experiments failed with
# exit 4, an atom of mass Infinity wrote infinite rates with exit 0, and the
# NaN kernel failed with exit 4
NON_FINITE = [
    ("experiment", _params_config("structure", n_blocks=2, kappa_value=math.inf)),
    ("experiment", _params_config("pairwise", kappa_value=math.inf)),
    ("experiment", _params_config("block_count", kappa_value=math.inf)),
    ("experiment", _params_config("block_count", times=[0.5, math.inf])),
    ("experiment", _params_config("trend", n_grid=[2, 4], t_probe=math.inf)),
    ("experiment", _params_config("coupling", class_split=[[1], [2]],
                                  t=math.inf)),
    ("experiment", _params_config("decay_shape", N_values=[1],
                                  t_grid=[math.inf])),
    ("rates", '{"seed": 1, "measure": {"atoms": [[0.0, Infinity]]}}'),
    ("rates", '{"seed": 1, "measure": {"atoms": [[0.0, -Infinity]]}}'),
    ("simulate", '{"seed": 1, "measure": {"atoms": [[0.0, 1.0]]}, "geography":'
                 ' {"topology": "graph", "kernel": [[NaN]]}, "horizon": 1.0}'),
    ("simulate", '{"seed": 1, "measure": {"atoms": [[0.0, 1.0]]}, "geography":'
                 ' {"topology": "single"}, "horizon": 1e400}'),
]


@pytest.mark.parametrize("command, text", NON_FINITE, ids=[
    "structure-kappa", "pairwise-kappa", "block_count-kappa",
    "block_count-times", "trend-t_probe", "coupling-t", "decay_shape-t_grid",
    "atom-mass", "atom-mass-negative", "graph-kernel", "horizon-overflow"])
def test_non_finite_config_values_are_parse_errors(tmp_path, command, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    r = cli_run(command, "--config", path, "--out", tmp_path / "out")
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "PARSE_ERROR"
    assert ("is not a JSON number" in payload["message"]
            or "overflows a float" in payload["message"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [("rates", "--format", "csv"),
                                  ("simulate", "--replicas", "3"),
                                  ("rates", "--replicas", "3"),
                                  ("rates", "--budget", "3"),
                                  ("classify", "--replicas", "3"),
                                  ("classify", "--budget", "3"),
                                  ("green", "--budget", "3")])
def test_option_without_effect_is_usage_error(tmp_path, args):
    r = run_cli(tmp_path, {"seed": 1, "measure": KINGMAN}, *args)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "No such option" in r.stderr


def test_simulate_json_format_is_usage_error(tmp_path):
    cfg = {"seed": 1, "measure": KINGMAN, "geography": {"topology": "single"},
           "n_per_site": 3}
    r = run_cli(tmp_path, cfg, "simulate", "--format", "json")
    assert r.returncode == 2, r.stdout + r.stderr
    assert "--format" in r.stderr


def test_kernel_tolerances_rejected(tmp_path):
    r = run_cli(tmp_path, {"seed": 1, "measure": KINGMAN,
                           "kernel": {"abs_tol": 1e-14}}, "rates")
    assert r.returncode == 2, r.stdout + r.stderr
    assert "kernel" in json.loads(r.stdout)["message"]


EXP_CFG = {"seed": 9, "measure": KINGMAN,
           "geography": {"topology": "complete", "sites": 4},
           "experiment": {"name": "hitting_time", "params": {"n": 10, "k": 2}},
           "replicas": 40}


@pytest.mark.parametrize("cfg, args", [
    ({"seed": 1, "measure": KINGMAN, "replicas": 0}, ("classify",)),
    (EXP_CFG, ("experiment", "--replicas", "0")),
    (EXP_CFG, ("experiment", "--replicas", "-3")),
    (EXP_CFG, ("experiment", "--budget", "0")),
], ids=["config", "replicas-0", "replicas-neg", "budget-0"])
def test_nonpositive_replicas_rejected(tmp_path, cfg, args):
    # an override is validated with the config, before any work starts
    out = tmp_path / "out"
    r = run_cli(tmp_path, cfg, *args, "--out", str(out))
    assert r.returncode == 2, r.stdout + r.stderr
    assert json.loads(r.stdout)["error"] == "VALIDATION_ERROR"
    assert not out.exists()


@pytest.mark.parametrize("cfg, command, field", [
    ({"measure": KINGMAN, "b_max_table": 0}, "rates", "b_max_table"),
    ({"measure": KINGMAN, "b_max_table": -5}, "rates", "b_max_table"),
    ({"dimension": 0}, "green", "dimension"),
], ids=["b_max_table-0", "b_max_table-neg", "dimension-0"])
def test_out_of_range_table_and_dimension_rejected(tmp_path, cfg, command, field):
    # a zero used to fall back to the default, a negative table was empty
    r = run_cli(tmp_path, {"seed": 1, **cfg}, command)
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "VALIDATION_ERROR"
    assert field in payload["message"]


def test_absent_table_and_dimension_take_defaults(tmp_path):
    r = run_cli(tmp_path, {"seed": 1, "measure": KINGMAN}, "rates")
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.strip().splitlines()[-1].startswith("64,gamma,")
    r = run_cli(tmp_path, {"seed": 1}, "green")
    assert r.returncode == 0, r.stdout + r.stderr
    assert json.loads(r.stdout)["dimension"] == 3


# ---------------------------------------------------------------- subcommands

def test_classify_beta_heavy(tmp_path):
    r = run_cli(tmp_path, {"seed": 1, "measure": BETA_HEAVY}, "classify")
    assert r.returncode == 0, r.stdout + r.stderr
    assert json.loads(r.stdout)["verdict"] == "COMES_DOWN"


def test_classify_report_deterministic_stats_in_manifest(tmp_path):
    reports, manifests = [], []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli(tmp_path, {"seed": 1, "measure": BETA_HEAVY}, "classify",
                    "--out", str(out), child=True)
        assert r.returncode == 0, r.stdout + r.stderr
        reports.append((out / "report.json").read_bytes())
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert "stats" not in report
    assert report["tail_bound"] > 0.0 and "tail_estimate" not in report
    stats = manifests[0]["stats"]
    assert stats["decided_by"] == "beta term p=-0.5 on [0, 1]"
    assert stats["b_max"] == 1000
    assert stats["kernel_build_s"] >= 0.0 and stats["verdict_s"] >= 0.0


def test_rates_csv_shape(tmp_path):
    r = run_cli(tmp_path, {"seed": 1, "measure": KINGMAN, "b_max_table": 4},
                "rates")
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "b,k,value"
    assert "2,2,1.0" in lines
    assert "4,lambda,6.0" in lines
    assert "4,gamma,6.0" in lines


def test_rates_report_deterministic_stats_in_manifest(tmp_path):
    reports, tables, manifests = [], [], []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli(tmp_path, {"seed": 1, "measure": BETA_HEAVY,
                               "b_max_table": 12}, "rates", "--out", str(out),
                    child=True)
        assert r.returncode == 0, r.stdout + r.stderr
        reports.append((out / "report.json").read_bytes())
        tables.append((out / "rates.csv").read_bytes())
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert reports[0] == reports[1]
    assert tables[0] == tables[1]
    report = json.loads(reports[0])
    assert "stats" not in report
    # one row per (b, k) plus the lambda and gamma rows of each b
    rows = sum(b - 1 + 2 for b in range(2, 13))
    assert report["rows"] == rows
    stats = manifests[0]["stats"]
    assert stats["b_max"] == 12 and stats["rows"] == rows
    assert stats["kernel_build_s"] >= 0.0 and stats["table_s"] >= 0.0


def test_green_report_deterministic_stats_in_manifest(tmp_path):
    reports, manifests = [], []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli(tmp_path, {"seed": 1, "dimension": 3}, "green", "--out",
                    str(out), child=True)
        assert r.returncode == 0, r.stdout + r.stderr
        reports.append((out / "report.json").read_bytes())
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert reports[0] == reports[1]
    assert "stats" not in json.loads(reports[0])
    stats = manifests[0]["stats"]
    assert stats["method"] == "BESSEL" and stats["green_s"] >= 0.0


def test_green_json_contract(tmp_path):
    r = run_cli(tmp_path, {"seed": 1, "dimension": 3}, "green")
    assert r.returncode == 0, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert set(payload) >= {"estimate", "error", "method"}
    # no method set: the default axis walk takes the exact Bessel route
    assert payload["method"] == "BESSEL"
    assert abs(payload["estimate"] - 1.5163860591519809) <= payload["error"]


def test_simulate_budget_flushes_partial_trajectory(tmp_path):
    out = tmp_path / "run"
    cfg = {"seed": 5, "measure": KINGMAN,
           "geography": {"topology": "complete", "sites": 3},
           "n_per_site": 20, "event_budget": 10, "out_dir": str(out)}
    r = run_cli(tmp_path, cfg, "simulate")
    assert r.returncode == 3, r.stdout + r.stderr
    err = json.loads(r.stdout.strip().splitlines()[-1])
    assert err["error"] == "BUDGET_EXCEEDED"
    lines = (out / "trajectory.jsonl").read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["type"] == "header"
    assert header["seed"] == 5
    assert len([l for l in lines if json.loads(l)["type"] == "event"]) == 10


def test_simulate_csv_mode(tmp_path):
    out = tmp_path / "runcsv"
    cfg = {"seed": 2, "measure": KINGMAN,
           "geography": {"topology": "single"},
           "n_per_site": 6, "out_dir": str(out),
           "stop_blocks_at_most": 1}
    r = run_cli(tmp_path, cfg, "simulate", "--format", "csv")
    assert r.returncode == 0, r.stdout + r.stderr
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0] == "time,block_count"
    assert rows[1].endswith(",6")
    assert rows[-1].endswith(",1")


@pytest.mark.parametrize("geography", [
    {"topology": "complete", "sites": 3},
    {"topology": "single"},
], ids=["complete", "single"])
def test_simulate_without_stop_field_stops_at_one_block(tmp_path, geography):
    # with no horizon the run ends once one block is left, instead of
    # migrating it forever (complete graph) or deadlocking (single site)
    cfg = {"seed": 3, "measure": BETA_HEAVY, "geography": geography,
           "n_per_site": 5}
    r = run_cli(tmp_path, cfg, "simulate", timeout=60)
    assert r.returncode == 0, r.stdout + r.stderr
    report = json.loads(r.stdout)
    assert report["stop_reason"] == "ABSORBED"
    assert report["final_block_count"] == 1


# ---------------------------------------------------------------- artifacts


def _report_hash(out_dir):
    return hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()


def test_experiment_report_deterministic(tmp_path):
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli(tmp_path, EXP_CFG, "experiment", "--out", str(out),
                    child=True)
        assert r.returncode == 0, r.stdout + r.stderr
        hashes.append(_report_hash(out))
    assert hashes[0] == hashes[1]


def test_simulate_report_deterministic_stats_in_manifest(tmp_path):
    cfg = {"seed": 3, "measure": KINGMAN,
           "geography": {"topology": "graph",
                         "kernel": [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0],
                                    [1.0, 0.0, 0.0]]},
           "n_per_site": 4, "horizon": 2.0}
    reports, manifests = [], []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli(tmp_path, cfg, "simulate", "--out", str(out), child=True)
        assert r.returncode == 0, r.stdout + r.stderr
        reports.append((out / "report.json").read_bytes())
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert "stats" not in report
    stats = manifests[0]["stats"]
    assert stats == manifests[1]["stats"]
    # one MIGRATE line per migration in the trajectory, and the lazy site
    # (self-loop 1/2) makes the engine thin migration proposals
    lines = (tmp_path / "a" / "trajectory.jsonl").read_text().splitlines()
    tags = [json.loads(l).get("tag") for l in lines]
    assert stats["events"] == {tag: tags.count(tag)
                               for tag in ("MERGE", "MIGRATE", "KILL")}
    assert sum(stats["events"].values()) == report["events"]
    assert stats["thinning_rejections"] > 0
    assert stats["max_site_blocks"] >= 4
    assert stats["lambda_table_size"] > stats["max_site_blocks"]


BLOCK_COUNT_CFG = {"seed": 4, "measure": KINGMAN,
                   "geography": {"topology": "torus", "N": 1},
                   "n_per_site": 3,
                   "experiment": {"name": "block_count",
                                  "params": {"times": [0.8, 1.6]}},
                   "replicas": 30}


SAMPLER_STATS = {"chunk_calls", "chunk_replicas", "chunk_cells",
                 "chunk_steps", "chunk_cuts", "lockstep_events",
                 "lockstep_skipped"}
# the engine counters summed over the replicas of hitting_time, trend,
# block_count, coupling and decay_shape
ENGINE_STATS = {"events", "thinning_rejections", "max_site_blocks"}
STRUCTURE_CFG = {"seed": 5, "measure": KINGMAN,
                 "geography": {"topology": "torus", "N": 3},
                 "experiment": {"name": "structure",
                                "params": {"n_blocks": 3, "kappa_value": 0.57}},
                 "replicas": 30}
PAIRWISE_CFG = {"seed": 6, "measure": KINGMAN,
                "geography": {"topology": "torus", "N": 3},
                "experiment": {"name": "pairwise",
                               "params": {"kappa_value": 0.57}},
                "replicas": 30}
KAPPA_CFG = {"seed": 7, "measure": KINGMAN,
             "geography": {"topology": "torus", "N": 3},
             "experiment": {"name": "kappa"}}
TREND_CFG = {"seed": 8, "measure": BETA_HEAVY, "killing": True,
             "geography": {"topology": "complete", "sites": 2},
             "experiment": {"name": "trend", "params": {"n_grid": [4, 8]}},
             "replicas": 5}
COUPLING_CFG = {"seed": 10, "measure": KINGMAN,
                "geography": {"topology": "complete", "sites": 2},
                "experiment": {"name": "coupling",
                               "params": {"class_split": [[1, 2], [3, 4]],
                                          "t": 2.0}},
                "replicas": 5}
DECAY_SHAPE_CFG = {"seed": 9, "measure": KINGMAN,
                   "geography": {"topology": "torus", "N": 1},
                   "experiment": {"name": "decay_shape",
                                  "params": {"N_values": [1, 2],
                                             "t_grid": [0.5, 2.0]}},
                   "replicas": 5}


# sha256 of each config's report.json at version 0.2.0: a refactor must
# leave every report byte-identical
REPORT_SHA256 = {
    "hitting_time": "84d235340b58371c4901a814b50df8cf9c50d912469b6fa4258004f594923887",
    "block_count": "e868382074498432dcdb02b9ce37fcc11382a88d168fbc6dbfd040f597f9617c",
    "structure": "05f57cc2c99f9708d3df7f7ecb224db5d60617ecca053abdf9e247b048777970",
    "pairwise": "fbcc013301267950fa16b9a5bbe0c359df5eb482749e5cc8a7767d0ffd90ddea",
    "kappa": "1e509711891083cc2239ab7747f086262926fc70dda962b6e9e966e31458c140",
    "trend": "33539fc60bb541d4dde8b8d1a2ccd8476acb6584dc1cee2f687a75a7526542f4",
    "coupling": "a198a0bddbebfda9a1b067dea4a099ef4f3975d161f909350c696e5bc8356793",
    "decay_shape": "ab7a98d43140cc5d252d9f425ded7e210d967d2bed2e336ef14134027f1f9414",
}


@pytest.mark.parametrize("cfg, phases", [
    (EXP_CFG, ENGINE_STATS),
    (BLOCK_COUNT_CFG, {"kappa_s", "sampling_s", "reference_s"} | ENGINE_STATS),
    (STRUCTURE_CFG, SAMPLER_STATS),
    (PAIRWISE_CFG, SAMPLER_STATS),
    # one exact Green route, whose record is the report
    (KAPPA_CFG, set()),
    (TREND_CFG, ENGINE_STATS),
    (COUPLING_CFG, ENGINE_STATS),
    (DECAY_SHAPE_CFG, ENGINE_STATS),
])
def test_experiment_report_deterministic_stats_in_manifest(tmp_path, cfg,
                                                           phases):
    reports, manifests = [], []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli(tmp_path, cfg, "experiment", "--out", str(out))
        assert r.returncode == 0, r.stdout + r.stderr
        reports.append((out / "report.json").read_bytes())
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert reports[0] == reports[1]
    assert (hashlib.sha256(reports[0]).hexdigest()
            == REPORT_SHA256[cfg["experiment"]["name"]]), reports[0].decode()
    assert not {"stats", "table"} & set(json.loads(reports[0]))
    stats = manifests[0]["stats"]
    assert set(stats) == {"kernel_build_s", "run_s"} | phases
    assert all(v >= 0.0 for v in stats.values() if not isinstance(v, dict))
    if ENGINE_STATS <= phases:
        # counts, so the rerun has the same
        assert ({k: stats[k] for k in ENGINE_STATS}
                == {k: manifests[1]["stats"][k] for k in ENGINE_STATS})
        assert set(stats["events"]) == {"MERGE", "MIGRATE", "KILL"}
        assert stats["events"]["MERGE"] > 0
        assert all(n >= 0 for n in stats["events"].values())
        assert stats["max_site_blocks"] > 0
    if phases == SAMPLER_STATS:
        assert stats["chunk_steps"] > 0 and stats["lockstep_events"] > 0
        assert stats["chunk_cuts"] <= stats["chunk_replicas"]
        assert stats["chunk_steps"] <= stats["chunk_cells"]


@pytest.mark.parametrize("cfg, name", [
    (EXP_CFG, "hitting_times.csv"),
    (PAIRWISE_CFG, "pairwise_times.csv"),
    (BLOCK_COUNT_CFG, "block_counts.csv"),
], ids=["hitting_time", "pairwise", "block_count"])
def test_experiment_tables_hold_plain_numbers(tmp_path, cfg, name):
    # one row per replica, its index first, every cell a number float()
    # reads (not a repr such as "np.float64(0.67)")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    r = cli_run("experiment", "--config", path, "--out", out)
    assert r.returncode == 0, r.stdout + r.stderr
    assert name in json.loads((out / "manifest.json").read_text())["files"]
    header, *rows = (out / name).read_text().splitlines()
    assert header.startswith("replica,")
    assert [int(row.split(",")[0]) for row in rows] == list(range(cfg["replicas"]))
    for row in rows:
        cells = row.split(",")
        assert len(cells) == header.count(",") + 1
        for cell in cells:
            float(cell)


def test_green_config_takes_no_method():
    # each walk has one exact route, so a config that names one, even a
    # route that walk would take, is refused as it is read
    for method in ("BESSEL", "CUBATURE", None):
        with pytest.raises(cli._ConfigError) as info:
            cli._validate(cli._RUN, {"seed": 1, "method": method})
        assert info.value.violations == ["method: unknown field"]
    est, err = green_function(simple_walk(3))
    assert abs(est - 1.5163860591519809) <= err + 1e-12


def test_green_walk_with_no_route_is_a_walk_error(tmp_path):
    # a walk with drift has no exact route: the walk is at fault, and the
    # error names it
    cfg = {"seed": 1, "geography": {"topology": "torus", "N": 2,
                                    "walk": DRIFTED_WALK}}
    r = run_cli(tmp_path, cfg, "green")
    assert r.returncode == 2, r.stdout + r.stderr
    assert json.loads(r.stdout)["message"].startswith(
        "geography.walk: the CUBATURE Green route needs a symmetric walk")


DRIFTED_WALK = {"dimension": 3,
                "offsets": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                            [0, 0, 1], [0, 0, -1]],
                "probabilities": [0.3, 0.1, 0.15, 0.15, 0.15, 0.15]}


def test_kappa_experiment_reports_the_exact_record_at_every_seed(tmp_path):
    # the record of experiments.torus_kappa, the same at every seed: no
    # Monte Carlo check runs that could miss its interval and exit 4
    cfg = dict(KAPPA_CFG, geography={"topology": "torus", "N": 3,
                                     "walk": DRIFTED_WALK})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    reports = set()
    for seed in range(20):
        r = cli_run("experiment", "--config", path, "--seed", seed)
        assert r.returncode == 0, r.stdout + r.stderr
        report = json.loads(r.stdout)
        assert report.pop("seed") == seed
        del report["config_sha256"]
        reports.add(json.dumps(report, sort_keys=True))
    (report,) = map(json.loads, reports)
    assert set(report) == {"G", "G_err", "G_method", "lambda22", "kappa",
                           "experiment"}
    assert report["G_method"] == "BESSEL" and report["G_err"] <= 1e-10


def test_seed_changes_report(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    r1 = run_cli(tmp_path, EXP_CFG, "experiment", "--out", str(out1))
    r2 = run_cli(tmp_path, EXP_CFG, "experiment", "--out", str(out2),
                 "--seed", "10")
    assert r1.returncode == 0, r1.stdout + r1.stderr
    assert r2.returncode == 0, r2.stdout + r2.stderr
    assert _report_hash(out1) != _report_hash(out2)


def test_manifest_covers_all_files(tmp_path):
    out = tmp_path / "m"
    r = run_cli(tmp_path, EXP_CFG, "experiment", "--out", str(out))
    assert r.returncode == 0, r.stdout + r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(os.listdir(out)) == sorted(manifest["files"])
    assert manifest["seed"] == 9
    assert "wall_time_seconds" in manifest
    assert {"numpy", "scipy", "python", "artifact"} <= set(manifest["versions"])


@pytest.mark.parametrize("command, cfg", [
    ("rates", {"seed": 1, "measure": BETA_HEAVY, "b_max_table": 6}),
    ("classify", {"seed": 1, "measure": BETA_HEAVY}),
    ("simulate", {"seed": 3, "measure": KINGMAN,
                  "geography": {"topology": "complete", "sites": 3},
                  "n_per_site": 3}),
    ("experiment", EXP_CFG),
], ids=["rates", "classify", "simulate", "experiment"])
def test_manifest_round_trip(tmp_path, command, cfg):
    # the manifest records the config as overridden, and it reruns the run
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    r = run_cli(tmp_path, cfg, command, "--seed", "11", "--out", str(out1))
    assert r.returncode == 0, r.stdout + r.stderr
    embedded = json.loads((out1 / "manifest.json").read_text())["config"]
    assert embedded["seed"] == 11
    r2 = run_cli(tmp_path, embedded, command, "--out", str(out2))
    assert r2.returncode == 0, r2.stdout + r2.stderr
    assert _report_hash(out1) == _report_hash(out2)


def _config_hash(raw):
    return cli.ArtifactWriter(cli._validate(cli._RUN, raw)).config_hash


def test_config_hash_is_the_hash_of_the_set_fields():
    # the fields away from their defaults, in canonical JSON: killing is
    # false by default
    text = '{\n  "dimension": 3,\n  "seed": 1\n}\n'
    assert _config_hash({"seed": 1, "dimension": 3, "killing": False}) \
        == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("change, same", [
    ("new-field", True),
    ({"killing": False}, True),
    ({"probe_times": []}, True),
    ({"killing": True}, False),
], ids=["new-field", "killing-false", "probe_times-empty", "killing-true"])
def test_config_hash_covers_only_the_fields_a_config_sets(monkeypatch, change,
                                                          same):
    # a field at its default, omitted, spelled out or new to the schema,
    # leaves the hash, and so every report, as it was
    before = _config_hash(EXP_CFG)
    raw = dict(EXP_CFG)
    if change == "new-field":
        monkeypatch.setitem(cli._RUN_FIELDS, "extra",
                            (cli._or_none(cli._INT), None))
        assert cli._validate(cli._RUN, raw)["extra"] is None
    else:
        raw.update(change)
    assert (_config_hash(raw) == before) is same


def test_unknown_experiment_name(tmp_path):
    cfg = dict(EXP_CFG, experiment={"name": "wat", "params": {}})
    r = run_cli(tmp_path, cfg, "experiment")
    assert r.returncode == 2, r.stdout + r.stderr
    assert "wat" in json.loads(r.stdout)["message"]


@pytest.mark.parametrize("experiment, needle", [
    ({"name": "hitting_time", "params": {"n": 1}}, "params.n"),
    ({"name": "structure", "params": {}}, "params.n_blocks"),
    ({"name": "hitting_time", "params": {"n": 10, "bogus": 1}}, "params.bogus"),
    ({"name": "block_count", "params": {"reference_replicas": 1000}},
     "params.reference_replicas"),
    ({"name": "block_count", "params": {"times": [1.0, 0.5]}}, "params.times"),
    # the torus studies take N from geography.N and need a torus geography
    ({"name": "structure", "params": {"n_blocks": 3, "N": 2}}, "params.N"),
    ({"name": "structure", "params": {"n_blocks": 3}}, "topology 'torus'"),
    # a repeated size would fit the growth exponent through fewer points
    ({"name": "trend", "params": {"n_grid": [4, 4]}}, "params.n_grid"),
])
def test_bad_experiment_params_exit_2(tmp_path, experiment, needle):
    r = run_cli(tmp_path, dict(EXP_CFG, experiment=experiment), "experiment")
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "VALIDATION_ERROR"
    assert needle in payload["message"]


@pytest.mark.parametrize("experiment, extra, args, field", [
    ({"name": "hitting_time", "params": {"n": 10}}, {}, ("--budget", "1"),
     "event_budget"),
    ({"name": "structure", "params": {"n_blocks": 3}}, {}, ("--budget", "1"),
     "event_budget"),
    ({"name": "kappa"}, {}, ("--replicas", "3"), "replicas"),
    ({"name": "hitting_time", "params": {"n": 10}}, {"killing": True}, (),
     "killing"),
    ({"name": "structure", "params": {"n_blocks": 3}}, {"n_per_site": 7}, (),
     "n_per_site"),
    ({"name": "pairwise"}, {"probe_times": [1.0]}, (), "probe_times"),
], ids=["hitting_time-budget", "structure-budget", "kappa-replicas",
        "hitting_time-killing", "structure-n_per_site", "pairwise-probe_times"])
def test_experiment_option_without_effect_exits_2(tmp_path, experiment, extra,
                                                  args, field):
    # only block_count reads event_budget and n_per_site, only trend reads
    # killing, kappa reads no replicas, and none reads probe_times
    cfg = {"seed": 1, "measure": KINGMAN, "experiment": experiment,
           "geography": {"topology": "torus", "N": 2}, **extra}
    r = run_cli(tmp_path, cfg, "experiment", *args)
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "VALIDATION_ERROR"
    assert payload["message"].startswith(f"{field}:")


@pytest.mark.parametrize("cfg", [
    {"seed": 1, "measure": KINGMAN, "killing": True, "replicas": 5,
     "geography": {"topology": "complete", "sites": 2},
     "experiment": {"name": "trend", "params": {"n_grid": [4, 8]}}},
    {"seed": 1, "measure": KINGMAN, "n_per_site": 2, "replicas": 5,
     "geography": {"topology": "torus", "N": 1},
     "experiment": {"name": "block_count", "params": {"kappa_value": 0.5}}},
], ids=["trend-killing", "block_count-n_per_site"])
def test_experiment_accepts_the_fields_it_reads(tmp_path, cfg):
    r = run_cli(tmp_path, cfg, "experiment", "--out", str(tmp_path / "out"))
    assert r.returncode == 0, r.stdout + r.stderr


def _strict_report(out_dir):
    """report.json parsed as strict JSON: NaN and infinity raise."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads((out_dir / "report.json").read_text(),
                      parse_constant=reject)


LEBESGUE = {"pieces": [{"interval": [0, 1], "tag": "constant",
                        "params": {"level": 1.0}}]}


@pytest.mark.parametrize("command, cfg, path", [
    # a single pair: uniformity is untestable
    ("experiment",
     {"seed": 1, "measure": KINGMAN, "replicas": 40,
      "geography": {"topology": "torus", "N": 8},
      "experiment": {"name": "structure", "params": {"n_blocks": 2}}},
     ("pair_uniformity_pvalue",)),
    # one replica: no standard error
    ("experiment",
     {"seed": 1, "measure": KINGMAN, "replicas": 1,
      "geography": {"topology": "complete", "sites": 2},
      "experiment": {"name": "trend", "params": {"n_grid": [4, 8]}}},
     ("per_n", "4", "0.5", 1)),
    # a measure that stays infinite has no finite bound
    ("classify", {"seed": 1, "measure": LEBESGUE}, ("tail_bound",)),
    ("experiment",
     {"seed": 1, "measure": LEBESGUE, "replicas": 5,
      "geography": {"topology": "single"},
      "experiment": {"name": "hitting_time", "params": {"n": 5}}},
     ("extras", "uniform_bound")),
    # one replica: no standard error and no confidence interval
    ("experiment",
     {"seed": 1, "measure": KINGMAN, "replicas": 1,
      "geography": {"topology": "complete", "sites": 2},
      "experiment": {"name": "hitting_time", "params": {"n": 4}}},
     ("ci",)),
], ids=["structure-one-pair", "trend-one-replica", "classify-no-bound",
        "hitting_time-no-bound", "hitting_time-one-replica"])
def test_missing_statistic_or_bound_is_null_in_report(tmp_path, command, cfg,
                                                       path):
    out = tmp_path / "out"
    r = run_cli(tmp_path, cfg, command, "--out", str(out), timeout=120)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "Warning" not in r.stderr
    value = _strict_report(out)
    for key in path:
        value = value[key]
    assert value is None


def test_canonical_json_rejects_non_finite():
    for bad in (math.nan, math.inf, np.float64("nan")):
        with pytest.raises(ValueError):
            cli._canonical_json({"x": [bad]})


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.integrate",
                                    "scipy.special", "pydantic"])
def test_cli_import_leaves_scipy_stats_unloaded(module):
    # cli imports every module of the package, geometry too, whose BESSEL
    # rule is numpy alone: scipy.integrate costs about 26 MB, and
    # scipy.special, which the closed forms import as they run, about
    # 0.2 s of cold start
    r = run_python("-c", "import sys, spatial_coalescent.cli; "
                   f"print({module!r} in sys.modules)")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_cli_import_neither_builds_nor_loads_the_engine_loop():
    # the compiled event loop is built and loaded by the first simulate
    # call, never at import, so cold start stays as it was
    r = run_python("-c", """
import os
import spatial_coalescent.cli
from spatial_coalescent import engine
maps = "/proc/self/maps"
mapped = os.path.exists(maps) and "_engine." in open(maps).read()
print(engine._loop.cache_info().currsize, mapped)
""")
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", "False"]


def test_simulate_without_a_compiler_exits_4(tmp_path):
    # a fresh copy of the package holds no built library, and with no cc on
    # PATH neither the first simulate nor the few-block sampler of a
    # structure run can build it: no fallback, exit 4
    package = Path(cli.__file__).parent
    shutil.copytree(package, tmp_path / "copy" / package.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bin").mkdir()
    # HOME too, so that no library built into ~/.cache/ is found
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "copy"),
           "PATH": str(tmp_path / "bin"), "HOME": str(tmp_path / "home")}
    for command, cfg in [("simulate", {"seed": 1, "measure": KINGMAN,
                                       "geography": {"topology": "single"},
                                       "n_per_site": 3}),
                         ("experiment", STRUCTURE_CFG)]:
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(cfg))
        r = subprocess.run([sys.executable, "-m", "spatial_coalescent",
                            command, "--config", str(config),
                            "--out", str(tmp_path / command)],
                           capture_output=True, text=True, env=env,
                           cwd=tmp_path, timeout=120)
        assert r.returncode == 4, r.stdout + r.stderr
        payload = json.loads(r.stdout)
        assert payload["error"] == "ENGINE_BUILD_FAILED"
        assert "C compiler 'cc'" in payload["message"]
        assert payload["context"] == {"compiler": "cc"}
    assert not list(tmp_path.rglob("*.so"))


@pytest.mark.parametrize("home", ["writable", "a file"])
def test_simulate_from_a_package_it_cannot_write_to(tmp_path, home):
    # an install owned by someone else: the copy's __pycache__ is a plain
    # file (and the copy read-only), so nothing, root included, can build
    # into it; the loop is built into ~/.cache/ instead, or, with no
    # writable home either, simulate exits 4 naming both directories
    package = Path(cli.__file__).parent
    copy = tmp_path / "copy" / package.name
    shutil.copytree(package, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "__pycache__").write_text("")
    copy.chmod(0o555)
    home_dir = tmp_path / "home"
    if home == "a file":
        home_dir.write_text("")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "measure": KINGMAN,
                                  "geography": {"topology": "single"},
                                  "n_per_site": 3}))
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "copy"),
           "HOME": str(home_dir)}
    try:
        r = subprocess.run([sys.executable, "-m", "spatial_coalescent",
                            "simulate", "--config", str(config),
                            "--out", str(tmp_path / "out")],
                           capture_output=True, text=True, env=env,
                           cwd=tmp_path, timeout=120)
    finally:
        copy.chmod(0o755)
    cache = home_dir / ".cache" / "spatial_coalescent"
    if home == "writable":
        assert r.returncode == 0, r.stdout + r.stderr
        assert [p.name.endswith(".so") for p in cache.iterdir()] == [True]
    else:
        assert r.returncode == 4, r.stdout + r.stderr
        payload = json.loads(r.stdout)
        assert payload["error"] == "ENGINE_BUILD_FAILED"
        assert payload["context"]["directories"] == [
            str(copy / "__pycache__"), str(cache)]
    assert not list((tmp_path / "copy").rglob("*.so"))


BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"], ids=["default", "preset"])
def test_main_pins_blas_threads_before_numpy_loads(preset):
    # `python -m spatial_coalescent` run in a child interpreter: when numpy
    # is first imported each BLAS variable is "1", unless the caller had
    # set it
    code = f"""
import json, os, runpy, sys
names = {BLAS_THREADS!r}
for name in names:
    os.environ.pop(name, None)
if {preset!r} is not None:
    os.environ["OPENBLAS_NUM_THREADS"] = {preset!r}
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({{n: os.environ.get(n) for n in names}})
        return None
sys.meta_path.insert(0, Spy())
assert "numpy" not in sys.modules
sys.argv = ["coalsim", "--help"]
try:
    runpy.run_module("spatial_coalescent", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(seen[0]))
"""
    r = run_python("-c", code)
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout.strip().splitlines()[-1])
    expected = dict.fromkeys(BLAS_THREADS, "1")
    if preset is not None:
        expected["OPENBLAS_NUM_THREADS"] = preset
    assert seen == expected


def test_block_count_reads_budget(tmp_path):
    cfg = {"seed": 1, "measure": KINGMAN, "n_per_site": 2, "replicas": 2,
           "geography": {"topology": "torus", "N": 1},
           "experiment": {"name": "block_count",
                          "params": {"kappa_value": 0.5}}}
    r = run_cli(tmp_path, cfg, "experiment", "--budget", "1")
    assert r.returncode == 3, r.stdout + r.stderr
    assert json.loads(r.stdout)["error"] == "BUDGET_EXCEEDED"


# ---------------------------------------------------------------- torus studies

PAIRWISE_N2_CFG = {"seed": 5, "measure": KINGMAN,
                   "geography": {"topology": "torus", "N": 2},
                   "experiment": {"name": "pairwise", "params": {}},
                   "replicas": 12}


def test_pairwise_experiment_runs_deterministically(tmp_path):
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli(tmp_path, PAIRWISE_N2_CFG, "experiment", "--out",
                    str(out), timeout=120)
        assert r.returncode == 0, r.stdout + r.stderr
        reports.append((out / "report.json").read_bytes())
        rows = (out / "pairwise_times.csv").read_text().splitlines()
        assert rows[0] == "replica,rescaled_time"
        assert [int(row.split(",")[0]) for row in rows[1:]] == list(range(12))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["sample_size"] == 12


def test_pairwise_separation_of_wrong_length_exits_2(tmp_path):
    cfg = dict(PAIRWISE_N2_CFG, experiment={"name": "pairwise",
                                            "params": {"separation": [1, 0]}})
    r = run_cli(tmp_path, cfg, "experiment", timeout=120)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "separation" in json.loads(r.stdout)["message"]


# +-3 e_1 (0.1 each), +-e_2 and +-e_3 (0.2 each): on the side-3 torus the
# e_1 steps wrap onto their own site, and on the side-9 torus they reach a
# third of the e_1 residues, so two blocks 4 e_1 apart never meet and the
# block counts would be those of separate tori
STRIDE_3_WALK = {"dimension": 3,
                 "offsets": [[3, 0, 0], [-3, 0, 0], [0, 1, 0], [0, -1, 0],
                             [0, 0, 1], [0, 0, -1]],
                 "probabilities": [0.1, 0.1, 0.2, 0.2, 0.2, 0.2]}


@pytest.mark.parametrize("experiment", [
    {"name": "pairwise", "params": {}},
    {"name": "structure", "params": {"n_blocks": 2}},
    {"name": "block_count", "params": {}},
], ids=["pairwise", "structure", "block_count"])
@pytest.mark.parametrize("N, needle", [(1, "does not connect"),
                                       (4, "does not connect")])
def test_walk_that_does_not_connect_the_torus_exits_2(tmp_path, experiment,
                                                      N, needle):
    cfg = dict(PAIRWISE_N2_CFG, experiment=experiment,
               geography={"topology": "torus", "N": N, "walk": STRIDE_3_WALK})
    r = run_cli(tmp_path, cfg, "experiment", timeout=120)
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "VALIDATION_ERROR"
    assert needle in payload["message"]
