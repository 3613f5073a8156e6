import hashlib
import json
import math
import os
import typing

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import coalsim, run_python
from spatial_coalescent import cli
from spatial_coalescent.geometry import green_function, simple_walk


def run_cli(tmp_path, cfg, *args, timeout=None):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return coalsim(*args, "--config", path, timeout=timeout)


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
    ({"seed": 1, "dimension": 3, "method": "NOPE"}, "green", "method"),
    ({"seed": 1, "method": "BESSEL",
      "geography": {"topology": "torus", "N": 2,
                    "walk": {"dimension": 3,
                             "offsets": [[1, 1, 0], [-1, -1, 0], [0, 1, 1],
                                         [0, -1, -1], [1, 0, 1], [-1, 0, -1]],
                             "probabilities": [1 / 6] * 6}}},
     "green", "axis walk"),
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
])
def test_config_value_errors_exit_2(tmp_path, cfg, command, needle):
    r = run_cli(tmp_path, cfg, command)
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "VALIDATION_ERROR"
    assert needle in payload["message"]


def test_internal_value_error_exits_4(tmp_path, monkeypatch):
    def broken(*_a, **_kw):
        raise ValueError("not a config problem")

    monkeypatch.setattr(cli, "cdi_classify", broken)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "measure": KINGMAN}))
    r = CliRunner().invoke(cli.main, ["classify", "--config", str(path)])
    assert r.exit_code == 4, r.output
    payload = json.loads(r.output)
    assert payload["error"] == "INTERNAL_ERROR"
    assert "not a config problem" in payload["message"]


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
    r = coalsim("classify", "--config", path)
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "PARSE_ERROR"
    assert ":1:" in payload["message"]


def test_missing_file_is_parse_error(tmp_path):
    r = coalsim("classify", "--config", tmp_path / "nope.json")
    assert r.returncode == 2, r.stdout + r.stderr
    assert json.loads(r.stdout)["error"] == "PARSE_ERROR"


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
                    "--out", str(out))
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
                               "b_max_table": 12}, "rates", "--out", str(out))
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
        r = run_cli(tmp_path, {"seed": 1, "dimension": 3, "method": "BESSEL"},
                    "green", "--out", str(out))
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
        r = run_cli(tmp_path, EXP_CFG, "experiment", "--out", str(out))
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
        r = run_cli(tmp_path, cfg, "simulate", "--out", str(out))
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


SAMPLER_STATS = {"chunk_calls", "chunk_replicas", "chunk_steps", "chunk_cuts",
                 "lockstep_events", "lockstep_skipped"}
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


@pytest.mark.parametrize("cfg, phases", [
    (EXP_CFG, set()),
    (BLOCK_COUNT_CFG, {"kappa_s", "sampling_s", "reference_s"}),
    (STRUCTURE_CFG, SAMPLER_STATS),
    (PAIRWISE_CFG, SAMPLER_STATS),
    # one exact Green route, whose record is the report
    (KAPPA_CFG, set()),
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
    assert "stats" not in json.loads(reports[0])
    stats = manifests[0]["stats"]
    assert set(stats) == {"kernel_build_s", "run_s"} | phases
    assert all(v >= 0.0 for v in stats.values())
    if phases == SAMPLER_STATS:
        assert stats["chunk_steps"] > 0 and stats["lockstep_events"] > 0
        assert stats["chunk_cuts"] <= stats["chunk_replicas"]


def test_green_routes_every_method_the_config_accepts():
    # each value of RunConfig.method names a route of green_function
    accepted = typing.get_args(typing.get_args(
        cli.RunConfig.model_fields["method"].annotation)[0])
    assert set(accepted) == {"BESSEL", "CUBATURE"}
    for method in accepted:
        est, err = green_function(simple_walk(3), method)
        assert abs(est - 1.5163860591519809) <= err + 1e-12


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
        r = CliRunner().invoke(cli.main, ["experiment", "--config", str(path),
                                          "--seed", str(seed)])
        assert r.exit_code == 0, r.output
        report = json.loads(r.output)
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
], ids=["structure-one-pair", "trend-one-replica", "classify-no-bound",
        "hitting_time-no-bound"])
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


def test_cli_import_leaves_scipy_stats_unloaded():
    r = run_python("-c", "import sys, spatial_coalescent.cli; "
                   "print('scipy.stats' in sys.modules)")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_block_count_reads_budget(tmp_path):
    cfg = {"seed": 1, "measure": KINGMAN, "n_per_site": 2, "replicas": 2,
           "geography": {"topology": "torus", "N": 1},
           "experiment": {"name": "block_count",
                          "params": {"kappa_value": 0.5}}}
    r = run_cli(tmp_path, cfg, "experiment", "--budget", "1")
    assert r.returncode == 3, r.stdout + r.stderr
    assert json.loads(r.stdout)["error"] == "BUDGET_EXCEEDED"


# ---------------------------------------------------------------- torus studies

PAIRWISE_CFG = {"seed": 5, "measure": KINGMAN,
                "geography": {"topology": "torus", "N": 2},
                "experiment": {"name": "pairwise", "params": {}},
                "replicas": 12}


def test_pairwise_experiment_runs_deterministically(tmp_path):
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli(tmp_path, PAIRWISE_CFG, "experiment", "--out", str(out),
                    timeout=120)
        assert r.returncode == 0, r.stdout + r.stderr
        reports.append((out / "report.json").read_bytes())
        rows = (out / "pairwise_times.csv").read_text().splitlines()
        assert rows[0] == "replica,rescaled_time"
        assert [int(row.split(",")[0]) for row in rows[1:]] == list(range(12))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["sample_size"] == 12


def test_pairwise_separation_of_wrong_length_exits_2(tmp_path):
    cfg = dict(PAIRWISE_CFG, experiment={"name": "pairwise",
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
    cfg = dict(PAIRWISE_CFG, experiment=experiment,
               geography={"topology": "torus", "N": N, "walk": STRIDE_3_WALK})
    r = run_cli(tmp_path, cfg, "experiment", timeout=120)
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "VALIDATION_ERROR"
    assert needle in payload["message"]
