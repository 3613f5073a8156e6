import hashlib
import json
import os

import pytest
from click.testing import CliRunner

from conftest import coalsim
from spatial_coalescent import cli


def run_cli(tmp_path, cfg, *args):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return coalsim(*args, "--config", path)


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
                                  ("classify", "--budget", "3")])
def test_option_without_effect_is_usage_error(tmp_path, args):
    r = run_cli(tmp_path, {"seed": 1, "measure": KINGMAN}, *args)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "No such option" in r.stderr


def test_kernel_tolerances_rejected(tmp_path):
    r = run_cli(tmp_path, {"seed": 1, "measure": KINGMAN,
                           "kernel": {"abs_tol": 1e-14}}, "rates")
    assert r.returncode == 2, r.stdout + r.stderr
    assert "abs_tol" in json.loads(r.stdout)["message"]


def test_nonpositive_replicas_rejected(tmp_path):
    r = run_cli(tmp_path, {"seed": 1, "measure": KINGMAN, "replicas": 0},
                "classify")
    assert r.returncode == 2, r.stdout + r.stderr


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
    assert set(payload) >= {"estimate", "error", "method", "budget"}
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


# ---------------------------------------------------------------- artifacts

EXP_CFG = {"seed": 9, "measure": KINGMAN,
           "geography": {"topology": "complete", "sites": 4},
           "experiment": {"name": "hitting_time", "params": {"n": 10, "k": 2}},
           "replicas": 40}


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
                   "experiment": {"name": "block_count",
                                  "params": {"n_per_site": 3,
                                             "times": [0.8, 1.6]}},
                   "replicas": 30}


@pytest.mark.parametrize("cfg, phases", [
    (EXP_CFG, set()),
    (BLOCK_COUNT_CFG, {"kappa_s", "sampling_s", "reference_s"}),
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


def test_manifest_round_trip(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    r = run_cli(tmp_path, EXP_CFG, "experiment", "--out", str(out1))
    assert r.returncode == 0, r.stdout + r.stderr
    embedded = json.loads((out1 / "manifest.json").read_text())["config"]
    r2 = run_cli(tmp_path, embedded, "experiment", "--out", str(out2))
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
])
def test_bad_experiment_params_exit_2(tmp_path, experiment, needle):
    r = run_cli(tmp_path, dict(EXP_CFG, experiment=experiment), "experiment")
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "VALIDATION_ERROR"
    assert needle in payload["message"]
