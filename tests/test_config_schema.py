"""`cli`'s table-driven config validator against the pydantic schema it
replaced (tests/config_oracle.py).

The corpus is every config of tests/test_cli.py, the `structure` config
the benchmark's CLI workload writes, README's quick-start config and the
tables below.  Where both accept a config, the validated values (and so
the config hash) are equal; where the oracle rejects one, the validator
rejects the same fields; and the configs only the oracle accepts are
exactly those of LAX, where pydantic coerced a value of another JSON type.
"""

import ast
import copy
import json
import math
import re
from pathlib import Path

import pytest

import config_oracle
import test_bench_config
import test_cli
from spatial_coalescent import cli

README = Path(__file__).resolve().parent.parent / "README.md"
KINGMAN = {"atoms": [[0.0, 1.0]]}
TORUS = {"topology": "torus", "N": 2}


def _experiment(name, **params):
    return {"seed": 1, "measure": KINGMAN, "geography": TORUS,
            "experiment": {"name": name, "params": params}}


# pydantic's lax mode took these as the value after the arrow; each is now
# a VALIDATION_ERROR
LAX = [
    {"seed": "7"},                                  # 7
    {"seed": True},                                 # 1
    {"seed": 7.0},                                  # 7
    {"seed": 1, "killing": 1},                      # true
    {"seed": 1, "killing": "yes"},                  # true
    {"seed": 1, "replicas": 3.0},                   # 3
    {"seed": 1, "horizon": "1.5"},                  # 1.5
    {"seed": 1, "horizon": True},                   # 1.0
    {"seed": 1, "geography": {"topology": "torus", "N": "4"}},      # 4
    {"seed": 1, "geography": {"topology": "torus", "N": 2,          # [[1]]
                              "walk": {"dimension": 1, "offsets": [[1.0]],
                                       "probabilities": [1]}}},
    _experiment("block_count", times=[True, 2.0]),  # [1.0, 2.0]
    _experiment("pairwise", separation=["1", 0, 0]),  # [1, 0, 0]
    _experiment("coupling", class_split=[[1]], t="1"),  # 1.0
]

INVALID = [
    [1], 3, None, "config",
    {},
    {"seed": "x"}, {"seed": 7.5}, {"seed": None}, {"seed": 1, "bogus": 1},
    {"seed": 1, "replicas": 0, "event_budget": -1, "n_per_site": 0},
    {"seed": 1, "out_dir": 3}, {"seed": 1, "horizon": "soon"},
    {"seed": 1, "horizon": 10 ** 400}, {"seed": 1, "killing": None},
    {"seed": 1, "probe_times": None}, {"seed": 1, "probe_times": [1, "x"]},
    {"seed": 1, "stop_blocks_at_most": 1.5}, {"seed": 1, "b_max_table": 1},
    # green has one route per walk, so it takes no method, not even null
    {"seed": 1, "dimension": 0}, {"seed": 1, "method": "NOPE"},
    {"seed": 1, "method": 3}, {"seed": 1, "method": None},
    {"seed": 1, "measure": []}, {"seed": 1, "measure": {"bogus": []}},
    {"seed": 1, "measure": {"atoms": [0]}},
    {"seed": 1, "measure": {"atoms": [[0, 1, 2]]}},
    {"seed": 1, "measure": {"atoms": [[]]}},
    {"seed": 1, "measure": {"atoms": [["a", 1], [0.5]]}},
    {"seed": 1, "measure": {"pieces": [{}]}},
    {"seed": 1, "measure": {"pieces": [{"interval": "x", "tag": 3,
                                        "bogus": 1}]}},
    {"seed": 1, "measure": {"pieces": [
        {"interval": [0, 1], "tag": "beta",
         "params": {"alpha": "x", "coefficients": [1, "x"], "b": None}}]}},
    {"seed": 1, "measure": {"pieces": [{"interval": [0, 1], "tag": "beta",
                                        "params": []}]}},
    {"seed": 1, "geography": {}}, {"seed": 1, "geography": []},
    {"seed": 1, "geography": {"topology": "torus", "walk": None}},
    {"seed": 1, "geography": {"topology": "torus", "N": 1.5, "sites": "x",
                              "kernel": [[1, "x"], 1], "bogus": 1}},
    {"seed": 1, "geography": {"topology": "torus", "walk": {
        "dimension": 1.5, "offsets": [[1.5], 1], "probabilities": "x",
        "bogus": 1}}},
    {"seed": 1, "experiment": {}}, {"seed": 1, "experiment": {"name": 3}},
    {"seed": 1, "experiment": {"name": "kappa", "params": None}},
    {"seed": 1, "experiment": {"name": "kappa", "bogus": 1}},
    _experiment("kappa", bogus=1),
    _experiment("hitting_time"), _experiment("hitting_time", n=1, k=1.5),
    _experiment("trend", n_grid=[4]), _experiment("trend", n_grid=[4, 4]),
    _experiment("trend", n_grid=[4, 0], t_probe="x"),
    _experiment("trend", n_grid=[4, 4], t_probe=-1),
    _experiment("trend", n_grid=[4, 8], t_probe=[1, -1]),
    _experiment("trend", n_grid=None, t_probe=[]),
    _experiment("pairwise", separation=[1.5], kappa_value=0),
    _experiment("pairwise", kappa_value=math.nan),
    _experiment("block_count", times=[]),
    _experiment("block_count", times=[1.0, 0.5], kappa_value=-1),
    _experiment("block_count", times=[0, "x"]),
    _experiment("structure", n_blocks=1),
    _experiment("structure", n_blocks=3, N=2),
    _experiment("coupling", class_split=[]),
    _experiment("coupling", class_split=[[0]]),
    _experiment("coupling", class_split=[[1, 3]]),
    _experiment("coupling", class_split=[[1, 3]], t=-1),
    _experiment("coupling", class_split=[[1, 2], [2, 3]]),
    _experiment("decay_shape", N_values=[], t_grid=[0.5, -1]),
    _experiment("decay_shape", N_values=[2]),
]

# checked here, and accepted by both, so that every field kind is compared
VALID = [
    _experiment("trend", n_grid=[4, 8], t_probe=[1, 2.5]),
    _experiment("trend", n_grid=[4, 8], t_probe=1),
    _experiment("pairwise", separation=[2, 0, 0], kappa_value=math.inf),
    _experiment("coupling", class_split=[[1, 2], [3]], t=2),
    _experiment("coupling", class_split=[[]]),
    _experiment("decay_shape", N_values=[1, 2], t_grid=[1]),
    {"seed": 10 ** 30, "horizon": math.nan, "probe_times": [1, math.inf],
     "stop_blocks_at_most": -3, "out_dir": "out", "dimension": None},
    {"seed": 1, "measure": {"atoms": [[0, 1]], "pieces": [
        {"interval": [0, 1], "tag": "polynomial",
         "params": {"coefficients": [1, 1], "level": 2}}]},
     "geography": {"topology": "graph", "kernel": [[1]], "N": None,
                   "walk": {"dimension": 2, "offsets": [[1, 0], [0, 1]],
                            "probabilities": [0.5, 0.5]}}},
    {"seed": 1, "experiment": {"name": "unknown", "params": {"x": [1, "a"]}}},
]

RUN_FIELDS = set(cli._RUN_FIELDS)


def _test_cli_configs():
    """The configs written in tests/test_cli.py: each dict display there
    that is a run config, or a part of one (an experiment section, a
    geography, or top-level fields set on top of a seed)."""
    tree = ast.parse(Path(test_cli.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        try:
            d = eval(compile(ast.Expression(node), "test_cli.py", "eval"),
                     vars(test_cli))
        except NameError:
            continue   # built from a test's arguments, whose dicts are here
        if "seed" in d:
            found.append(d)
        elif "name" in d:
            found.append(dict(test_cli.EXP_CFG, experiment=d))
        elif "topology" in d:
            found.append({"seed": 1, "measure": KINGMAN, "geography": d})
        elif set(d) <= RUN_FIELDS:
            found.append({"seed": 1, **d})
    return found


def _readme_config():
    block = re.search(r"cat > config\.json <<'EOF'\n(.*?)\nEOF",
                      README.read_text(), re.S)
    return json.loads(block.group(1))


def _bench_config(tmp_path):
    workload = test_bench_config._load_workloads().TorusStructureCli(
        pkg=None, seed=0, seconds=1.0, workdir=str(tmp_path))
    _tmp, path = workload.setup(0)
    return json.loads(Path(path).read_text())


def _validate(raw):
    """(config, params, violations) from `cli`, as `coalsim experiment`
    checks a config: the run config, then a known experiment's params."""
    try:
        cfg = cli._validate(cli._RUN, raw)
        exp = cfg["experiment"]
        entry = cli._EXPERIMENTS.get(exp["name"]) if exp else None
        params = None if entry is None else cli._validate(
            entry[0], exp["params"], "experiment", "params")
    except cli._ConfigError as e:
        return None, None, e.violations
    return cli.ArtifactWriter(cfg).config, params, []


_UNION_MEMBERS = {"float", "list[float]", "constrained-float",
                  "list[constrained-float]"}


def _oracle_paths(errors):
    """The oracle's dotted paths without union-member segments.  A union
    reports once per member; of those, the deepest path is the field."""
    paths = {".".join(seg for seg in path.split(".")
                      if seg not in _UNION_MEMBERS) for path, _msg in errors}
    return {p for p in paths
            if not any(q.startswith(p + ".") or (not p and q) for q in paths)}


def _paths(violations):
    paths = {v.split(": ", 1)[0] for v in violations}
    return {"" if p == "config" else p for p in paths}


def _params_nulled(cfg):
    """`cfg` with each non-finite number in experiment.params as null, as
    pydantic dumped an untyped field.  The validator keeps the number that
    the params check reads; neither side sees one from a config file, since
    `cli.parse_config` refuses NaN, Infinity and overflowing numbers as it
    reads the file."""
    if cfg["experiment"] is None:
        return cfg
    params = json.loads(json.dumps(cfg["experiment"]["params"]),
                        parse_constant=lambda _token: None)
    return {**cfg, "experiment": {**cfg["experiment"], "params": params}}


def _canonical(value):
    return json.dumps(value, sort_keys=True)


def _compare(raw):
    """"both", "oracle" or "neither": which side accepts `raw`, after the
    checks that tie the two sides together."""
    ref_cfg, ref_params, ref_errors = config_oracle.validate(
        copy.deepcopy(raw))
    before = _canonical(raw)
    cfg, params, violations = _validate(raw)
    assert _canonical(raw) == before, "the validator changed its input"
    if not ref_errors and not violations:
        assert _canonical(_params_nulled(cfg)) == _canonical(ref_cfg)
        assert _canonical(params) == _canonical(ref_params)
        return "both"
    if ref_errors:
        assert violations, f"only the validator accepts {raw!r}"
        assert _paths(violations) == _oracle_paths(ref_errors), (
            violations, ref_errors)
        return "neither"
    return "oracle"


def test_corpus_covers_the_cli_tests():
    configs = _test_cli_configs()
    assert len(configs) >= 60
    assert {_compare(raw) for raw in configs} == {"both", "neither"}


def test_bench_and_readme_configs_validate_alike(tmp_path):
    for raw in (_bench_config(tmp_path), _readme_config()):
        assert _compare(raw) == "both"


@pytest.mark.parametrize("raw", INVALID, ids=range(len(INVALID)))
def test_invalid_configs_fail_on_the_same_fields(raw):
    assert _compare(raw) == "neither"


@pytest.mark.parametrize("raw", VALID, ids=range(len(VALID)))
def test_valid_configs_give_the_oracle_values(raw):
    assert _compare(raw) == "both"


@pytest.mark.parametrize("raw", LAX, ids=range(len(LAX)))
def test_only_the_oracle_takes_a_value_of_another_json_type(raw):
    assert _compare(raw) == "oracle"
    # one violation, at the coerced value
    assert len(_validate(raw)[2]) == 1
