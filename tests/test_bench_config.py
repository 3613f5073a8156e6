"""The config that the benchmark's CLI workload writes must stay valid.

`torus_structure_cli` in bench/workloads.py writes a `structure` config and
runs `coalsim experiment` on it, so a schema change that rejects it breaks
the benchmark.  The benchmark's own tests are not part of this suite; this
test loads bench/workloads.py by file path, with bench/ on `sys.path` only
while it imports (it imports its sibling `oracles`).
"""

import importlib.util
import sys
from pathlib import Path

from conftest import coalsim

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    saved_path, saved_oracles = list(sys.path), sys.modules.get("oracles")
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while the class is made
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        sys.modules.pop("bench_workloads", None)
        if saved_oracles is None:
            sys.modules.pop("oracles", None)
        else:
            sys.modules["oracles"] = saved_oracles
    return module


def test_structure_cli_config_runs(tmp_path):
    workload = _load_workloads().TorusStructureCli(
        pkg=None, seed=0, seconds=1.0, workdir=str(tmp_path))
    _tmp, path = workload.setup(0)
    r = coalsim("experiment", "--config", path, "--replicas", "5",
                "--out", tmp_path / "out")
    assert r.returncode == 0, r.stdout + r.stderr
    assert (tmp_path / "out" / "report.json").is_file()
