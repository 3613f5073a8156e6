"""The benchmark's span tracer must still find every name it wraps.

bench/spans.py patches public names of the six package modules by name, so
renaming or deleting one of them breaks the traced benchmark.  The
benchmark's own tests are not part of this suite; this test loads the
tracer by file path (it imports only the standard library) and installs it
on the package.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

from click.testing import CliRunner

import spatial_coalescent.cli as cli
import spatial_coalescent.engine as engine
import spatial_coalescent.experiments as experiments
import spatial_coalescent.geometry as geometry
import spatial_coalescent.measure as measure
import spatial_coalescent.rates as rates

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
MODULES = (measure, rates, geometry, engine, experiments, cli)
CLASSES = (rates.RateKernel, geometry.GeographySpec)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_on_the_package(tmp_path):
    originals = [dict(vars(owner)) for owner in MODULES + CLASSES]
    tracer = _load_spans().Tracer()
    pkg = SimpleNamespace(measure=measure, rates=rates, geometry=geometry,
                          engine=engine, experiments=experiments, cli=cli)
    try:
        tracer.install(pkg)
        for name in ("integrate_vector", "mass"):
            assert getattr(measure, name).__wrapped__ is originals[0][name]
        assert rates.RateKernel.__dict__["ensure_b"].__wrapped__ is \
            originals[len(MODULES)]["ensure_b"]
        # the `structure` experiment runs through the name that the tracer
        # wrapped in cli, so its span records the call
        structure = originals[MODULES.index(experiments)][
            "partition_structure_experiment"]
        assert cli.partition_structure_experiment.__wrapped__ is structure
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 1, "measure": {"atoms": [[0.0, 1.0]]}, "replicas": 2,
            "geography": {"topology": "torus", "N": 1},
            "experiment": {"name": "structure",
                           "params": {"n_blocks": 2, "kappa_value": 0.5}}}))
        r = CliRunner().invoke(cli.main.__wrapped__,
                               ["experiment", "--config", str(config)])
        assert r.exit_code == 0, r.output
        assert tracer.calls("experiments.structure_stats") == 1
    finally:
        tracer.restore()
    for owner, before in zip(MODULES + CLASSES, originals):
        after = vars(owner)
        assert set(after) == set(before), owner
        assert all(after[name] is value for name, value in before.items()), owner
