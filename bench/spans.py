"""Span tracing from outside the package.

`Tracer.install()` replaces public functions and methods of
`spatial_coalescent` with wrappers that record a span around each call;
`Tracer.restore()` puts the originals back.  Nothing is patched during an
untraced run.

Spans are aggregated as they close rather than kept one by one: the torus
workload makes millions of `sample_move` calls per run.  For each span name
the tracer keeps the call count, the inclusive seconds of its outermost
spans (a recursive call is not counted twice) and the self seconds, which
is a span's duration minus the time covered by its child spans.  The self
seconds of all spans add up to the time spent inside the outermost spans.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, inclusive_s, self_s]
        self._stack: list[list] = []       # open spans: [name, start, child_s]
        self._depth: dict[str, int] = {}   # open spans per name
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, _now(), 0.0])

    def _exit(self) -> None:
        end = _now()
        name, start, child = self._stack.pop()
        dur = end - start
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[2] += dur - child
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            rec[1] += dur
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _wrapper(self, fn, name):
        enter, exit_ = self._enter, self._exit
        if callable(name):
            namer = name

            def wrapped(*args, **kwargs):
                enter(namer(*args, **kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        else:
            def wrapped(*args, **kwargs):
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        wrapped.__wrapped__ = fn
        return wrapped

    # -- patching ---------------------------------------------------------

    def wrap_function(self, module, attr: str, name) -> None:
        """Wrap `module.attr` in every package module that imported it."""
        original = getattr(module, attr)
        wrapped = self._wrapper(original, name)
        prefix = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != prefix:
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def wrap_method(self, cls, attr: str, name) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, pkg) -> None:
        """Span every public call the workloads make into the six layers."""
        measure, rates, geometry = pkg.measure, pkg.rates, pkg.geometry
        engine, experiments, cli = pkg.engine, pkg.experiments, pkg.cli
        self.wrap_function(measure, "integrate_vector", "measure.integrate_vector")
        self.wrap_function(measure, "mass", "measure.mass")
        self.wrap_method(rates.RateKernel, "__init__", "rates.kernel_init")
        self.wrap_method(rates.RateKernel, "ensure_b", "rates.ensure_b")
        self.wrap_method(rates.RateKernel, "lambda_bk_row", "rates.bk_row")
        self.wrap_method(rates.RateKernel, "merge_size_cumulative", "rates.merge_row")
        self.wrap_function(rates, "cdi_classify", "rates.classify")
        self.wrap_function(geometry, "build_torus", "geometry.build_torus")
        self.wrap_function(
            geometry, "green_function",
            lambda walk, method="LATTICE_SUM", **_: (
                "geometry.green_mc" if method == "MONTE_CARLO"
                else "geometry.green_lattice"))
        self.wrap_method(geometry.GeographySpec, "sample_move", "geometry.sample_move")
        self.wrap_function(engine, "simulate", "engine.simulate")
        self.wrap_function(experiments, "torus_kappa", "experiments.torus_kappa")
        self.wrap_function(experiments, "few_block_torus_sample",
                           "experiments.few_block_sample")
        self.wrap_function(experiments, "partition_structure_experiment",
                           "experiments.structure_stats")
        self.wrap_function(cli, "main", "cli.main")

    # -- readout ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self(self, layer: str) -> float:
        """Self seconds of every span whose name starts with `layer.`."""
        return sum(rec[2] for name, rec in self.stats.items()
                   if name.split(".")[0] == layer)

    def snapshot(self) -> dict:
        return {name: list(rec) for name, rec in self.stats.items()}
