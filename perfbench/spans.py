"""Spans recorded from outside ``poissonops``, around each layer's public calls.

``Tracer.install`` replaces every function named in a layer module's
``__all__`` (for ``core``, which has none, its public module-level functions)
with a timing wrapper, at every binding of that function object across the
loaded ``poissonops.*`` modules, so calls between modules and within one
module both pass through it.  ``DynBCProblem.solve`` and
``RademacherSampler.unit`` are wrapped on their classes.  Classes and kernel
instances listed in ``__all__`` stay as they are: replacing a class would
break ``isinstance`` and dataclass helpers.

A span is ``(name, layer, start, end, parent, job)``; ``parent`` is the index
of the enclosing span or -1.  Spans nest through one stack for all threads.
That is exact because the benchmark pins ``POISSONOPS_WORKERS=1``: the CLI's
scan pool then runs one task at a time while its caller waits, so no two
traced calls overlap unless one encloses the other.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import types
from collections import defaultdict

LAYERS = ("core", "symbols", "transforms", "norms", "rbound", "dynbc", "cli")
METHODS = (("dynbc", "DynBCProblem", "solve"), ("rbound", "RademacherSampler", "unit"))

# (metric, unit) in the order they are reported; see README.md for which
# end-to-end number each should move
PER_LAYER = (
    *((f"{layer}.{kind}", unit) for layer in LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))),
    ("dynbc.solve.calls", "count"),
    ("dynbc.solve.p50_ms", "ms"),
    ("dynbc.solve.p90_ms", "ms"),
    ("dynbc.dirichlet_resolvent.s", "s"),
    ("dynbc.dirichlet_resolvent.calls", "count"),
    ("dynbc.implicit_euler_evolve.s", "s"),
    ("rbound.rbound_lower.s", "s"),
    ("rbound.rbound_lower.calls", "count"),
    ("rbound.sampler_draws", "count"),
    ("cli.rbound_batch_scan.s", "s"),
    ("transforms.apply_poisson.s", "s"),
    ("transforms.apply_poisson.calls", "count"),
    ("norms.field_norm.s", "s"),
    ("norms.field_norm.calls", "count"),
    ("norms.mixed_norm.s", "s"),
    ("norms.lp_norm.calls", "count"),
    ("norms.opnorm_hilbert.s", "s"),
    ("norms.opnorm_hilbert.calls", "count"),
    ("symbols.seminorm.s", "s"),
    ("symbols.seminorm.calls", "count"),
)


def _public_functions(mod: types.ModuleType) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items()
                 if not n.startswith("_") and getattr(v, "__module__", None) == mod.__name__]
    return [n for n in names if isinstance(getattr(mod, n), types.FunctionType)]


class Tracer:
    """Installs span wrappers on the poissonops layers and keeps the spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self.job = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, self.job)

        return traced

    def install(self) -> None:
        layer_mods = {layer: importlib.import_module(f"poissonops.{layer}") for layer in LAYERS}
        package = [m for n, m in list(sys.modules.items())
                   if n == "poissonops" or n.startswith("poissonops.")]
        for layer, mod in layer_mods.items():
            for name in _public_functions(mod):
                fn = getattr(mod, name)
                wrapped = self._wrap(layer, name, fn)
                for owner in package:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._saved.append((owner, attr, fn))
                            setattr(owner, attr, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(layer_mods[layer], cls_name)
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(layer, meth, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(i)
    out = []
    for i, (_, _, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in children.get(i, ()):  # in start order
            lo, hi = max(spans[c][2], reach), min(spans[c][3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list, selfs: list[float]) -> dict[str, tuple[float, int]]:
    """Per-layer metrics of one pass as ``name -> (value, sample count)``."""
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    for (name, layer, start, end, _, _), self_s in zip(spans, selfs):
        own[layer] += self_s
        calls[layer] += 1
        durations[f"{layer}.{name}"].append(end - start)
    solve_ms = [1e3 * d for d in durations["dynbc.solve"]]

    out: dict[str, tuple[float, int]] = {}
    for metric, _ in PER_LAYER:
        key, kind = metric.rsplit(".", 1)
        if metric == "rbound.sampler_draws":
            n = len(durations["rbound.unit"])
            out[metric] = (n, n)
        elif key in LAYERS:
            out[metric] = (own[key] if kind == "self_s" else calls[key], calls[key])
        elif kind in ("p50_ms", "p90_ms"):
            out[metric] = (_percentile(solve_ms, int(kind[1:3])), len(solve_ms))
        else:
            n = len(durations[key])
            out[metric] = (sum(durations[key], 0.0) if kind == "s" else n, n)
    return out
