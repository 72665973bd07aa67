"""Span tracing of fourvel's layers, done from outside the package.

`patched(tracer)` rebinds every public fourvel function in the namespaces of
the modules that use it, both the ones a module imports from another module
(`fourvel.runner.kg_residual`, `fourvel.velocityfield.differentiate`) and the
module's own global (`fourvel.dirac.gamma_matrices`, which `dirac_residual`
rebuilds on every call). Objects returned by the fixture and potential
factories get their evaluators wrapped too, so time spent in a wavefunction's
`psi` or a gauge function's `grad4` is charged to the module that defined it.
Everything is restored when the context exits.

Spans are kept in memory as four flat arrays (name id, start, end, parent
index) and written out with `write()` at the end of the run.
"""
from __future__ import annotations

import dataclasses
import importlib
import types
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Layers in dependency order; `cli` is only a front end and never runs in a
# pass, so it has no spans.
MODULES = ("core4", "wavefunctions", "fields", "velocityfield", "dirac",
           "worldline", "runner")

_MARK = "__perfbench_span__"


def _rows(args) -> int:
    """Points one evaluator call covers: array rows, or 1 for an Event."""
    shape = getattr(args[0], "shape", ()) if args else ()
    return int(shape[0]) if len(shape) >= 2 else 1


class Tracer:
    def __init__(self):
        from fourvel import fields, wavefunctions
        self._classes = (wavefunctions.ScalarWave, wavefunctions.SpinorWave,
                         fields.PotentialField, fields.GaugeFunction)
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points: list = []      # per name id; fixture evaluators only
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.points.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, count_points: bool = False,
             factory: bool = False):
        """Record a span around each call of fn. A factory's result gets its
        evaluators wrapped as well, charged to the factory's module."""
        if getattr(fn, _MARK, False):
            return fn
        nid = self._id(name)
        module = name.split(".", 1)[0]
        instrument = self.instrument if factory else None
        stack, points = self._stack, self.points
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)

        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if count_points:
                points[nid] += _rows(args)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            return instrument(result, module) if instrument else result

        setattr(span, _MARK, True)
        span.__wrapped__ = fn
        return span

    def instrument(self, obj, module: str):
        """Wrap the evaluators of a fixture, potential or gauge function."""
        ScalarWave, SpinorWave, PotentialField, GaugeFunction = self._classes
        if isinstance(obj, ScalarWave):
            count = module == "wavefunctions"
            kw = {k: self.wrap(f"{module}.fixture.{k}", getattr(obj, k), count)
                  for k in ("psi", "grad4", "laplace4", "hess4")
                  if getattr(obj, k) is not None}
            return dataclasses.replace(obj, **kw)
        if isinstance(obj, SpinorWave):
            return dataclasses.replace(obj, components=tuple(
                self.instrument(c, module) for c in obj.components))
        if isinstance(obj, PotentialField):
            return PotentialField(obj.kind,
                                  self.wrap(f"{module}.potential.a", obj.a),
                                  self.wrap(f"{module}.potential.grad", obj.grad),
                                  obj.params)
        if isinstance(obj, GaugeFunction):
            return dataclasses.replace(obj, **{
                k: self.wrap(f"{module}.gauge.{k}", getattr(obj, k))
                for k in ("chi", "grad4", "hess4")})
        if isinstance(obj, tuple) and any(
                isinstance(x, (ScalarWave, SpinorWave, PotentialField))
                for x in obj):
            return tuple(self.instrument(x, module) for x in obj)
        return obj

    def summary(self) -> dict:
        """Self time, span count and fixture points per module and name."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = np.bincount(name_id, weights=dur - child,
                                minlength=len(self.names))
        calls = np.bincount(name_id, minlength=len(self.names))
        modules = {m: {"self_s": 0.0, "calls": 0, "points": 0} for m in MODULES}
        by_name = {}
        for nid, name in enumerate(self.names):
            agg = modules[name.split(".", 1)[0]]
            agg["self_s"] += float(self_time[nid])
            agg["calls"] += int(calls[nid])
            agg["points"] += self.points[nid]
            by_name[name] = int(calls[nid])
        return {"modules": modules, "calls": by_name, "spans": int(len(dur))}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


@contextmanager
def patched(tracer: Tracer):
    """Route every public fourvel function through `tracer` while active."""
    bindings = []
    wrappers = {}
    for short in MODULES:
        mod = importlib.import_module(f"fourvel.{short}")
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith("fourvel.")):
                continue
            if obj not in wrappers:
                origin = obj.__module__.split(".", 1)[1]
                wrappers[obj] = tracer.wrap(
                    f"{origin}.{obj.__name__}", obj,
                    factory=origin in ("wavefunctions", "fields"))
            bindings.append((mod, attr, obj))
    for mod, attr, obj in bindings:
        setattr(mod, attr, wrappers[obj])
    try:
        yield tracer
    finally:
        for mod, attr, obj in bindings:
            setattr(mod, attr, obj)
