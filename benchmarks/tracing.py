"""In-process tracing of orthobox's layers, installed from outside the package.

``instrument(tracer)`` wraps the public functions of each orthobox module
(and the few methods that are layer boundaries) and rebinds every name in
every ``orthobox.*`` module that refers to the original, so calls made
through ``from .x import f`` are seen too.  Leaving the context restores
every binding.  The program's code is not edited.

A span records name, start, end, parent span and invocation id; spans are
kept in flat arrays and written out once, after the run.  A layer's self
time is the time its spans cover minus the time covered by their direct
child spans.  ``SplitMix64.next_u64`` is too hot for spans and only counts.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Module -> layer for the blanket "every public function" rule.
MODULE_LAYERS = {
    "orthobox.scenario": "scenario",
    "orthobox.behavior": "behavior",
    "orthobox.linprog": "linprog",
    "orthobox.theorem": "theorem",
    "orthobox.protocols": "protocols",
    "orthobox.quantumref": "quantumref",
}
# Functions that sit in another layer than their module's, and the model
# entry points (models.base also holds plan parsing, left to the cli layer).
FUNCTION_LAYERS = {
    ("orthobox.protocols", "simulate_fable"): "models.sample",
    ("orthobox.models.base", "enumerate_histories"): "models.enumerate",
    ("orthobox.models.base", "exact_distribution"): "models.enumerate",
    ("orthobox.models.base", "sample_history"): "models.sample",
}
METHOD_LAYERS = {
    ("orthobox.models.base", "Session", "measure"): "models.sample",
    ("orthobox.models.seer", "SeerModel", "step"): "models.step",
    ("orthobox.models.firefly", "FireflyModel", "step"): "models.step",
    ("orthobox.models.lsw", "LswModel", "step"): "models.step",
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.invocation = array("i")
        self.child = array("d")  # time covered by direct children
        self._stack: list[int] = []
        self.invocation_id = -1
        self.counters: Counter = Counter()
        self.draws = 0
        self.step_keys: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.invocation.append(self.invocation_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> float:
        now = perf_counter()
        self.end[i] = now
        self._stack.pop()
        duration = now - self.start[i]
        if self.parent[i] >= 0:
            self.child[self.parent[i]] += duration
        return duration

    def layer_totals(self) -> tuple[Counter, Counter]:
        """(self seconds, span count) per layer."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        layers = [n.split("/", 1)[0] for n in self.names]
        for nid, s, e, c in zip(self.name, self.start, self.end, self.child):
            layer = layers[nid]
            self_s[layer] += e - s - c
            calls[layer] += 1
        return self_s, calls

    def span_count(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.name.count(nid)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as out:
            out.write("invocation,span,parent,name,start,end\n")
            for i, (inv, nid, parent, s, e) in enumerate(
                zip(self.invocation, self.name, self.parent, self.start, self.end)
            ):
                out.write(f"{inv},{i},{parent},{self.names[nid]},{s!r},{e!r}\n")


def _spanned(tracer: Tracer, name: str, fn, after=None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.close(i)
        if after is not None:
            after(args, result, duration)
        return result

    return wrapper


def _step_wrapper(tracer: Tracer, name: str, fn):
    inner = _spanned(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(self, state, query):
        # A memo would key on the model's parameters, the state and the query.
        model = (type(self).__name__, getattr(self, "flavor", None), tuple(getattr(self, "marginals", {}).items()))
        tracer.step_keys.add((tracer.invocation_id, model, state, query))
        return inner(self, state, query)

    return wrapper


def _hooks(tracer: Tracer) -> dict:
    c = tracer.counters

    def histories(args, result, duration):
        c["models.enumerate.histories"] += len(result)

    def sampled(args, result, duration):
        c["models.sample.trials"] += 1
        c["models.sample.forbidden"] += result.forbidden

    def fable(args, result, duration):
        c["models.sample.trials"] += result.trials

    def assignments(args, result, duration):
        c["behavior.assignments"] += len(result)

    def simplex(args, result, duration):
        columns, target = args[0], args[1]
        solution, _ = result
        c["linprog.rows"] += len(target)
        c["linprog.columns"] += len(columns)
        if solution is not None:
            c["linprog.feasible_s"] += duration
            c["linprog.feasible_columns"] += len(columns)
            c["linprog.support"] += len(solution)
        else:
            c["linprog.infeasible_s"] += duration

    def sweep(args, result, duration):
        c["theorem.points"] += len(result)

    return {
        "enumerate_histories": histories,
        "sample_history": sampled,
        "simulate_fable": fable,
        "admissible_assignments": assignments,
        "feasible_combination": simplex,
        "sweep_gap": sweep,
    }


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            inspect.isfunction(value)
            and value.__module__ == module.__name__
            and not attr.startswith("_")
            and not inspect.isgeneratorfunction(value)
        ):
            yield attr, value


@contextmanager
def instrument(tracer: Tracer):
    """Wrap orthobox's layer boundaries for the duration of the block."""
    modules = [m for name, m in list(sys.modules.items()) if name == "orthobox" or name.startswith("orthobox.")]
    hooks = _hooks(tracer)
    targets = []  # (original, layer)
    for module_name, layer in MODULE_LAYERS.items():
        for attr, fn in _public_functions(sys.modules[module_name]):
            targets.append((fn, FUNCTION_LAYERS.get((module_name, attr), layer)))
    for (module_name, attr), layer in FUNCTION_LAYERS.items():
        fn = getattr(sys.modules[module_name], attr)
        if all(fn is not t for t, _ in targets):
            targets.append((fn, layer))

    restore = []  # (owner, attr, original)
    try:
        for fn, layer in targets:
            wrapper = _spanned(tracer, f"{layer}/{fn.__name__}", fn, hooks.get(fn.__name__))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        restore.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        for (module_name, cls_name, attr), layer in METHOD_LAYERS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            fn = cls.__dict__[attr]
            name = f"{layer}/{cls_name}.{attr}"
            wrapper = _step_wrapper(tracer, name, fn) if attr == "step" else _spanned(tracer, name, fn)
            restore.append((cls, attr, fn))
            setattr(cls, attr, wrapper)

        rng_cls = sys.modules["orthobox.rng"].SplitMix64
        next_u64 = rng_cls.__dict__["next_u64"]

        @functools.wraps(next_u64)
        def counted(self):
            tracer.draws += 1
            return next_u64(self)

        restore.append((rng_cls, "next_u64", next_u64))
        rng_cls.next_u64 = counted
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
