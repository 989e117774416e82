"""Outside-in tracing of patchepi's public functions.

Tracer.install() replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent), in every module
namespace that holds a reference to it. That covers calls through another
module (sim's `build_rhs`, persist's `classify_pattern`) and calls inside
a module through its own globals (`hiv_lambda_roots` inside `estimate_Rc`).
The RHS closure returned by `build_rhs` is counted without spans: a single
trajectory evaluates it hundreds of thousands of times.

Spans are kept in flat arrays in memory and written out by write_spans.
"""
from __future__ import annotations

import inspect
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "equilibria", "persist", "network", "continuation", "sim",
          "model", "matalg")


def _layer_functions(mod):
    """Public functions defined in the module itself.

    For cli only the entry point and the subcommands: its formatting
    helpers run once per report value and would only measure the tracer.
    """
    short = mod.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(mod).items()):
        if (name.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__):
            continue
        if short == "cli" and not (name == "main" or name.startswith("cmd_")):
            continue
        yield f"{short}.{name}", obj


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = [-1]
        self._wrappers = {}       # id of the original function -> wrapper
        self._patched = []

    # ---------------------------------------------------------------- spans
    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        observe = _OBSERVERS.get(qualname)
        name_of, parent, start, end = (self.name_of, self.parent, self.start,
                                       self.end)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                return observe(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, package):
        """Patch every reference to a layer function in every layer module.

        Wrappers are made on the first install and reused after an
        uninstall, so spans of several traced calls share one name table.
        """
        modules = [getattr(package, name) for name in LAYERS]
        if not self._wrappers:
            for mod in modules:
                for qualname, fn in _layer_functions(mod):
                    self._wrappers[id(fn)] = self._wrap(qualname, fn)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    # ------------------------------------------------------------- summaries
    def summary(self) -> dict:
        """{name: {"calls", "total_s", "self_s"}} over all recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_of[i]]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        return out

    def write_spans(self, path: str):
        """Compressed .npz: name table, and per span its name index, parent
        index (-1 at the top) and start/end seconds from the first span."""
        import numpy as np
        start = np.frombuffer(self.start, dtype=float)
        t0 = start[0] if start.size else 0.0
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int64).astype(np.int32),
            parent=np.frombuffer(self.parent,
                                 dtype=np.int64).astype(np.int32),
            start=start - t0,
            end=np.frombuffer(self.end, dtype=float) - t0)


# ------------------------------------------------------------------ observers
# Called with the return value of a traced call; they count what the
# arguments and results show and hand the result back (possibly wrapped).

def _observe_build_rhs(tracer, args, kwargs, rhs):
    counts = tracer.counts

    def counted_rhs(X):
        counts["sim.rhs.calls"] += 1
        return rhs(X)

    return counted_rhs


def _observe_integrate(tracer, args, kwargs, traj):
    tracer.counts["sim.accepted_steps"] += len(traj.times) - 1
    return traj


def _observe_generic(tracer, args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    tracer.counts["equilibria.generic_seeds"] += 3 ** model.size
    tracer.counts["equilibria.generic_roots"] += len(result[0])
    return result


def _observe_branch(tracer, args, kwargs, record):
    tracer.counts["continuation.branches_complete"] += record.failure is None
    return record


_OBSERVERS = {
    "continuation.build_rhs": _observe_build_rhs,
    "sim.integrate": _observe_integrate,
    "equilibria.endemic_equilibria_generic": _observe_generic,
    "continuation.continue_branch": _observe_branch,
}
