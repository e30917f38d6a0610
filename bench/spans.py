"""Spans around every public function of the ``neutreno`` package.

The traced run measures each layer (module) from outside: ``rebound``
replaces every function listed in a module's ``__all__`` with a wrapper
that records a span, in every ``neutreno.*`` namespace that holds it.
That catches both ``module.func`` calls and names bound by
``from .linalg import max_pairwise_distance``.  Nothing under ``src/`` is
edited, and the original functions are put back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

# The layers whose numbers the benchmark reports; diagnostics, tensorfile
# and config are traced as well but no workload spends real time there.
LAYERS = ("cli", "stack", "dynamics", "random_walk", "attention", "functional", "linalg")

# Name of the span the benchmark opens around one whole operation.
OP_SPAN = "op"


class Tracer:
    """Keeps one span per call of a wrapped function, in memory.

    A span is ``(op, name, start, end, parent)``: ``op`` is the index of
    the benchmark operation the call belongs to, ``parent`` the index in
    ``spans`` of the span that was open when the call began, or -1.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, str, float, float, int] | None] = []
        self.op = 0
        self._open: list[int] = []

    def wrap(self, name: str, func):
        """Return ``func`` wrapped so that every call records a span."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)  # reserved so children index after it
            self._open.append(index)
            start = self.clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = self.clock()
                self._open.pop()
                self.spans[index] = (self.op, name, start, end, parent)

        return traced

    def write(self, path) -> None:
        """Write the spans as CSV: op, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,start,end,parent\n")
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op},{name},{start!r},{end!r},{parent}\n")


def public_functions(package: str = "neutreno"):
    """``(module, name, function)`` for each function a module of
    ``package`` lists in ``__all__`` and defines itself."""
    found = []
    for module in _modules(package):
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found.append((module, name, obj))
    return found


def _modules(package: str):
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


@contextlib.contextmanager
def rebound(tracer: Tracer, package: str = "neutreno"):
    """Trace every public function of the imported ``package`` modules.

    Yields the ``(module, attribute, original)`` bindings that were
    replaced; all of them are restored when the block exits.
    """
    wrappers = {}
    for module, _, func in public_functions(package):
        layer = module.__name__.rpartition(".")[2]
        wrappers[id(func)] = (func, tracer.wrap(f"{layer}.{func.__name__}", func))
    replaced = []
    for module in _modules(package):
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                replaced.append((module, attr, value))
    try:
        yield replaced
    finally:
        for module, attr, value in reversed(replaced):
            setattr(module, attr, value)


def self_times(spans):
    """Per span name: ``(calls, self seconds)`` summed over ``spans``.

    Self time is a span's duration minus the time covered by its child
    spans.  Spans of one thread nest, so children never overlap and the
    covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    for index, (_, name, start, end, _) in enumerate(spans):
        calls[name] += 1
        own[name] += (end - start) - covered[index]
    return dict(calls), dict(own)


def layer_totals(calls: dict[str, int], own: dict[str, float]):
    """Fold per-function ``self_times`` output into per-layer totals."""
    layer_calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    for name, count in calls.items():
        if name == OP_SPAN:
            continue
        layer = name.partition(".")[0]
        layer_calls[layer] += count
        layer_self[layer] += own[name]
    return dict(layer_calls), dict(layer_self)
