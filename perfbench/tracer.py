"""Span tracing of parsym from outside the library.

``Tracer.install`` rebinds, in every parsym module and class, each public
module function, each ``lru_cache``-wrapped function (so that calls that
reach a module's caches from another module are charged to that module),
the ``PartitionDiagram`` constructor and the arithmetic of
``LinearCombination``.  Every binding of a wrapped object is replaced, which
covers the copies made by ``from .diagrams import tensor`` and by the
``_mul_key`` class attributes.

Each call is one span.  Self time (span time minus child spans), calls and
exceptions are kept for every span name.  Spans that cross from one layer
into another are also stored (name, layer, start, end, parent), up to a cap,
and written out after the job.  A function that returns a generator is
timed on every resume, and its items are counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter
from types import GeneratorType

LAYERS = ("cli", "diagrams", "families", "sequences", "closures", "algebra", "linear", "nsym", "hopfcheck")
LINEAR_METHODS = ("__init__", "__add__", "__sub__", "__neg__", "__rmul__", "__mul__", "zero", "basis", "coefficient")
MAX_STORED_SPANS = 100_000
# node_name runs once per node of every rendered diagram; a wrapper there
# would cost more than the function and its cost would be charged to render
UNWRAPPED = ("diagrams.node_name",)

_CACHE_TYPE = functools._lru_cache_wrapper


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.errors: list[int] = []
        self.yielded: list[int] = []
        self.entries: list[int] = []
        # one frame per open span: [child time, layer index, stored span index]
        self.stack: list[list] = [[0.0, -1, -1]]
        self.spans: list = []
        self.dropped = 0
        self.counters = {"linear.mul.term_pairs": 0, "families.family_member.accepted": 0}
        self.caches: dict[str, _CACHE_TYPE] = {}

    def _wrap(self, fn, name: str):
        fn = self._counting(name, fn)
        layer = LAYERS.index(name.split(".")[0])
        idx = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        for column in (self.calls, self.errors, self.yielded, self.entries):
            column.append(0)
        self.self_s.append(0.0)
        stack, spans = self.stack, self.spans
        calls, self_s, errors, entries = self.calls, self.self_s, self.errors, self.entries
        traced_gen = self._traced_gen

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            stored = -1
            if parent[1] != layer:
                entries[idx] += 1
                if len(spans) < MAX_STORED_SPANS:
                    stored = len(spans)
                    spans.append(None)
                else:
                    self.dropped += 1
            frame = [0.0, layer, stored if stored >= 0 else parent[2]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                self_s[idx] += elapsed - frame[0]
                parent[0] += elapsed
                calls[idx] += 1
                if stored >= 0:
                    spans[stored] = (idx, t0, t1, parent[2])
            if type(result) is GeneratorType:
                return traced_gen(result, idx, layer)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _traced_gen(self, gen, idx: int, layer: int):
        stack, self_s, errors, yielded = self.stack, self.self_s, self.errors, self.yielded
        while True:
            parent = stack[-1]
            frame = [0.0, layer, parent[2]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self_s[idx] += elapsed - frame[0]
                parent[0] += elapsed
            yielded[idx] += 1
            yield item

    def _counting(self, name: str, fn):
        """Add the counters that need arguments or results."""
        counters = self.counters
        if name == "linear.mul":

            def mul(a, b):
                if type(b) is type(a):
                    counters["linear.mul.term_pairs"] += len(a.terms) * len(b.terms)
                return fn(a, b)

            return functools.update_wrapper(mul, fn)
        if name == "families.family_member":

            def member(d, family):
                accepted = fn(d, family)
                if accepted:
                    counters["families.family_member.accepted"] += 1
                return accepted

            return functools.update_wrapper(member, fn)
        return fn

    def install(self) -> None:
        """Wrap the traced objects of every loaded parsym module."""
        replaced: dict[int, object] = {}
        for short in LAYERS:
            module = sys.modules[f"parsym.{short}"]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                cached = isinstance(obj, _CACHE_TYPE)
                if cached:
                    self.caches[f"{short}.{name}"] = obj
                public = inspect.isfunction(obj) and not name.startswith("_")
                if (cached or public) and f"{short}.{name}" not in UNWRAPPED:
                    replaced[id(obj)] = self._wrap(obj, f"{short}.{name}")
        diagram = sys.modules["parsym.diagrams"].PartitionDiagram
        diagram.__init__ = self._wrap(diagram.__init__, "diagrams.construct")
        lin = sys.modules["parsym.linear"].LinearCombination
        for method in LINEAR_METHODS:
            raw = lin.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(lin, method, classmethod(self._wrap(raw.__func__, f"linear.{method.strip('_')}")))
            else:
                setattr(lin, method, self._wrap(raw, f"linear.{method.strip('_')}"))
        _rebind(replaced)

    def summary(self, job_s: float) -> dict:
        """Per-name totals, cache statistics and counters of one job."""
        per_name = {}
        for i, name in enumerate(self.names):
            if self.calls[i] or self.yielded[i]:
                per_name[name] = {
                    "calls": self.calls[i],
                    "self_s": self.self_s[i],
                    "errors": self.errors[i],
                    "yielded": self.yielded[i],
                    "entries": self.entries[i],
                }
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        return {
            "names": per_name,
            "caches": caches,
            "counters": dict(self.counters),
            "outside_s": job_s - self.stack[0][0],
            "spans_stored": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path, job_id: str) -> None:
        """One JSON line per stored span; ``parent`` is another span's ``id``
        in the same file, or -1 for a span the job called directly."""
        with open(path, "w", encoding="utf-8") as fh:
            for n, span in enumerate(self.spans):
                if span is None:
                    continue
                idx, start, end, parent = span
                record = {
                    "id": n,
                    "name": self.names[idx],
                    "layer": LAYERS[self.layer_of[idx]],
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "job": job_id,
                }
                fh.write(json.dumps(record) + "\n")


def _rebind(replaced: dict[int, object]) -> None:
    """Point every parsym module global and class attribute that holds a
    wrapped object at its wrapper."""
    for name, module in list(sys.modules.items()):
        if name != "parsym" and not name.startswith("parsym."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, attr, replaced[id(value)])
            elif isinstance(value, type) and value.__module__.startswith("parsym"):
                for key, member in list(vars(value).items()):
                    if isinstance(member, (staticmethod, classmethod)):
                        if id(member.__func__) in replaced:
                            setattr(value, key, type(member)(replaced[id(member.__func__)]))
                    elif id(member) in replaced:
                        setattr(value, key, replaced[id(member)])
