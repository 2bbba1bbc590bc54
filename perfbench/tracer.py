"""Outside-in tracing of the package's layers.

``Tracer.install`` wraps, from outside the package, every public
module-level function of each layer module and every public method (and
``__init__``) of ``Matroid`` and ``MatroidFile``, and rebinds every name
in the package that refers to a wrapped function, so calls between
modules pass through the wrappers too.  Per-element value methods
(``ElementSubset``, ``LinearConstraint``) are left alone.

Each call records a span: its function, its parent span, the job it ran
in, and its start and end.  Spans stay in memory and are written out at
the end of the run.  A span's self time is its duration minus the
durations of its direct children.

Ranks are cached lazily inside a ``Matroid``, so filling the cache for a
subset is charged to whichever public call touches that subset first.
Compare layer numbers only between runs with the same job order.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import time

LAYERS = ("files", "core", "locked", "polytope", "optimize", "uniformity", "catalog", "cli")
CLASSES = {"core": ("Matroid",), "files": ("MatroidFile",)}

# Functions whose result size is counted, as "<layer>.<qualname>.found".
FOUND = {("locked", "enumerate_locked")}

NOTE = ("rank-cache fills are charged to the first public call that touches a "
        "subset; compare layer numbers only for the same job order")

# Span fields.
KEY, PARENT, JOB, START, END, FOUND_COUNT = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.keys: set[tuple[str, str]] = set()

    def wrap(self, layer, qualname, fn):
        """``fn`` with a span recorded around each call."""
        count = (layer, qualname) in FOUND
        self.keys.add((layer, qualname))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, qualname) as record:
                result = fn(*args, **kwargs)
            if count:
                record[FOUND_COUNT] = len(result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, layer, qualname):
        """Record one span around the body; yields the span's record."""
        key = (layer, qualname)
        self.keys.add(key)
        record = [key, self._stack[-1] if self._stack else -1, self.job, 0.0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = self.clock()
        try:
            yield record
        finally:
            record[END] = self.clock()
            self._stack.pop()

    def install(self, package):
        """Wrap the package's public functions and methods."""
        replaced = {}
        modules = [package]
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            modules.append(mod)
            for name, obj in list(vars(mod).items()):
                own = inspect.isfunction(obj) and obj.__module__ == mod.__name__
                if own and not name.startswith("_"):
                    replaced[obj] = self.wrap(layer, name, obj)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_") and name != "__init__":
                        continue
                    qualname = f"{cls_name}.{name}"
                    if inspect.isfunction(attr):
                        self._set(cls, name, self.wrap(layer, qualname, attr))
                    elif isinstance(attr, (classmethod, staticmethod)):
                        self._set(cls, name, type(attr)(self.wrap(layer, qualname, attr.__func__)))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, name, replaced[obj])
        # Default arguments bound to a wrapped function at definition time
        # (``test_uniformity``'s oracle) would bypass the wrapper.
        for fn in replaced:
            defaults = fn.__defaults__ or ()
            if any(inspect.isfunction(d) and d in replaced for d in defaults):
                self._set(fn, "__defaults__", tuple(
                    replaced[d] if inspect.isfunction(d) and d in replaced else d
                    for d in defaults))

    def uninstall(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def self_times(self):
        """Self time of each span: duration minus direct children."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def totals(self):
        """{(layer, qualname): [self seconds, calls, found]} over all spans."""
        out = {key: [0.0, 0, 0] for key in self.keys}
        for s, own in zip(self.spans, self.self_times()):
            row = out[s[KEY]]
            row[0] += own
            row[1] += 1
            row[2] += s[FOUND_COUNT]
        return out

    def write(self, path):
        """All spans as gzipped JSON: fields, then one row per span."""
        jobs = {}
        rows = []
        for s in self.spans:
            job = jobs.setdefault(s[JOB], len(jobs))
            rows.append([".".join(s[KEY]), s[PARENT], job, s[START], s[END]])
        doc = {
            "note": NOTE,
            "fields": ["name", "parent", "job", "start_s", "end_s"],
            "jobs": list(jobs),
            "spans": rows,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
