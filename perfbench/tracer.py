"""Span tracer that wraps a package's public functions from the outside.

`Tracer.install` replaces every public module-level function of the traced
modules with a wrapper that records a span (name, start, end, parent, ok)
in memory. Aliases made by `from .x import f` in any module of the package
are replaced too, so a call is recorded whichever name it goes through.
`Tracer.uninstall` puts every original object back. Nothing is written
until the caller asks for it after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

ROOT_PARENT = -1


class Tracer:
    def __init__(self, package: str, modules, observers=None):
        """package: top-level package name whose loaded modules may hold
        aliases; modules: the module objects whose public functions are
        wrapped; observers: span name -> callable(args, kwargs, result)
        run after each successful call, for counts taken at the boundary."""
        self.package = package
        self.modules = list(modules)
        self.observers = dict(observers or {})
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list = []   # (name index, start, end, parent index, ok)
        self._stack = [ROOT_PARENT]
        self._patched: list = []  # (module, attribute, original)

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _wrap(self, fn, name: str):
        idx = self._name_index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[i] = (idx, start, end, parent, ok)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        holders = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package
                                         or n.startswith(self.package + "."))]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    @contextmanager
    def span(self, name: str):
        """Root-level span for work the harness itself starts."""
        idx = self._name_index(name)
        i = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(i)
        ok = False
        start = time.perf_counter()
        try:
            yield
            ok = True
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[i] = (idx, start, end, parent, ok)

    def records(self):
        """Finished spans as (name, start, end, parent, ok) tuples."""
        return [(self.names[n], s, e, p, ok) for n, s, e, p, ok in self.spans]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,ok\n")
            for i, (name, s, e, p, ok) in enumerate(self.records()):
                fh.write(f"{i},{name},{s!r},{e!r},{p},{int(ok)}\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    spans are (name, start, end, parent, ok) with parent an index into the
    same list or ROOT_PARENT. Children of one span run one after another on
    one thread, so their durations do not overlap.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent != ROOT_PARENT:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


PERMILLES = (999, 990, 900, 500)  # p99.9, p99, p90, p50


def high_percentile(values) -> tuple[float, float]:
    """(level in percent, value) of the highest of p99.9, p99, p90 and p50
    that has at least ten samples beyond it, by nearest rank. With fewer
    than 20 samples no level qualifies and the maximum is returned as
    level 100."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 100.0, 0.0
    for pm in PERMILLES:
        rank = -(-pm * n // 1000)  # ceil, in integers
        if n - rank >= 10:
            return pm / 10, xs[rank - 1]
    return 100.0, xs[-1]
