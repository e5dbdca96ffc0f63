"""Spans around lapspec's public functions, recorded from outside the package.

``Tracer.instrument(modules)`` replaces every public function of the given
modules, in every one of those namespaces that binds it, with a wrapper
that records a span (name, start, end, parent).  Callers look functions up
by module-global name at call time, so ``cli`` calling ``scan_file`` and
``scan`` calling ``symmetric_eigenvalues`` both go through the wrapper.  A
call made while the same function is already open (recursion, such as
``spectrum_of`` on its subexpressions) records no span, so ``calls`` and
``busy`` count outermost calls only.  A generator function gets one span
per resumption.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from functools import wraps


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open: list[int] = []  # per name: how many of its spans are open
        self._stack: list[int] = []  # open span indices, innermost last
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.returned_true = array("b")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.returned_true.append(0)
        self._stack.append(idx)
        self._open[nid] += 1
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int, result=None) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.returned_true[idx] = result is True
        self._stack.pop()
        self._open[self.name[idx]] -= 1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @wraps(fn)
            def generator_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.begin(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.finish(idx)
                    yield item

            return generator_wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._open[nid]:
                return fn(*args, **kwargs)
            idx = tracer.begin(nid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.finish(idx, result)

        return wrapper

    def instrument(self, modules):
        """Wrap the public functions of ``modules``; returns a callable that undoes it."""
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and value.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(value)] = self.wrap(f"{layer}.{attr}", value)
        undo = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])
                    undo.append((mod, attr, value))

        def restore():
            for mod, attr, value in undo:
                setattr(mod, attr, value)

        return restore

    def summarize(self, root: int) -> dict:
        """Per-name calls, busy and self nanoseconds, and true returns, over one root span's subtree."""
        lo = root
        hi = lo + 1
        while hi < len(self.name) and self.start[hi] < self.end[root]:
            hi += 1
        stats: dict[str, list[int]] = {}
        child_ns = [0] * (hi - lo)
        for k in range(hi - 1, lo - 1, -1):
            dur = self.end[k] - self.start[k]
            if k > lo:
                child_ns[self.parent[k] - lo] += dur
            entry = stats.setdefault(self.names[self.name[k]], [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child_ns[k - lo]
            entry[3] += self.returned_true[k]
        return {name: {"calls": c, "busy_ns": b, "self_ns": s, "true": t} for name, (c, b, s, t) in stats.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start_ns", "end_ns", "parent"],
                    "spans": [list(row) for row in zip(self.name, self.start, self.end, self.parent)],
                },
                fh,
            )
