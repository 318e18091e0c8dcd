"""Outside-in span tracer: wraps named functions of a loaded program.

``Tracer.wrap`` replaces a function object by a timing wrapper everywhere a
module of the traced packages holds a reference to it, so names imported with
``from module import fn`` are caught too.  Methods are wrapped on their
class.  Spans stay in memory with the index of their parent; a span's self
time is its duration minus the durations of its direct children (calls are
nested on one thread, so children never overlap).  ``restore`` puts every
original object back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, packages=("semiclab",), clock=time.perf_counter):
        self.packages = tuple(packages)
        self.clock = clock
        self.names: list[str] = []  # per span
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stops: list[int] = []  # span count when the span closed
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self.stops.append(-1)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self.stops[idx] = len(self.names)
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def span(self, name: str):
        return _Span(self, name)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts[key], value)

    # -- wrapping ------------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and any(name == p or name.startswith(p + ".")
                                         for p in self.packages)]

    def wrap(self, name: str, owner, attr: str, on_return=None, caller: str | None = None) -> int:
        """Wrap ``owner.attr`` under span ``name``; returns references replaced.

        ``on_return(tracer, args, kwargs, result)`` may record counts after
        each call.  A module-level function is replaced in every module of
        the traced packages that holds it; any other owner (a class, or a
        module outside those packages) is patched on that owner only.  With
        ``caller`` set, only calls made from code of that module are timed.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if caller is not None and sys._getframe(1).f_globals.get("__name__") != caller:
                return original(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        holders = [owner]
        if owner in self._modules():
            holders = [m for m in self._modules()
                       if any(v is original for v in vars(m).values())]
        replaced = 0
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, key, original))
                    setattr(holder, key, wrapper)
                    replaced += 1
        return replaced

    def restore(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def subtree(self, root: int) -> range:
        """Span ``root`` and every span opened while it was open."""
        return range(root, self.stops[root])

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span name, summed over the subtree of ``root``."""
        spans = self.subtree(root)
        child = dict.fromkeys(spans, 0.0)
        for i in spans:
            if i != root:
                child[self.parents[i]] += self.duration(i)
        out: dict[str, float] = defaultdict(float)
        for i in spans:
            out[self.names[i]] += self.duration(i) - child[i]
        return dict(out)

    def calls(self, root: int) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for i in self.subtree(root):
            out[self.names[i]] += 1
        return dict(out)

    def inclusive(self, root: int, match) -> float:
        """Time below ``root`` inside spans whose name satisfies ``match``,
        counting a span nested in another matching span once."""
        total = 0.0
        for i in self.subtree(root):
            if i == root or not match(self.names[i]):
                continue
            p = self.parents[i]
            while p != root and not match(self.names[p]):
                p = self.parents[p]
            if p == root:
                total += self.duration(i)
        return total

    def coverage(self, root: int) -> float:
        """Share of span ``root``'s duration spent inside named child spans."""
        total = self.duration(root)
        return self.inclusive(root, lambda name: True) / total if total > 0 else 0.0


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.idx = -1

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False
