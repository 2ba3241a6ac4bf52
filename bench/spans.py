"""Spans around calls into fracpicard, recorded from outside the package.

The benchmark installs wrappers in the module namespaces where the package
looks its functions up (for example picard_solver.apply_integral or
cli.mittag_leffler), so a span opens whenever one layer calls into another
and no file of the package changes. Each span knows the span that caused
it; spans opened in the study thread pool hang under the span that
submitted the work. Spans live in memory for one operation and are reduced
to per-layer numbers when it ends.

A layer's self time is the time in which one of its spans was the deepest
running span. When several threads run spans at once, each instant is
shared equally among the running leaf spans, so the self times of one
operation add up to its wall time exactly.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one operation at a time."""

    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()

    def _stack(self) -> list:
        return self._local.__dict__.setdefault("stack", [])

    def current(self) -> "Span | None":
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: "Span | None" = None):
        stack = self._stack()
        s = Span(name, stack[-1] if stack else parent)
        stack.append(s)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            stack.pop()
            self.spans.append(s)

    def wrap(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(args) may return info kept on the
        span, after(span, args, result) may add to it. Written out rather
        than through span() because it runs thousands of times per study."""

        def traced(*args, **kwargs):
            stack = self._stack()
            s = Span(name, stack[-1] if stack else None)
            if before is not None:
                s.info = before(args)
            stack.append(s)
            s.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = perf_counter()
                stack.pop()
                self.spans.append(s)
            if after is not None:
                after(s, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


@contextmanager
def patched(replacements):
    """Temporarily set module attributes: replacements is a list of
    (module, attribute name, new value)."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def self_times(spans: list) -> dict:
    """Self time of every span (keyed by id), sharing each instant equally
    among the spans that are running and have no running child."""
    depth = {}

    def depth_of(s):
        d = depth.get(id(s))
        if d is None:
            d = 0 if s.parent is None else depth_of(s.parent) + 1
            depth[id(s)] = d
        return d

    live = [s for s in spans if s.end > s.start]
    events = []
    for s in live:
        d = depth_of(s)
        events.append((s.start, 1, d, id(s), s))
        events.append((s.end, 0, -d, id(s), s))
    events.sort(key=lambda e: e[:4])
    own = {id(s): 0.0 for s in spans}
    running_children = defaultdict(int)
    running = set()
    leaves = {}
    prev = events[0][0] if events else 0.0
    for t, starting, _, key, s in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for k in leaves:
                own[k] += share
        prev = t
        p = s.parent
        if starting:
            running.add(key)
            leaves[key] = s
            if p is not None:
                running_children[id(p)] += 1
                leaves.pop(id(p), None)
        else:
            running.discard(key)
            leaves.pop(key, None)
            if p is not None:
                running_children[id(p)] -= 1
                if running_children[id(p)] == 0 and id(p) in running:
                    leaves[id(p)] = p
    return own
