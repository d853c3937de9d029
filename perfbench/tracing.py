"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: `Tracer.patch` swaps a public
function of a tripcast module for a wrapper that times each call, and
`Tracer.span` times a block of benchmark code. Spans stay in memory until the
run ends. Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    cpu_s: float = 0.0


class Tracer:
    """In-memory spans with parent links.

    A span's parent is the innermost open span of its own thread. A span
    opened on a thread with no open span (a fold worker of the CLI's thread
    pool) takes the innermost open span of the main thread, so fold fits
    nest under the `run_scenario` call that started them.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        context = stack or self._stacks.get(self._main) or [None]
        record = Span(name, context[-1], time.perf_counter())
        self.spans.append(record)  # list.append is atomic under the GIL
        stack.append(len(self.spans) - 1)
        cpu0 = time.thread_time()
        try:
            yield record
        finally:
            record.cpu_s = time.thread_time() - cpu0
            record.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str):
        """`fn` with each call recorded as span `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def replace(self, owner, attr: str, new) -> None:
        """Set `owner.attr` to `new` until `restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str) -> None:
        """Record every call of `owner.attr` as span `name` until `restore`."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def total_s(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def cpu_s(self, name: str) -> float:
        return sum(s.cpu_s for s in self.spans if s.name == name)

    def self_s(self, name: str) -> float:
        """Summed duration of spans `name` minus the time their children cover.

        Children may overlap (fold threads), so each span loses the measure of
        the union of its children's intervals, never more than its own length.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.name != name:
                continue
            covered, reach = 0.0, s.start
            for lo, hi in sorted(children.get(i, [])):
                lo, hi = max(lo, reach), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += (s.end - s.start) - covered
        return total
