"""Span recorder and metric math of the end-to-end benchmark.

The recorder wraps calls into the program's layers from the outside: a span
is a named wall-clock interval with a parent.  Spans stay in memory and are
written as one JSON tree when a run ends.  A disabled recorder (the untraced
runs that produce the end-to-end metrics) records nothing.

Tree rules, checked by :func:`tree_problems`:

* every child lies inside its parent's interval;
* children of an ordinary span never sum past it; only a span opened with
  ``lanes=True`` (concurrent client threads) may hold overlapping children;
* a span's self time is its duration minus the part of that interval its
  children cover (their union, so concurrent lanes are not double counted).
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from contextlib import contextmanager

#: Slack for float rounding when comparing span boundaries.
EPSILON = 1e-6


class Span:
    """One named interval; ``end`` is ``None`` while the span is open."""

    __slots__ = ("name", "start", "end", "attrs", "lanes", "children")

    def __init__(self, name: str, start: float, lanes: bool = False, **attrs) -> None:
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attrs = attrs
        self.lanes = lanes
        self.children: list[Span] = []

    @property
    def seconds(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    def covered_seconds(self) -> float:
        """Length of the union of the children's intervals."""
        covered = 0.0
        cursor = float("-inf")
        for child in sorted(self.children, key=lambda span: span.start):
            start = max(child.start, cursor)
            if child.end > start:
                covered += child.end - start
                cursor = child.end
        return covered

    def self_seconds(self) -> float:
        return self.seconds - self.covered_seconds()

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, origin: float) -> dict:
        return {
            "name": self.name,
            "start_s": self.start - origin,
            "seconds": self.seconds,
            "self_s": self.self_seconds(),
            "lanes": self.lanes,
            "attrs": self.attrs,
            "children": [child.to_dict(origin) for child in self.children],
        }


class Recorder:
    """Nested spans per thread under one root."""

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.root: Span | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: Span | None = None, lanes: bool = False, **attrs):
        """Time the block as a child of ``parent``, else of the innermost
        span open on this thread, else of the root (which the first span
        becomes)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self.root
        span = Span(name, self.clock(), lanes=lanes, **attrs)
        with self._lock:
            if parent is None:
                if self.root is not None:
                    raise ValueError("a recorder has exactly one root span")
                self.root = span
            else:
                parent.children.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = self.clock()

    def seconds(self, name: str) -> list[float]:
        """Durations of every closed span called ``name``."""
        if self.root is None:
            return []
        return [
            span.seconds
            for span in self.root.walk()
            if span.name == name and span.end is not None
        ]

    def tree(self) -> dict | None:
        return None if self.root is None else self.root.to_dict(self.root.start)


def tree_problems(span: Span) -> list[str]:
    """Every violation of the nesting rules below ``span`` (empty when sound)."""
    problems = []
    for child in span.children:
        if child.start < span.start - EPSILON or child.end > span.end + EPSILON:
            problems.append(f"{child.name} lies outside its parent {span.name}")
    if not span.lanes:
        total = sum(child.seconds for child in span.children)
        if total > span.seconds + EPSILON:
            problems.append(
                f"children of {span.name} sum to {total:.6f}s, past its {span.seconds:.6f}s"
            )
    for child in span.children:
        problems.extend(tree_problems(child))
    return problems


def root_matches_wall(root: Span, wall_seconds: float, tolerance: float = 0.01) -> bool:
    """Whether the root span is within ``tolerance`` (a share) of wall time."""
    return abs(root.seconds - wall_seconds) <= tolerance * wall_seconds


def process_age_seconds() -> float:
    """Seconds since this process started, by the kernel's clocks (Linux).

    The wall time a root span is held to: it is read from ``/proc``, not
    from the recorder's clock, and it counts the interpreter's start-up and
    imports, which a root span opened late would miss.  Resolution is one
    clock tick (10 ms).
    """
    with open("/proc/self/stat") as handle:
        start_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])  # field 22
    with open("/proc/uptime") as handle:
        uptime = float(handle.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------- metric math

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def tail_percentile(values: list[float], percent: float) -> float | None:
    """The ``percent``-th percentile, or ``None`` when fewer than
    :data:`TAIL_SAMPLES` samples would lie beyond it (p90 needs 100)."""
    if len(values) * (100.0 - percent) / 100.0 < TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    rank = max(0, int(-(-len(ordered) * percent // 100)) - 1)  # nearest rank
    return ordered[rank]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class OpTally:
    """Ops attempted, split into passed, failed and timed out.

    A timed-out op was attempted and did not pass, so it counts in the
    denominator and the numerator of :attr:`error_rate` alike.
    """

    def __init__(self) -> None:
        self.passed = 0
        self.failed = 0
        self.timed_out = 0

    @property
    def attempted(self) -> int:
        return self.passed + self.failed + self.timed_out

    @property
    def error_rate(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.failed + self.timed_out) / self.attempted

    @property
    def success_rate(self) -> float:
        return 1.0 - self.error_rate if self.attempted else 0.0
