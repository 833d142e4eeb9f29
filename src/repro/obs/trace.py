"""Request tracing: ids minted at the edge, one measured span tree per run.

A **request id** is minted by :class:`repro.client.Client` (or by the server
at ingress when a request arrives without one), travels as the
``X-Request-Id`` header, is echoed on every response, persisted on the job's
ledger record, carried into the pool worker inside the job spec and surfaces
again in the engine's :class:`~repro.engine.core.RunReport`.

A **span** is a named wall-clock interval with a parent, attributes and
children.  The recorder is always on and scoped by a context variable, so
concurrent runs on different threads build separate trees: :func:`record`
opens a root, :func:`span` times a child of the innermost open span (and
does nothing outside a tree), and :func:`graft` attaches a subtree recorded
elsewhere, such as a shard run in a pool process.  A child lies inside its
parent; only the shard fan-out (attribute ``fanout``) has children that
overlap in time.  The server grafts each worker's tree under its attempt::

    submit                      the HTTP submission handler
    queue-wait                  enqueue -> attempt start (per attempt)
    attempt-N                   one executor run of the job
      engine:job                the worker's tree, flattened
        engine:run ...
    publish                     recording the terminal result

The :class:`TraceStore` holds the spans of the most recent jobs in a bounded
LRU (traces are diagnostics, not durable state — a restarted server serves
traces for the jobs *it* ran).  All methods take the store lock, so the
event-loop thread and executor threads can record concurrently.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "Span", "TraceStore", "graft", "grafted_problems", "new_request_id", "now",
    "record", "span",
]


def new_request_id() -> str:
    """A fresh 32-hex-character request/trace id."""
    return uuid.uuid4().hex


@dataclass
class Span:
    """One named wall-clock interval of a job's trace or a run's tree."""

    name: str
    #: Wall-clock start (``time.time()`` epoch seconds).
    start: float = 0.0
    seconds: float = 0.0
    #: Name of the enclosing span (``None`` for roots and top-level spans).
    parent: str | None = None
    attributes: dict = field(default_factory=dict)
    #: Nested spans of a recorded tree (empty for flat lifecycle spans).
    children: list[Span] = field(default_factory=list)

    @property
    def end(self) -> float:
        return self.start + self.seconds

    def to_dict(self) -> dict:
        """The flat record served by ``/v1/jobs/{id}/trace``."""
        return {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "parent": self.parent,
            "attributes": dict(self.attributes),
        }

    def walk(self) -> Iterator[Span]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Span | None:
        """The first span called ``name``, depth first, if any."""
        return next((node for node in self.walk() if node.name == name), None)

    def total(self, name: str) -> float:
        """Summed seconds of every span called ``name`` in this tree."""
        return sum((node.seconds for node in self.walk() if node.name == name), 0.0)


#: The innermost open span of this context, with the offset that maps
#: ``time.perf_counter()`` readings onto the wall clock.
_CURRENT: ContextVar[tuple[Span, float] | None] = ContextVar(
    "repro_trace_current", default=None
)


@contextmanager
def record(name: str, **attributes) -> Iterator[Span]:
    """Open a new root span, detached from any span open in this context.

    Spans of one process context share one clock (the first root's
    wall-clock anchor plus ``perf_counter`` offsets), so they nest exactly.
    """
    current = _CURRENT.get()
    started = time.perf_counter()
    offset = current[1] if current is not None else time.time() - started
    root = Span(name, start=started + offset, attributes=attributes)
    token = _CURRENT.set((root, offset))
    try:
        yield root
    finally:
        root.seconds = time.perf_counter() - started
        _CURRENT.reset(token)


@contextmanager
def span(name: str, **attributes) -> Iterator[Span | None]:
    """Time the block as a child of the current span.

    Outside a tree opened by :func:`record` there is nothing to attach to:
    the block runs untimed and ``None`` is yielded.
    """
    current = _CURRENT.get()
    if current is None:
        yield None
        return
    parent, offset = current
    started = time.perf_counter()
    child = Span(name, start=started + offset, parent=parent.name, attributes=attributes)
    parent.children.append(child)
    token = _CURRENT.set((child, offset))
    try:
        yield child
    finally:
        child.seconds = time.perf_counter() - started
        _CURRENT.reset(token)


def now() -> float:
    """The current wall-clock time as this context's spans read it."""
    current = _CURRENT.get()
    return time.perf_counter() + current[1] if current is not None else time.time()


def graft(subtree: Span) -> None:
    """Attach a finished root recorded elsewhere (another context or a
    pool process) under the current span; a no-op outside a recorded tree."""
    current = _CURRENT.get()
    if current is not None:
        subtree.parent = current[0].name
        current[0].children.append(subtree)


def grafted_problems(spans: list[dict], parent: str, prefix: str) -> list[str]:
    """What is wrong with a tree :meth:`TraceStore.add_tree` flattened under
    ``parent``, judged from the served span dicts (empty when sound).

    One ``prefix`` span is a child of ``parent``, every ``prefix`` span's
    parent chain reaches it, and each span lies within its parent (with 1 ms
    of slack, as the tree was measured in another process).
    """
    by_name = {span["name"]: span for span in spans}
    tree = [span for span in spans if span["name"].startswith(prefix)]
    roots = [span for span in tree if span["parent"] == parent]
    if len(roots) != 1 or parent not in by_name:
        return [f"{len(roots)} {prefix}* roots under {parent!r}, expected 1"]
    problems = []
    for span in tree:
        up = span
        for _ in tree:
            if up is None or up is roots[0]:
                break
            up = by_name.get(up["parent"])
        outer = by_name.get(span["parent"])
        if up is not roots[0]:
            problems.append(f"{span['name']}'s parent chain does not reach {roots[0]['name']}")
        elif span["start"] < outer["start"] - 1e-3 or (
            span["start"] + span["seconds"] > outer["start"] + outer["seconds"] + 1e-3
        ):
            problems.append(f"{span['name']} does not lie within {outer['name']}")
    return problems


class TraceStore:
    """Bounded in-memory span storage, keyed by job id."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: job id -> {"request_id": str, "spans": [Span], "marks": {name: t}}
        self._traces: OrderedDict[str, dict] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def begin(self, job_id: str, request_id: str) -> None:
        """Start (or restart) the trace of one job, evicting the oldest."""
        with self._lock:
            self._traces[job_id] = {
                "request_id": request_id,
                "spans": [],
                "marks": {},
            }
            self._traces.move_to_end(job_id)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    def add(self, job_id: str, *spans: Span) -> None:
        """Append spans; silently ignored for unknown (evicted) jobs."""
        with self._lock:
            trace = self._traces.get(job_id)
            if trace is not None:
                trace["spans"].extend(spans)

    def add_tree(self, job_id: str, root: Span, parent: str, prefix: str) -> None:
        """Flatten a recorded tree under the span called ``parent``.

        Spans are named ``prefix + name``, and a repeated name gets a ``#k``
        suffix, so every ``parent`` of the flat list names exactly one span.
        """
        seen: dict[str, int] = {}
        flat: list[Span] = []

        def visit(node: Span, parent_name: str) -> None:
            seen[node.name] = count = seen.get(node.name, 0) + 1
            name = prefix + node.name + (f"#{count}" if count > 1 else "")
            flat.append(Span(name, node.start, node.seconds, parent_name, node.attributes))
            for child in node.children:
                visit(child, name)

        visit(root, parent)
        self.add(job_id, *flat)

    def mark(self, job_id: str, name: str, when: float | None = None) -> None:
        """Stamp a named instant (e.g. ``queued``) used to time later spans."""
        with self._lock:
            trace = self._traces.get(job_id)
            if trace is not None:
                trace["marks"][name] = time.time() if when is None else when

    def mark_at(self, job_id: str, name: str) -> float | None:
        with self._lock:
            trace = self._traces.get(job_id)
            return trace["marks"].get(name) if trace is not None else None

    def get(self, job_id: str) -> dict | None:
        """The trace of one job as a plain dict, or ``None`` when unknown."""
        with self._lock:
            trace = self._traces.get(job_id)
            if trace is None:
                return None
            return {
                "request_id": trace["request_id"],
                "spans": [span.to_dict() for span in trace["spans"]],
            }
