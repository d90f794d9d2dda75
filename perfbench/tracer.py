"""In-memory spans around the benchmark's calls into each layer.

The benchmark wraps every call it makes into a layer's public functions
in ``tracer.span(layer, name)``.  Spans nest (a sink call inside an
``evaluate_part`` call is its child), so a layer's busy time is its
*self* time: span duration minus the time its child spans cover.  Self
times of the spans a phase opens telescope to the phase's total span
time; the rest of the phase's wall time is reported as ``other``.

The untraced run uses :data:`NULL`, whose ``span`` is a shared no-op
context manager, so the end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass

#: Layer names, after the ROADMAP stage list.
LAYERS = (
    "parse", "encode", "statistics", "lp", "partition", "evaluate", "sink",
    "http", "service",
)


@dataclass
class Span:
    layer: str
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    index: int = -1
    thread: int = 0
    trace_id: int | None = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class _NullTracer:
    enabled = False
    _noop = contextlib.nullcontext()

    def span(self, layer: str, name: str, trace_id: int | None = None):
        return self._noop

    def child(self, parent, layer: str, name: str, seconds: float) -> None:
        pass


NULL = _NullTracer()


class Tracer:
    """Records spans from any number of threads; nothing leaves memory
    until :meth:`to_json` is called at the end of the run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, layer: str, name: str, trace_id: int | None = None):
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        stack = self._stack()
        record = Span(
            layer, name, time.perf_counter_ns(),
            parent=stack[-1] if stack else None,
            thread=threading.get_ident(), trace_id=trace_id,
        )
        with self._lock:
            record.index = len(self.spans)
            self.spans.append(record)
        stack.append(record.index)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            stack.pop()

    def child(self, parent: Span, layer: str, name: str, seconds: float) -> None:
        """Attach a span measured elsewhere (a server's own ``elapsed_ms``)
        as a child of ``parent``, ending where ``parent`` ends."""
        duration = min(int(seconds * 1e9), parent.end_ns - parent.start_ns)
        with self._lock:
            self.spans.append(
                Span(
                    layer, name, parent.end_ns - duration, parent.end_ns,
                    parent=parent.index, index=len(self.spans),
                    thread=parent.thread, trace_id=parent.trace_id,
                )
            )

    # ------------------------------------------------------------------
    def self_seconds(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def busy(self) -> dict[str, float]:
        """Self time per layer, in seconds (every layer present)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for s, own in zip(self.spans, self.self_seconds()):
            totals[s.layer] += own
        return totals

    def top_level_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.parent is None)

    def durations(self, layer: str, name: str | None = None) -> list[float]:
        return [
            s.seconds for s in self.spans
            if s.layer == layer and (name is None or s.name == name)
        ]

    def to_json(self) -> list[dict]:
        return [
            {
                "id": i, "layer": s.layer, "name": s.name,
                "start_ns": s.start_ns, "end_ns": s.end_ns,
                "parent": s.parent, "thread": s.thread,
                "trace_id": s.trace_id,
            }
            for i, s in enumerate(self.spans)
        ]


def traced_sink(sink, tracer):
    """Route a sink's public methods through ``sink`` spans.

    The evaluators call these methods on the sink object the benchmark
    hands them; instance attributes shadow the class methods, so no
    program code changes.  Untraced runs get the sink back untouched.
    """
    if not tracer.enabled:
        return sink
    for method in ("open", "append", "append_size", "append_rows", "flush"):
        inner = getattr(sink, method, None)
        if inner is None:
            continue

        def wrapped(*args, _inner=inner, _name=method, **kwargs):
            with tracer.span("sink", f"{type(sink).__name__}.{_name}"):
                return _inner(*args, **kwargs)

        setattr(sink, method, wrapped)
    return sink
