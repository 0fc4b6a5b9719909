"""The telemetry recorder: span API over the event bus.

:class:`Telemetry` binds a clock (the sim's virtual clock in practice)
and an :class:`~repro.telemetry.events.EventBus`. Spans form a stack —
the simulation is single-threaded, so the enclosing open span is always
the parent — and are emitted to the bus when closed. Counters and
histograms are not kept here: a run's one metrics store is the
network's :class:`~repro.telemetry.metrics.MetricsRegistry`.

Telemetry is switched off one way: a component built with
``telemetry=None`` skips its recording branches, tags and all.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from .events import EventBus, TelemetryEvent
from .tracing import TraceContext


class Span:
    """An open (or closed) span; use as a context manager."""

    __slots__ = ("telemetry", "name", "tags", "span_id", "parent_id",
                 "start", "end", "_closed")

    def __init__(
        self,
        telemetry: "Telemetry",
        name: str,
        tags: Dict[str, object],
        span_id: int,
        parent_id: int,
        start: float,
    ):
        self.telemetry = telemetry
        self.name = name
        self.tags = tags
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self._closed = False

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def annotate(self, **tags) -> "Span":
        """Attach extra tags to an open span."""
        self.tags.update(tags)
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.telemetry._close_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.tags.setdefault("error", exc_type.__name__)
        self.close()


class Telemetry:
    """Event bus + span API behind one handle.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current (sim) time in
        seconds. Bind later with :meth:`bind_clock` when the simulator
        does not exist yet.
    capacity:
        Ring-buffer size of the event bus.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        *,
        capacity: int = 65536,
    ):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.bus = EventBus(capacity)
        #: optional wall-clock call-path profiler
        #: (:class:`repro.telemetry.profiling.CallPathProfiler`); attach it
        #: *before* building a system — instrumented components cache the
        #: reference at construction time so the disabled path stays free.
        self.profiler = None
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._stack: List[Span] = []

    # -- clock ----------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        # Keep the profiler's virtual clock in sync so its dual-clock
        # columns read sim time once the simulator exists.
        if self.profiler is not None:
            self.profiler.bind_clock(clock)

    # -- wall-clock profiling ------------------------------------------------------
    def attach_profiler(self, profiler) -> None:
        """Install a wall-clock section profiler (call before ``build``)."""
        self.profiler = profiler
        if profiler._clock is None:
            profiler.bind_clock(self._clock)

    @property
    def now(self) -> float:
        return self._clock()

    # -- causal trace contexts -----------------------------------------------------
    def new_trace(self, **baggage) -> TraceContext:
        """Mint the root context of a new causal trace.

        Ids come from this recorder's counters, so a fixed build order
        yields identical ids run to run — traces are reproducible and
        never consume simulation randomness.
        """
        return TraceContext(
            trace_id=next(self._trace_ids),
            span_id=next(self._span_ids),
            parent_span_id=0,
            baggage=tuple(sorted(baggage.items())) if baggage else (),
        )

    def fork(
        self, ctx: Optional[TraceContext], **baggage
    ) -> Optional[TraceContext]:
        """Fork a child context of *ctx* (None in: None out)."""
        if ctx is None:
            return None
        return ctx.child(next(self._span_ids), **baggage)

    # -- recording ----------------------------------------------------------------
    def event(self, name: str, **tags) -> TelemetryEvent:
        """Record a point event at the current clock time."""
        parent = self._stack[-1].span_id if self._stack else 0
        ev = TelemetryEvent(
            ts=self._clock(), name=name, kind="event", parent_id=parent,
            tags=tags,
        )
        self.bus.emit(ev)
        return ev

    def span(self, name: str, **tags) -> Span:
        """Open a span; close it by exiting the ``with`` block."""
        parent = self._stack[-1].span_id if self._stack else 0
        span = Span(
            self, name, tags, next(self._span_ids), parent, self._clock()
        )
        self._stack.append(span)
        return span

    def emit_span(
        self, name: str, start: float, end: float, /, **tags
    ) -> None:
        """Record an already-measured interval (no nesting bookkeeping).

        The first three parameters are positional-only so tags named
        ``name``/``start``/``end`` stay usable.
        """
        parent = self._stack[-1].span_id if self._stack else 0
        self.bus.emit(
            TelemetryEvent(
                ts=start, name=name, kind="span", dur=max(0.0, end - start),
                span_id=next(self._span_ids), parent_id=parent, tags=tags,
            )
        )

    def _close_span(self, span: Span) -> None:
        span.end = self._clock()
        # Pop up to and including this span; out-of-order closes (span
        # closed after its parent) degrade gracefully.
        if span in self._stack:
            while self._stack:
                top = self._stack.pop()
                if top is span:
                    break
        self.bus.emit(
            TelemetryEvent(
                ts=span.start, name=span.name, kind="span",
                dur=span.duration, span_id=span.span_id,
                parent_id=span.parent_id, tags=span.tags,
            )
        )

    # -- convenience ----------------------------------------------------------------
    def events(self):
        return self.bus.events()

    def clear(self) -> None:
        self.bus.clear()

    def __len__(self) -> int:
        return len(self.bus)
