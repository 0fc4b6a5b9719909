"""The telemetry recorder: one bounded event log and its span API.

:class:`Telemetry` binds a clock (the sim's virtual clock in practice)
to a ring of :class:`~repro.telemetry.events.TelemetryEvent`. Spans are recorded
once measured (:meth:`Telemetry.emit_span`); causal parentage travels as
:class:`~repro.telemetry.tracing.TraceContext` tags, the one notion of a
parent span. Counters and histograms are not kept here: a run's one
metrics store is the network's
:class:`~repro.telemetry.metrics.MetricsRegistry`.

Telemetry is switched off one way: a component built with
``telemetry=None`` skips its recording branches, tags and all.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, List, Optional

from .events import TelemetryEvent
from .tracing import TraceContext


class Telemetry:
    """Bounded event log + span API behind one handle.

    Appends are O(1); once ``capacity`` is reached the oldest events are
    evicted (``dropped`` counts them). The one listener — a
    :class:`~repro.telemetry.recorder.FlightRecorder` — is called on
    every emit, so it sees even events that later fall out of the ring.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current (sim) time in
        seconds. Bind later with :meth:`bind_clock` when the simulator
        does not exist yet.
    capacity:
        Ring-buffer size of the event log.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        *,
        capacity: int = 65536,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.emitted = 0
        self.dropped = 0
        self._listener: Optional[Callable[[TelemetryEvent], None]] = None
        #: optional wall-clock call-path profiler
        #: (:class:`repro.telemetry.profiling.CallPathProfiler`); attach it
        #: *before* building a system — instrumented components cache the
        #: reference at construction time so the disabled path stays free.
        self.profiler = None
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # -- clock ----------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    # -- wall-clock profiling ------------------------------------------------------
    def attach_profiler(self, profiler) -> None:
        """Install a wall-clock call-path profiler (call before ``build``)."""
        self.profiler = profiler

    @property
    def now(self) -> float:
        return self._clock()

    # -- the listener ---------------------------------------------------------------
    def listen(self, fn: Optional[Callable[[TelemetryEvent], None]]) -> None:
        """Install the one listener called on every emit (None removes
        it); a second listener is a :class:`ValueError`, never a silent
        replacement of the first."""
        if fn is not None and self._listener is not None:
            raise ValueError(
                "this Telemetry already has a flight recorder; close() it first"
            )
        self._listener = fn

    # -- causal trace contexts -----------------------------------------------------
    def new_trace(self) -> TraceContext:
        """Mint the root context of a new causal trace.

        Ids come from this recorder's counters, so a fixed build order
        yields identical ids run to run — traces are reproducible and
        never consume simulation randomness.
        """
        return TraceContext(
            trace_id=next(self._trace_ids),
            span_id=next(self._span_ids),
            parent_span_id=0,
        )

    def fork(self, ctx: Optional[TraceContext]) -> Optional[TraceContext]:
        """Fork a child context of *ctx* (None in: None out)."""
        if ctx is None:
            return None
        return ctx.child(next(self._span_ids))

    # -- recording ----------------------------------------------------------------
    def _emit(self, event: TelemetryEvent) -> None:
        self.emitted += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        if self._listener is not None:
            self._listener(event)

    def event(self, name: str, **tags) -> TelemetryEvent:
        """Record a point event at the current clock time."""
        ev = TelemetryEvent(ts=self._clock(), name=name, kind="event", tags=tags)
        self._emit(ev)
        return ev

    def emit_span(
        self, name: str, start: float, end: float, /, **tags
    ) -> None:
        """Record an already-measured interval.

        The first three parameters are positional-only so tags named
        ``name``/``start``/``end`` stay usable.
        """
        self._emit(
            TelemetryEvent(
                ts=start, name=name, kind="span", dur=max(0.0, end - start),
                span_id=next(self._span_ids), tags=tags,
            )
        )

    # -- reading ------------------------------------------------------------------
    def events(self) -> List[TelemetryEvent]:
        """Snapshot of the retained events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)
