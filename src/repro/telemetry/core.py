"""The telemetry recorder: span API over the event bus.

:class:`Telemetry` binds a clock (the sim's virtual clock in practice)
and an :class:`~repro.telemetry.events.EventBus`. Spans are recorded
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
from typing import Callable, Optional

from .events import EventBus, TelemetryEvent
from .tracing import TraceContext


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
        ev = TelemetryEvent(ts=self._clock(), name=name, kind="event", tags=tags)
        self.bus.emit(ev)
        return ev

    def emit_span(
        self, name: str, start: float, end: float, /, **tags
    ) -> None:
        """Record an already-measured interval.

        The first three parameters are positional-only so tags named
        ``name``/``start``/``end`` stay usable.
        """
        self.bus.emit(
            TelemetryEvent(
                ts=start, name=name, kind="span", dur=max(0.0, end - start),
                span_id=next(self._span_ids), tags=tags,
            )
        )

    # -- convenience ----------------------------------------------------------------
    def events(self):
        return self.bus.events()

    def clear(self) -> None:
        self.bus.clear()

    def __len__(self) -> int:
        return len(self.bus)
