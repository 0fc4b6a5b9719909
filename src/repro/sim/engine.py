"""Discrete-event simulation engine.

A minimal, deterministic event scheduler: events are ``(time, seq, fn)``
triples dispatched in strict ``(time, seq)`` order so runs are
reproducible. Nodes in the network layers are reactive actors whose
handlers schedule further events.

The queue is one binary heap of ``(time, seq, event)`` tuples. ``seq``
is unique, so a comparison never reaches the event and every sift
compares floats and ints in C. One dispatch loop serves
:meth:`Simulator.run` and :meth:`Simulator.step`, profiled or not, and
"run until something is done" is ``run(stop=predicate)``.

The loop reads an event's ``cancelled``, sets its ``fired`` and calls
its ``fn()``: :meth:`Simulator.schedule` wraps a callback in a
cancellable :class:`Event`, and a record that is its own event (a
network delivery: never cancelled, ``fn`` is its method) pushes itself
through :meth:`Simulator.event_heap`. Every delay is finite and >= 0.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterator, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (negative, infinite or NaN delays or horizons)."""


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("fn", "cancelled", "fired", "label", "_sim")

    def __init__(
        self, fn: Callable[[], None], sim=None, label: Optional[str] = None
    ):
        self.fn = fn
        self.cancelled = False
        self.fired = False
        #: profiling frame name for this event's handler (None = generic);
        #: schedule sites only pay for it when a profiler is attached
        self.label = label
        self._sim = sim

    def cancel(self) -> None:
        """Cancel the event; no-op if already cancelled or fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        # The tombstone may sit on the heap for the whole delay (a 5 s
        # query timeout, say); it must not pin the callback's owner.
        self.fn = None
        if self._sim is not None:
            self._sim._bury()


class Simulator:
    """Single-heap discrete-event scheduler with a virtual clock."""

    #: minimum heap size before tombstone compaction is considered
    _COMPACT_MIN = 64

    def __init__(self):
        #: current virtual time in seconds; the dispatch loop advances
        #: it, everything else only reads it
        self.now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._processed = 0
        #: cancelled-but-unpopped events still sitting on the heap
        self._tombstones = 0
        #: optional call-path profiler
        #: (:class:`repro.telemetry.profiling.CallPathProfiler`); when
        #: set, the dispatch loop opens a ``sim.dispatch`` frame, every
        #: handler invocation gets a child frame named after its event
        #: label (``sim.event`` when unlabeled). ``None`` (the default)
        #: costs the loop one ``is None`` check per event.
        self.profiler = None

    @property
    def pending(self) -> int:
        """Number of live (not-yet-fired, non-cancelled) events. O(1).

        A firing event is popped before its handler runs, so the heap
        holds exactly the live events and the tombstones.
        """
        return len(self._queue) - self._tombstones

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(
        self, delay: float, fn: Callable[[], None], label: Optional[str] = None
    ) -> Event:
        """Run *fn* at ``now + delay``; returns a cancellable handle.

        *label* names the handler's profiling frame; pass it only when a
        profiler is attached (it is dead weight otherwise).
        """
        if not 0 <= delay < math.inf:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule into the past or at infinity (delay={delay})"
            )
        ev = Event(fn, self, label)
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), ev))
        return ev

    def schedule_periodic(
        self,
        interval: float,
        fn: Callable[[], None],
        *,
        first_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng=None,
        label: Optional[str] = None,
    ) -> "PeriodicTask":
        """Run *fn* every *interval* seconds until the task is stopped.

        With *jitter* in ``(0, 1)`` each delay after the first is drawn
        uniformly from ``interval * (1 ± jitter)`` with *rng*.
        """
        task = PeriodicTask(self, interval, fn, jitter=jitter, rng=rng, label=label)
        task.start(first_delay if first_delay is not None else interval)
        return task

    def event_heap(self) -> Tuple[List[tuple], Iterator[int]]:
        """The heap and its counter, for a record that is its own event to
        push ``(time, next(seq), record)``; both stay valid for good (a
        compaction rebuilds the heap in place)."""
        return self._queue, self._seq

    def _bury(self) -> None:
        """Count a tombstone; compact once they dominate the heap.

        Cancelled events stay in place until popped; under churn-heavy
        drills (mass cancellations) they would otherwise inflate memory
        and pop cost indefinitely. When more than half the heap is dead
        and the heap is non-trivial, rebuild it without tombstones —
        heapify is O(n), amortized O(1) per cancellation. The rebuild is
        in place: a running dispatch loop holds the list.
        """
        self._tombstones += 1
        queue = self._queue
        if len(queue) >= self._COMPACT_MIN and self._tombstones * 2 > len(queue):
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)
            self._tombstones = 0

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Process events until the queue drains, *until*, *max_events*,
        or *stop* returns true.

        Returns the number of events processed by this call. *stop* and
        the event budget are checked before each event is popped, so a
        stopped run leaves the next event where it was scheduled. The
        clock is advanced to *until* once every event due by then has
        fired, even if the queue drains earlier; an *until* in the past
        does nothing, and a NaN one is rejected.
        """
        if until is not None and math.isnan(until):
            raise SimulationError("cannot run until NaN")
        return self._dispatch(until, max_events, stop)

    def step(self) -> bool:
        """Process a single event; returns False when the queue is empty."""
        return self._dispatch(None, 1, None) == 1

    def _dispatch(
        self, until: Optional[float], max_events: Optional[int],
        stop: Optional[Callable[[], bool]],
    ) -> int:
        """The dispatch loop behind :meth:`run` and :meth:`step`.

        Under a profiler the loop runs inside a ``sim.dispatch`` frame
        and every handler invocation opens a child frame named after its
        event's schedule-site label, so dispatch wall time decomposes by
        event kind and plane in the call-path tree.
        """
        prof = self.profiler
        queue = self._queue
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        processed = 0
        if prof is not None:
            prof.enter("sim.dispatch")
        try:
            while max_events is None or processed < max_events:
                if stop is not None and stop():
                    break
                if not queue or queue[0][0] > horizon:
                    if until is not None and self.now < until:
                        self.now = until
                    break
                time, _, ev = pop(queue)
                if ev.cancelled:
                    self._tombstones -= 1
                    continue
                self.now = time
                ev.fired = True
                if prof is None:
                    ev.fn()
                else:
                    prof.enter(ev.label or "sim.event")
                    try:
                        ev.fn()
                    finally:
                        prof.exit()
                processed += 1
                self._processed += 1
        finally:
            if prof is not None:
                prof.exit()
        return processed


class PeriodicTask:
    """Repeating event created by :meth:`Simulator.schedule_periodic`."""

    def __init__(
        self, sim: Simulator, interval: float, fn, *,
        jitter: float = 0.0, rng=None, label: Optional[str] = None,
    ):
        # Checked here, not at the first tick that would schedule a
        # non-positive, infinite or NaN delay.
        if not 0 < interval < math.inf:
            raise SimulationError(
                f"interval must be positive and finite (interval={interval})"
            )
        if not 0 <= jitter < 1:
            raise SimulationError(f"jitter must be in [0, 1) (jitter={jitter})")
        if jitter and rng is None:
            raise SimulationError("jitter needs an rng")
        self._sim = sim
        self._interval = interval
        self._fn = fn
        self._jitter = jitter
        self._rng = rng
        self._label = label
        self._event: Optional[Event] = None
        self._stopped = False
        self.fired = 0

    def start(self, first_delay: float) -> None:
        self._event = self._sim.schedule(first_delay, self._tick, self._label)

    def _next_delay(self) -> float:
        if self._jitter:
            return self._interval * (1.0 + self._jitter * (2.0 * self._rng.random() - 1.0))
        return self._interval

    def _tick(self) -> None:
        if self._stopped:
            return
        self.fired += 1
        self._fn()
        if not self._stopped:
            self._event = self._sim.schedule(
                self._next_delay(), self._tick, self._label
            )

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped
