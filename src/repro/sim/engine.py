"""Discrete-event simulation engine.

A minimal, deterministic event scheduler: events are ``(time, seq, fn)``
triples dispatched in strict ``(time, seq)`` order so runs are
reproducible. Nodes in the network layers are reactive actors whose
handlers schedule further events.

Dispatch is backed by two structures with identical ordering semantics:

* a **hierarchical timing wheel** (:class:`TimingWheel`) — a sparse,
  two-level calendar queue that absorbs the periodic planes' dense
  near-future traffic (summary pushes, replica fan-out, message
  deliveries) with O(1) bucket appends and one lazy sort per bucket;
* a **binary heap** retained for aperiodic / far-future one-shot events
  (TTL expiries, drill timers) beyond the wheel horizon.

Every pop merges the wheel's next event against the heap top by
``(time, seq)``, so ties in time still break by insertion order and the
interleaving is that of the heap alone (``Simulator(use_wheel=False)``,
the reference the wheel is tested against). One dispatch loop serves
:meth:`Simulator.run` and :meth:`Simulator.step`, profiled or not, and
"run until something is done" is ``run(stop=predicate)``.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from typing import Callable, Dict, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (negative or NaN delays, running backwards)."""


#: process-wide default for ``Simulator(use_wheel=...)``. The
#: equivalence tripwire flips this to run entire scenarios on the pure
#: heap dispatcher and assert the wheel changes nothing observable.
DEFAULT_USE_WHEEL = True


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "seq", "fn", "cancelled", "fired", "label", "_sim", "_in_heap")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[[], None],
        sim=None,
        label: Optional[str] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.fired = False
        #: profiling frame name for this event's handler (None = generic);
        #: schedule sites only pay for it when a profiler is attached
        self.label = label
        self._sim = sim
        #: whether the event sits on the overflow heap (vs the wheel);
        #: lets ``cancel`` keep the heap's tombstone ratio exact.
        self._in_heap = False

    def cancel(self) -> None:
        """Cancel the event; no-op if already cancelled or fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        # A tombstone may sit in its bucket for the whole delay (a 5 s
        # query timeout, say); it must not pin the callback's owner.
        self.fn = None
        # Keep the owning simulator's live-event counter exact so
        # ``Simulator.pending`` stays O(1); heap tombstones are counted
        # so the scheduler can compact them before they dominate.
        sim = self._sim
        if sim is not None:
            sim._pending -= 1
            if self._in_heap:
                sim._note_heap_cancel()

    def __lt__(self, other: "Event") -> bool:
        # Hot path for heap sifts, bucket sorts and bisects: avoid the
        # tuple allocation of ``(time, seq) < (time, seq)``.
        t = self.time
        ot = other.time
        return t < ot or (t == ot and self.seq < other.seq)


class TimingWheel:
    """Sparse two-level calendar queue with exact ``(time, seq)`` ordering.

    Level 0 buckets events by ``floor(time / tick)``; level 1 by the same
    at granularity ``tick * fanout``. Buckets are dict-sparse (empty slots
    cost nothing) and unsorted until they become *current*, at which point
    one Timsort puts them in ``(time, seq)`` order. Events landing in the
    slot currently being drained are bisect-inserted past the drain
    cursor, which preserves exact ordering for same-slot schedules made
    from inside handlers.
    """

    __slots__ = (
        "tick",
        "fanout",
        "horizon",
        "_b0",
        "_b1",
        "_h0",
        "_h1",
        "_current",
        "_ci",
        "_cslot",
        "_len",
    )

    def __init__(self, tick: float = 0.05, fanout: int = 256):
        if tick <= 0:
            raise SimulationError("wheel tick must be positive")
        if fanout < 2:
            raise SimulationError("wheel fanout must be at least 2")
        self.tick = tick
        self.fanout = fanout
        #: absolute reach of the wheel from t=0 slot arithmetic; the
        #: simulator keeps events further than this *relative* distance
        #: on the overflow heap.
        self.horizon = tick * fanout * fanout
        self._b0: Dict[int, List[Event]] = {}
        self._b1: Dict[int, List[Event]] = {}
        self._h0: List[int] = []
        self._h1: List[int] = []
        self._current: List[Event] = []
        self._ci = 0
        self._cslot = -1
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def push(self, ev: Event) -> None:
        self._len += 1
        s0 = int(ev.time / self.tick)
        if s0 <= self._cslot:
            # Event lands in the slot being drained: keep the drained
            # prefix intact and insert into the sorted remainder.
            bisect.insort(self._current, ev, self._ci)
        elif s0 - self._cslot < self.fanout:
            b = self._b0.get(s0)
            if b is None:
                self._b0[s0] = [ev]
                heapq.heappush(self._h0, s0)
            else:
                b.append(ev)
        else:
            s1 = s0 // self.fanout
            b = self._b1.get(s1)
            if b is None:
                self._b1[s1] = [ev]
                heapq.heappush(self._h1, s1)
            else:
                b.append(ev)

    def _cascade(self) -> None:
        """Spill level-1 buckets due at or before the next level-0 bucket.

        A level-1 bucket ``s1`` covers level-0 slots
        ``[s1*fanout, (s1+1)*fanout)``; it must be redistributed before
        any level-0 slot at or past its start is drained.
        """
        h0, h1 = self._h0, self._h1
        b0, b1 = self._b0, self._b1
        fanout = self.fanout
        tick = self.tick
        while h1 and (not h0 or h1[0] * fanout <= h0[0]):
            s1 = heapq.heappop(h1)
            for ev in b1.pop(s1):
                s0 = int(ev.time / tick)
                b = b0.get(s0)
                if b is None:
                    b0[s0] = [ev]
                    heapq.heappush(h0, s0)
                else:
                    b.append(ev)

    def peek(self) -> Optional[Event]:
        """Next event in ``(time, seq)`` order, or None. Primes buckets."""
        while self._ci >= len(self._current):
            if self._h1:
                self._cascade()
            if not self._h0:
                if self._current:
                    self._current = []
                    self._ci = 0
                return None
            slot = heapq.heappop(self._h0)
            bucket = self._b0.pop(slot)
            bucket.sort()
            self._current = bucket
            self._ci = 0
            self._cslot = slot
        return self._current[self._ci]


class Simulator:
    """Wheel-and-heap discrete-event scheduler with a virtual clock."""

    #: minimum heap size before tombstone compaction is considered
    _COMPACT_MIN = 64

    def __init__(self, *, use_wheel: Optional[bool] = None):
        if use_wheel is None:
            use_wheel = DEFAULT_USE_WHEEL
        self._now = 0.0
        #: overflow heap: aperiodic / far-future one-shots beyond the
        #: wheel horizon (and everything, when the wheel is disabled)
        self._queue: List[Event] = []
        self._wheel: Optional[TimingWheel] = TimingWheel() if use_wheel else None
        self._seq = itertools.count()
        self._processed = 0
        # Live (not-yet-fired, not-cancelled) event count, maintained on
        # schedule/cancel/fire so ``pending`` never scans the structures.
        self._pending = 0
        #: cancelled-but-unpopped events still sitting on the heap
        self._heap_cancelled = 0
        #: optional call-path profiler
        #: (:class:`repro.telemetry.profiling.CallPathProfiler`); when
        #: set, the dispatch loop opens a ``sim.dispatch`` frame, every
        #: handler invocation gets a child frame named after its event
        #: label (``sim.event`` when unlabeled). ``None`` (the default)
        #: costs the loop one ``is None`` check per event.
        self.profiler = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (not-yet-fired, non-cancelled) events. O(1)."""
        return self._pending

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(
        self,
        delay: float,
        fn: Callable[[], None],
        label: Optional[str] = None,
    ) -> Event:
        """Run *fn* at ``now + delay``; returns a cancellable handle.

        *label* names the handler's profiling frame; pass it only when a
        profiler is attached (it is dead weight otherwise).
        """
        if not delay >= 0:  # also rejects NaN, which ``delay < 0`` lets through
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        ev = Event(self._now + delay, next(self._seq), fn, self, label)
        wheel = self._wheel
        if wheel is not None and delay < wheel.horizon:
            wheel.push(ev)
        else:
            ev._in_heap = True
            heapq.heappush(self._queue, ev)
        self._pending += 1
        return ev

    def schedule_at(
        self,
        time: float,
        fn: Callable[[], None],
        label: Optional[str] = None,
    ) -> Event:
        """Run *fn* at absolute virtual *time* (must be >= now)."""
        return self.schedule(time - self._now, fn, label)

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
        """Run *fn* every *interval* seconds until the task is stopped."""
        if interval <= 0:
            raise SimulationError("interval must be positive")
        task = PeriodicTask(self, interval, fn, jitter=jitter, rng=rng, label=label)
        task.start(first_delay if first_delay is not None else interval)
        return task

    # -- merged wheel/heap access -------------------------------------------------
    def _peek(self) -> Optional[Event]:
        """Next event in global ``(time, seq)`` order without removing it."""
        heap = self._queue
        hev = heap[0] if heap else None
        wheel = self._wheel
        wev = wheel.peek() if wheel is not None else None
        if wev is None:
            return hev
        if hev is None or wev < hev:
            return wev
        return hev

    def _pop(self, ev: Event) -> None:
        """Remove *ev*, the event just returned by :meth:`_peek`."""
        if ev._in_heap:
            heapq.heappop(self._queue)
            if ev.cancelled:
                self._heap_cancelled -= 1
        else:
            # Step the wheel's drain cursor past it: ``_peek`` primed it.
            wheel = self._wheel
            wheel._ci += 1
            wheel._len -= 1

    def _note_heap_cancel(self) -> None:
        """Count a heap tombstone; compact once they dominate the heap.

        Cancelled events stay in place until popped; under churn-heavy
        drills (mass cancellations) they would otherwise inflate memory
        and pop cost indefinitely. When more than half the heap is dead
        and the heap is non-trivial, rebuild it without tombstones —
        heapify is O(n), amortized O(1) per cancellation.
        """
        self._heap_cancelled += 1
        n = len(self._queue)
        if n >= self._COMPACT_MIN and self._heap_cancelled * 2 > n:
            self._queue = [ev for ev in self._queue if not ev.cancelled]
            heapq.heapify(self._queue)
            self._heap_cancelled = 0

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
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
        self,
        until: Optional[float],
        max_events: Optional[int],
        stop: Optional[Callable[[], bool]],
    ) -> int:
        """The dispatch loop behind :meth:`run` and :meth:`step`.

        Under a profiler the loop runs inside a ``sim.dispatch`` frame
        and every handler invocation opens a child frame named after its
        event's schedule-site label, so dispatch wall time decomposes by
        event kind and plane in the call-path tree.
        """
        prof = self.profiler
        processed = 0
        if prof is not None:
            prof.enter("sim.dispatch")
        try:
            while max_events is None or processed < max_events:
                if stop is not None and stop():
                    break
                ev = self._peek()
                if ev is None or (until is not None and ev.time > until):
                    if until is not None and self._now < until:
                        self._now = until
                    break
                self._pop(ev)
                if ev.cancelled:
                    continue
                self._now = ev.time
                ev.fired = True
                self._pending -= 1
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
        self,
        sim: Simulator,
        interval: float,
        fn,
        *,
        jitter: float = 0.0,
        rng=None,
        label: Optional[str] = None,
    ):
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
        if self._jitter and self._rng is not None:
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
