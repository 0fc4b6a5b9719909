"""The scheduler against a model: a sorted ``(time, seq)`` list.

A Hypothesis state machine drives one :class:`Simulator` and one plain
list model through the same schedules (ties, zero delays, schedules
made from inside handlers, bulk loads), cancellations (from rules and
from inside handlers), periodic tasks and every way of running
(``run(until=)``, ``run(max_events=)``, ``run(stop=)``, ``step``, a
run to completion). After every rule the
fired logs, the clock, ``pending`` and ``processed`` must agree and no
cancelled event may have fired; right after each cancellation the
heap's tombstones are no majority of a heap past the compaction floor.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.sim.engine import Simulator

#: few distinct values, so exact ties in time are common
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 3.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


class _Entry:
    """What the model knows of one scheduled callback."""

    __slots__ = ("tag", "child_delay", "task", "reap")

    def __init__(self, tag, child_delay=None, task=None, reap=False):
        self.tag = tag
        #: fired, the event schedules one child this far ahead
        self.child_delay = child_delay
        #: the periodic task this is a tick of
        self.task = task
        #: fired, the event cancels every pending one-shot event
        self.reap = reap


class _ModelTask:
    __slots__ = ("interval", "stopped", "entry")

    def __init__(self, interval):
        self.interval = interval
        self.stopped = False
        self.entry = None


class Model:
    """The specification: a list kept sorted by ``(time, seq)``."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.queue = []
        self.log = []
        self.processed = 0
        #: tag -> entry, for the one-shot events a rule may cancel
        self.entries = {}

    def push(self, delay, entry):
        if entry.task is None:
            self.entries[entry.tag] = entry
        self.queue.append((self.now + delay, self.seq, entry))
        self.seq += 1
        self.queue.sort(key=lambda item: item[:2])

    def remove(self, entry):
        self.queue = [item for item in self.queue if item[2] is not entry]

    def run(self, until=None, max_events=None, stop=None):
        done = 0
        while max_events is None or done < max_events:
            if stop is not None and stop():
                break
            if not self.queue or (until is not None and self.queue[0][0] > until):
                if until is not None and self.now < until:
                    self.now = until
                break
            self.now, _, entry = self.queue.pop(0)
            self.log.append((self.now, entry.tag))
            if entry.child_delay is not None:
                self.push(entry.child_delay, _Entry(entry.tag + "/child"))
            if entry.reap:
                self.queue = [item for item in self.queue if item[2].task is not None]
            task = entry.task
            if task is not None and not task.stopped:
                task.entry = _Entry(entry.tag, task=task)
                self.push(task.interval, task.entry)
            done += 1
            self.processed += 1
        return done


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.model = Model()
        self.log = []
        #: tag -> the simulator's handle of a one-shot event
        self.handles = {}
        self.cancelled = set()
        #: [(PeriodicTask, _ModelTask)]
        self.tasks = []
        self.counter = 0

    # -- helpers ---------------------------------------------------------------
    def _tag(self):
        self.counter += 1
        return f"e{self.counter}"

    def _handler(self, tag, child_delay):
        def fire():
            self.log.append((self.sim.now, tag))
            if child_delay is not None:
                child = tag + "/child"
                self.handles[child] = self.sim.schedule(
                    child_delay, self._handler(child, None)
                )

        return fire

    def _reaper(self, tag):
        def fire():
            self.log.append((self.sim.now, tag))
            for other, ev in self.handles.items():
                if not (ev.fired or ev.cancelled):
                    ev.cancel()
                    self.cancelled.add(other)

        return fire

    def _schedule(self, delay, child_delay):
        tag = self._tag()
        self.handles[tag] = self.sim.schedule(delay, self._handler(tag, child_delay))
        self.model.push(delay, _Entry(tag, child_delay))

    def _cancel(self, tag):
        ev = self.handles[tag]
        live = not (ev.fired or ev.cancelled)
        ev.cancel()
        entry = self.model.entries.get(tag)
        if any(item[2] is entry for item in self.model.queue):
            self.cancelled.add(tag)
            self.model.remove(entry)
        if live:  # a new tombstone: the compaction rule has just run
            n = len(self.sim._queue)
            assert n < Simulator._COMPACT_MIN or self.sim._tombstones * 2 <= n

    def _active_tasks(self):
        return [pair for pair in self.tasks if not pair[0].stopped]

    # -- rules -----------------------------------------------------------------
    @rule(delay=DELAYS, child_delay=st.none() | DELAYS)
    def schedule(self, delay, child_delay):
        self._schedule(delay, child_delay)

    @rule(n=st.integers(1, 90), delay=DELAYS, spread=st.sampled_from([0.0, 0.1, 1.0]))
    def schedule_many(self, n, delay, spread):
        # Past the compaction floor, with ties whenever spread is 0.
        for i in range(n):
            self._schedule(delay + spread * (i % 7), None)

    @rule(delay=DELAYS)
    def schedule_reaper(self, delay):
        # A handler that cancels every pending one-shot: past the floor,
        # the heap is compacted under the running dispatch loop.
        tag = self._tag()
        self.handles[tag] = self.sim.schedule(delay, self._reaper(tag))
        self.model.push(delay, _Entry(tag, reap=True))

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def cancel(self, data):
        # Any tag: a live event, or a no-op on a fired or cancelled one.
        self._cancel(data.draw(st.sampled_from(sorted(self.handles))))

    @precondition(lambda self: self.handles)
    @rule(stride=st.integers(1, 3))
    def cancel_many(self, stride):
        # Mass cancellation: drives the tombstone count over half.
        for tag in sorted(self.handles)[::stride]:
            self._cancel(tag)

    @rule(interval=st.sampled_from([0.5, 1.0, 2.0, 0.3]), first=st.none() | DELAYS)
    def start_periodic(self, interval, first):
        tag = f"p{len(self.tasks)}"
        sim_task = self.sim.schedule_periodic(
            interval, lambda: self.log.append((self.sim.now, tag)), first_delay=first
        )
        model_task = _ModelTask(interval)
        model_task.entry = _Entry(tag, task=model_task)
        self.model.push(interval if first is None else first, model_task.entry)
        self.tasks.append((sim_task, model_task))

    @precondition(lambda self: any(not t.stopped for t, _ in self.tasks))
    @rule(data=st.data())
    def stop_periodic(self, data):
        sim_task, model_task = data.draw(st.sampled_from(self._active_tasks()))
        sim_task.stop()
        model_task.stopped = True
        self.model.remove(model_task.entry)

    @rule(dt=st.sampled_from([-1.0, 0.0, 0.3, 1.0, 2.5, 6.0]))
    def run_until(self, dt):
        until = self.sim.now + dt
        assert self.sim.run(until=until) == self.model.run(until=until)

    @rule(k=st.integers(0, 12))
    def run_max_events(self, k):
        assert self.sim.run(max_events=k) == self.model.run(max_events=k)

    @rule(n=st.integers(0, 8))
    def run_stop(self, n):
        sim_target = len(self.log) + n
        model_target = len(self.model.log) + n
        got = self.sim.run(stop=lambda: len(self.log) >= sim_target)
        want = self.model.run(stop=lambda: len(self.model.log) >= model_target)
        assert got == want

    @rule()
    def step(self):
        assert self.sim.step() == (self.model.run(max_events=1) == 1)

    @precondition(lambda self: not any(not t.stopped for t, _ in self.tasks))
    @rule()
    def run_to_completion(self):
        assert self.sim.run() == self.model.run()

    # -- invariants ------------------------------------------------------------
    @invariant()
    def fired_log_is_the_models(self):
        assert self.log == self.model.log

    @invariant()
    def counters_agree(self):
        assert self.sim.now == self.model.now
        assert self.sim.processed == self.model.processed
        assert self.sim.pending == len(self.model.queue)

    @invariant()
    def no_cancelled_event_fired(self):
        fired = {tag for _, tag in self.log}
        assert not fired & self.cancelled
        for tag in self.cancelled:
            ev = self.handles[tag]
            assert ev.cancelled and not ev.fired and ev.fn is None


SchedulerMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestSchedulerAgainstModel = SchedulerMachine.TestCase

