"""Unit tests for repro.sim.engine."""

import weakref

import pytest

from repro.sim import SimulationError, Simulator
from repro.telemetry import CallPathProfiler


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        # ``nan < 0`` is false: an unchecked NaN would sit on the heap
        # and turn the clock into NaN when it fires.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending == 0
        never = sim.schedule(float("inf"), lambda: None)  # "never" is legal
        assert sim.pending == 1 and not never.fired

    def test_schedule_at(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]


class TestRunControl:
    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        n = sim.run(until=5.0)
        assert n == 1 and fired == [1]
        assert sim.now == 5.0  # clock advanced to the horizon
        sim.run()
        assert fired == [1, 10]

    def test_run_max_events(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending == 2

    def test_step(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        assert sim.step() is True
        assert sim.step() is False
        assert fired == [1]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append(1))
        ev.cancel()
        sim.run()
        assert fired == []

    def test_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed == 4

    def test_run_until_nan_is_rejected(self):
        # ``ev.time > nan`` is never true: an unchecked NaN bound would
        # drain the whole queue (forever, under a periodic task).
        sim = Simulator()
        fired = []
        sim.schedule(11.0, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert fired == [] and sim.now == 0.0 and sim.processed == 0

    def test_run_until_the_past_does_nothing(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run(until=5.0)
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=2.0) == 0
        assert sim.now == 5.0 and sim.pending == 1


@pytest.mark.parametrize("use_wheel", [True, False], ids=["wheel", "heap"])
class TestRunStop:
    """``run(stop=...)`` is "run until something is done": the predicate
    is asked before every event, exactly where a hand-written
    ``while not done() and sim.step()`` loop asks it."""

    @staticmethod
    def _load(sim, n=10):
        fired = []
        for i in range(n):
            # ties, in-wheel delays and one beyond the wheel horizon
            delay = 5000.0 if i == 7 else 0.5 * (i // 2)
            sim.schedule(delay, lambda i=i: fired.append(i))
        return fired

    def test_stops_before_popping_and_leaves_the_next_event(self, use_wheel):
        sim = Simulator(use_wheel=use_wheel)
        fired = self._load(sim)
        asked = []

        def stop():
            asked.append(len(fired))
            return len(fired) == 4

        assert sim.run(stop=stop) == 4
        assert asked == [0, 1, 2, 3, 4]
        assert sim.pending == 6 and sim.now == 0.5  # event 4 (t=1) waits
        assert sim.run() == 6
        assert fired == [0, 1, 2, 3, 4, 5, 6, 8, 9, 7]

    def test_is_the_hand_written_step_loop(self, use_wheel):
        def drive(loop):
            sim = Simulator(use_wheel=use_wheel)
            fired = self._load(sim)
            n = loop(sim, lambda: 6 in fired)
            return fired, n, sim.now, sim.pending

        def stepped(sim, done):
            n = 0
            while not done() and sim.step():
                n += 1
            return n

        assert drive(lambda sim, done: sim.run(stop=done)) == drive(stepped)

    def test_true_at_once_processes_nothing(self, use_wheel):
        sim = Simulator(use_wheel=use_wheel)
        fired = self._load(sim)
        assert sim.run(stop=lambda: True) == 0
        assert fired == [] and sim.pending == 10 and sim.now == 0.0

    def test_composes_with_max_events_and_until(self, use_wheel):
        sim = Simulator(use_wheel=use_wheel)
        fired = self._load(sim)
        # the budget binds first
        assert sim.run(max_events=2, stop=lambda: len(fired) >= 5) == 2
        # then the predicate; a stopped run does not jump to *until*
        assert sim.run(until=100.0, stop=lambda: len(fired) >= 5) == 3
        assert sim.now == 1.0
        # then the bound, which the clock reaches once nothing is due
        assert sim.run(until=100.0, stop=lambda: False) == 4
        assert sim.now == 100.0 and fired == [0, 1, 2, 3, 4, 5, 6, 8, 9]
        assert sim.pending == 1


def _frame_calls(prof: CallPathProfiler) -> dict:
    """``{call path: calls}`` of every frame the profiler recorded."""
    out = {}

    def visit(node, path):
        for child in node["children"]:
            out[path + (child["name"],)] = child["calls"]
            visit(child, path + (child["name"],))

    visit(prof.document()["tree"], ())
    return out


class TestProfiledDispatch:
    """``run`` and ``step`` share one loop, so they profile alike: a
    ``sim.dispatch`` frame per call, a child frame per handler named
    after its label."""

    @pytest.fixture(params=[True, False], ids=["wheel", "heap"])
    def profiled(self, request):
        sim = Simulator(use_wheel=request.param)
        sim.profiler = CallPathProfiler()
        sim.schedule(1.0, lambda: None, "a")
        sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None, "a")
        sim.schedule(2.5, lambda: None).cancel()
        return sim

    def test_run_frames(self, profiled):
        assert profiled.run() == 3
        assert _frame_calls(profiled.profiler) == {
            ("sim.dispatch",): 1,
            ("sim.dispatch", "a"): 2,
            ("sim.dispatch", "sim.event"): 1,
        }

    def test_step_frames(self, profiled):
        assert [profiled.step() for _ in range(4)] == [True, True, True, False]
        assert _frame_calls(profiled.profiler) == {
            ("sim.dispatch",): 4,
            ("sim.dispatch", "a"): 2,
            ("sim.dispatch", "sim.event"): 1,
        }

    def test_handler_error_closes_frames(self, profiled):
        def boom():
            raise RuntimeError("handler failed")

        profiled.schedule(0.5, boom, "boom")
        with pytest.raises(RuntimeError):
            profiled.step()
        profiled.profiler.enter("next")  # opens at the root again
        assert ("next",) in _frame_calls(profiled.profiler)


class TestPendingCounter:
    """``Simulator.pending`` is an exact O(1) live-event count."""

    def test_cancel_decrements_pending(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        ev.cancel()
        assert sim.pending == 1

    def test_double_cancel_is_noop(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert sim.pending == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        ev.cancel()
        assert sim.pending == 0

    def test_max_events_pushback_keeps_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=2)
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0

    def test_cancelled_events_never_fire_and_drain(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(2.0, lambda: fired.append("keep"))
        drop = sim.schedule(1.0, lambda: fired.append("drop"))
        drop.cancel()
        assert sim.pending == 1
        sim.run()
        assert fired == ["keep"]
        assert sim.pending == 0
        assert keep.fired and not drop.fired


class TestCancelReleasesCallback:
    """A cancelled event keeps its place in the structures until popped,
    but not its callback (nor whatever the callback closes over)."""

    class _Owner:
        def callback(self):
            raise AssertionError("a cancelled event fired")

    #: delay inside the wheel horizon / beyond it (overflow heap)
    WHEEL, HEAP = 5.0, 1e6

    @pytest.mark.parametrize("delay", [WHEEL, HEAP])
    def test_cancel_frees_the_callback_without_gc(self, delay):
        sim = Simulator()
        owner = self._Owner()
        alive = weakref.ref(owner)
        ev = sim.schedule(delay, owner.callback)
        assert ev._in_heap == (delay == self.HEAP)
        del owner
        assert alive() is not None  # pinned by the pending event
        ev.cancel()
        # Freed by reference count: the tombstone is still scheduled.
        assert alive() is None and ev.fn is None
        assert sim.pending == 0
        assert sim.run() == 0

    def test_cancel_of_a_fired_event_is_still_a_noop(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        fn = ev.fn
        ev.cancel()
        assert ev.fired and not ev.cancelled and ev.fn is fn
        assert fired == [1.0] and sim.pending == 0

    def test_heap_tombstone_compaction_counts_unchanged(self):
        sim = Simulator()
        events = [sim.schedule(self.HEAP + i, lambda: None) for i in range(128)]
        for ev in events[:64]:
            ev.cancel()
        # Exactly half dead: no compaction yet.
        assert len(sim._queue) == 128 and sim._heap_cancelled == 64
        events[64].cancel()
        assert len(sim._queue) == 63 and sim._heap_cancelled == 0
        assert sim.pending == 63
        assert sim.run() == 63 and sim.pending == 0


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        sim = Simulator()
        ticks = []
        task = sim.schedule_periodic(2.0, lambda: ticks.append(sim.now))
        sim.run(until=9.0)
        assert ticks == [2.0, 4.0, 6.0, 8.0]
        assert task.fired == 4

    def test_first_delay(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(5.0, lambda: ticks.append(sim.now), first_delay=0.0)
        sim.run(until=11.0)
        assert ticks == [0.0, 5.0, 10.0]

    def test_stop(self):
        sim = Simulator()
        ticks = []
        task = sim.schedule_periodic(1.0, lambda: ticks.append(sim.now))
        sim.run(until=2.5)
        task.stop()
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert task.stopped

    def test_stop_from_within_callback(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                task.stop()

        task = sim.schedule_periodic(1.0, tick)
        sim.run(until=10.0)
        assert len(ticks) == 2

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_periodic(0.0, lambda: None)

    def test_jitter_bounded(self):
        import numpy as np

        sim = Simulator()
        ticks = []
        rng = np.random.default_rng(0)
        sim.schedule_periodic(
            10.0, lambda: ticks.append(sim.now), jitter=0.1, rng=rng
        )
        sim.run(until=100.0)
        gaps = np.diff([0.0] + ticks)
        assert all(9.0 <= g <= 11.0 for g in gaps)
