"""The event heap's ordering tripwires and its tombstone compaction.

These tests once held the dispatcher's timing wheel to the heap behind
it. The queue is one ``(time, seq)`` heap now, so each compares two runs
of it that must not differ: a workload whose cancelled events wait as
tombstones (and are partly compacted away) against the same workload
never given them, and runs cut short by ``max_events`` against one
uninterrupted run. Tombstones must be compacted before they dominate.
``tests/test_scheduler_model.py`` holds the heap to a sorted-list model.
"""

import numpy as np
import pytest

from repro.sim.engine import Simulator

#: one-shots the mixed workload loads, and periodic tasks it starts
N_ONE_SHOTS, N_PERIODIC = 400, 6


def _mixed_workload(sim: Simulator, seed: int, cancel: bool) -> list:
    """Load a randomized mix of one-shots, periodics and nested
    schedules; returns the firing log, which ``sim.run`` fills.

    Two in three one-shots are doomed: with *cancel* they are scheduled
    and then cancelled (enough to trigger a compaction and leave
    tombstones after it), without it they are never scheduled. The
    random draws are the same either way."""
    rng = np.random.default_rng(seed)
    log = []
    handles = []

    def fire(tag):
        log.append((round(sim.now, 9), tag))
        # Nested schedules from inside handlers, same-instant ones too.
        if rng.random() < 0.3:
            tag2 = f"{tag}+n"
            sim.schedule(float(rng.choice([0.0, 0.01, 0.5])),
                         lambda: log.append((round(sim.now, 9), tag2)))

    for i in range(N_ONE_SHOTS):
        # Dense near-future delays, far-future ones and exact ties.
        delay = float(rng.choice([
            rng.uniform(0, 2), rng.uniform(0, 60),
            rng.uniform(3000, 8000), 1.0, 1.0,
        ]))
        if cancel or i % 3 == 2:
            handles.append(sim.schedule(delay, lambda i=i: fire(f"e{i}")))
    for j in range(N_PERIODIC):
        sim.schedule_periodic(
            0.7 + 0.1 * j, lambda j=j: log.append((round(sim.now, 9), f"p{j}")),
            first_delay=0.1 * j,
        )
    if cancel:
        for k, h in enumerate(handles):
            if k % 3 != 2:
                h.cancel()
    return log


class TestWheelHeapEquivalence:
    """Runs of the one heap that must fire identically."""

    def test_firing_log_identical(self):
        for seed in (1, 7):
            cancelled, skipped = Simulator(), Simulator()
            cancelled_log = _mixed_workload(cancelled, seed, cancel=True)
            skipped_log = _mixed_workload(skipped, seed, cancel=False)
            # compacted once, with tombstones left to pop
            assert len(cancelled._queue) < N_ONE_SHOTS + N_PERIODIC
            assert cancelled._tombstones > 0
            cancelled.run(until=40.0)
            skipped.run(until=40.0)
            assert cancelled_log == skipped_log
            assert cancelled_log  # the workload actually fired

    def test_clock_and_counters_identical(self):
        a, b = Simulator(), Simulator()
        _mixed_workload(a, 3, cancel=True)
        _mixed_workload(b, 3, cancel=False)
        assert a.pending == b.pending
        a.run(until=40.0)
        b.run(until=40.0)
        assert a.now == b.now
        assert a.processed == b.processed
        assert a.pending == b.pending

    def test_max_events_resumes_identically(self):
        def drive(sim, budget):
            log = []
            for i in range(50):
                sim.schedule(0.01 * (i % 7), lambda i=i: log.append(i))
            if budget is None:
                sim.run()
            else:
                while sim.run(max_events=budget):
                    pass
            return log

        assert drive(Simulator(), 7) == drive(Simulator(), None)

    @pytest.mark.parametrize("compacted", [True, False])
    def test_stopped_run_leaves_the_next_event_in_place(self, compacted):
        """``run(max_events=k)`` then ``run()`` fires the ``(time, seq)``
        order of one uninterrupted ``run()``, whether or not a compaction
        rebuilt the heap between the two runs."""

        def load(sim):
            log = []
            for i in range(40):
                # exact ties, near delays and two far past the rest
                delay = 5000.0 if i in (7, 23) else 0.01 * (i % 5)
                sim.schedule(delay, lambda i=i: log.append((sim.now, i)))
            return log

        whole = Simulator()
        expected = load(whole)
        whole.run()

        sim = Simulator()
        log = load(sim)
        # tied with events still due, and all cancelled before they are
        doomed = [
            sim.schedule(0.02, lambda: log.append("cancelled"))
            for _ in range(60 if compacted else 0)
        ]
        assert len(sim._queue) == 40 + len(doomed)
        assert sim.run(max_events=9) == 9
        assert sim.pending == 31 + len(doomed)
        for ev in doomed:
            ev.cancel()
        if compacted:
            assert len(sim._queue) < 31 + len(doomed)
        assert sim.pending == 31
        sim.run()
        assert log == expected


class TestHeapCompaction:
    def test_tombstones_compacted_above_half(self):
        sim = Simulator()
        handles = [sim.schedule(5000.0 + i, lambda: None) for i in range(200)]
        for h in handles[:101]:
            h.cancel()
        assert len(sim._queue) < 200
        assert sim._tombstones == 0
        assert all(not ev.cancelled for _, _, ev in sim._queue)
        assert sim.pending == 99

    def test_small_heaps_left_alone(self):
        sim = Simulator()
        handles = [sim.schedule(5000.0 + i, lambda: None) for i in range(10)]
        for h in handles:
            h.cancel()
        # Below the compaction floor: tombstones stay until popped.
        assert len(sim._queue) == 10
        sim.run()
        assert sim.processed == 0

    def test_compaction_preserves_order(self):
        sim = Simulator()
        log = []
        handles = [
            sim.schedule(float(i % 13) + 1.0, lambda i=i: log.append(i))
            for i in range(300)
        ]
        cancelled = {i for i in range(300) if i % 2 == 0}
        for i in sorted(cancelled):
            handles[i].cancel()
        ref = Simulator()
        ref_log = []
        for i in range(300):
            if i not in cancelled:
                ref.schedule(float(i % 13) + 1.0, lambda i=i: ref_log.append(i))
        sim.run()
        ref.run()
        assert log == ref_log

    def test_compaction_inside_a_handler_keeps_the_running_loop(self):
        # A handler's mass cancellation rebuilds the heap in place: the
        # dispatch loop that called it pops from the same list.
        sim = Simulator()
        log = []
        victims = [sim.schedule(2.0 + i, lambda: log.append("dead")) for i in range(100)]
        survivors = [sim.schedule(3.5, lambda i=i: log.append(i)) for i in range(3)]

        def cancel_all():
            for ev in victims:
                ev.cancel()

        sim.schedule(1.0, cancel_all)
        assert sim.run() == 4
        assert log == [0, 1, 2] and sim.pending == 0
        assert all(ev.fired for ev in survivors)
