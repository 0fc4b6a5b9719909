"""Timing wheel vs heap: exact ordering equivalence and compaction.

The tripwires behind the vectorized dispatch core: the wheel-backed
scheduler must be observationally identical to the heap alone
(``use_wheel=False``) — same firing order, same clocks, same census fingerprint —
for any seeded workload, and heap tombstones must be compacted before
they dominate.
"""

import numpy as np
import pytest

import repro.sim.engine as engine
from repro.bench import RunPlan, profile_scenario, run_scenario
from repro.sim.engine import Simulator, TimingWheel


def _mixed_workload(sim: Simulator, seed: int) -> list:
    """Drive a randomized mix of one-shots, periodics, nested schedules
    and cancellations; returns the observed firing log."""
    rng = np.random.default_rng(seed)
    log = []
    handles = []

    def fire(tag):
        log.append((round(sim.now, 9), tag))
        # Nested schedules from inside handlers, including same-instant
        # ones that land in the slot currently being drained.
        if rng.random() < 0.3:
            tag2 = f"{tag}+n"
            sim.schedule(float(rng.choice([0.0, 0.01, 0.5])),
                         lambda: log.append((round(sim.now, 9), tag2)))

    for i in range(400):
        # Mix dense near-future delays (wheel) with far-future ones
        # beyond the 3276.8s default horizon (overflow heap) and exact
        # ties (seq-ordered).
        delay = float(rng.choice([
            rng.uniform(0, 2), rng.uniform(0, 60),
            rng.uniform(3000, 8000), 1.0, 1.0,
        ]))
        handles.append(sim.schedule(delay, lambda i=i: fire(f"e{i}")))
    for j in range(6):
        sim.schedule_periodic(
            0.7 + 0.1 * j, lambda j=j: log.append((round(sim.now, 9), f"p{j}")),
            first_delay=0.1 * j,
        )
    # Cancel a deterministic third of the one-shots.
    for k, h in enumerate(handles):
        if k % 3 == 0:
            h.cancel()
    sim.run(until=40.0)
    return log


class TestWheelHeapEquivalence:
    def test_firing_log_identical(self):
        for seed in (1, 7):
            wheel_log = _mixed_workload(Simulator(use_wheel=True), seed)
            heap_log = _mixed_workload(Simulator(use_wheel=False), seed)
            assert wheel_log == heap_log
            assert wheel_log  # the workload actually fired

    def test_clock_and_counters_identical(self):
        a, b = Simulator(use_wheel=True), Simulator(use_wheel=False)
        _mixed_workload(a, 3)
        _mixed_workload(b, 3)
        assert a.now == b.now
        assert a.processed == b.processed
        assert a.pending == b.pending

    def test_max_events_resumes_identically(self):
        def drive(sim):
            log = []
            for i in range(50):
                sim.schedule(0.01 * (i % 7), lambda i=i: log.append(i))
            while sim.run(max_events=7):
                pass
            return log

        assert drive(Simulator(use_wheel=True)) == drive(
            Simulator(use_wheel=False)
        )

    @pytest.mark.parametrize("use_wheel", [True, False])
    def test_stopped_run_leaves_the_next_event_in_place(self, use_wheel):
        """``run(max_events=k)`` then ``run()`` fires the ``(time, seq)``
        order of one uninterrupted ``run()``, and stopping never moves a
        wheel-resident event onto the overflow heap."""

        def load(sim):
            log = []
            for i in range(40):
                # exact ties, in-wheel delays and two past the horizon
                delay = 5000.0 if i in (7, 23) else 0.01 * (i % 5)
                sim.schedule(delay, lambda i=i: log.append((sim.now, i)))
            return log

        whole = Simulator(use_wheel=use_wheel)
        expected = load(whole)
        whole.run()

        sim = Simulator(use_wheel=use_wheel)
        log = load(sim)
        heap_before = len(sim._queue)
        assert heap_before == (2 if use_wheel else 40)
        assert sim.run(max_events=9) == 9
        if use_wheel:
            assert len(sim._queue) == heap_before
        assert sim.pending == 31
        sim.run()
        assert log == expected

    def test_far_future_lands_on_heap(self):
        sim = Simulator()
        near = sim.schedule(1.0, lambda: None)
        far = sim.schedule(10_000.0, lambda: None)
        assert not near._in_heap
        assert far._in_heap

    def test_wheel_validation(self):
        with pytest.raises(engine.SimulationError):
            TimingWheel(tick=0.0)
        with pytest.raises(engine.SimulationError):
            TimingWheel(fanout=1)


class TestSystemLevelEquivalence:
    """Whole-scenario tripwire: flipping the dispatcher must change
    nothing observable about a seeded canonical run."""

    @pytest.fixture(scope="class")
    def pair(self):
        plan = RunPlan("overlay", scale="smoke", seed=3)
        results = {}
        for use_wheel in (True, False):
            old = engine.DEFAULT_USE_WHEEL
            engine.DEFAULT_USE_WHEEL = use_wheel
            try:
                results[use_wheel] = (
                    run_scenario(plan),
                    profile_scenario("smoke", 3),
                )
            finally:
                engine.DEFAULT_USE_WHEEL = old
        return results

    def test_latency_summaries_agree(self, pair):
        lat_wheel = pair[True][0].simulated["latency"]
        lat_heap = pair[False][0].simulated["latency"]
        assert lat_wheel == lat_heap

    def test_event_counts_and_mix_agree(self, pair):
        sim_wheel = pair[True][0].simulated
        sim_heap = pair[False][0].simulated
        assert sim_wheel["events_processed"] == sim_heap["events_processed"]
        # delivery mix: the network's per-kind, per-destination event
        # census, read from the plain run's artifact and the profiled
        # run's document alike
        assert pair[True][0].profile == pair[False][0].profile
        assert pair[True][1]["census"] == pair[False][1]["census"]
        assert pair[True][1]["census"]

    def test_census_fingerprint_identical(self, pair):
        # One stamp, whichever dispatcher ran and whether or not a
        # profiler watched: the census is the network's.
        stamps = {
            pair[use_wheel][0].profile["census_fingerprint"]
            for use_wheel in (True, False)
        } | {
            pair[use_wheel][1]["census_fingerprint"]
            for use_wheel in (True, False)
        }
        assert len(stamps) == 1 and None not in stamps

    def test_deterministic_metrics_agree(self, pair):
        from repro.bench import comparable_dict

        assert comparable_dict(pair[True][0]) == comparable_dict(
            pair[False][0]
        )


class TestHeapCompaction:
    def test_tombstones_compacted_above_half(self):
        sim = Simulator(use_wheel=True)
        # Beyond-horizon events go to the heap; cancel just over half.
        handles = [
            sim.schedule(5000.0 + i, lambda: None) for i in range(200)
        ]
        for h in handles[:101]:
            h.cancel()
        assert len(sim._queue) < 200
        assert sim._heap_cancelled == 0
        assert all(not ev.cancelled for ev in sim._queue)
        assert sim.pending == 99

    def test_small_heaps_left_alone(self):
        sim = Simulator(use_wheel=True)
        handles = [sim.schedule(5000.0 + i, lambda: None) for i in range(10)]
        for h in handles:
            h.cancel()
        # Below the compaction floor: tombstones stay until popped.
        assert len(sim._queue) == 10
        sim.run()
        assert sim.processed == 0

    def test_compaction_preserves_order(self):
        sim = Simulator(use_wheel=False)
        log = []
        handles = [
            sim.schedule(float(i % 13) + 1.0, lambda i=i: log.append(i))
            for i in range(300)
        ]
        cancelled = {i for i in range(300) if i % 2 == 0}
        for i in sorted(cancelled):
            handles[i].cancel()
        ref = Simulator(use_wheel=False)
        ref_log = []
        for i in range(300):
            if i not in cancelled:
                ref.schedule(float(i % 13) + 1.0, lambda i=i: ref_log.append(i))
        sim.run()
        ref.run()
        assert log == ref_log
