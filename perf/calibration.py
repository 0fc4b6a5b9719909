"""Reference-kernel calibration of host time.

The machine this benchmark runs on is a shared 2-vCPU VM whose host
takes the CPU away in slices of a few milliseconds, for seconds to
minutes at a time, and reports no steal time: a fixed pure-Python loop
then runs 1.2-2x slower with ``process_time`` equal to wall time, and
whole benchmark runs came out 40-90 % slower than their neighbours with
nothing else running in the guest. No statistic over raw host time
survives that, so the gated throughput metrics are expressed in
*reference-machine seconds*.

While a measured slice runs, an interval timer interrupts the process
every :data:`INTERVAL_S` and spins for :data:`WINDOW_S`, counting loop
iterations. Iterations per second of spinning, over the whole run and
relative to :data:`REFERENCE_RATE` (the same figure on the quiet
reference machine), is the share of a reference CPU the process actually
had — stolen slices and a slower clock both lower it. Host time
multiplied by that share is reference-machine time.

The window has to span several scheduler slices: 4 ms windows lock onto
the slice boundaries and over-correct by 12 %, 20 ms windows do not.
Checked by pinning a CPU burner onto the benchmark's core for part of a
``search_paper`` run: raw throughput fell from 73 to 50-63 searches/s,
calibrated throughput stayed at 74-78. A 4 % duty cycle sees ~0.5 s of a
14 s run, which cannot resolve shorter stretches; the correction is
therefore one factor per run, and the per-operation figures stay raw.

Raw host time (``wall_s``, ``raw_*``, ``op_host_ms_*``) and the share
seen (``cpu_share``) are reported next to every calibrated figure.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

#: seconds between two samples while a measured slice runs
INTERVAL_S = 0.5
#: seconds each sample spins
WINDOW_S = 0.02
#: spin-loop iterations per second on the quiet reference machine (Xeon
#: 2.1 GHz VM, CPython 3.11.7), measured in place — interrupting the
#: benchmark's own workloads — over calm runs
REFERENCE_RATE = 14.1e6


class Calibration:
    """SIGALRM-driven sampler of the CPU share the process is getting."""

    def __init__(self) -> None:
        self.iterations = 0
        #: total host time spent sampling (callers subtract what fell
        #: inside their own timed region)
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = now = perf_counter()
        deadline = t0 + WINDOW_S
        n = 0
        while now < deadline:
            n += 1
            now = perf_counter()
        self.iterations += n
        self.spent += now - t0

    @contextmanager
    def sampling(self):
        """Sample every :data:`INTERVAL_S` for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def cpu_share(self) -> float:
        """Share of a reference CPU seen over every sample so far."""
        if not self.spent:
            return 1.0
        return self.iterations / self.spent / REFERENCE_RATE
