"""The time-series metrics plane: sim-clock sampling into bounded rings.

Spans and the end-of-run metrics registry answer "what happened over the
whole run". Neither gives a *time-resolved* view — how queue depth,
staleness or shed rate evolved as a run unfolded — which is exactly the
signal replica-aware planning and fault drills consume.
:class:`SeriesSampler` provides it: a sim-clock-driven periodic sampler
that snapshots per-server and per-plane gauges into bounded ring
buffers. It is the one reader of federation state: a
:class:`~repro.telemetry.probes.HealthProbe` built over a sampler judges
the tick the sampler just took ("is the federation healthy now") and
scans nothing itself.

Each gauge lives in a :class:`RingSeries`, its most recent
``RAW_WINDOW`` ``(t, value)`` points: 128 s at ``watch``'s 0.25 s
cadence, longer than any verb default, example or CI step samples (a
longer run keeps its last 128 s). :meth:`SeriesSampler.window` is the
one serialisation of the rings, written by ``repro watch --json`` and
frozen into every postmortem bundle.

**Zero perturbation.** Sampling only *reads* state: network counters,
service-queue depths, the dispatcher's pending count, and the update
plane's staleness snapshot. No messages are sent, no simulation
randomness is consumed, and telemetry ids are untouched, so a seeded
run with sampling enabled produces byte-identical query outcomes and
latencies to the same run without it — the same determinism tripwire
the tracing plane holds, asserted by
``tests/test_series.py::TestZeroPerturbation``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: spark characters, lowest to highest
_SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: points retained per gauge
RAW_WINDOW = 512


def sparkline(values: Iterable[float], *, width: int = 60) -> str:
    """Render *values* as a unicode sparkline (empty string when empty).

    When there are more values than *width*, consecutive values are
    averaged into ``width`` buckets so the line always fits.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        per = len(vals) / width
        folded = []
        for i in range(width):
            chunk = vals[int(i * per): max(int((i + 1) * per), int(i * per) + 1)]
            folded.append(sum(chunk) / len(chunk))
        vals = folded
    lo = min(vals)
    hi = max(vals)
    span = hi - lo
    if span <= 0:
        return _SPARK_CHARS[0] * len(vals)
    steps = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[int(round((v - lo) / span * steps))] for v in vals
    )


class RingSeries:
    """Bounded ring of one gauge's last ``RAW_WINDOW`` ``(t, value)`` points."""

    __slots__ = ("name", "server", "raw")

    def __init__(self, name: str, *, server: Optional[int] = None):
        self.name = name
        self.server = server
        self.raw: deque = deque(maxlen=RAW_WINDOW)

    def append(self, t: float, value: float) -> None:
        self.raw.append((float(t), float(value)))

    @property
    def last(self) -> Optional[Tuple[float, float]]:
        return self.raw[-1] if self.raw else None

    def values(self) -> List[float]:
        return [v for _, v in self.raw]

    def window(self, t_start: float, t_end: float) -> List[Tuple[float, float]]:
        """Raw points with ``t_start <= t <= t_end``, oldest first."""
        return [(t, v) for t, v in self.raw if t_start <= t <= t_end]

    def __len__(self) -> int:
        return len(self.raw)


class SeriesSampler:
    """Periodic gauge sampler bound to one :class:`RoadsSystem`.

    On each tick the sampler reads, without side effects:

    * network counters (sent/delivered/lost/dropped/shed),
    * the dispatcher's pending-event backlog and in-flight updates,
    * per-category byte totals (query and update traffic so far),
    * the update plane's staleness snapshot (entries, ages, fraction),
    * per-server service-queue gauges (depth, waiting-room occupancy,
      cumulative shed),

    and appends one point per gauge to its :class:`RingSeries`, every
    ``interval`` sim-seconds. Federation-wide gauges key on
    ``server=None``.
    """

    def __init__(self, system, interval: float = 0.25):
        if not interval > 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.system = system
        self.interval = interval
        self._series: Dict[Tuple[str, Optional[int]], RingSeries] = {}
        self._task = None
        self.samples = 0
        #: ``fn(tick)`` called at the end of every tick with the values
        #: just read (a :class:`~repro.telemetry.probes.HealthProbe`
        #: installs itself here); an un-judged sampler builds no tick
        self.judge: Optional[Callable[[Dict[str, float]], None]] = None

    # -- cadence -------------------------------------------------------------------
    def start(self) -> "SeriesSampler":
        """Begin sampling every ``interval`` sim-seconds."""
        if self._task is None:
            self._task = self.system.sim.schedule_periodic(
                self.interval, self.sample,
                first_delay=self.interval,
                label="telemetry.sample",
            )
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    # -- access --------------------------------------------------------------------
    def series(
        self, name: str, server: Optional[int] = None
    ) -> Optional[RingSeries]:
        return self._series.get((name, server))

    def names(self) -> List[str]:
        return sorted({name for name, _ in self._series})

    def all_series(self) -> List[RingSeries]:
        """Every ring, federation-wide gauges first, then per-server."""
        return [
            self._series[k]
            for k in sorted(
                self._series,
                key=lambda k: (k[1] is not None, k[1] if k[1] is not None else -1, k[0]),
            )
        ]

    def ring(self, name: str, server: Optional[int] = None) -> RingSeries:
        """The gauge's ring, created on first use."""
        key = (name, server)
        ring = self._series.get(key)
        if ring is None:
            ring = self._series[key] = RingSeries(name, server=server)
        return ring

    # -- one tick ------------------------------------------------------------------
    def sample(self) -> None:
        """Take one snapshot of every gauge at the current sim time."""
        system = self.system
        now = system.sim.now
        net = system.network
        counters = net.counters()
        record = self.ring
        for key, value in counters.items():
            record(f"net.{key}").append(now, value)
        # Dispatch mix: cumulative handler invocations per message kind,
        # summed from the transport's always-on event census — a
        # ``repro watch`` sparkline per kind, no profiler required.
        by_kind = net.delivered_by_kind
        for kind in sorted(by_kind):
            record(f"dispatch.{kind}").append(now, by_kind[kind])
        record("sim.pending").append(now, system.sim.pending)
        registry = system.metrics
        from ..sim.metrics import QUERY, UPDATE

        record("bytes.query").append(now, registry.bytes_total(QUERY))
        record("bytes.update").append(now, registry.bytes_total(UPDATE))
        plane = system.update_plane
        stale: Dict[str, float] = {}
        if plane is not None:
            record("update.inflight").append(now, plane.inflight)
            stale = plane.staleness_snapshot()
            record("summary.entries").append(now, stale["entries"])
            record("summary.age_mean").append(now, stale["age_mean"])
            record("summary.age_max").append(now, stale["age_max"])
            record("summary.stale_fraction").append(
                now, stale["stale_fraction"]
            )
        depth_total = 0.0
        depth_max = 0.0
        waiting_total = 0.0
        for server in system.hierarchy:
            sid = server.server_id
            stats = net.service_stats(sid)
            depth = stats["depth"]
            depth_total += depth
            if depth > depth_max:
                depth_max = depth
            waiting_total += stats["waiting"]
            record("service.depth", sid).append(now, depth)
            record("service.waiting", sid).append(now, stats["waiting"])
            record("service.shed", sid).append(now, stats["shed"])
        record("service.depth_total").append(now, depth_total)
        record("service.waiting_total").append(now, waiting_total)
        quality = getattr(system, "quality", None)
        if quality is not None:
            record("quality.audits").append(now, quality.audits)
            record("quality.precision").append(now, quality.precision)
            record("quality.recall").append(now, quality.recall)
            record("quality.fp_rate").append(now, quality.fp_rate)
            record("quality.divergence_age").append(
                now, quality.divergence_age_mean
            )
            for sid in sorted(quality.per_node):
                counts = quality.per_node[sid]
                record("quality.fp", sid).append(now, counts["fp"])
                record("quality.fn", sid).append(now, counts["fn"])
        self.samples += 1
        if self.judge is not None:
            self.judge({
                "t": now,
                "queue_depth_total": int(depth_total),
                "queue_depth_max": int(depth_max),
                **counters,
                "pending": system.sim.pending,
                "summary_entries": int(stale.get("entries", 0.0)),
                "summary_age_mean": stale.get("age_mean", 0.0),
                "summary_age_max": stale.get("age_max", 0.0),
                "stale_fraction": stale.get("stale_fraction", 0.0),
                "precision": quality.precision if quality is not None else 1.0,
                "recall": quality.recall if quality is not None else 1.0,
            })

    # -- export --------------------------------------------------------------------
    def window(
        self, t_start: float = float("-inf"), t_end: float = float("inf")
    ) -> List[Dict[str, object]]:
        """Every gauge with points in ``[t_start, t_end]``, as
        ``{"name", "server", "raw": [[t, value], ...]}`` — the document
        ``repro watch --json`` writes and a postmortem bundle freezes."""
        out: List[Dict[str, object]] = []
        for ring in self.all_series():
            points = ring.window(t_start, t_end)
            if points:
                out.append({
                    "name": ring.name,
                    "server": ring.server,
                    "raw": [[t, v] for t, v in points],
                })
        return out

    def format(
        self,
        *,
        metrics: Optional[List[str]] = None,
        width: int = 60,
    ) -> str:
        """Sparkline dashboard of the federation-wide gauges."""
        lines: List[str] = []
        wanted = set(metrics) if metrics else None
        for ring in self.all_series():
            if ring.server is not None:
                continue
            if wanted is not None and ring.name not in wanted:
                continue
            vals = ring.values()
            if not vals:
                continue
            lines.append(
                f"{ring.name:<24} {sparkline(vals, width=width)}  "
                f"last={vals[-1]:.4g} min={min(vals):.4g} max={max(vals):.4g}"
            )
        return "\n".join(lines)
