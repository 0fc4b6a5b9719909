"""Federation health: an SLO judge over the series sampler's tick.

A :class:`~repro.telemetry.series.SeriesSampler` is the one periodic
task that reads federation state. A :class:`HealthProbe` is built over a
sampler and judges the values of the tick the sampler just took —
service-queue depths, shed/lost/dropped message counts, the dispatcher's
backlog, summary staleness, shadow-oracle precision/recall — against a
:class:`HealthSLO`. The one thing it reads itself is the
replication-coverage fraction (how much of the overlay's expected
replica set each server actually holds): nobody but the judge needs it,
so an un-judged sampler does not pay for it. Judging is passive — no
messages are sent, no randomness is consumed — so arming a probe never
changes simulation outcomes.

The seven checks are spelled once, in :data:`CHECKS`. Every tick is
judged instantaneously (a check can go ok → fail → ok again, which is
what breach transitions need); :meth:`HealthProbe.report` judges the
worst value seen across the window (which never "recovers") off the same
table, as a :class:`HealthReport` of one :class:`HealthCheck` per SLO
dimension.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

#: one judged tick: the sampler's values plus ``coverage`` — ``t``,
#: ``queue_depth_total`` / ``queue_depth_max`` (all queues / the deepest
#: one), the cumulative ``sent`` / ``delivered`` / ``lost`` / ``dropped``
#: / ``shed`` counters, ``pending`` dispatcher events,
#: ``summary_entries`` / ``summary_age_mean`` / ``summary_age_max`` /
#: ``stale_fraction``, ``coverage`` (1.0 = every expected replica held)
#: and oracle ``precision`` / ``recall`` (1.0 without a quality plane)
Tick = Dict[str, float]


@dataclass(frozen=True)
class HealthSLO:
    """Thresholds a tick or a window is judged by."""

    #: highest acceptable fraction of stale summary entries (any sample)
    max_stale_fraction: float = 0.10
    #: lowest acceptable replication-coverage fraction (any sample)
    min_coverage: float = 0.99
    #: highest acceptable shed/sent ratio over the whole window
    max_shed_fraction: float = 0.05
    #: highest acceptable lost/sent ratio over the whole window
    max_loss_fraction: float = 0.10
    #: deepest acceptable single service queue (None = don't judge)
    max_queue_depth: Optional[int] = None
    #: lowest acceptable shadow-oracle precision/recall (None = don't
    #: judge; only meaningful when the system has a quality plane)
    min_precision: Optional[float] = None
    min_recall: Optional[float] = None


class _Check(NamedTuple):
    """How one SLO dimension reads a tick."""

    name: str
    #: the :class:`HealthSLO` field holding the threshold; ``max_*`` is a
    #: ceiling on the value, ``min_*`` a floor
    threshold: str
    #: the tick key judged
    key: str
    #: what the value is, for the verdict's detail; None marks a
    #: cumulative counter judged as its share of ``sent``
    what: Optional[str]

    @property
    def ceiling(self) -> bool:
        return self.threshold.startswith("max_")


#: the seven checks, in report order
CHECKS = (
    _Check("staleness", "max_stale_fraction", "stale_fraction",
           "stale_fraction"),
    _Check("coverage", "min_coverage", "coverage", "replication coverage"),
    _Check("shedding", "max_shed_fraction", "shed", None),
    _Check("loss", "max_loss_fraction", "lost", None),
    _Check("queue_depth", "max_queue_depth", "queue_depth_max",
           "single service queue depth"),
    _Check("precision", "min_precision", "precision", "oracle precision"),
    _Check("recall", "min_recall", "recall", "oracle recall"),
)


@dataclass(frozen=True)
class HealthCheck:
    """One SLO dimension's verdict."""

    name: str
    ok: bool
    value: float
    threshold: float
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def format(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        out = (
            f"[{mark}] {self.name:<14} value={self.value:.4g} "
            f"threshold={self.threshold:.4g}"
        )
        return out + (f"  ({self.detail})" if self.detail else "")


def _verdicts(
    slo: HealthSLO, tick: Tick, worst: Optional[Tick] = None
) -> List[HealthCheck]:
    """Judge *tick* against *slo*, one verdict per armed check.

    With *worst* (the running worst value per tick key) the verdict is
    the window's: gauges are judged at their worst, cumulative counters
    at *tick*, the window's last.
    """
    sent = max(1, tick["sent"])
    out = []
    for check in CHECKS:
        threshold = getattr(slo, check.threshold)
        if threshold is None:
            continue
        if check.what is None:
            value = tick[check.key] / sent
            detail = f"{tick[check.key]} {check.key} of {tick['sent']} sent"
        elif worst is None:
            value = tick[check.key]
            detail = f"{check.what} at t={tick['t']:.2f}s"
        else:
            value = worst[check.key]
            detail = f"worst {check.what} across samples"
        out.append(HealthCheck(
            name=check.name,
            ok=value <= threshold if check.ceiling else value >= threshold,
            value=float(value),
            threshold=float(threshold),
            detail=detail,
        ))
    return out


@dataclass
class HealthReport:
    """SLO evaluation of a probe's judged window."""

    samples: int
    window_start: float
    window_end: float
    checks: List[HealthCheck] = field(default_factory=list)
    #: the window's last :data:`Tick`
    last: Optional[Tick] = None

    @property
    def healthy(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> Dict[str, object]:
        return {
            "healthy": self.healthy,
            "samples": self.samples,
            "window": [self.window_start, self.window_end],
            "checks": [c.to_dict() for c in self.checks],
            "last_sample": (
                {k: float(v) for k, v in self.last.items()}
                if self.last else None
            ),
        }

    def format(self) -> str:
        verdict = "HEALTHY" if self.healthy else "UNHEALTHY"
        lines = [
            f"federation {verdict}: {self.samples} samples over "
            f"[{self.window_start:.2f}s, {self.window_end:.2f}s]"
        ]
        lines.extend(c.format() for c in self.checks)
        if self.last is not None:
            s = self.last
            lines.append(
                f"last sample @ {s['t']:.2f}s: queue depth "
                f"{s['queue_depth_total']} (max {s['queue_depth_max']}), "
                f"pending {s['pending']}, sent {s['sent']} / delivered "
                f"{s['delivered']} / lost {s['lost']} / shed {s['shed']}, "
                f"summaries {s['summary_entries']} "
                f"(stale {s['stale_fraction']:.1%}), "
                f"coverage {s['coverage']:.1%}"
            )
        return "\n".join(lines)


class HealthProbe:
    """SLO judge over one :class:`SeriesSampler`'s ticks.

    The probe schedules nothing: the sampler's cadence
    (``SeriesSampler.interval``) is the probe's, and every tick the
    sampler takes from construction on is judged. It keeps running worst
    values and the last tick, never a per-tick list, so a long run costs
    what a short one does; replication coverage and the deepest single
    queue go into the sampler's rings as ``overlay.coverage`` and
    ``service.depth_max``.

    Parameters
    ----------
    sampler:
        The :class:`~repro.telemetry.series.SeriesSampler` whose ticks
        are judged (at most one probe per sampler).
    slo:
        When set, every tick is additionally judged instantaneously; a
        check transitioning ok → fail appends to :attr:`breaches` and
        fires ``on_breach`` exactly once per transition (it re-arms only
        after the check recovers).
    on_breach:
        ``fn(check, tick)`` breach-transition hook — the flight
        recorder's :meth:`~repro.telemetry.recorder.FlightRecorder.bind`
        installs its postmortem trigger here.
    """

    def __init__(
        self,
        sampler,
        *,
        slo: Optional[HealthSLO] = None,
        on_breach: Optional[Callable[[HealthCheck, Tick], None]] = None,
    ):
        if sampler.judge is not None:
            raise ValueError("this sampler's ticks are already judged")
        self.sampler = sampler
        self.system = sampler.system
        self.slo = slo
        self.on_breach = on_breach
        #: ticks judged so far, and the time of the first
        self.ticks = 0
        self.window_start = 0.0
        #: the most recent tick, and the worst value seen per gauge
        self.last: Optional[Tick] = None
        self._worst: Tick = {}
        #: checks captured at the most recent ok → fail transitions, in
        #: order (bounded, like everything else a long run accumulates)
        self.breaches: deque = deque(maxlen=256)
        self._check_ok: Dict[str, bool] = {}
        sampler.judge = self._on_tick

    # -- one tick ------------------------------------------------------------------
    def _coverage(self) -> float:
        """Held / expected overlay replicas, over all alive servers."""
        from ..overlay.replication import replication_sources

        expected = 0
        held = 0
        for server in self.system.hierarchy:
            if not server.alive:
                continue
            sources = [
                s for s in replication_sources(server) if s.alive
            ]
            expected += len(sources)
            held += sum(
                1
                for s in sources
                if s.server_id in server.replicated_summaries
            )
        if expected == 0:
            return 1.0
        return held / expected

    def _on_tick(self, tick: Tick) -> None:
        """The sampler just took *tick*: complete, record and judge it."""
        now = tick["t"]
        tick["coverage"] = self._coverage()
        ring = self.sampler.ring
        ring("overlay.coverage").append(now, tick["coverage"])
        ring("service.depth_max").append(now, tick["queue_depth_max"])
        self.observe(tick)

    def observe(self, tick: Tick) -> List[HealthCheck]:
        """Fold *tick* into the window and judge it against the SLO.

        Each named check fires ``on_breach`` only on its ok → fail
        transition — a check that keeps failing stays silent until it
        recovers and fails again, so one incident yields one postmortem.
        Returns the checks that transitioned to failing this call.
        """
        if self.last is None:
            self.window_start = tick["t"]
        self.ticks += 1
        self.last = tick
        worst = self._worst
        for check in CHECKS:
            if check.what is not None:
                fold = max if check.ceiling else min
                key = check.key
                worst[key] = fold(worst.get(key, tick[key]), tick[key])
        fired: List[HealthCheck] = []
        if self.slo is not None:
            for check in _verdicts(self.slo, tick):
                was_ok = self._check_ok.get(check.name, True)
                self._check_ok[check.name] = check.ok
                if was_ok and not check.ok:
                    fired.append(check)
                    self.breaches.append(check)
                    if self.on_breach is not None:
                        self.on_breach(check, tick)
        return fired

    # -- SLO evaluation --------------------------------------------------------------
    def report(self, slo: HealthSLO = HealthSLO()) -> HealthReport:
        """Judge the window so far against *slo* (worst value per gauge)."""
        if self.last is None:
            self.sampler.sample()
        return HealthReport(
            samples=self.ticks,
            window_start=self.window_start,
            window_end=self.last["t"],
            checks=_verdicts(slo, self.last, self._worst),
            last=self.last,
        )
