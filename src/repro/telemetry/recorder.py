"""The federation flight recorder: black-box rings and postmortems.

An aircraft flight recorder keeps the last few minutes of everything;
when something goes wrong, that window is the evidence. This module is
the federation's equivalent: a :class:`FlightRecorder` listens to the
telemetry log keeping a fixed-size ring of recent events, spans and
message dispositions *per server*, and — when a
:class:`~repro.telemetry.probes.HealthProbe` SLO check transitions to
failing, or on explicit :meth:`FlightRecorder.trigger` — freezes the
evidence into a :class:`PostmortemBundle`:

* the breach window's time series (from an attached
  :class:`~repro.telemetry.series.SeriesSampler`),
* the per-server event-ring contents — each event stored once: the
  causal trace trees overlapping the window are re-assembled from them
  (:meth:`PostmortemBundle.trace_trees`),
* the offending :class:`HealthCheck` and full ``HealthReport``.

Bundles round-trip through JSON (:meth:`PostmortemBundle.dump` /
:meth:`PostmortemBundle.load`, which checks every field the renderer
reads against :data:`BUNDLE`) and render human-readably
(:meth:`PostmortemBundle.format`) — ``repro postmortem`` is the CLI
front end. Recording is passive: the recorder only observes events
telemetry already records, so arming it never changes simulation outcomes.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .events import EVENT, TelemetryEvent, attributed_server, checked, parse_json
from .probes import HealthCheck
from .series import sparkline
from .tracing import assemble_traces

#: bundle file-format version
BUNDLE_SCHEMA = 2

#: events retained per server ring
RING_EVENTS = 256
#: sim-seconds of history a bundle's series window covers
WINDOW_SECONDS = 5.0
#: causal trees a bundle renders (largest first)
TREES_PER_BUNDLE = 8
#: bundles retained in ``FlightRecorder.bundles`` (oldest evicted)
BUNDLES_KEPT = 16


#: a ``HealthCheck.to_dict()``
_CHECK = {"name": "str", "value": "finite", "threshold": "finite",
          "ok": "bool", "detail": "str"}
#: every field :meth:`PostmortemBundle.format` reads (``events.checked``)
BUNDLE = {
    "reason": "str",
    "triggered_at": "finite",
    "window": ["finite", "finite"],
    "check": (None, _CHECK),
    "report": (None, {"checks?": [_CHECK, ...]}),
    "series": [{"name": "str", "raw": [["finite", "finite"], ...]}, ...],
    "rings": [{"events": [EVENT, ...]}, ...],
    "quality": (None, {
        "snapshot?": {
            f"{k}?": "finite" for k in ("precision", "recall", "fp", "fn", "audits")
        },
        "last_report?": (None, {"attributions?": [
            {"staleness_age?": (None, "finite")}, ...
        ]}),
    }),
}


@dataclass
class PostmortemBundle:
    """Frozen evidence window around one SLO breach (or manual trigger)."""

    reason: str
    triggered_at: float
    window_start: float
    window_end: float
    #: the failing :class:`HealthCheck`, as a dict (None = manual trigger)
    check: Optional[Dict[str, object]] = None
    #: the full :class:`HealthReport` at trigger time, as a dict
    report: Optional[Dict[str, object]] = None
    #: per-gauge breach-window time series (``SeriesSampler.window``)
    series: List[Dict[str, object]] = field(default_factory=list)
    #: per-server event rings: ``{"server": id|None, "events": [...]}``
    rings: List[Dict[str, object]] = field(default_factory=list)
    #: shadow-oracle evidence at trigger time (cumulative snapshot plus
    #: the last audited query's full ``QualityReport`` with per-summary
    #: divergence attributions); None when no quality plane is armed
    quality: Optional[Dict[str, object]] = None

    # -- round-trip ----------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": BUNDLE_SCHEMA,
            "reason": self.reason,
            "triggered_at": self.triggered_at,
            "window": [self.window_start, self.window_end],
            "check": self.check,
            "report": self.report,
            "series": self.series,
            "rings": self.rings,
            "quality": self.quality,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "PostmortemBundle":
        """Rebuild a bundle from :meth:`to_dict` output.

        Raises :class:`ValueError` for anything else — not an object,
        another schema, a missing or mistyped field (:data:`BUNDLE`) —
        so a damaged file is refused with a reason instead of crashing
        the renderer.
        """
        if not isinstance(d, dict) or d.get("schema") != BUNDLE_SCHEMA:
            raise ValueError(
                f"not a schema-{BUNDLE_SCHEMA} postmortem bundle "
                "(produce one with `repro watch --postmortem-dir`)"
            )
        try:
            checked(d, BUNDLE)
        except ValueError as exc:
            raise ValueError(f"malformed postmortem bundle: {exc}") from None
        return cls(
            reason=d["reason"], triggered_at=float(d["triggered_at"]),
            window_start=float(d["window"][0]), window_end=float(d["window"][1]),
            **{k: d[k] for k in ("check", "report", "series", "rings", "quality")},
        )

    def dump(self, path) -> Path:
        """Write the bundle as JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
        return path

    @classmethod
    def load(cls, path) -> "PostmortemBundle":
        """Read a dumped bundle; :class:`ValueError` when it is not one
        (not JSON, nested too deeply, a ``NaN`` or ``Infinity`` anywhere
        in the file, or refused by :meth:`from_dict`)."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(parse_json(fh.read(), finite=True))

    # -- convenience ----------------------------------------------------------------
    @property
    def ring_events(self) -> int:
        return sum(len(r["events"]) for r in self.rings)

    def trace_trees(self):
        """The ``TREES_PER_BUNDLE`` largest causal trees with a node in
        the window, re-assembled from the ring events, largest first."""
        trees = assemble_traces(
            TelemetryEvent.from_dict(e) for r in self.rings for e in r["events"]
        )
        overlapping = [
            t for t in trees.values()
            if any(
                n.start <= self.window_end and n.end >= self.window_start
                for n in t.nodes.values()
            )
        ]
        overlapping.sort(key=lambda t: (-len(t), t.trace_id))
        return overlapping[:TREES_PER_BUNDLE]

    def format(self, *, max_nodes: int = 60, width: int = 60) -> str:
        """Human-readable postmortem: verdicts, series, causal trees."""
        lines = [
            f"postmortem: {self.reason} @ {self.triggered_at:.3f}s "
            f"(window [{self.window_start:.3f}s, {self.window_end:.3f}s])"
        ]
        if self.check:
            c = self.check
            lines.append(
                f"  failing check: {c.get('name')} "
                f"value={float(c.get('value', 0.0)):.4g} "
                f"threshold={float(c.get('threshold', 0.0)):.4g}"
            )
        if self.report:
            for c in self.report.get("checks", []):
                check = HealthCheck(**{k: c[k] for k in _CHECK})
                lines.append("  " + check.format())
        shown = 0
        for s in self.series:
            if s.get("server") is not None or not s.get("raw"):
                continue
            vals = [v for _, v in s["raw"]]
            lines.append(
                f"  {s['name']:<24} {sparkline(vals, width=width)}  "
                f"last={vals[-1]:.4g}"
            )
            shown += 1
        if not shown:
            lines.append("  (no series captured in the breach window)")
        if self.quality:
            snap = self.quality.get("snapshot", {})
            lines.append(
                "  answer quality: "
                f"precision={float(snap.get('precision', 1.0)):.4g} "
                f"recall={float(snap.get('recall', 1.0)):.4g} "
                f"fp={int(snap.get('fp', 0))} fn={int(snap.get('fn', 0))} "
                f"over {int(snap.get('audits', 0))} audits"
            )
            last = self.quality.get("last_report") or {}
            for a in last.get("attributions", [])[:5]:
                age = a.get("staleness_age")
                lines.append(
                    f"    {a.get('kind')}: server {a.get('server_id')} via "
                    f"{a.get('table')}[{a.get('src_id')}] @ holder "
                    f"{a.get('holder_id')} (L{a.get('holder_level')}), "
                    f"dim={a.get('dimension')}, "
                    f"age={age if age is None else format(float(age), '.3g')}"
                    f", {a.get('reason')}"
                )
        lines.append(
            f"  event rings: {len(self.rings)} rings, "
            f"{self.ring_events} events"
        )
        trees = self.trace_trees()
        lines.append(f"  overlapping causal traces: {len(trees)}")
        for tree in trees[:3]:
            lines.append(f"  trace {tree.trace_id} ({len(tree)} nodes):")
            for row in tree.format(max_nodes=max_nodes).splitlines():
                lines.append(f"    {row}")
        return "\n".join(lines)


class FlightRecorder:
    """Per-server black-box event rings plus postmortem capture.

    Parameters
    ----------
    telemetry:
        The recorder is this telemetry's one listener (a second
        recorder on it is a ValueError until the first is closed); every
        emitted event lands in the ring of the server it is attributed
        to (the ``server`` tag, else ``dst``, else the unattributed
        ring).
    dump_dir:
        When set, every captured bundle is also written under this
        directory as ``postmortem_<n>_<reason>.json``.
    """

    def __init__(self, telemetry, *, dump_dir=None):
        self.telemetry = telemetry
        #: the bound probe's sampler, whose breach-window points are
        #: frozen into each bundle (None until :meth:`bind`)
        self.sampler = None
        self._probe = None
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self._rings: Dict[Optional[int], deque] = {}
        self.bundles: deque = deque(maxlen=BUNDLES_KEPT)
        #: paths of bundles written to ``dump_dir``
        self.dumped: List[Path] = []
        self._captured = 0
        telemetry.listen(self._on_event)
        self._listening = True

    # -- recording ------------------------------------------------------------------
    def _on_event(self, event: TelemetryEvent) -> None:
        key = attributed_server(event)
        ring = self._rings.get(key)
        if ring is None:
            ring = self._rings[key] = deque(maxlen=RING_EVENTS)
        ring.append(event)

    def close(self) -> None:
        """Stop listening (rings and bundles stay readable)."""
        if self._listening:
            self.telemetry.listen(None)
            self._listening = False

    def ring(self, server: Optional[int]) -> List[TelemetryEvent]:
        """Snapshot of one server's ring, oldest first."""
        return list(self._rings.get(server, ()))

    @property
    def ring_servers(self) -> List[Optional[int]]:
        return sorted(
            self._rings, key=lambda k: (k is None, k if k is not None else 0)
        )

    # -- probe wiring ---------------------------------------------------------------
    def bind(self, probe) -> "FlightRecorder":
        """Arm SLO-triggered capture: the probe's ok→fail transitions
        call :meth:`trigger` with the failing check attached."""
        probe.on_breach = self._on_breach
        self._probe = probe
        self.sampler = probe.sampler
        return self

    def _on_breach(self, check, tick) -> None:
        probe = self._probe
        plane = getattr(probe.system, "quality", None)
        self.trigger(
            f"slo:{check.name}",
            check=check.to_dict(),
            report=probe.report(probe.slo).to_dict(),
            # The misrouted query's causal trace is already frozen by
            # trigger(); this pins the oracle verdict next to it.
            quality=plane.breach_evidence() if plane is not None else None,
        )

    # -- capture --------------------------------------------------------------------
    def trigger(
        self,
        reason: str = "manual",
        *,
        check: Optional[Dict[str, object]] = None,
        report: Optional[Dict[str, object]] = None,
        quality: Optional[Dict[str, object]] = None,
    ) -> PostmortemBundle:
        """Freeze the current evidence window into a bundle."""
        now = self.telemetry.now
        bundle = PostmortemBundle(
            reason=reason,
            triggered_at=now,
            window_start=now - WINDOW_SECONDS,
            window_end=now,
            check=check,
            report=report,
            series=(
                self.sampler.window(now - WINDOW_SECONDS, now)
                if self.sampler is not None
                else []
            ),
            rings=[
                {"server": key, "events": [e.to_dict() for e in self.ring(key)]}
                for key in self.ring_servers
            ],
            quality=quality,
        )
        self.bundles.append(bundle)
        self._captured += 1
        if self.dump_dir is not None:
            slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", reason).strip("-")
            path = self.dump_dir / (
                f"postmortem_{self._captured:03d}_{slug}.json"
            )
            self.dumped.append(bundle.dump(path))
        return bundle
