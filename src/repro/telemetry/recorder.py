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
* the per-server event-ring contents,
* every assembled causal trace tree that overlaps the window,
* the offending :class:`HealthCheck` and full ``HealthReport``.

Bundles round-trip through JSON (:meth:`PostmortemBundle.dump` /
:meth:`PostmortemBundle.load`) and render human-readably
(:meth:`PostmortemBundle.format`) — ``repro postmortem`` is the CLI
front end. Recording is passive: the recorder only observes events
telemetry already records, so arming it never changes simulation outcomes.
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .events import TelemetryEvent, attributed_server
from .probes import HealthCheck
from .series import sparkline
from .tracing import assemble_traces

#: bundle file-format version
BUNDLE_SCHEMA = 1

#: events retained per server ring
RING_EVENTS = 256
#: sim-seconds of history a bundle's series window covers
WINDOW_SECONDS = 5.0
#: causal trees stored per bundle (largest kept)
TREES_PER_BUNDLE = 8
#: bundles retained in ``FlightRecorder.bundles`` (oldest evicted)
BUNDLES_KEPT = 16


def _parsed(parse, value, path: str, what: str):
    """``parse(value)``, its TypeError or ValueError one naming *path*."""
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"malformed postmortem bundle: {path!r} is not {what}: {exc}"
        ) from None


def _refuse(path: str, kind: str):
    raise ValueError(f"malformed postmortem bundle: {path!r} is not {kind}")


def _typed(value, path: str, kind: str = "an object"):
    """*value* if it is *kind* — ``"an object"`` (or null), ``"a list"`` or
    ``"a list of objects"`` — else one ValueError naming *path*."""
    if not (
        value is None or isinstance(value, dict) if kind == "an object"
        else isinstance(value, list)
        and (kind == "a list" or all(isinstance(v, dict) for v in value))
    ):
        _refuse(path, kind)
    return value


def _number(value, path: str, convert=float):
    """``convert(value)`` of a finite JSON number (not a bool), else one
    ValueError naming *path*."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if math.isfinite(value):
            return convert(value)
    _refuse(path, "a number")


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
    #: per-gauge breach-window time series (raw points + rollups)
    series: List[Dict[str, object]] = field(default_factory=list)
    #: per-server event rings: ``{"server": id|None, "events": [...]}``
    rings: List[Dict[str, object]] = field(default_factory=list)
    #: causal trace trees overlapping the window:
    #: ``{"trace_id": id, "events": [...]}``
    traces: List[Dict[str, object]] = field(default_factory=list)
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
            "traces": self.traces,
            "quality": self.quality,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "PostmortemBundle":
        """Rebuild a bundle from :meth:`to_dict` output.

        Raises :class:`ValueError` for anything else — not an object,
        another schema, a missing or mistyped field — so a damaged file
        is refused with a reason instead of crashing the renderer.
        """
        if (
            not isinstance(d, dict) or d.get("schema") != BUNDLE_SCHEMA
            or isinstance(d["schema"], bool)
        ):
            raise ValueError(
                f"not a schema-{BUNDLE_SCHEMA} postmortem bundle "
                "(produce one with `repro watch --postmortem-dir`)"
            )
        try:
            window = d["window"]
            if not (isinstance(window, list) and len(window) == 2):
                _refuse("window", "a [start, end] pair")
            if not isinstance(d["reason"], str):
                _refuse("reason", "a string")
            bundle = cls(
                reason=d["reason"],
                triggered_at=_number(d["triggered_at"], "triggered_at"),
                window_start=_number(window[0], "window[0]"),
                window_end=_number(window[1], "window[1]"),
                check=_typed(d["check"], "check"),
                report=_typed(d["report"], "report"),
                series=_typed(d["series"], "series", "a list of objects"),
                rings=_typed(d["rings"], "rings", "a list of objects"),
                traces=_typed(d["traces"], "traces", "a list of objects"),
                quality=_typed(d["quality"], "quality"),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed postmortem bundle: {exc!r}") from None
        # ... and every nested field format() reads, named by its path.
        objects = "a list of objects"
        for key in ("value", "threshold") if bundle.check else ():
            _number(bundle.check.get(key, 0.0), f"check.{key}")
        checks = (bundle.report or {}).get("checks", [])
        for i, c in enumerate(_typed(checks, "report.checks", objects)):
            _parsed(lambda c: HealthCheck(**c).format(), c, f"report.checks[{i}]", "a check")
        for i, series in enumerate(bundle.series):
            if series.get("server") is not None or not series.get("raw"):
                continue  # format() draws the federation-wide series only
            if not isinstance(series.get("name"), str):
                _refuse(f"series[{i}].name", "a string")
            for j, point in enumerate(_typed(series["raw"], f"series[{i}].raw", "a list")):
                path = f"series[{i}].raw[{j}]"
                if not (isinstance(point, list) and len(point) == 2):
                    _refuse(path, "a [time, value] pair")
                _number(point[1], path)
        quality = bundle.quality or {}
        snapshot = _typed(quality.get("snapshot"), "quality.snapshot") or {}
        for key, default, convert in (
            ("precision", 1.0, float), ("recall", 1.0, float),
            ("fp", 0, int), ("fn", 0, int), ("audits", 0, int),
        ):
            _number(snapshot.get(key, default), f"quality.snapshot.{key}", convert)
        last = _typed(quality.get("last_report"), "quality.last_report") or {}
        path = "quality.last_report.attributions"
        for i, a in enumerate(_typed(last.get("attributions", []), path, objects)):
            if a.get("staleness_age") is not None:
                _number(a["staleness_age"], f"{path}[{i}].staleness_age")
        for table in ("rings", "traces"):
            for i, entry in enumerate(getattr(bundle, table)):
                path = f"{table}[{i}].events"
                for j, event in enumerate(_typed(entry.get("events"), path, "a list")):
                    _parsed(TelemetryEvent.from_dict, event, f"{path}[{j}]", "an event")
        return bundle

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
        (``json``'s decode error is a ``ValueError`` too, and so is a
        ``NaN`` or ``Infinity`` anywhere in the file)."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(
                fh, parse_constant=lambda name: _refuse(name, "a number")
            ))

    # -- convenience ----------------------------------------------------------------
    @property
    def ring_events(self) -> int:
        return sum(len(r["events"]) for r in self.rings)

    def trace_trees(self):
        """Re-assembled :class:`TraceTree` objects, largest first."""
        events: List[TelemetryEvent] = []
        for t in self.traces:
            events.extend(TelemetryEvent.from_dict(e) for e in t["events"])
        trees = assemble_traces(events)
        return sorted(trees.values(), key=lambda t: (-len(t), t.trace_id))

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
                lines.append("  " + HealthCheck(**c).format())
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
        window_start = now - WINDOW_SECONDS
        series = (
            self.sampler.window_dict(window_start, now)
            if self.sampler is not None
            else []
        )
        held = {key: self.ring(key) for key in self.ring_servers}
        rings = [
            {"server": key, "events": [e.to_dict() for e in events]}
            for key, events in held.items()
        ]
        trees = assemble_traces([e for events in held.values() for e in events])
        overlapping = [
            t for t in trees.values()
            if any(
                n.start <= now and n.end >= window_start
                for n in t.nodes.values()
            )
        ]
        overlapping.sort(key=lambda t: (-len(t), t.trace_id))
        traces = [
            {
                "trace_id": t.trace_id,
                "events": [
                    n.event.to_dict()
                    for n in sorted(
                        t.nodes.values(), key=lambda n: (n.start, n.span_id)
                    )
                ],
            }
            for t in overlapping[:TREES_PER_BUNDLE]
        ]
        bundle = PostmortemBundle(
            reason=reason,
            triggered_at=now,
            window_start=window_start,
            window_end=now,
            check=check,
            report=report,
            series=series,
            rings=rings,
            traces=traces,
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
