"""Per-(server, category, phase) metrics registry.

The paper's evaluation attributes load to individual servers (the root
bottleneck of Fig. 5/7 is a *per-server* observation, not a global sum).
:class:`MetricsRegistry` therefore keys every counter, byte gauge and
histogram by :class:`MetricKey` — ``server`` (``None`` for unattributed
/ global records), ``category`` (the traffic class, e.g. ``"query"``)
and ``phase`` (the protocol step, e.g. ``"forward"``, ``"aggregate"``,
``"heartbeat"``). Aggregations across any axis are simple sums, so the
paper's global per-category totals (:meth:`MetricsRegistry.bytes_total`,
:meth:`~MetricsRegistry.totals_by_category`) are roll-ups over this
store. It is the one metrics store of a run: ``Network.metrics`` and
``RoadsSystem.metrics`` are this object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .histogram import StreamingHistogram


@dataclass(frozen=True, order=True)
class MetricKey:
    """Attribution key: which server, which traffic class, which step."""

    category: str
    server: Optional[int] = None
    phase: str = ""

    def __post_init__(self) -> None:
        # Order=True needs comparable fields; normalise server None -> -1
        # only in sort helpers, not here, so keep server Optional but
        # guard against accidental float ids.
        if self.server is not None and not isinstance(self.server, int):
            object.__setattr__(self, "server", int(self.server))

    def labels(self) -> Dict[str, str]:
        return {
            "category": self.category,
            "server": "" if self.server is None else str(self.server),
            "phase": self.phase,
        }


def _sort_key(key: MetricKey) -> Tuple:
    return (key.category, -1 if key.server is None else key.server, key.phase)


class MetricsRegistry:
    """Counters, byte gauges and streaming histograms per metric key."""

    def __init__(self):
        self._messages: Dict[MetricKey, int] = {}
        self._bytes: Dict[MetricKey, int] = {}
        self._histograms: Dict[MetricKey, StreamingHistogram] = {}

    # -- recording ----------------------------------------------------------------
    def count_message(
        self,
        category: str,
        size_bytes: int,
        *,
        server: Optional[int] = None,
        phase: str = "",
    ) -> None:
        """Count one message; optionally attribute it to a *server* (the
        node bearing its load, normally the receiver) and a protocol
        *phase* (``"forward"``, ``"aggregate"``, ``"heartbeat"``, ...)."""
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        self._add(MetricKey(category, server, phase), 1, size_bytes)

    def uncount_message(
        self,
        category: str,
        size_bytes: int,
        *,
        server: Optional[int] = None,
        phase: str = "",
    ) -> None:
        """Roll back one previously counted message (e.g. a send by an
        already-failed node whose bytes never hit the wire)."""
        self._add(MetricKey(category, server, phase), -1, -size_bytes)

    def _add(self, key: MetricKey, messages: int, size_bytes: int) -> None:
        self._messages[key] = self._messages.get(key, 0) + messages
        self._bytes[key] = self._bytes.get(key, 0) + size_bytes

    def observe(
        self,
        name: str,
        value: float,
        *,
        server: Optional[int] = None,
        phase: str = "",
    ) -> None:
        """Record one sample into the named streaming histogram."""
        key = MetricKey(category=name, server=server, phase=phase)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = StreamingHistogram()
        hist.record(value)

    # -- roll-ups ----------------------------------------------------------------
    def categories(self) -> List[str]:
        cats = {k.category for k in self._messages}
        return sorted(cats)

    def bytes_total(self, category: Optional[str] = None) -> int:
        return sum(
            v for k, v in self._bytes.items()
            if category is None or k.category == category
        )

    def messages_total(self, category: Optional[str] = None) -> int:
        return sum(
            v for k, v in self._messages.items()
            if category is None or k.category == category
        )

    def totals_by_category(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """(bytes per category, messages per category) as plain dicts."""
        by_bytes: Dict[str, int] = {}
        by_msgs: Dict[str, int] = {}
        for k, v in self._bytes.items():
            by_bytes[k.category] = by_bytes.get(k.category, 0) + v
        for k, v in self._messages.items():
            by_msgs[k.category] = by_msgs.get(k.category, 0) + v
        return by_bytes, by_msgs

    def per_server(
        self,
        category: Optional[str] = None,
        phase: Optional[str] = None,
    ) -> Dict[int, Tuple[int, int]]:
        """``server -> (messages, bytes)`` filtered by category/phase.

        Unattributed records (``server=None``) are excluded — they have
        no server to charge.
        """
        out: Dict[int, Tuple[int, int]] = {}
        for k in set(self._messages) | set(self._bytes):
            if k.server is None:
                continue
            if category is not None and k.category != category:
                continue
            if phase is not None and k.phase != phase:
                continue
            msgs, byts = out.get(k.server, (0, 0))
            out[k.server] = (
                msgs + self._messages.get(k, 0),
                byts + self._bytes.get(k, 0),
            )
        # Fully rolled-back servers (e.g. only failed-sender messages)
        # carry no load.
        return {s: v for s, v in out.items() if v != (0, 0)}

    def histogram(
        self,
        name: str,
        *,
        server: Optional[int] = None,
        phase: str = "",
    ) -> Optional[StreamingHistogram]:
        return self._histograms.get(
            MetricKey(category=name, server=server, phase=phase)
        )

    def merged_histogram(self, name: str) -> StreamingHistogram:
        """All servers' histograms for *name* folded into one."""
        out = StreamingHistogram()
        for k, h in self._histograms.items():
            if k.category == name:
                out.merge(h)
        return out

    # -- lifecycle ----------------------------------------------------------------
    def reset(self, categories: Optional[Iterable[str]] = None) -> None:
        if categories is None:
            self._messages.clear()
            self._bytes.clear()
            self._histograms.clear()
            return
        drop = set(categories)
        for table in (self._messages, self._bytes, self._histograms):
            for k in [k for k in table if k.category in drop]:
                del table[k]

    # -- snapshots ----------------------------------------------------------------
    def rows(self) -> List[Dict[str, object]]:
        """One plain-dict row per metric key, deterministically ordered."""
        keys = sorted(set(self._messages) | set(self._bytes), key=_sort_key)
        return [
            {
                "category": k.category,
                "server": k.server,
                "phase": k.phase,
                "messages": self._messages.get(k, 0),
                "bytes": self._bytes.get(k, 0),
            }
            for k in keys
        ]

    def snapshot(self) -> Dict[str, object]:
        """Nested plain-dict snapshot (JSON-serialisable)."""
        by_bytes, by_msgs = self.totals_by_category()
        return {
            "bytes_by_category": by_bytes,
            "messages_by_category": by_msgs,
            "rows": self.rows(),
            "histograms": [
                {
                    "name": k.category,
                    "server": k.server,
                    "phase": k.phase,
                    **h.summary(),
                }
                for k, h in sorted(
                    self._histograms.items(), key=lambda kv: _sort_key(kv[0])
                )
            ],
        }
