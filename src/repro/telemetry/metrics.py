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

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .histogram import StreamingHistogram


class MetricKey(NamedTuple):
    """Attribution key: which server, which traffic class, which step.

    A tuple, so the registry's tables are probed with the plain
    ``(category, server, phase)`` triple a recording call already holds
    and a key is minted once per distinct triple, not once per message.
    """

    category: str
    server: Optional[int] = None
    phase: str = ""

    def labels(self) -> Dict[str, str]:
        return {
            "category": self.category,
            "server": "" if self.server is None else str(self.server),
            "phase": self.phase,
        }


def _key(category: str, server: Optional[int], phase: str) -> MetricKey:
    """The key a table stores; guards against accidental float ids."""
    if server is not None and not isinstance(server, int):
        server = int(server)
    return MetricKey(category, server, phase)


def _sort_key(key: MetricKey) -> Tuple:
    return (key.category, -1 if key.server is None else key.server, key.phase)


class MetricsRegistry:
    """Counters, byte gauges and streaming histograms per metric key."""

    def __init__(self):
        #: key -> ``[messages, bytes]``; the transport bumps the cell of
        #: a key already minted in place, probing with its plain triple
        self.traffic: Dict[MetricKey, List[int]] = {}
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
        cell = self.traffic.get((category, server, phase))
        if cell is None:
            cell = self.traffic.setdefault(_key(category, server, phase), [0, 0])
        cell[0] += 1
        cell[1] += size_bytes

    def observe(
        self,
        name: str,
        value: float,
        *,
        server: Optional[int] = None,
        phase: str = "",
    ) -> None:
        """Record one sample into the named streaming histogram."""
        hist = self._histograms.get((name, server, phase))
        if hist is None:
            hist = self._histograms.setdefault(
                _key(name, server, phase), StreamingHistogram()
            )
        hist.record(value)

    # -- roll-ups ----------------------------------------------------------------
    def categories(self) -> List[str]:
        cats = {k.category for k in self.traffic}
        return sorted(cats)

    def bytes_total(self, category: Optional[str] = None) -> int:
        return sum(
            byts for k, (_, byts) in self.traffic.items()
            if category is None or k.category == category
        )

    def messages_total(self, category: Optional[str] = None) -> int:
        return sum(
            msgs for k, (msgs, _) in self.traffic.items()
            if category is None or k.category == category
        )

    def totals_by_category(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """(bytes per category, messages per category) as plain dicts."""
        by_bytes: Dict[str, int] = {}
        by_msgs: Dict[str, int] = {}
        for k, (msgs, byts) in self.traffic.items():
            by_bytes[k.category] = by_bytes.get(k.category, 0) + byts
            by_msgs[k.category] = by_msgs.get(k.category, 0) + msgs
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
        for k, (key_msgs, key_bytes) in self.traffic.items():
            if k.server is None:
                continue
            if category is not None and k.category != category:
                continue
            if phase is not None and k.phase != phase:
                continue
            msgs, byts = out.get(k.server, (0, 0))
            out[k.server] = (msgs + key_msgs, byts + key_bytes)
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
        return self._histograms.get(_key(name, server, phase))

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
            self.traffic.clear()
            self._histograms.clear()
            return
        drop = set(categories)
        for table in (self.traffic, self._histograms):
            for k in [k for k in table if k.category in drop]:
                del table[k]

    # -- snapshots ----------------------------------------------------------------
    def rows(self) -> List[Dict[str, object]]:
        """One plain-dict row per metric key, deterministically ordered."""
        return [
            {
                "category": k.category,
                "server": k.server,
                "phase": k.phase,
                "messages": self.traffic[k][0],
                "bytes": self.traffic[k][1],
            }
            for k in sorted(self.traffic, key=_sort_key)
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
