"""Telemetry events and the bounded event bus.

:class:`TelemetryEvent` is the bus's wire unit: a point event
(``kind="event"``) or a closed span (``kind="span"``, with a duration),
stamped with sim-clock times and a tag dict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List


@dataclass
class TelemetryEvent:
    """One recorded point event or closed span.

    A span's causal parent is a ``TraceContext`` tag
    (``parent_span_id``), not a field of the event.
    """

    ts: float
    name: str
    kind: str = "event"  # "event" | "span"
    dur: float = 0.0
    span_id: int = 0
    tags: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ts": self.ts,
            "name": self.name,
            "kind": self.kind,
            "dur": self.dur,
            "span_id": self.span_id,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "TelemetryEvent":
        # Keys it does not know (``parent_id`` in older exports) are
        # ignored, so every export this recorder ever wrote still loads;
        # anything that is not an event is one ValueError.
        if not isinstance(d, dict):
            raise ValueError(f"not an event object: {type(d).__name__}")
        try:
            return cls(
                ts=float(d["ts"]),
                name=str(d["name"]),
                kind=str(d.get("kind", "event")),
                dur=float(d.get("dur", 0.0)),
                span_id=int(d.get("span_id", 0)),
                tags=dict(d.get("tags", {})),
            )
        except KeyError as exc:
            raise ValueError(f"event without {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed event: {exc}") from None


class EventBus:
    """Bounded ring buffer of telemetry events with optional subscribers.

    Appends are O(1); once ``capacity`` is reached the oldest events are
    evicted (``dropped`` counts them). Subscribers are called on every
    emit — they see even events that later fall out of the ring.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._subscribers: List[Callable[[TelemetryEvent], None]] = []
        self.emitted = 0
        self.dropped = 0

    def emit(self, event: TelemetryEvent) -> None:
        self.emitted += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        for fn in self._subscribers:
            fn(event)

    def subscribe(self, fn: Callable[[TelemetryEvent], None]) -> Callable[[], None]:
        """Register *fn* on every emit; returns an unsubscribe callable."""
        self._subscribers.append(fn)

        def unsubscribe() -> None:
            if fn in self._subscribers:
                self._subscribers.remove(fn)

        return unsubscribe

    def events(self) -> List[TelemetryEvent]:
        """Snapshot of the retained events, oldest first."""
        return list(self._events)

    def drain(self) -> List[TelemetryEvent]:
        """Return and clear the retained events."""
        out = list(self._events)
        self._events.clear()
        return out

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TelemetryEvent]:
        return iter(list(self._events))
