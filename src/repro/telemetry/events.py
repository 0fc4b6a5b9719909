"""Telemetry events: the unit of the :class:`~repro.telemetry.Telemetry` log.

:class:`TelemetryEvent` is a point event (``kind="event"``) or a closed
span (``kind="span"``, with a duration), stamped with sim-clock times
and a tag dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

#: the causal-coordinate tags (``TraceContext.tags``): integer ids
CAUSAL_TAGS = ("trace_id", "span_id", "parent_span_id")


def _checked(value, what: str, kind: str):
    """*value* if it is *kind* — ``"a string"``, ``"an integer"`` or
    ``"a finite number"`` (never a bool) — else one ValueError."""
    if isinstance(value, bool) or not (
        isinstance(value, str) if kind == "a string"
        else isinstance(value, int) if kind == "an integer"
        else isinstance(value, (int, float)) and math.isfinite(value)
    ):
        raise ValueError(f"{what} is not {kind}: {value!r}")
    return value


def attributed_server(event: "TelemetryEvent") -> Optional[int]:
    """The server an event is attributed to: its ``server`` tag, else
    its ``dst`` tag (None = unattributed)."""
    server = event.tags.get("server")
    if server is None:
        server = event.tags.get("dst")
    try:
        return int(server)
    except (TypeError, ValueError):
        return None


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
        """The event :meth:`to_dict` wrote; anything else is one
        ValueError — a missing ``ts`` / ``name``, a mistyped field, a
        non-finite time, a causal tag that is not an integer.

        Keys it does not know (``parent_id`` in older exports) are
        ignored, so every export this recorder ever wrote still loads.
        """
        if not isinstance(d, dict):
            raise ValueError(f"not an event object: {type(d).__name__}")
        for key in ("ts", "name"):
            if key not in d:
                raise ValueError(f"event without {key!r}")
        tags = d.get("tags", {})
        if not isinstance(tags, dict):
            raise ValueError(f"tags is not an object: {tags!r}")
        for key in CAUSAL_TAGS:
            if key in tags:
                _checked(tags[key], f"tag {key}", "an integer")
        return cls(
            ts=float(_checked(d["ts"], "ts", "a finite number")),
            name=_checked(d["name"], "name", "a string"),
            kind=_checked(d.get("kind", "event"), "kind", "a string"),
            dur=float(_checked(d.get("dur", 0.0), "dur", "a finite number")),
            span_id=_checked(d.get("span_id", 0), "span_id", "an integer"),
            tags=dict(tags),
        )
