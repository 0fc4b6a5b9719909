"""Telemetry events, and the one checker of every document read back.

:class:`TelemetryEvent` is a point event (``kind="event"``) or a closed
span (``kind="span"``, with a duration), stamped with sim-clock times
and a tag dict. Every file reader (``read_jsonl``,
``PostmortemBundle.load``, ``bench.load_artifact``) decodes with
:func:`parse_json` and checks its spec of the fields it reads
(:data:`EVENT` is the event's) with :func:`checked`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Optional

#: the causal-coordinate tags (``TraceContext.tags``): integer ids
CAUSAL_TAGS = ("trace_id", "span_id", "parent_span_id")


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: kind -> (what the error calls it, test); a bool is never a number
_KINDS = {
    "number": ("a number", _number),  # NaN and Infinity included
    "finite": ("a number", lambda v: _number(v) and math.isfinite(v)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "dict": ("an object", lambda v: isinstance(v, dict)),
}


def checked(value, kind, path: str = ""):
    """One ValueError naming the path unless *value* is of *kind*
    (``'rings[0].events[3].ts' is not a number``, ``'window' is
    missing``).

    *kind* is a name of :data:`_KINDS`; ``[kind, ...]``, a list of
    *kind*; ``[kind_0, kind_1]``, a list of exactly those; ``(None,
    kind)``, null or *kind*; or a spec — a dict of field -> kind, where
    a field ending in ``?`` may be absent and ``"*"`` stands for every
    field. Fields a spec does not name are not looked at.
    """
    if isinstance(kind, tuple):
        if value is not None:
            checked(value, kind[1], path)
    elif isinstance(kind, str):
        what, test = _KINDS[kind]
        if not test(value):
            raise ValueError(f"{path!r} is not {what}" if path else f"not {what}")
    elif isinstance(kind, list):
        checked(value, "list", path)
        items = kind[:1] * len(value) if kind[-1] is ... else kind
        if len(items) != len(value):
            raise ValueError(f"{path!r} is not a list of {len(items)}")
        for i, (item, sub) in enumerate(zip(value, items)):
            checked(item, sub, f"{path}[{i}]")
    else:
        checked(value, "dict", path)
        for key, sub in kind.items():
            name = key.rstrip("?")
            for field_name in value if name == "*" else [name]:
                at = f"{path}.{field_name}" if path else field_name
                if field_name in value:
                    checked(value[field_name], sub, at)
                elif name == key:
                    raise ValueError(f"{at!r} is missing")


def parse_json(text: str, *, finite: bool = False):
    """The JSON document *text*; ValueError when it is not one, when it
    nests deeper than the decoder can follow, or — with *finite* — when
    it holds a ``NaN`` or ``Infinity``."""

    def refuse(name):
        raise ValueError(f"{name!r} is not a number")

    try:
        return json.loads(text, parse_constant=refuse if finite else None)
    except RecursionError:
        raise ValueError("nested too deeply to decode") from None


#: the fields :meth:`TelemetryEvent.from_dict` reads
EVENT = {
    "ts": "finite", "name": "str", "kind?": "str", "dur?": "finite",
    "span_id?": "int", "tags?": {f"{tag}?": "int" for tag in CAUSAL_TAGS},
}


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
        ValueError naming the field (:data:`EVENT`).

        Keys it does not know (``parent_id`` in older exports) are
        ignored, so every export this recorder ever wrote still loads.
        """
        checked(d, EVENT)
        return cls(
            ts=float(d["ts"]),
            name=d["name"],
            kind=d.get("kind", "event"),
            dur=float(d.get("dur", 0.0)),
            span_id=d.get("span_id", 0),
            tags=dict(d.get("tags", {})),
        )
