"""Traffic categories of the evaluation (Section V) and its update windows.

Every message is accounted, in bytes and count, under one of:

* ``update`` — resource record / summary export and aggregation traffic,
* ``query`` — query forwarding traffic,
* ``maintenance`` — heartbeats and overlay summary replication traffic,
* ``result`` — record return traffic (prototype benchmark only).

The store itself is :class:`repro.telemetry.metrics.MetricsRegistry`.
"""

import math

UPDATE = "update"
QUERY = "query"
MAINTENANCE = "maintenance"
RESULT = "result"

CATEGORIES = (UPDATE, QUERY, MAINTENANCE, RESULT)


def finite_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` naming *name* unless *value* is finite and > 0."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def epochs_in(window_seconds: float, interval: float) -> int:
    """The refresh epochs of *interval* seconds an update window is charged:
    the rounded count, at least one; a window with no epochs is refused."""
    finite_positive("window_seconds", window_seconds)
    return max(1, int(round(window_seconds / interval)))
