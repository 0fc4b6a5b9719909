"""Traffic categories of the evaluation (Section V).

Every message is accounted, in bytes and count, under one of:

* ``update`` — resource record / summary export and aggregation traffic,
* ``query`` — query forwarding traffic,
* ``maintenance`` — heartbeats and overlay summary replication traffic,
* ``result`` — record return traffic (prototype benchmark only).

The store itself is :class:`repro.telemetry.metrics.MetricsRegistry`.
"""

UPDATE = "update"
QUERY = "query"
MAINTENANCE = "maintenance"
RESULT = "result"

CATEGORIES = (UPDATE, QUERY, MAINTENANCE, RESULT)
