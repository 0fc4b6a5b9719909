"""Quality plane: the shadow oracle's accuracy frontier.

The ``quality_plane`` scenario reproduces the paper's central trade-off
— update traffic spent on summary freshness versus the query misroutes
stale summaries cause (the Figure 4/5 frontier) — with the shadow
oracle (:mod:`repro.telemetry.quality`) as the measuring instrument,
and simultaneously proves the instrument leaves the simulation alone:

1. **Frontier** — each cell of the sweep runs the same seeded
   federation at one ``(update interval, loss rate)`` point. After the
   plane converges, a deterministic churn burst moves every record in
   one attribute band to the far end of the domain, then a fixed probe
   workload queries both the vacated band (stale summaries still
   advertise it → false positives) and the newly-populated band (stale
   summaries don't advertise it yet → false negatives). Longer update
   intervals leave summaries stale across more of the probe window, so
   false positives must grow with the interval while update bytes
   shrink — the monotone frontier the validator enforces.
2. **Zero perturbation** — every cell runs twice: an *audit* arm with
   the quality plane attached and a *base* arm without. The oracle
   only reads state (no messages, no sim events, no randomness), so
   summed query latencies must match byte-for-byte and the two
   networks' delivery censuses must be equal. The row carries
   both deltas and the validator fails on any mismatch.

What an audit costs in host time is not measured here: the armed /
disarmed ratio is ``telemetry.probe.quality_ratio`` of
``perf/run.py --workload layers``.

Every false positive / false negative the oracle records must carry a
full divergence attribution (holder, table, staleness age, diverging
dimension); ``attribution_complete`` summarises that invariant per row.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..net.transport import ServiceConfig
from ..query.predicate import RangePredicate
from ..query.query import Query
from ..roads import RetryPolicy, RoadsConfig, RoadsSystem
from ..roads.search import SearchRequest
from ..summaries.config import SummaryConfig
from ..workload import WorkloadConfig, generate_node_stores
from .config import ExperimentSettings

#: update intervals swept by the ``quality_plane`` scenario (paper t_s)
INTERVAL_SWEEP = (0.5, 1.0, 2.0)
#: loss rates paired with the interval sweep
QUALITY_LOSS_SWEEP = (0.0, 0.15)
#: the attribute band the churn burst vacates — queries on it become
#: false-positive probes against every summary still advertising it
VACATED_BAND = (0.70, 0.78)
#: where the churned records land — queries on it become
#: false-negative probes against every summary not yet advertising it
LANDING_BAND = (0.985, 1.0)
#: per-server single-server queue (identical across cells and arms)
SERVICE = ServiceConfig(service_time=0.002, queue_limit=64)
#: client patience for the probe workload
RETRY = RetryPolicy(timeout=2.0, retries=2, backoff_base=0.2)
#: probe queries per cell; arrivals spread them across the stale window
NUM_PROBES = 24
#: probe inter-arrival spacing (seconds)
PROBE_SPACING = 0.1
#: fixed post-churn horizon over which update bytes are metered — a
#: fixed span of simulated time, so epochs (and bytes) scale as 1/interval
METER_HORIZON = 6.0
#: update-plane convergence epochs before the churn burst
CONVERGE_EPOCHS = 3


def _probe_queries() -> List[Query]:
    """The fixed probe workload: alternating vacated/landing band hits."""
    out: List[Query] = []
    for i in range(NUM_PROBES):
        band = VACATED_BAND if i % 2 == 0 else LANDING_BAND
        out.append(Query((RangePredicate("u0", band[0], band[1]),)))
    return out


def _churn(stores) -> int:
    """Move every record with ``u0`` in the vacated band to the landing
    band. Deterministic (no RNG): both arms see the same burst, and the
    landing offsets only depend on the row index."""
    span = LANDING_BAND[1] - LANDING_BAND[0]
    moved = 0
    for store in stores:
        col = store.numeric_column("u0")
        for row in range(len(store)):
            v = float(col[row])
            if VACATED_BAND[0] <= v <= VACATED_BAND[1]:
                target = LANDING_BAND[0] + span * 0.5 * ((row % 8) / 8.0)
                store.update_numeric(row, "u0", target)
                moved += 1
    return moved


def _drive(
    settings: ExperimentSettings,
    *,
    interval: float,
    loss: float,
    audit: bool,
) -> Dict[str, object]:
    """One arm of one sweep cell.

    Identical seeds, workload, churn and probe schedule across arms —
    the only difference is whether the quality plane is attached, so
    any sim-side divergence is a perturbation bug.
    """
    n = min(settings.num_nodes, 48)
    records = min(settings.records_per_node, 60)
    wcfg = WorkloadConfig(
        num_nodes=n, records_per_node=records, seed=settings.seed
    )
    stores = generate_node_stores(wcfg)
    config = RoadsConfig(
        num_nodes=n,
        records_per_node=records,
        max_children=settings.max_children,
        summary=SummaryConfig(
            histogram_buckets=min(settings.histogram_buckets, 200)
        ),
        summary_interval=interval,
        delta_updates=True,
        loss_rate=loss,
        seed=settings.seed,
    )
    system = RoadsSystem.build(config, stores)
    system.enable_service(SERVICE)
    plane = system.attach_quality() if audit else None
    system.update_plane.start()
    # Converge the plane, then meter update traffic from the churn on.
    system.sim.run(until=system.sim.now + CONVERGE_EPOCHS * interval)
    c = system.update_plane.counters
    bytes_before = float(
        c.export_bytes + c.aggregation_bytes + c.replication_bytes
    )
    meter_start = system.sim.now
    moved = _churn(stores)
    requests = [
        SearchRequest(q, client_node=int(i % n), retry=RETRY)
        for i, q in enumerate(_probe_queries())
    ]
    batch = system.search_many(
        requests,
        arrivals=[PROBE_SPACING * i for i in range(len(requests))],
    )
    outcomes = [r.outcome for r in batch]
    system.sim.run(until=meter_start + METER_HORIZON)
    update_bytes = float(
        c.export_bytes + c.aggregation_bytes + c.replication_bytes
    ) - bytes_before
    return {
        "outcomes": outcomes,
        "moved": moved,
        "update_bytes": update_bytes,
        "census": system.network.census,
        "plane": plane,
    }


def _cell_row(
    settings: ExperimentSettings, interval: float, loss: float
) -> Dict[str, object]:
    """One frontier row: one audit arm paired with one base arm."""
    base = _drive(settings, interval=interval, loss=loss, audit=False)
    audited = _drive(settings, interval=interval, loss=loss, audit=True)
    plane = audited["plane"]
    reports = list(plane.reports)
    complete = [
        1.0 if (r.fp + r.fn) == len(r.attributions) else 0.0
        for r in reports
    ]
    attributed = sum(len(r.attributions) for r in reports)
    base_latency = sum(o.latency for o in base["outcomes"])
    audit_latency = sum(o.latency for o in audited["outcomes"])
    return {
        "update_interval": float(interval),
        "loss_rate": float(loss),
        "moved_records": float(audited["moved"]),
        "probes": float(len(audited["outcomes"])),
        "update_bytes": float(audited["update_bytes"]),
        "quality_audits": float(plane.audits),
        "quality_tp": float(plane.tp),
        "quality_fp": float(plane.fp),
        "quality_fn": float(plane.fn),
        "quality_tn": float(plane.tn),
        "quality_precision": float(plane.precision),
        "quality_recall": float(plane.recall),
        "quality_attributions": float(attributed),
        "attribution_complete": float(
            min(complete) if complete else 0.0
        ),
        # Must be exactly zero / exactly one: the oracle never perturbs.
        "latency_delta": float(abs(audit_latency - base_latency)),
        "census_match": float(audited["census"] == base["census"]),
    }


def quality_plane_rows(
    settings: ExperimentSettings,
    intervals: Sequence[float] = INTERVAL_SWEEP,
    loss_rates: Sequence[float] = QUALITY_LOSS_SWEEP,
) -> List[Dict[str, object]]:
    """The frontier sweep: one row per (loss rate, update interval)."""
    rows: List[Dict[str, object]] = []
    for loss in loss_rates:
        for interval in intervals:
            rows.append(_cell_row(settings, interval, loss))
    return rows


def _frontier(
    rows: List[Dict[str, object]]
) -> Dict[float, List[Tuple[float, float, float]]]:
    """Per-loss ``(interval, update_bytes, fp)`` curves, interval-sorted."""
    curves: Dict[float, List[Tuple[float, float, float]]] = {}
    for r in rows:
        curves.setdefault(float(r["loss_rate"]), []).append((
            float(r["update_interval"]),
            float(r["update_bytes"]),
            float(r["quality_fp"]),
        ))
    for pts in curves.values():
        pts.sort()
    return curves


def validate_quality_plane(rows: List[Dict[str, object]]) -> List[str]:
    """Paper-shape checks for the ``quality_plane`` scenario."""
    failures: List[str] = []
    if not rows:
        return ["quality_plane produced no rows"]
    for r in rows:
        cell = (
            f"(interval={r['update_interval']}, loss={r['loss_rate']})"
        )
        if float(r["latency_delta"]) != 0.0:
            failures.append(
                f"the oracle perturbed simulated latencies at {cell} "
                f"(delta={r['latency_delta']})"
            )
        if float(r["census_match"]) != 1.0:
            failures.append(
                f"delivery censuses diverged across arms at {cell}"
            )
        if float(r["quality_audits"]) <= 0:
            failures.append(f"no queries were audited at {cell}")
        if float(r["attribution_complete"]) != 1.0:
            failures.append(
                f"a misroute escaped divergence attribution at {cell}"
            )
        if float(r["moved_records"]) <= 0:
            failures.append(f"the churn burst moved nothing at {cell}")
    if not any(float(r["quality_fp"]) > 0 for r in rows):
        failures.append(
            "no cell produced false positives — the stale-summary "
            "probe found no divergence anywhere"
        )
    curves = _frontier(rows)
    for loss, pts in sorted(curves.items()):
        if len(pts) < 3:
            failures.append(
                f"loss={loss} swept only {len(pts)} update intervals "
                "(need >= 3 for the frontier)"
            )
            continue
        bytes_curve = [p[1] for p in pts]
        fp_curve = [p[2] for p in pts]
        if any(b2 > b1 for b1, b2 in zip(bytes_curve, bytes_curve[1:])):
            failures.append(
                f"update bytes not monotone non-increasing with the "
                f"interval at loss={loss}: {bytes_curve}"
            )
        # The loss-free curve is fully deterministic, so every step of
        # the frontier must hold point-wise. Under injected loss the
        # mid-interval staleness mix is stochastic (which refreshes die
        # depends on the draw), so lossy curves are held to the
        # endpoint claim only: the slowest plane misroutes strictly
        # more than the freshest one.
        if loss == 0.0 and any(
            f2 < f1 for f1, f2 in zip(fp_curve, fp_curve[1:])
        ):
            failures.append(
                f"false positives not monotone non-decreasing with the "
                f"interval at loss={loss}: {fp_curve}"
            )
        if fp_curve[-1] <= fp_curve[0]:
            failures.append(
                f"the frontier is flat at loss={loss}: fp {fp_curve}"
            )
    return failures
