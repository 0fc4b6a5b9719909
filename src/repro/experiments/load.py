"""Offered load vs latency/goodput: the root bottleneck, made real.

Figures 5/7 argue the replication overlay removes the root bottleneck,
but a sequential query replayer can only show that as message *counts*.
With the concurrent serving plane the claim becomes a queueing
experiment: every server gets a single-server bounded queue
(:class:`~repro.net.transport.ServiceConfig`), an open-loop
:class:`~repro.roads.load.LoadGenerator` offers Poisson query traffic
while the update plane free-runs, and overload shows up the way it does
in a deployment — queueing delay, then load-shed queries.

Without the overlay every query enters at the root, so the root's
utilisation is the full arrival rate times the service time: past
saturation its queue depth and the p95 latency climb with offered load,
and past the queue bound queries get shed. With the overlay the same
stream enters at each client's own server and the per-server load stays
a small fraction of capacity — flat latency at every swept rate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..net.transport import ServiceConfig
from ..roads import LoadConfig, LoadGenerator, RetryPolicy, RoadsConfig, RoadsSystem
from ..sim.rng import SeedSequenceFactory
from ..summaries.config import SummaryConfig
from ..workload import WorkloadConfig, generate_node_stores
from ..workload.queries import generate_queries
from .config import ExperimentSettings

#: offered rates (queries/s) swept by the ``load_plane`` bench scenario
RATE_SWEEP = (5.0, 20.0, 60.0)
#: arrival window per run, virtual seconds
DEFAULT_HORIZON = 12.0
#: per-message service time — root capacity 1/0.025 = 40 msg/s, so the
#: top swept rate drives the no-overlay root past saturation (rho = 1.5)
SERVICE_TIME = 0.025
#: waiting-room bound: beyond this the server sheds (rejects) messages
QUEUE_LIMIT = 24
#: client patience under load: shorter timeout, one extra retry, real
#: exponential backoff so shed queries don't hammer a saturated server
LOAD_RETRY = RetryPolicy(timeout=2.0, retries=2, backoff_base=0.2)


def offered_load_rows(
    settings: ExperimentSettings,
    rates: Sequence[float] = RATE_SWEEP,
    *,
    horizon: float = DEFAULT_HORIZON,
    service: Optional[ServiceConfig] = None,
) -> List[Dict[str, object]]:
    """One row per (offered rate, overlay on/off) pair.

    Each run rebuilds the same federation (same seed), installs the
    service model on every server, starts the free-running update plane,
    and offers a Poisson query stream for *horizon* virtual seconds. The
    row reports client-observed latency percentiles, goodput, shed
    counts, and the root's queue statistics.
    """
    n = min(settings.num_nodes, 32)
    records = min(settings.records_per_node, 60)
    buckets = min(settings.histogram_buckets, 200)
    svc = service or ServiceConfig(
        service_time=SERVICE_TIME, queue_limit=QUEUE_LIMIT
    )
    wcfg = WorkloadConfig(
        num_nodes=n, records_per_node=records, seed=settings.seed
    )
    queries = generate_queries(
        wcfg,
        num_queries=min(settings.num_queries, 40),
        dimensions=settings.query_dimensions,
        range_length=settings.query_range_length,
        seed_label="load-queries",
    )
    rows: List[Dict[str, object]] = []
    for rate in rates:
        for use_overlay in (False, True):
            stores = generate_node_stores(wcfg)
            config = RoadsConfig(
                num_nodes=n,
                records_per_node=records,
                max_children=settings.max_children,
                summary=SummaryConfig(histogram_buckets=buckets),
                summary_interval=settings.summary_interval,
                delta_updates=True,
                seed=settings.seed,
            )
            system = RoadsSystem.build(config, stores)
            system.enable_service(svc)
            system.update_plane.start()
            # Drain the initial summary propagation so the load run
            # starts from a converged plane, not the startup burst.
            system.sim.run(until=system.sim.now + 2.0)
            seeds = SeedSequenceFactory(settings.seed)
            gen = LoadGenerator(
                system,
                queries,
                LoadConfig(
                    rate=float(rate),
                    horizon=float(horizon),
                    use_overlay=use_overlay,
                    retry=LOAD_RETRY,
                ),
                seeds.fresh_generator(f"load-{rate}"),
            )
            report = gen.run()
            root = system.hierarchy.root.server_id
            root_stats = system.network.service_stats(root)
            all_stats = [
                system.network.service_stats(s.server_id)
                for s in system.hierarchy
            ]
            elapsed = max(report.drained_at - report.started_at, 1e-9)
            summary = report.summary()
            rows.append({
                "rate": float(rate),
                "use_overlay": use_overlay,
                "offered": float(report.offered),
                "completed": float(report.completed),
                "ok": float(report.ok),
                "shed_queries": float(report.shed_queries),
                "rejections": float(report.rejections),
                "goodput": float(report.goodput),
                "latency_p50": float(summary["latency_p50"] or 0.0),
                "latency_p95": float(summary["latency_p95"] or 0.0),
                "latency_max": float(summary["latency_max"] or 0.0),
                "root_queue_max": float(root_stats["max_depth"]),
                "root_served": float(root_stats["served"]),
                "root_shed": float(root_stats["shed"]),
                "root_utilization": float(root_stats["busy_seconds"])
                / elapsed,
                "mean_queue_max": (
                    sum(float(s["max_depth"]) for s in all_stats)
                    / max(len(all_stats), 1)
                ),
                "messages_shed_total": float(
                    system.network.counters()["shed"]
                ),
            })
    return rows
