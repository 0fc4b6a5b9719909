"""Update-plane staleness under message loss.

The paper argues summaries are soft state: an update that never arrives
is not an error — the stale summary serves queries until its TTL runs
out, then the branch degrades gracefully. With the event-driven update
plane this is finally measurable: summaries travel as real messages, so
a lossy network produces genuinely stale replicas.

The experiment free-runs the per-server update actors (paper's t_s)
while records churn (t_r), at several message loss rates, and samples
the age distribution of all held soft state at the end of the horizon:
propagation lag in the loss-free case, staleness / keep-alive rejection
/ TTL expiry under loss.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..roads import RoadsConfig, RoadsSystem
from ..summaries.config import SummaryConfig
from ..workload import WorkloadConfig, generate_node_stores
from .config import ExperimentSettings

#: loss rates swept by the ``update_plane`` benchmark scenario
LOSS_SWEEP = (0.0, 0.02, 0.08)


def update_plane_staleness_rows(
    settings: ExperimentSettings,
    loss_rates: Sequence[float] = LOSS_SWEEP,
    *,
    epochs: int = 8,
    churn_per_epoch: int = 4,
) -> List[Dict[str, object]]:
    """One row of staleness statistics per loss rate.

    Each run builds the same federation (same seed), starts the
    free-running update plane, and advances *epochs* summary intervals.
    Between intervals, ``churn_per_epoch`` records move to a different
    histogram bucket (the paper's record dynamics) so full summary
    sends keep occurring — the messages whose loss creates observable
    staleness rather than just a skipped refresh.
    """
    n = min(settings.num_nodes, 64)
    records = min(settings.records_per_node, 100)
    buckets = min(settings.histogram_buckets, 200)
    rows: List[Dict[str, object]] = []
    for loss in loss_rates:
        wcfg = WorkloadConfig(
            num_nodes=n, records_per_node=records, seed=settings.seed
        )
        stores = generate_node_stores(wcfg)
        config = RoadsConfig(
            num_nodes=n,
            records_per_node=records,
            max_children=settings.max_children,
            summary=SummaryConfig(histogram_buckets=buckets),
            summary_interval=settings.summary_interval,
            delta_updates=True,
            loss_rate=loss,
            seed=settings.seed,
        )
        system = RoadsSystem.build(config, stores)
        plane = system.update_plane
        plane.start()
        churn_rng = np.random.default_rng(settings.seed + 17)
        sim = system.sim
        for _ in range(epochs):
            sim.run(until=sim.now + config.summary_interval)
            for _ in range(churn_per_epoch):
                store = stores[int(churn_rng.integers(0, n))]
                if len(store) == 0:
                    continue
                row = int(churn_rng.integers(0, len(store)))
                old = float(store.numeric_column("u0")[row])
                # Far side of the domain: guaranteed new bucket.
                store.update_numeric(
                    row, "u0", 1.0 - old if abs(old - 0.5) > 0.05 else 0.95
                )
        snap = plane.staleness_snapshot()
        c = plane.counters
        rows.append({
            "loss_rate": float(loss),
            "epochs": float(epochs),
            "entries": snap["entries"],
            "age_mean": snap["age_mean"],
            "age_max": snap["age_max"],
            "stale_fraction": snap["stale_fraction"],
            "install_lag_mean": snap["install_lag_mean"],
            "lost": float(c.lost),
            "rejected": float(c.ignored),
            "expired": float(c.expired),
            "installed": float(c.installed),
            "refreshed": float(c.refreshed),
            "full_sends": float(c.full_reports + c.full_sends),
            "keepalive_sends": float(
                c.keepalive_reports + c.keepalive_sends
            ),
            "update_bytes": float(
                c.export_bytes + c.aggregation_bytes + c.replication_bytes
            ),
            "messages": float(
                c.export_messages
                + c.aggregation_messages
                + c.replication_messages
            ),
        })
    return rows


def validate_update_plane(rows: List[Dict[str, object]]) -> List[str]:
    """Shape checks on the staleness sweep (soft-state story holds)."""
    failures: List[str] = []
    if not rows:
        return ["update_plane produced no rows"]
    by_loss = {float(r["loss_rate"]): r for r in rows}
    clean = by_loss.get(0.0)
    if clean is None:
        return ["update_plane sweep is missing the loss-free row"]
    if float(clean["lost"]) != 0:
        failures.append(
            f"loss-free run lost {clean['lost']} messages"
        )
    if float(clean["stale_fraction"]) != 0:
        failures.append(
            "loss-free run reported stale summaries "
            f"(fraction {clean['stale_fraction']})"
        )
    lossy = [r for r in rows if float(r["loss_rate"]) > 0]
    if not lossy:
        failures.append("update_plane sweep has no lossy rows")
        return failures
    if not all(float(r["lost"]) > 0 for r in lossy):
        failures.append("a lossy run lost no messages")
    # Loss must leave an observable staleness signal somewhere in the
    # sweep: rejected keep-alives (a full send was lost), genuinely
    # stale entries, or TTL expiries.
    signal = max(
        float(r["rejected"]) + float(r["stale_fraction"]) + float(r["expired"])
        for r in lossy
    )
    if signal <= 0:
        failures.append(
            "lossy runs produced no staleness signal "
            "(no rejected keep-alives, stale entries, or expiries)"
        )
    worst = max(lossy, key=lambda r: float(r["loss_rate"]))
    if float(worst["age_max"]) < float(clean["age_max"]):
        failures.append(
            "staleness did not grow with loss: age_max "
            f"{worst['age_max']} under loss vs {clean['age_max']} clean"
        )
    return failures
