"""Summary-maintenance and heartbeat overhead (Section IV, equation 4).

The paper bounds the per-node replication-message load at O(k²·i) for a
level-i node — about 150 summaries per t_s even in a 7-level hierarchy —
and argues the maintenance traffic is negligible. This bench measures
both on a real hierarchy: per-node replication messages per epoch
(against the analytical bound) and steady heartbeat traffic per node per
second.
"""

import numpy as np
from conftest import run_once

from repro.experiments import build_roads, build_workload, print_table
from repro.hierarchy import MaintenanceConfig
from repro.sim import MAINTENANCE


def test_maintenance_overhead(benchmark, settings):
    s = settings.with_(num_nodes=min(settings.num_nodes, 192))
    _, stores = build_workload(s, s.seed)
    system = build_roads(s, stores, s.seed)
    k = s.max_children

    def run():
        counts = system.overlay.per_node_message_counts()
        depths = {
            srv.server_id: srv.depth for srv in system.hierarchy
        }
        worst = max(counts.values())
        # Heartbeat traffic over one simulated minute.
        system.enable_maintenance(
            MaintenanceConfig(heartbeat_interval=5.0)
        )
        before = system.metrics.bytes_total(MAINTENANCE)
        system.sim.run(until=system.sim.now + 60.0)
        hb_bytes = system.metrics.bytes_total(MAINTENANCE) - before
        return counts, depths, worst, hb_bytes

    counts, depths, worst, hb_bytes = run_once(benchmark, run)
    n = len(counts)
    rows = [
        {
            "nodes": n,
            "max_replication_msgs_per_node_per_epoch": worst,
            "mean_replication_msgs": float(np.mean(list(counts.values()))),
            "heartbeat_bytes_per_node_per_s": hb_bytes / n / 60.0,
        }
    ]
    print()
    print_table(rows, title="Maintenance overhead (eq. 4 regime)")

    # Per-node replication load bounded by the analytical O(k^2 * depth):
    for sid, c in counts.items():
        assert c <= k * k * max(1, depths[sid]) + k, (sid, c, depths[sid])
    # "each node only sends a few summaries per second": with t_s = 60s
    # even the worst node ships far fewer than 10 summaries/second.
    assert worst / 60.0 < 10
    # Heartbeats are tiny next to the update traffic.
    update_epoch = system.update_bytes_per_epoch()
    assert hb_bytes < update_epoch / 10
