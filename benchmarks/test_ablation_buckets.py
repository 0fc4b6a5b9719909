"""Ablation — histogram resolution vs false-positive forwarding.

Fewer buckets make summaries cheaper to ship but blur them: more servers
look like they might match, so queries fan out wider (false-positive
owner visits). This bench sweeps the bucket count and reports the
overhead / precision trade-off the design section calls out.
"""

import numpy as np
from conftest import run_once

from repro.experiments import build_workload, print_table
from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.summaries import SummaryConfig
from repro.workload import generate_queries

BUCKET_SWEEP = (10, 100, 1000)


def test_bucket_resolution_ablation(benchmark, settings):
    s = settings.with_(num_nodes=min(settings.num_nodes, 128))
    wcfg, stores = build_workload(s, s.seed)
    queries = generate_queries(wcfg, num_queries=30)

    def run():
        rows = []
        for buckets in BUCKET_SWEEP:
            cfg = RoadsConfig(
                num_nodes=s.num_nodes,
                records_per_node=s.records_per_node,
                max_children=s.max_children,
                summary=SummaryConfig(histogram_buckets=buckets),
                seed=s.seed,
            )
            system = RoadsSystem.build(cfg, stores)
            contacted, fp, matches = [], [], []
            for q in queries:
                o = system.search(SearchRequest(q, client_node=0)).outcome
                contacted.append(o.servers_contacted)
                fp.append(sum(1 for h in o.owner_hits if h.match_count == 0))
                matches.append(o.total_matches)
            rows.append(
                {
                    "buckets": buckets,
                    "update_bytes_per_epoch": system.update_bytes_per_epoch(),
                    "mean_servers_contacted": float(np.mean(contacted)),
                    "mean_false_positive_owners": float(np.mean(fp)),
                    "matches": tuple(matches),
                }
            )
        return rows

    rows = run_once(benchmark, run)
    print()
    print_table(
        rows,
        columns=[
            "buckets",
            "update_bytes_per_epoch",
            "mean_servers_contacted",
            "mean_false_positive_owners",
        ],
        title="Ablation: histogram bucket count",
    )

    # Results identical at any resolution (no false negatives, ever).
    assert rows[0]["matches"] == rows[1]["matches"] == rows[2]["matches"]
    # Coarser histograms -> cheaper updates but wider fan-out.
    assert rows[0]["update_bytes_per_epoch"] < rows[2]["update_bytes_per_epoch"]
    assert (
        rows[0]["mean_servers_contacted"]
        >= rows[2]["mean_servers_contacted"]
    )
    assert (
        rows[0]["mean_false_positive_owners"]
        >= rows[2]["mean_false_positive_owners"]
    )
