#!/usr/bin/env python
"""Quickstart: build a small ROADS federation and run a few queries.

This walks through the whole public API surface in one sitting:

1. generate a federated workload (records spread across 48 owner nodes);
2. build the ROADS system — hierarchy, bottom-up aggregation, overlay;
3. run multi-dimensional range queries from arbitrary nodes;
4. inspect latency, traffic, and which owners answered;
5. compare against the SWORD (DHT) and central-repository baselines.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import RoadsConfig, RoadsSystem, SearchRequest, SwordConfig, SwordSystem
from repro.central import CentralConfig, CentralSystem
from repro.workload import (
    WorkloadConfig,
    generate_node_stores,
    generate_queries,
    merge_stores,
)

NODES = 48
RECORDS = 200
SEED = 42


def main() -> None:
    # 1. Workload: every node is a resource owner with its own records.
    wcfg = WorkloadConfig(num_nodes=NODES, records_per_node=RECORDS, seed=SEED)
    stores = generate_node_stores(wcfg)
    print(f"workload: {NODES} owners x {RECORDS} records, "
          f"{wcfg.num_attributes} attributes each")

    # 2. ROADS: the hierarchy forms by balanced incremental join; owners
    #    export only summaries; the overlay replicates them for
    #    start-anywhere search.
    system = RoadsSystem.build(
        RoadsConfig(num_nodes=NODES, records_per_node=RECORDS, seed=SEED),
        stores,
    )
    print(f"hierarchy: {len(system.hierarchy)} servers, "
          f"{system.levels} levels, root = server "
          f"{system.hierarchy.root.server_id}")

    # 3. Queries: six-dimensional range queries, as in the paper's
    #    evaluation (three-dimensional here so a 48-node demo federation
    #    has visible matches), issued from random nodes.
    queries = generate_queries(wcfg, num_queries=10, dimensions=3)
    reference = merge_stores(stores)

    print("\nquery results (ROADS vs ground truth):")
    for q in queries[:5]:
        outcome = system.search(SearchRequest(q)).outcome
        truth = q.match_count(reference)
        owners = sorted({h.owner_id for h in outcome.owner_hits if h.match_count})
        print(
            f"  {outcome.total_matches:3d} matches (truth {truth:3d})  "
            f"latency {outcome.latency * 1000:6.1f} ms  "
            f"servers {outcome.servers_contacted:2d}  "
            f"bytes {outcome.query_bytes:5d}  owners {owners[:4]}"
        )
        assert outcome.total_matches == truth

    # 4. Update traffic: what one summary refresh epoch costs.
    epoch_bytes = system.update_bytes_per_epoch()
    print(f"\nROADS summary refresh: {epoch_bytes:,} bytes per epoch "
          f"(every {system.config.summary_interval:.0f} s)")

    # 5. Baselines on the identical workload.
    sword = SwordSystem(SwordConfig(num_nodes=NODES, seed=SEED), stores)
    central = CentralSystem(CentralConfig(num_nodes=NODES, seed=SEED), stores)
    rng = np.random.default_rng(SEED)
    window = 600.0  # 10 summary epochs / 100 record epochs

    roads_lat, sword_lat = [], []
    for q in queries:
        client = int(rng.integers(0, NODES))
        roads_lat.append(
            system.search(SearchRequest(q, client_node=client)).latency
        )
        sword_lat.append(sword.execute_query(q, client).latency)

    print("\nhead-to-head over the same queries:")
    print(f"  mean latency : ROADS {np.mean(roads_lat)*1000:7.1f} ms | "
          f"SWORD {np.mean(sword_lat)*1000:7.1f} ms")
    print(f"  update bytes : ROADS {system.update_overhead(window):12,} | "
          f"SWORD {sword.update_overhead(window):14,} | "
          f"central {central.update_overhead(window):12,}  (per {window:.0f}s)")
    print("\nROADS ships condensed summaries instead of records: "
          f"{sword.update_overhead(window) / system.update_overhead(window):.0f}x "
          "less update traffic than the DHT design.")


if __name__ == "__main__":
    main()
