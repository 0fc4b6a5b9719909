#!/usr/bin/env python
"""Federation observatory: introspecting a running ROADS deployment.

A tour of the library's diagnostic surfaces:

* ASCII rendering of the live hierarchy and its shape statistics;
* a query's causal trace (contact / transit / arrive / match / redirect);
* the analytical query-cost model validated against live measurements;
* three-way response-time comparison (ROADS / SWORD / central);
* an ASCII chart of a mini node-count sweep.

Run:  python examples/federation_observatory.py
"""

import numpy as np

from repro.analysis import (
    QueryCostParams,
    expected_contacts,
    leaf_match_probability_from_dims,
    measured_dimension_probabilities,
)
from repro.experiments import ExperimentSettings, fig3_latency_vs_nodes
from repro.experiments.charts import ascii_chart
from repro.hierarchy import render_tree, tree_stats
from repro.prototype import CentralResponder, RoadsResponder, SwordResponder
from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.summaries import ResourceSummary, SummaryConfig
from repro.sword import SwordConfig, SwordSystem
from repro.telemetry import Telemetry, assemble_traces
from repro.central import CentralConfig, CentralSystem
from repro.workload import WorkloadConfig, generate_node_stores, generate_queries

NODES = 24
RECORDS = 150
SEED = 77


def main() -> None:
    wcfg = WorkloadConfig(num_nodes=NODES, records_per_node=RECORDS, seed=SEED)
    stores = generate_node_stores(wcfg)
    cfg = SummaryConfig(histogram_buckets=200)
    tel = Telemetry()
    system = RoadsSystem.build(
        RoadsConfig(num_nodes=NODES, records_per_node=RECORDS,
                    max_children=3, summary=cfg, seed=SEED),
        stores,
        telemetry=tel,
    )

    # 1. the hierarchy, drawn -------------------------------------------------
    print("=== hierarchy ===")
    print(render_tree(system.hierarchy,
                      label=lambda s: f"s{s.server_id}"))
    print(tree_stats(system.hierarchy))

    # 2. a traced query ----------------------------------------------------------
    print("\n=== traced query ===")
    q = generate_queries(wcfg, num_queries=3, dimensions=3)[0]
    outcome = system.search(SearchRequest(q, client_node=5)).outcome
    print(f"query: {q}")
    print(assemble_traces(tel.events())[outcome.trace_id].format())
    print(f"-> {outcome.total_matches} matches from "
          f"{outcome.servers_contacted} servers in "
          f"{outcome.latency * 1000:.0f} ms")

    # 3. model vs measurement ---------------------------------------------------
    print("\n=== analytical query-cost model ===")
    queries = generate_queries(wcfg, num_queries=25)
    summaries = [ResourceSummary.from_store(s, cfg) for s in stores]
    dim_probs = measured_dimension_probabilities(summaries, queries)
    p_leaf = leaf_match_probability_from_dims(
        [dim_probs[a] for a in queries[0].attributes]
    )
    model = expected_contacts(QueryCostParams(NODES, 3, p_leaf))
    measured = np.mean([
        system.search(SearchRequest(qq, client_node=0)).servers_contacted
        for qq in queries
    ])
    print(f"per-dimension match probabilities: "
          f"{ {k: round(v, 2) for k, v in sorted(dim_probs.items())} }")
    print(f"leaf match probability (product): {p_leaf:.3f}")
    print(f"expected contacts (model): {model:.1f}  |  measured: {measured:.1f}")

    # 4. three-way response times ---------------------------------------------
    print("\n=== response time: ROADS vs SWORD vs central ===")
    sword = SwordSystem(SwordConfig(num_nodes=NODES, seed=SEED), stores)
    central = CentralSystem(CentralConfig(num_nodes=NODES, seed=SEED), stores)
    responders = {
        "ROADS": RoadsResponder(system),
        "SWORD": SwordResponder(sword),
        "central": CentralResponder(central),
    }
    for name, responder in responders.items():
        times = [
            responder.respond(qq, 0).response_seconds * 1000
            for qq in queries[:10]
        ]
        print(f"  {name:>8}: mean {np.mean(times):7.1f} ms  "
              f"p90 {np.percentile(times, 90):7.1f} ms")

    # 5. a mini sweep, charted ----------------------------------------------------
    print("\n=== figure 3 shape (mini sweep) ===")
    rows = fig3_latency_vs_nodes(
        ExperimentSettings(num_nodes=64, records_per_node=100,
                           num_queries=25, runs=1, seed=SEED),
        node_sweep=(32, 64, 96, 128),
    )
    print(ascii_chart(
        rows, "nodes", ["roads_latency_ms", "sword_latency_ms"],
        width=48, height=10,
        title="latency (ms) vs nodes — ROADS flattens, SWORD climbs",
    ))


if __name__ == "__main__":
    main()
