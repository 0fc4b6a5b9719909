"""repro — a reproduction of ROADS (ICPP 2008).

ROADS is a Replication Overlay Assisted resource Discovery Service for
federated systems (Hao Yang, Fan Ye, Zhen Liu; IBM T.J. Watson). This
package implements the full system and every substrate its evaluation
depends on:

* :mod:`repro.records` — resource records, schemas, columnar stores;
* :mod:`repro.summaries` — histogram and value-set summaries with
  mergeable, no-false-negative semantics;
* :mod:`repro.query` — multi-dimensional range queries and selectivity
  tooling;
* :mod:`repro.sim`, :mod:`repro.net` — discrete-event simulator and a
  5-D synthesized Internet delay space;
* :mod:`repro.hierarchy` — federated hierarchy: balanced join, bottom-up
  aggregation, heartbeat maintenance and root election;
* :mod:`repro.overlay` — the replication overlay and start-anywhere
  query routing;
* :mod:`repro.roads` — the assembled ROADS system with voluntary-sharing
  policies;
* :mod:`repro.sword`, :mod:`repro.central` — the DHT-based and
  central-repository baselines;
* :mod:`repro.workload` — the evaluation's record and query workloads;
* :mod:`repro.analysis` — the Section IV closed-form overhead model;
* :mod:`repro.experiments` — drivers for Table I and Figures 3-11;
* :mod:`repro.prototype` — the Figure 11 response-time substrate.

Quickstart::

    from repro import RoadsConfig, RoadsSystem, SearchRequest
    from repro.workload import WorkloadConfig, generate_node_stores, generate_queries

    wcfg = WorkloadConfig(num_nodes=64, records_per_node=100)
    cfg = RoadsConfig(num_nodes=64, records_per_node=100)
    system = RoadsSystem.build(cfg, generate_node_stores(wcfg))
    result = system.search(SearchRequest(generate_queries(wcfg, num_queries=1)[0]))
    print(result.latency, result.total_matches)
"""

from .records import (
    AttributeSpec,
    AttributeType,
    RecordStore,
    ResourceRecord,
    Schema,
    categorical,
    numeric,
)
from .query import EqualsPredicate, Query, RangePredicate
from .summaries import (
    HistogramSummary,
    ResourceSummary,
    SummaryConfig,
    ValueSetSummary,
)
from .roads import (
    OpenPolicy,
    PolicyTable,
    QueryOutcome,
    RetryPolicy,
    RoadsConfig,
    RoadsSystem,
    SearchRequest,
    SearchResult,
    SharingPolicy,
    TieredPolicy,
)
from .sword import SwordConfig, SwordSystem
from .central import CentralConfig, CentralSystem

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # records
    "AttributeSpec",
    "AttributeType",
    "Schema",
    "ResourceRecord",
    "RecordStore",
    "numeric",
    "categorical",
    # queries
    "Query",
    "RangePredicate",
    "EqualsPredicate",
    # summaries
    "SummaryConfig",
    "ResourceSummary",
    "HistogramSummary",
    "ValueSetSummary",
    # systems
    "RoadsSystem",
    "RoadsConfig",
    "SearchRequest",
    "SearchResult",
    "RetryPolicy",
    "QueryOutcome",
    "SharingPolicy",
    "OpenPolicy",
    "TieredPolicy",
    "PolicyTable",
    "SwordSystem",
    "SwordConfig",
    "CentralSystem",
    "CentralConfig",
]
