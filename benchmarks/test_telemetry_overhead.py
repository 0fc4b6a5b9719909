"""Telemetry must not perturb the simulation, armed or absent.

A system built with ``telemetry=None`` — the one way to switch telemetry
off — takes the query path plus only its ``if telemetry is not None``
guards; a system built with a recorder pays for every span and event.
This bench pins the property that matters and reports the price:

* determinism — identical outcomes (latency, bytes, servers contacted)
  and identical simulator event counts with telemetry absent and
  enabled;
* cost — median per-batch seconds of each arm over interleaved rounds
  (so clock drift hits both equally), printed, not gated: the gated
  armed/disarmed ratios are ``telemetry.probe.*_ratio`` of
  ``python3 perf/run.py --workload layers``.
"""

import time

import numpy as np
from conftest import run_once

from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.summaries import SummaryConfig
from repro.telemetry import Telemetry
from repro.workload import WorkloadConfig, generate_node_stores
from repro.workload.queries import generate_queries

_NODES = 48
_RECORDS = 60
_QUERIES = 40
_ROUNDS = 7
_SEED = 11


def _build(telemetry):
    wcfg = WorkloadConfig(
        num_nodes=_NODES, records_per_node=_RECORDS, seed=_SEED
    )
    stores = generate_node_stores(wcfg)
    cfg = RoadsConfig(
        num_nodes=_NODES,
        records_per_node=_RECORDS,
        max_children=4,
        summary=SummaryConfig(histogram_buckets=100),
        seed=_SEED,
    )
    system = RoadsSystem.build(cfg, stores, telemetry=telemetry)
    queries = generate_queries(wcfg, num_queries=_QUERIES)
    clients = np.random.default_rng(_SEED).integers(
        0, _NODES, size=len(queries)
    )
    return system, queries, clients


def _run_batch(system, queries, clients):
    lat = bytes_ = servers = 0.0
    for q, c in zip(queries, clients):
        o = system.search(SearchRequest(q, client_node=int(c))).outcome
        lat += o.latency
        bytes_ += o.query_bytes
        servers += o.servers_contacted
    return lat, bytes_, servers


def _timed(make_telemetry):
    system, queries, clients = _build(make_telemetry())
    t0 = time.perf_counter()
    digest = _run_batch(system, queries, clients)
    return time.perf_counter() - t0, digest, system.sim.processed


def test_telemetry_overhead_guard(benchmark):
    def run():
        arms = {
            "absent": lambda: None,
            "enabled": lambda: Telemetry(capacity=500_000),
        }
        samples = {name: [] for name in arms}
        digests = {}
        events = {}
        # Interleave rounds so machine noise hits every arm equally.
        for _ in range(_ROUNDS):
            for name, make in arms.items():
                dt, digest, processed = _timed(make)
                samples[name].append(dt)
                digests[name] = digest
                events[name] = processed
        return samples, digests, events

    samples, digests, events = run_once(benchmark, run)

    # Determinism: instrumentation must not perturb the simulation.
    assert digests["absent"] == digests["enabled"]
    assert events["absent"] == events["enabled"]

    med = {k: float(np.median(v)) for k, v in samples.items()}
    noise = abs(
        float(np.median(samples["absent"][::2]))
        - float(np.median(samples["absent"][1::2]))
    ) / med["absent"]
    print(
        f"\nmedian per-batch seconds: absent={med['absent']:.4f} "
        f"enabled={med['enabled']:.4f} (self-noise {noise:.1%})"
    )
