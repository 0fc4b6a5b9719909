"""Isolated per-layer probes: ``python3 perf/run.py --workload layers``.

Each probe drives one layer alone on synthetic fixed-size inputs, so a
change to that layer has a number that nothing else can move. The loop
counts are fixed (every probe takes at least 0.3 s per repetition on the
reference machine) and every figure is the median of five repetitions.
The probes are not gated end to end: they say where to look, the four
workloads say whether it mattered.

The ``telemetry.probe.*_ratio`` figures are the host time of a slice of
``search_paper`` with one observability plane armed over the same slice
with none; the armed slice must reproduce the unarmed simulated
outcomes, or the probe raises.
"""

from __future__ import annotations

import itertools
import statistics
from time import perf_counter
from typing import Callable, Dict

import numpy as np

from repro import SearchRequest, SummaryConfig
from repro.hierarchy import Server, build_hierarchy
from repro.net import DelaySpace, Network
from repro.sim import Simulator
from repro.summaries import ResourceSummary
from repro.summaries.codec import decode_summary, encode_summary
from repro.telemetry import CallPathProfiler, SeriesSampler, Telemetry
from repro.workload import WorkloadConfig, generate_node_store, generate_queries

from workloads import NO_EXPIRY, SMOKE, Scale, federation, search_outcome

REPEATS = 5


def _median_seconds(body: Callable[[], None], repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        body()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def _per_call_us(fn: Callable[[], object], calls: int) -> float:
    def body() -> None:
        for _ in range(calls):
            fn()

    return _median_seconds(body) / calls * 1e6


def _per_fresh_call_us(fn: Callable, fresh: Callable[[], object], calls: int) -> float:
    """Like :func:`_per_call_us` for a *fn* that caches on its argument:
    every call gets its own input, built outside the timed loop."""
    samples = []
    for _ in range(REPEATS):
        inputs = [fresh() for _ in range(calls)]
        t0 = perf_counter()
        for item in inputs:
            fn(item)
        samples.append(perf_counter() - t0)
    return statistics.median(samples) / calls * 1e6


def _sim_probe(events: int) -> Dict[str, float]:
    delays = np.random.default_rng(0).uniform(0.0, 60.0, events).tolist()

    def noop() -> None:
        pass

    def body() -> None:
        sim = Simulator()
        for delay in delays:
            sim.schedule(delay, noop)
        sim.run()

    return {"sim.probe.noop_events_per_s": events / _median_seconds(body)}


def _net_probe(messages: int) -> Dict[str, float]:
    nodes, fanout = 64, 10
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, nodes, size=(messages, 2)).tolist()

    def network() -> Network:
        net = Network(Simulator(), DelaySpace(nodes, np.random.default_rng(1)))
        for node in range(nodes):
            net.register(node, lambda msg: None)
        net.register_kind_batch("probe", lambda msgs: None)
        return net

    def single() -> None:
        net = network()
        for src, dst in pairs:
            net.send(src, dst, "probe", 64)
        net.sim.run()

    def batched() -> None:
        net = network()
        for i in range(0, messages, fanout):
            net.send_many(
                pairs[i][0],
                [(dst, 64, None, "probe", None) for _, dst in pairs[i:i + fanout]],
                "probe",
            )
        net.sim.run()

    return {
        "net.probe.noop_msgs_per_s": messages / _median_seconds(single),
        "net.probe.batch_msgs_per_s": messages / _median_seconds(batched),
    }


def _kernel_probes(shrink: int) -> Dict[str, float]:
    """Summary, record-mask and hierarchy kernels on the paper's shapes:
    500-record stores, 16 attributes, 1000 buckets, 320 servers."""
    wcfg = WorkloadConfig(num_nodes=8, records_per_node=500, seed=1)
    config = SummaryConfig()
    stores = [generate_node_store(wcfg, i) for i in range(8)]
    summaries = [ResourceSummary.from_store(s, config) for s in stores]
    queries = generate_queries(wcfg, num_queries=64)
    frame = encode_summary(summaries[0])
    next_query = itertools.cycle(queries).__next__

    def calls(n: int) -> int:
        return max(1, n // shrink)

    return {
        "summaries.probe.from_store_us": _per_call_us(
            lambda: ResourceSummary.from_store(stores[0], config), calls(1200)),
        "summaries.probe.merge_many8_us": _per_call_us(
            lambda: ResourceSummary.merge_many(summaries), calls(2500)),
        "summaries.probe.may_match6_us": _per_call_us(
            lambda: summaries[0].may_match(next_query()), calls(12000)),
        "summaries.probe.fingerprint_us": _per_fresh_call_us(
            ResourceSummary.fingerprint, summaries[0].copy, calls(1500)),
        "summaries.probe.encode_us": _per_call_us(
            lambda: encode_summary(summaries[0]), calls(5000)),
        "summaries.probe.decode_us": _per_call_us(
            lambda: decode_summary(frame, stores[0].schema, config), calls(4000)),
        "records.probe.mask6_us": _per_call_us(
            lambda: next_query().mask(stores[0]), calls(24000)),
        "hierarchy.probe.build320_ms": _per_call_us(
            lambda: build_hierarchy(
                [Server(i, max_children=8) for i in range(320)]
            ), calls(60)) / 1e3,
    }


def _telemetry_probes(scale: Scale, seed: int, searches: int) -> Dict[str, float]:
    """Armed/unarmed host-time ratio of each observability plane."""
    queries = generate_queries(
        WorkloadConfig(
            num_nodes=scale.servers, records_per_node=scale.records, seed=seed
        ),
        num_queries=searches,
    )

    def profiled() -> Telemetry:
        telemetry = Telemetry()
        telemetry.attach_profiler(CallPathProfiler())
        return telemetry

    #: plane -> (telemetry passed to build, hook run on the built system)
    planes = {
        "none": (lambda: None, lambda system: None),
        "spans": (Telemetry, lambda system: None),
        "profiler": (profiled, lambda system: None),
        "quality": (lambda: None, lambda system: system.attach_quality()),
        "series": (lambda: None, lambda system: SeriesSampler(system).start()),
    }

    def slice_of(plane: str):
        telemetry, arm = planes[plane]
        _, _, system = federation(
            scale, seed, telemetry=telemetry(),
            summary=SummaryConfig(ttl=NO_EXPIRY),
        )
        arm(system)
        t0 = perf_counter()
        results = [system.search(SearchRequest(q)) for q in queries]
        return perf_counter() - t0, [search_outcome(r) for r in results]

    # Three interleaved repetitions, so drift hits every plane alike.
    seconds = {plane: [] for plane in planes}
    reference = None
    for _ in range(3):
        for plane in planes:
            elapsed, outcomes = slice_of(plane)
            seconds[plane].append(elapsed)
            if reference is None:
                reference = outcomes
            elif outcomes != reference:
                raise AssertionError(
                    f"arming the {plane} plane changed the simulated outcomes"
                )
    base = statistics.median(seconds["none"])
    return {
        f"telemetry.probe.{plane}_ratio": statistics.median(samples) / base
        for plane, samples in seconds.items()
        if plane != "none"
    }


def run(scale: Scale, seed: int) -> Dict[str, float]:
    shrink = 40 if scale is SMOKE else 1
    values: Dict[str, float] = {}
    values.update(_sim_probe(200_000 // shrink))
    values.update(_net_probe(50_000 // shrink))
    values.update(_kernel_probes(shrink))
    values.update(_telemetry_probes(scale, seed, 150 // (10 if shrink > 1 else 1)))
    return values
