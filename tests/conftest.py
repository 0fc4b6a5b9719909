"""Shared fixtures for the test suite."""

import hashlib
from contextlib import contextmanager

import numpy as np
import pytest

from repro.net import DelaySpace, Network
from repro.overlay import ReplicationOverlay
from repro.records import RecordStore, Schema, categorical, numeric
from repro.roads import RoadsConfig, RoadsSystem
from repro.roads.update_plane import UpdatePlane, UpdateRoundReport
from repro.sim import Simulator
from repro.summaries import SummaryConfig
from repro.workload import WorkloadConfig, generate_node_stores, generate_queries


def make_plane(hierarchy, cfg, *, interval=60.0) -> UpdatePlane:
    """An update plane over a bare *hierarchy*: its own simulator, and a
    network on a seeded delay space with one node per server id.
    ``plane.sim`` and ``plane.network.metrics`` give the rest."""
    sim = Simulator()
    nodes = 1 + max(s.server_id for s in hierarchy)
    network = Network(sim, DelaySpace(nodes, np.random.default_rng(0)))
    return UpdatePlane(
        sim, network, hierarchy, ReplicationOverlay(hierarchy, cfg),
        interval=interval,
    )


@contextmanager
def counting_hashes(monkeypatch):
    """Count ``hashlib.blake2b`` objects created inside the block: every
    attribute summary and every resource summary that hashes itself
    creates exactly one."""
    real = hashlib.blake2b
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(hashlib, "blake2b", counted)
        yield calls


def converge(hierarchy, cfg) -> UpdateRoundReport:
    """One drained loss-free summary epoch over a bare *hierarchy*."""
    return make_plane(hierarchy, cfg).run_epoch()


@pytest.fixture
def unit_schema():
    """Four unit-range numeric attributes."""
    return Schema([numeric("a"), numeric("b"), numeric("c"), numeric("d")])


@pytest.fixture
def mixed_schema():
    """Numeric + categorical attributes."""
    return Schema(
        [
            numeric("rate", 0.0, 1000.0),
            numeric("load"),
            categorical("type", ("camera", "microphone", "gps")),
            categorical("encoding"),
        ]
    )


@pytest.fixture
def unit_store(unit_schema):
    """100 uniform records on the unit schema (seeded)."""
    rng = np.random.default_rng(7)
    return RecordStore.from_arrays(unit_schema, rng.random((100, 4)), [])


@pytest.fixture
def mixed_store(mixed_schema):
    rng = np.random.default_rng(11)
    n = 60
    numeric_cols = np.column_stack(
        [rng.uniform(0, 1000, n), rng.random(n)]
    )
    types = rng.choice(["camera", "microphone", "gps"], n).tolist()
    encodings = rng.choice(["MPEG2", "MPEG4", "H264"], n).tolist()
    return RecordStore.from_arrays(
        mixed_schema, numeric_cols, [types, encodings]
    )


@pytest.fixture(scope="session")
def small_workload():
    """A small federation workload reused across integration tests."""
    cfg = WorkloadConfig(num_nodes=32, records_per_node=80, seed=5)
    return cfg, generate_node_stores(cfg)


@pytest.fixture(scope="session")
def small_roads(small_workload):
    """A built ROADS system over the small workload."""
    wcfg, stores = small_workload
    cfg = RoadsConfig(
        num_nodes=32,
        records_per_node=80,
        max_children=4,
        summary=SummaryConfig(histogram_buckets=200),
        seed=5,
    )
    return RoadsSystem.build(cfg, stores)


@pytest.fixture(scope="session")
def small_queries(small_workload):
    wcfg, _ = small_workload
    return generate_queries(wcfg, num_queries=30)
