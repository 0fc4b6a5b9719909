"""Tests for repro.central.system."""

import numpy as np
import pytest

from repro.central import CentralConfig, CentralSystem
from repro.workload import (
    WorkloadConfig,
    generate_node_stores,
    generate_queries,
    merge_stores,
)


@pytest.fixture(scope="module")
def workload():
    cfg = WorkloadConfig(num_nodes=24, records_per_node=50, seed=3)
    return cfg, generate_node_stores(cfg)


@pytest.fixture(scope="module")
def system(workload):
    _, stores = workload
    return CentralSystem(CentralConfig(num_nodes=24, seed=3), stores)


class TestConstruction:
    def test_all_records_centralized(self, system, workload):
        _, stores = workload
        assert len(system.store) == sum(len(s) for s in stores)

    def test_mismatch_rejected(self, workload):
        _, stores = workload
        with pytest.raises(ValueError, match="stores supplied"):
            CentralSystem(CentralConfig(num_nodes=5), stores)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            CentralConfig(num_nodes=0)
        with pytest.raises(ValueError):
            CentralConfig(record_interval=0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_non_finite_record_interval_is_refused_by_name(self, interval):
        with pytest.raises(ValueError, match="record_interval"):
            CentralConfig(record_interval=interval)


class TestQueries:
    def test_exact_results(self, system, workload):
        wcfg, stores = workload
        reference = merge_stores(stores)
        for q in generate_queries(wcfg, num_queries=20):
            o = system.execute_query(q, 0)
            assert o.match_count == q.match_count(reference)

    def test_collect_records(self, system, workload):
        wcfg, _ = workload
        q = generate_queries(wcfg, num_queries=1, dimensions=2)[0]
        o = system.execute_query(q, 0, collect_records=True)
        assert o.matches is not None and len(o.matches) == o.match_count

    def test_single_round_trip(self, system, workload):
        wcfg, _ = workload
        q = generate_queries(wcfg, num_queries=1)[0]
        o = system.execute_query(q, 5)
        assert o.round_trip == pytest.approx(2 * o.latency)
        assert o.servers_contacted == 1

    def test_latency_is_client_to_repo(self, system, workload):
        wcfg, _ = workload
        q = generate_queries(wcfg, num_queries=1)[0]
        o = system.execute_query(q, 5)
        expected = system.delay_space.latency(5, system.repository_node)
        assert o.latency == pytest.approx(expected + 0.0005)


class TestOverheads:
    def test_export_bytes(self, system, workload):
        _, stores = workload
        total = sum(len(s) for s in stores)
        assert system.export_bytes_per_epoch() == total * system.record_size_bytes

    def test_update_window(self, system):
        per = system.export_bytes_per_epoch()
        assert system.update_overhead(system.config.record_interval * 3) == 3 * per

    def test_storage(self, system):
        assert system.storage_bytes() == len(system.store) * system.record_size_bytes
