"""Tests for repro.sword.system (the DHT baseline)."""

import tracemalloc

import numpy as np
import pytest

from repro.query import EqualsPredicate, Query, RangePredicate
from repro.sword import SwordConfig, SwordSystem
from repro.sword import system as sword_system
from repro.workload import (
    WorkloadConfig,
    generate_node_stores,
    generate_queries,
    merge_stores,
)


@pytest.fixture(scope="module")
def workload():
    cfg = WorkloadConfig(num_nodes=48, records_per_node=60, seed=7)
    return cfg, generate_node_stores(cfg)


@pytest.fixture(scope="module")
def system(workload):
    _, stores = workload
    return SwordSystem(
        SwordConfig(num_nodes=48, seed=7), stores
    )


class TestConstruction:
    def test_store_count_mismatch(self, workload):
        _, stores = workload
        with pytest.raises(ValueError, match="stores supplied"):
            SwordSystem(SwordConfig(num_nodes=5), stores)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SwordConfig(num_nodes=0)
        with pytest.raises(ValueError):
            SwordConfig(record_interval=0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_non_finite_record_interval_is_refused_by_name(self, interval):
        with pytest.raises(ValueError, match="record_interval"):
            SwordConfig(record_interval=interval)

    def test_index_holds_records_and_one_row_index_per_ring(self):
        """Live memory of a built system: the attribute-major records,
        one intp row index per ring (r·N·8 bytes), the owner column and
        the delay space's jitter matrix — plus a fixed slack for the
        per-server dict, the row-slice views and the finger tables. A
        per-ring array of responsible servers would be another r·N·8."""
        n = 64
        stores = generate_node_stores(
            WorkloadConfig(num_nodes=n, records_per_node=100, seed=5)
        )
        tracemalloc.start()
        try:
            built = SwordSystem(SwordConfig(num_nodes=n, seed=5), stores)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        r, rows = built.columns.shape
        jitter = built.delay_space._jitter
        budget = (
            built.columns.nbytes
            + r * rows * np.dtype(np.intp).itemsize
            + built.owner_of_row.nbytes
            + (0 if jitter is None else jitter.nbytes)
        )
        slack = 256 * 1024
        assert r * rows * 8 > 2 * slack  # a second r·N·8 cannot hide in it
        assert live <= budget + slack

    def test_every_record_stored_once_per_ring(self, system, workload):
        _, stores = workload
        total_records = sum(len(s) for s in stores)
        stored = sum(len(system.rows_stored_at(s)) for s in range(48))
        # each server stores rows for exactly one ring; rings partition
        # servers, so total stored = records * 1 per ring... summed over
        # all servers = records (each ring's rows spread over its members)
        # times the number of rings covered by those members = records *
        # r / r = records? No: every ring stores ALL records, and each
        # server belongs to one ring, so the grand total is
        # records * (servers per ring assignment) = total_records * 1
        # per ring * r rings / r = total_records... Verify the direct
        # invariant instead: each ring's members jointly store all rows.
        r = len(system.attributes)
        for ring in range(r):
            members = system.hash.members(ring)
            rows = np.concatenate(
                [system.rows_stored_at(int(m)) for m in members]
            )
            assert len(rows) == total_records
            assert len(np.unique(rows)) == total_records


class TestQueryCorrectness:
    def test_exact_results(self, system, workload):
        wcfg, stores = workload
        reference = merge_stores(stores)
        rng = np.random.default_rng(3)
        for q in generate_queries(wcfg, num_queries=25):
            o = system.execute_query(q, int(rng.integers(0, 48)))
            assert o.total_matches == q.match_count(reference)

    def test_collect_rows(self, system, workload):
        wcfg, stores = workload
        reference = merge_stores(stores)
        q = generate_queries(wcfg, num_queries=5, dimensions=2)[0]
        o = system.execute_query(q, 0, collect_rows=True)
        assert o.matched_rows is not None
        assert len(o.matched_rows) == q.match_count(reference)
        # returned rows actually satisfy the query
        for p in q.range_predicates():
            pos = system.schema.numeric_position(p.attribute)
            col = system.columns[pos][o.matched_rows]
            assert ((col >= p.lo) & (col <= p.hi)).all()

    def test_query_without_ranges_rejected(self, system):
        q = Query.of(EqualsPredicate("zzz", "x"))
        with pytest.raises(ValueError, match="range predicate"):
            system.execute_query(q, 0)


class TestRouting:
    def test_segment_is_ring_of_first_attribute(self, system, workload):
        wcfg, _ = workload
        q = generate_queries(wcfg, num_queries=1)[0]
        o = system.execute_query(q, 0)
        ring = system.attributes.index(o.ring_attribute)
        assert all(s % len(system.attributes) == ring for s in o.segment)

    def test_latency_grows_with_segment(self, system):
        narrow = Query.of(RangePredicate("u0", 0.4, 0.45))
        wide = Query.of(RangePredicate("u0", 0.0, 1.0))
        lat_n = np.mean(
            [system.execute_query(narrow, c).latency for c in range(8)]
        )
        lat_w = np.mean(
            [system.execute_query(wide, c).latency for c in range(8)]
        )
        assert lat_w > lat_n

    def test_query_bytes_proportional_to_messages(self, system, workload):
        wcfg, _ = workload
        q = generate_queries(wcfg, num_queries=1)[0]
        o = system.execute_query(q, 1)
        assert o.query_bytes == o.query_messages * q.size_bytes

    def test_local_scan_time_included(self, system, monkeypatch):
        q = Query.of(RangePredicate("u0", 0.0, 1.0))
        scanned = system.execute_query(q, 0).latency
        monkeypatch.setattr(sword_system, "SEARCH_SECONDS_PER_RECORD", 0.0)
        assert scanned > system.execute_query(q, 0).latency


class TestOverheads:
    def test_registration_scales_with_records(self, workload):
        wcfg, stores = workload
        half_stores = [s.select(np.arange(len(s)) < 30) for s in stores]
        full = SwordSystem(SwordConfig(num_nodes=48, seed=7), stores)
        half = SwordSystem(SwordConfig(num_nodes=48, seed=7), half_stores)
        assert full.registration_bytes_per_epoch() == pytest.approx(
            2 * half.registration_bytes_per_epoch(), rel=0.1
        )

    def test_update_overhead_window(self, system):
        per_epoch = system.registration_bytes_per_epoch()
        window = system.update_overhead(system.config.record_interval * 7)
        assert window == per_epoch * 7

    def test_storage_accounting(self, system):
        storage = system.storage_bytes_by_server()
        assert sum(storage.values()) == (
            sum(len(system.rows_stored_at(s)) for s in range(48))
            * system.record_size_bytes
        )


class TestReferenceModel:
    """Registration grouping, narrowed local scans and the hop table are
    the plain formulas, on a federation where some servers store nothing."""

    @pytest.fixture(scope="class")
    def skewed(self):
        cfg = WorkloadConfig(num_nodes=64, records_per_node=12, seed=11)
        stores = generate_node_stores(cfg)
        # Squeeze u0 into [0, 0.4): most of ring 0's members get no rows.
        for store in stores:
            block = np.array(store.numeric_matrix)
            block[:, store.schema.numeric_position("u0")] *= 0.4
            store.write_rows(np.arange(len(store)), block)
        system = SwordSystem(
            SwordConfig(num_nodes=64, seed=11), stores
        )
        # the reference reads records row-major, as the stores hold them
        return cfg, system, np.concatenate([s.numeric_matrix for s in stores])

    def test_columns_are_the_records_attribute_major(self, skewed):
        _, system, records = skewed
        assert system.columns.flags.c_contiguous
        assert system.columns.shape == (len(system.attributes), len(records))
        assert np.array_equal(system.columns, records.T)

    def test_every_segment_scan_is_a_row_wise_filter(self, skewed):
        cfg, system, records = skewed
        queries = generate_queries(
            cfg, num_queries=20, dimensions=4, range_length=0.5
        )
        # ... and queries whose bounds are records' own values, so that
        # both ends of a range are hit exactly (ranges are inclusive)
        rng = np.random.default_rng(2)
        for a, b in rng.integers(0, len(records), size=(10, 2)):
            queries.append(Query(tuple(
                RangePredicate(name, *sorted((records[a, i], records[b, i])))
                for i, name in enumerate(system.attributes[:3])
            )))
        matched = 0
        for q in queries:
            for server in range(64):
                rows = system.rows_stored_at(server)
                keep = [
                    row for row in rows.tolist()
                    if all(
                        p.lo <= records[row, system.schema.numeric_position(
                            p.attribute)] <= p.hi
                        for p in q.predicates
                    )
                ]
                hits = system._local_matches(q, rows)
                assert hits.dtype == rows.dtype
                assert hits.tolist() == keep
                matched += len(keep)
        assert matched > 0

    def test_rows_stored_at_is_the_per_server_scan(self, skewed):
        _, system, _ = skewed
        empty = 0
        assert list(system.storage_bytes_by_server()) == list(range(64))
        for server in range(64):
            ring = server % len(system.attributes)
            dest = system.hash.responsible(ring, system.columns[ring])
            expected = np.flatnonzero(dest == server)
            rows = system.rows_stored_at(server)
            assert rows.dtype == expected.dtype
            assert np.array_equal(rows, expected)
            empty += not len(rows)
        assert empty > 0

    def test_queries_match_a_full_mask_reference(self, skewed):
        cfg, system, records = skewed
        rng = np.random.default_rng(5)
        queries = generate_queries(
            cfg, num_queries=50, dimensions=3, range_length=0.5
        )
        matched = 0
        for q in queries:
            client = int(rng.integers(0, 64))
            o = system.execute_query(q, client, collect_rows=True)
            # Reference: the route as the router and hash give it, every
            # predicate evaluated over each server's whole share.
            pred = q.range_predicates()[0]
            ring = system.attributes.index(pred.attribute)
            segment = [int(s) for s in system.hash.segment(ring, pred.lo, pred.hi)]
            dest = system.hash.responsible(ring, system.columns[ring])
            t, current, messages = 0.0, client, 0
            for nxt in system.router.path(client, segment[0]):
                t += system.delay_space.latency(current, nxt) + 0.0005
                messages += 1
                current = nxt
            hits, rows_out = [], []
            for server in segment:
                if server != current:
                    t += system.delay_space.latency(current, server) + 0.0005
                    messages += 1
                    current = server
                rows = np.flatnonzero(dest == server)
                mask = np.ones(rows.size, dtype=bool)
                for p in q.predicates:
                    col = records[
                        rows, system.schema.numeric_position(p.attribute)
                    ]
                    mask &= (col >= p.lo) & (col <= p.hi)
                hits.append((server, t, int(mask.sum())))
                rows_out.append(rows[mask])
                t += rows.size * sword_system.SEARCH_SECONDS_PER_RECORD
            assert o.segment_hits == hits
            assert o.latency == hits[-1][1]
            assert o.query_messages == messages
            assert o.query_bytes == messages * q.size_bytes
            assert np.array_equal(o.matched_rows, np.concatenate(rows_out))
            matched += len(o.matched_rows)
            plain = system.execute_query(q, client)
            assert plain.matched_rows is None
            assert plain.segment_hits == hits
        assert matched > 0

    def test_registration_bytes_are_bit_counted_distances(self, skewed):
        _, system, _ = skewed
        hops = 0
        for ring in range(len(system.attributes)):
            dest = system.hash.responsible(ring, system.columns[ring])
            dist = (dest - system.owner_of_row) % 64
            hops += sum(bin(int(d)).count("1") for d in dist)
        assert system.registration_bytes_per_epoch() == (
            hops * system.record_size_bytes
        )
