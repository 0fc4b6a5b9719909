"""Unit tests for per-category traffic accounting and repro.sim.rng."""

import numpy as np
import pytest

from repro.sim import MAINTENANCE, QUERY, UPDATE, SeedSequenceFactory
from repro.telemetry import MetricsRegistry


class TestMetricsCollector:
    """The per-category accounting contract, on the one metrics store."""

    def test_record_and_read(self):
        m = MetricsRegistry()
        m.count_message(UPDATE, 100)
        m.count_message(UPDATE, 50)
        m.count_message(QUERY, 10)
        assert m.bytes_total(UPDATE) == 150
        assert m.messages_total(UPDATE) == 2
        assert m.bytes_total(QUERY) == 10
        assert m.bytes_total() == 160
        assert m.messages_total() == 3

    def test_unknown_category_zero(self):
        m = MetricsRegistry()
        assert m.bytes_total("nothing") == 0
        # Reading an absent category must not materialise an entry.
        assert m.totals_by_category() == ({}, {})

    def test_negative_size_rejected(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError):
            m.count_message(UPDATE, -1)
        assert m.rows() == []

    def test_reset_all(self):
        m = MetricsRegistry()
        m.count_message(UPDATE, 100)
        m.observe("query.latency", 0.5)
        m.reset()
        assert m.bytes_total() == 0
        assert m.merged_histogram("query.latency").count == 0

    def test_reset_selected(self):
        m = MetricsRegistry()
        m.count_message(UPDATE, 100)
        m.count_message(QUERY, 50)
        m.reset([UPDATE])
        assert m.bytes_total(UPDATE) == 0
        assert m.bytes_total(QUERY) == 50

    def test_snapshot_is_copy(self):
        m = MetricsRegistry()
        m.count_message(MAINTENANCE, 7)
        snap, _ = m.totals_by_category()
        m.count_message(MAINTENANCE, 7)
        assert snap[MAINTENANCE] == 7


class TestSeedSequenceFactory:
    def test_same_name_same_stream(self):
        f1 = SeedSequenceFactory(42)
        f2 = SeedSequenceFactory(42)
        a = f1.fresh_generator("x").random(5)
        b = f2.fresh_generator("x").random(5)
        assert np.allclose(a, b)

    def test_different_names_different_streams(self):
        f = SeedSequenceFactory(42)
        a = f.fresh_generator("x").random(5)
        b = f.fresh_generator("y").random(5)
        assert not np.allclose(a, b)

    def test_different_seeds_different_streams(self):
        a = SeedSequenceFactory(1).fresh_generator("x").random(5)
        b = SeedSequenceFactory(2).fresh_generator("x").random(5)
        assert not np.allclose(a, b)

    def test_generator_cached(self):
        f = SeedSequenceFactory(1)
        assert f.generator("x") is f.generator("x")

    def test_fresh_generator_restarts(self):
        f = SeedSequenceFactory(1)
        a = f.fresh_generator("x").random(3)
        b = f.fresh_generator("x").random(3)
        assert np.allclose(a, b)

    def test_spawn_is_disjoint(self):
        f = SeedSequenceFactory(1)
        child = f.spawn("child")
        a = f.fresh_generator("x").random(3)
        b = child.fresh_generator("x").random(3)
        assert not np.allclose(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            SeedSequenceFactory(-1)
