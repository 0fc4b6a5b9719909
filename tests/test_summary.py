"""Unit tests for repro.summaries.summary and config."""

import numpy as np
import pytest

from repro.query import EqualsPredicate, Query, RangePredicate
from repro.records import RecordStore, Schema, categorical, numeric
from repro.summaries import (
    HistogramSummary,
    ResourceSummary,
    SummaryConfig,
    SummaryMergeError,
    ValueSetSummary,
)
from repro.summaries.histogram import COUNTER_MAX
from repro.workload import WorkloadConfig, generate_node_store

from .conftest import counting_hashes


class TestSummaryConfig:
    def test_defaults(self):
        cfg = SummaryConfig()
        assert cfg.histogram_buckets == 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"histogram_buckets": 0},
            {"histogram_buckets": -1},
            {"ttl": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SummaryConfig(**kwargs)

    @pytest.mark.parametrize(
        "ttl, ok", [(float("nan"), False), (-1.0, False), (float("inf"), True)]
    )
    def test_ttl_must_be_positive(self, ttl, ok):
        # inf is a summary that never expires (the figure drivers' builds)
        if ok:
            assert SummaryConfig(ttl=ttl).ttl == ttl
        else:
            with pytest.raises(ValueError, match="ttl"):
                SummaryConfig(ttl=ttl)


class TestFromStore:
    def test_numeric_become_histograms(self, mixed_store):
        cfg = SummaryConfig(histogram_buckets=50)
        s = ResourceSummary.from_store(mixed_store, cfg)
        assert isinstance(s.attributes["rate"], HistogramSummary)
        assert isinstance(s.attributes["type"], ValueSetSummary)
        assert s.attributes["rate"].total == len(mixed_store)

    def test_empty_summary(self, mixed_schema):
        s = ResourceSummary(mixed_schema, SummaryConfig())
        assert s.is_empty


class TestMayMatch:
    def test_conjunctive(self, mixed_store):
        cfg = SummaryConfig(histogram_buckets=100)
        s = ResourceSummary.from_store(mixed_store, cfg)
        present_type = mixed_store.categorical_column("type")[0]
        rate0 = float(mixed_store.numeric_column("rate")[0])
        q = Query.of(
            RangePredicate("rate", rate0 - 1, rate0 + 1),
            EqualsPredicate("type", present_type),
        )
        # Note: conjunction across attributes may be a false positive but
        # each dimension matched by a real record cannot be a false
        # negative.
        assert s.attributes["rate"].may_match(q.predicates[0])
        assert s.attributes["type"].may_match(q.predicates[1])

    def test_single_dim_prunes(self, mixed_store):
        cfg = SummaryConfig(histogram_buckets=100)
        s = ResourceSummary.from_store(mixed_store, cfg)
        q = Query.of(EqualsPredicate("type", "submarine"))
        assert not s.may_match(q)

    def test_no_false_negatives_vs_store(self, unit_store):
        cfg = SummaryConfig(histogram_buckets=37)
        s = ResourceSummary.from_store(unit_store, cfg)
        rng = np.random.default_rng(1)
        for _ in range(100):
            lo = rng.random(2) * 0.7
            q = Query.of(
                RangePredicate("a", lo[0], lo[0] + 0.2),
                RangePredicate("b", lo[1], lo[1] + 0.2),
            )
            if q.match_count(unit_store) > 0:
                assert s.may_match(q)

    def test_unknown_attribute_raises(self, unit_store):
        s = ResourceSummary.from_store(unit_store, SummaryConfig())
        with pytest.raises(KeyError):
            s.may_match(Query.of(RangePredicate("zz", 0, 1)))


class TestMerge:
    def test_merge_equals_summary_of_union(self, unit_schema):
        rng = np.random.default_rng(2)
        a = RecordStore.from_arrays(unit_schema, rng.random((30, 4)), [])
        b = RecordStore.from_arrays(unit_schema, rng.random((40, 4)), [])
        cfg = SummaryConfig(histogram_buckets=64)
        merged = ResourceSummary.merge_many(
            [ResourceSummary.from_store(a, cfg), ResourceSummary.from_store(b, cfg)]
        )
        union = ResourceSummary.from_store(RecordStore.concat([a, b]), cfg)
        for name in ("a", "b", "c", "d"):
            assert merged.attributes[name] == union.attributes[name]

    def test_schema_mismatch(self, unit_store, mixed_store):
        cfg = SummaryConfig()
        with pytest.raises(SummaryMergeError):
            ResourceSummary.merge_many([
                ResourceSummary.from_store(unit_store, cfg),
                ResourceSummary.from_store(mixed_store, cfg),
            ])


class TestSoftState:
    def test_expiry(self, unit_store):
        cfg = SummaryConfig(ttl=10.0)
        s = ResourceSummary.from_store(unit_store, cfg, created_at=100.0)
        assert not s.is_expired(105.0)
        assert s.is_expired(111.0)

    def test_refreshed(self, unit_store):
        cfg = SummaryConfig(ttl=10.0)
        s = ResourceSummary.from_store(unit_store, cfg, created_at=0.0)
        r = s.refreshed(50.0)
        assert r.created_at == 50.0
        assert s.created_at == 0.0


class TestEstimation:
    def test_encoded_size_sums_attributes(self, unit_store):
        cfg = SummaryConfig(histogram_buckets=64)
        s = ResourceSummary.from_store(unit_store, cfg)
        assert s.encoded_size() == sum(
            a.encoded_size() for a in s.attributes.values()
        )


class TestFingerprintByteStream:
    """The content hash is a wire value: receivers compare it with the
    hash of what they hold. Digests below were generated at the commit
    before ``HistogramSummary.fingerprint`` stopped building NumPy
    scalars for the header — the byte stream must not have moved."""

    VALUES = np.random.default_rng(5).uniform(-2.0, 7.0, 300)
    HISTOGRAM = "8601af331fd5c29de5c6395a3f98c6a2"
    RESOURCE = "b21d4bb40faee49e7f5a58310ed4992f"

    @pytest.mark.parametrize("encoding", ["dense"])  # the one wire encoding
    def test_histogram_digest_is_pinned(self, encoding):
        h = HistogramSummary.from_values("load", self.VALUES, 64, (-2.0, 7.0))
        assert h.fingerprint().hex() == self.HISTOGRAM

    def test_strided_counts_hash_as_their_values(self):
        block = np.arange(24, dtype=np.int64).reshape(8, 3)
        h = HistogramSummary._trusted("x", (0.0, 1.0), block[:, 1])
        assert h.fingerprint().hex() == "3e1ca92aef5c0188818ad85b4b8defa2"
        assert h.fingerprint() == h.copy().fingerprint()

    # The hash covers the counters, not the config: a TTL may not move it.
    @pytest.mark.parametrize("kwargs", [{}, {"ttl": 60.0}])
    def test_resource_summary_digest_is_pinned(self, kwargs):
        store = generate_node_store(
            WorkloadConfig(num_nodes=2, records_per_node=40, seed=9), 1
        )
        config = SummaryConfig(histogram_buckets=64, **kwargs)
        summary = ResourceSummary.from_store(store, config)
        assert summary.fingerprint().hex() == self.RESOURCE


class TestLazyFingerprintAndSize:
    """Hash and wire size are computed when first asked for, kept on the
    summary, and travel with the ``refreshed()`` copies made after that —
    never with ``copy()``, which starts from nothing computed."""

    def test_nothing_is_computed_until_asked(self, unit_store, monkeypatch):
        config = SummaryConfig(histogram_buckets=32)
        with counting_hashes(monkeypatch) as calls:
            summary = ResourceSummary.from_store(unit_store, config)
            later = summary.refreshed(5.0).refreshed(9.0)
            ResourceSummary.merge_many([summary, later])
            assert not calls and summary._fp is None and summary._size is None
            fp = later.fingerprint()
            hashed = len(calls)
            assert hashed == 1 + len(summary.attributes)
            # copied before anything was hashed, so the original hashes alone
            assert summary.fingerprint() == fp and len(calls) == 2 * hashed
            assert later.refreshed(11.0).fingerprint() == fp
            assert summary.refreshed(12.0).fingerprint() == fp
            assert len(calls) == 2 * hashed  # carried, not recomputed

    def test_refreshed_carries_and_copy_does_not(self, unit_store):
        summary = ResourceSummary.from_store(unit_store, SummaryConfig())
        size, fp = summary.encoded_size(), summary.fingerprint()
        fresh = summary.refreshed(3.0)
        assert (fresh._size, fresh._fp, fresh.created_at) == (size, fp, 3.0)
        copy = summary.copy()
        assert copy._size is None and copy._fp is None
        assert (copy.encoded_size(), copy.fingerprint()) == (size, fp)
        assert size == sum(s.encoded_size() for s in summary.attributes.values())


class TestCounterBlock:
    """The numeric histograms are the rows of one read-only, C-contiguous
    int32 block in schema numeric order, whatever built the summary."""

    def assert_block(self, summary, schema, buckets):
        block = summary.block
        assert block.dtype == np.int32 and block.flags.c_contiguous
        assert not block.flags.writeable
        assert block.shape == (len(schema.numeric_attributes), buckets)

    def test_from_store_block(self, mixed_store):
        s = ResourceSummary.from_store(mixed_store, SummaryConfig(histogram_buckets=40))
        self.assert_block(s, mixed_store.schema, 40)
        assert s.records == len(mixed_store)
        assert (s.block.sum(axis=1) == len(mixed_store)).all()
        assert s.block[1].tolist() == s.attributes["load"].counts.tolist()
        with pytest.raises(ValueError):
            s.attributes["rate"].add_values([1.0])  # a row is a read-only view

    def test_empty_and_given_histograms_are_stacked(self, mixed_schema):
        config = SummaryConfig(histogram_buckets=8)
        self.assert_block(ResourceSummary(mixed_schema, config), mixed_schema, 8)
        attrs = {
            "rate": HistogramSummary.from_values("rate", [10.0, 990.0], 8, (0.0, 1000.0)),
            "load": HistogramSummary.from_values("load", [0.5], 8),
            "type": ValueSetSummary("type", ["gps"]),
            "encoding": ValueSetSummary("encoding"),
        }
        s = ResourceSummary(mixed_schema, config, attrs)
        self.assert_block(s, mixed_schema, 8)
        assert s.block.tolist() == [[1, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0, 0, 0]]
        assert s.records == 2

    @pytest.mark.parametrize("foreign", [
        HistogramSummary("rate", 8, (0.0, 999.0)),   # another domain
        HistogramSummary("rate", 16, (0.0, 1000.0)),  # another bucket count
        ValueSetSummary("rate"),                    # not a histogram
    ])
    def test_foreign_histogram_raises(self, mixed_schema, foreign):
        attrs = ResourceSummary(mixed_schema, SummaryConfig(histogram_buckets=8)).attributes
        attrs["rate"] = foreign
        with pytest.raises(ValueError, match="'rate' needs a histogram of 8 buckets"):
            ResourceSummary(mixed_schema, SummaryConfig(histogram_buckets=8), attrs)


class TestCounterOverflow:
    """An int32 counter that wrapped would read as an empty bucket — a
    false negative — so every path that adds to counters refuses first."""

    SCHEMA = Schema([numeric("a"), categorical("c")])
    CONFIG = SummaryConfig(histogram_buckets=2)

    def summary(self, count):
        return ResourceSummary(self.SCHEMA, self.CONFIG, {
            "a": HistogramSummary("a", 2, counts=[count, 0]),
            "c": ValueSetSummary("c", ["x"]),
        })

    def test_merge_up_to_the_limit(self):
        merged = ResourceSummary.merge_many([self.summary(COUNTER_MAX - 1), self.summary(1)])
        assert merged.records == COUNTER_MAX
        assert merged.block.tolist() == [[COUNTER_MAX, 0]]

    def test_merge_past_the_limit_raises(self):
        big = self.summary(COUNTER_MAX - 1)
        with pytest.raises(OverflowError, match="int32 counter"):
            ResourceSummary.merge_many([big, self.summary(0), self.summary(2)])
        assert big.block.tolist() == [[COUNTER_MAX - 1, 0]]

    def test_histogram_paths_raise(self):
        h = HistogramSummary("a", 2, counts=[COUNTER_MAX, 0])
        with pytest.raises(OverflowError):
            h.merge(HistogramSummary.from_values("a", [0.9], 2))
        with pytest.raises(OverflowError):
            h.add_values([0.9])
        assert h.counts.tolist() == [COUNTER_MAX, 0]
        with pytest.raises(OverflowError):
            HistogramSummary("a", 2, counts=[COUNTER_MAX + 1, 0])

    def test_given_histograms_past_the_limit_raise(self):
        with pytest.raises(OverflowError):
            ResourceSummary(self.SCHEMA, self.CONFIG, {
                "a": HistogramSummary("a", 2, counts=[COUNTER_MAX, 1]),
                "c": ValueSetSummary("c"),
            })
