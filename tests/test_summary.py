"""Unit tests for repro.summaries.summary and config."""

import numpy as np
import pytest

from repro.query import EqualsPredicate, Query, RangePredicate
from repro.records import RecordStore
from repro.summaries import (
    BloomFilterSummary,
    HistogramSummary,
    ResourceSummary,
    SummaryConfig,
    SummaryMergeError,
    ValueSetSummary,
)
from repro.workload import WorkloadConfig, generate_node_store

from .conftest import counting_hashes


class TestSummaryConfig:
    def test_defaults(self):
        cfg = SummaryConfig()
        assert cfg.histogram_buckets == 1000
        assert cfg.histogram_encoding == "dense"
        assert cfg.categorical_summary == "set"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"histogram_buckets": 0},
            {"histogram_encoding": "zip"},
            {"categorical_summary": "hash"},
            {"bloom_bits": 0},
            {"bloom_hashes": 0},
            {"histogram_buckets": -1},
            {"ttl": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SummaryConfig(**kwargs)


class TestFromStore:
    def test_numeric_become_histograms(self, mixed_store):
        cfg = SummaryConfig(histogram_buckets=50)
        s = ResourceSummary.from_store(mixed_store, cfg)
        assert isinstance(s.attributes["rate"], HistogramSummary)
        assert isinstance(s.attributes["type"], ValueSetSummary)
        assert s.attributes["rate"].total == len(mixed_store)

    def test_bloom_option(self, mixed_store):
        cfg = SummaryConfig(categorical_summary="bloom", bloom_bits=512)
        s = ResourceSummary.from_store(mixed_store, cfg)
        assert isinstance(s.attributes["type"], BloomFilterSummary)

    def test_empty_summary(self, mixed_schema):
        s = ResourceSummary.empty(mixed_schema, SummaryConfig())
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
        merged = ResourceSummary.from_store(a, cfg).merge(
            ResourceSummary.from_store(b, cfg)
        )
        union = ResourceSummary.from_store(a.merged_with(b), cfg)
        for name in ("a", "b", "c", "d"):
            assert merged.attributes[name] == union.attributes[name]

    def test_schema_mismatch(self, unit_store, mixed_store):
        cfg = SummaryConfig()
        with pytest.raises(SummaryMergeError):
            ResourceSummary.from_store(unit_store, cfg).merge(
                ResourceSummary.from_store(mixed_store, cfg)
            )


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

    @pytest.mark.parametrize("encoding", ["dense", "sparse", "bitmap"])
    def test_histogram_digest_is_pinned(self, encoding):
        h = HistogramSummary.from_values(
            "load", self.VALUES, 64, (-2.0, 7.0), encoding=encoding
        )
        assert h.fingerprint().hex() == self.HISTOGRAM

    def test_strided_counts_hash_as_their_values(self):
        block = np.arange(24, dtype=np.int64).reshape(8, 3)
        h = HistogramSummary._trusted("x", (0.0, 1.0), "dense", block[:, 1])
        assert h.fingerprint().hex() == "3e1ca92aef5c0188818ad85b4b8defa2"
        assert h.fingerprint() == h.copy().fingerprint()

    @pytest.mark.parametrize("kwargs", [
        {}, {"histogram_encoding": "sparse"}, {"histogram_encoding": "bitmap"},
    ])
    def test_resource_summary_digest_is_pinned(self, kwargs):
        store = generate_node_store(
            WorkloadConfig(num_nodes=2, records_per_node=40, seed=9), 1
        )
        config = SummaryConfig(histogram_buckets=64, **kwargs)
        summary = ResourceSummary.from_store(store, config)
        assert summary.fingerprint().hex() == self.RESOURCE


class TestLazyFingerprintAndSize:
    """Hash and wire size are computed when first asked for, kept on the
    summary, and travel with ``refreshed()`` — never with ``copy()``,
    whose attribute summaries may still be grown."""

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
            # the attribute hashes are shared, so the original pays one more
            assert summary.fingerprint() == fp and len(calls) == hashed + 1
            assert later.refreshed(11.0).fingerprint() == fp
            assert summary.refreshed(12.0).fingerprint() == fp
            assert len(calls) == hashed + 1  # carried, not recomputed

    def test_refreshed_carries_and_copy_does_not(self, unit_store):
        summary = ResourceSummary.from_store(
            unit_store, SummaryConfig(histogram_encoding="sparse")
        )
        size, fp = summary.encoded_size(), summary.fingerprint()
        fresh = summary.refreshed(3.0)
        assert (fresh._size, fresh._fp, fresh.created_at) == (size, fp, 3.0)
        copy = summary.copy()
        assert copy._size is None and copy._fp is None
        assert (copy.encoded_size(), copy.fingerprint()) == (size, fp)
        assert size == sum(s.encoded_size() for s in summary.attributes.values())
