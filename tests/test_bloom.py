"""Unit tests for repro.summaries.bloom."""

import pytest

from repro.query import EqualsPredicate, RangePredicate
from repro.summaries import BloomFilterSummary, SummaryMergeError, optimal_parameters


class TestBasics:
    def test_empty(self):
        f = BloomFilterSummary("enc", 128, 3)
        assert f.is_empty
        assert f.fill_ratio == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BloomFilterSummary("enc", 0)
        with pytest.raises(ValueError):
            BloomFilterSummary("enc", 10, 0)

    def test_no_false_negatives(self):
        values = [f"codec-{i}" for i in range(200)]
        f = BloomFilterSummary.from_values("enc", values, 4096, 4)
        for v in values:
            assert f.contains(v)
            assert f.may_match(EqualsPredicate("enc", v))

    def test_false_positive_rate_reasonable(self):
        values = [f"codec-{i}" for i in range(100)]
        f = BloomFilterSummary.from_values("enc", values, 2048, 4)
        fps = sum(1 for i in range(1000) if f.contains(f"absent-{i}"))
        assert fps < 100  # <10% on a comfortably sized filter

    def test_deterministic_hashing(self):
        a = BloomFilterSummary.from_values("enc", ["x"], 256, 3)
        b = BloomFilterSummary.from_values("enc", ["x"], 256, 3)
        assert a == b

    def test_range_predicate_rejected(self):
        f = BloomFilterSummary("enc")
        with pytest.raises(TypeError, match="range"):
            f.may_match(RangePredicate("a", 0, 1))


class TestMerge:
    def test_or_semantics(self):
        a = BloomFilterSummary.from_values("enc", ["x"], 256, 3)
        b = BloomFilterSummary.from_values("enc", ["y"], 256, 3)
        m = a.merge(b)
        assert m.contains("x") and m.contains("y")

    def test_merge_does_not_mutate(self):
        a = BloomFilterSummary.from_values("enc", ["x"], 256, 3)
        b = BloomFilterSummary.from_values("enc", ["y"], 256, 3)
        a.merge(b)
        assert not a.contains("y")

    def test_incompatible_params(self):
        with pytest.raises(SummaryMergeError):
            BloomFilterSummary("enc", 256, 3).merge(
                BloomFilterSummary("enc", 512, 3)
            )
        with pytest.raises(SummaryMergeError):
            BloomFilterSummary("enc", 256, 3).merge(
                BloomFilterSummary("enc", 256, 4)
            )
        with pytest.raises(SummaryMergeError):
            BloomFilterSummary("enc", 256, 3).merge(
                BloomFilterSummary("other", 256, 3)
            )


class TestSizing:
    def test_constant_size(self):
        a = BloomFilterSummary.from_values("enc", ["x"], 1024, 4)
        b = BloomFilterSummary.from_values(
            "enc", [f"v{i}" for i in range(500)], 1024, 4
        )
        assert a.encoded_size() == b.encoded_size()
        assert a.encoded_size() == 12 + 128

    def test_estimated_fpr_grows_with_load(self):
        light = BloomFilterSummary.from_values("enc", ["a"], 256, 3)
        heavy = BloomFilterSummary.from_values(
            "enc", [f"v{i}" for i in range(200)], 256, 3
        )
        # the classic estimate from the fill ratio: fill ** hashes
        assert heavy.fill_ratio ** heavy.num_hashes > (
            light.fill_ratio ** light.num_hashes
        )


class TestOptimalParameters:
    def test_classic_formula(self):
        bits, hashes = optimal_parameters(1000, 0.01)
        assert 9000 < bits < 10500  # ~9.6 bits/item at 1% FPR
        assert hashes in (6, 7)

    def test_invalid(self):
        with pytest.raises(ValueError):
            optimal_parameters(0, 0.01)
        with pytest.raises(ValueError):
            optimal_parameters(10, 1.5)
