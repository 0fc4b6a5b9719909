"""Unit tests for repro.summaries.histogram."""

import numpy as np
import pytest

from repro.query import EqualsPredicate, RangePredicate
from repro.summaries import HistogramSummary, SummaryMergeError
from repro.summaries.codec import CodecError, decode_histogram, encode_histogram
from repro.summaries.histogram import _bucket_block, _bucket_span


class TestConstruction:
    def test_empty(self):
        h = HistogramSummary("a", 10)
        assert h.is_empty
        assert h.total == 0
        assert h.buckets == 10

    def test_invalid_buckets(self):
        with pytest.raises(ValueError, match="bucket"):
            HistogramSummary("a", 0)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            HistogramSummary("a", 10, (1.0, 0.0))

    def test_invalid_encoding(self):
        # Dense is the one wire encoding: a frame naming another is refused.
        frame = bytearray(encode_histogram(HistogramSummary("a", 10)))
        for byte in (1, 2, 255):
            frame[1] = byte
            with pytest.raises(CodecError, match="encoding"):
                decode_histogram(bytes(frame))

    def test_counts_validation(self):
        with pytest.raises(ValueError, match="shape"):
            HistogramSummary("a", 10, counts=np.zeros(5))
        with pytest.raises(ValueError, match="non-negative"):
            HistogramSummary("a", 3, counts=np.array([1, -1, 0]))

    def test_from_values(self):
        h = HistogramSummary.from_values("a", [0.05, 0.15, 0.95], 10)
        assert h.total == 3
        assert h.counts[0] == 1 and h.counts[1] == 1 and h.counts[9] == 1

    def test_values_clipped_into_domain(self):
        h = HistogramSummary.from_values("a", [-5.0, 7.0], 10)
        assert h.counts[0] == 1 and h.counts[9] == 1

    def test_value_at_upper_bound_goes_to_last_bucket(self):
        h = HistogramSummary.from_values("a", [1.0], 10)
        assert h.counts[9] == 1

    def test_custom_bounds(self):
        h = HistogramSummary.from_values("rate", [500.0], 10, (0.0, 1000.0))
        assert h.counts[5] == 1


class TestBucketKernel:
    """``_bucket_block`` is its scalar twin ``_bucket_span`` applied to
    every value clipped into the domain, bit for bit."""

    #: uneven spans: unit, offset, timestamp-like, wide, signed-zero, tiny
    LO = np.array([0.0, -5.0, 1.1e9, 0.25, -0.0, -1e-3])
    HI = np.array([1.0, 7.5, 1.17e9, 4096.0, 3.0, 1e-3])

    def adversarial(self, rng, buckets, n):
        """*n* random values per column plus every edge case: below and
        above the domain, both bounds, their inner neighbours, -0.0, and
        each bucket edge with its two neighbours."""
        lo, hi = self.LO, self.HI
        span = hi - lo
        cols = [rng.uniform(lo - span, hi + span, (n, len(lo)))]
        cols += [lo - span, hi + span, lo, hi, np.nextafter(hi, -np.inf),
                 np.nextafter(lo, np.inf), np.full(len(lo), -0.0)]
        edges = lo + span * (np.arange(buckets + 1)[:, None] / buckets)
        cols += [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        return np.vstack([np.atleast_2d(c) for c in cols])

    @pytest.mark.parametrize("buckets", [1, 7, 10, 64, 1000])
    @pytest.mark.parametrize("seed", range(3))
    def test_block_is_the_scalar_expression(self, buckets, seed):
        values = self.adversarial(np.random.default_rng(seed), buckets, 50)
        block = _bucket_block(values, self.LO, self.HI, buckets)
        expected = np.zeros((len(self.LO), buckets), dtype=np.int64)
        for j, (lo, hi) in enumerate(zip(self.LO, self.HI)):
            for v in values[:, j]:
                v = min(max(float(v), lo), hi)
                first, last, _ = _bucket_span(v, v, float(lo), float(hi), buckets)
                assert first == last
                expected[j, first] += 1
        assert block.dtype == np.int32
        assert np.array_equal(block, expected)

    def test_nan_counts_in_first_bucket(self):
        values = np.array([[np.nan, 0.5]])
        block = _bucket_block(values, np.zeros(2), np.ones(2), 4)
        assert block.tolist() == [[1, 0, 0, 0], [0, 0, 1, 0]]


class TestMayMatch:
    def test_hit(self):
        h = HistogramSummary.from_values("a", [0.42], 100)
        assert h.may_match(RangePredicate("a", 0.4, 0.45))

    def test_miss(self):
        h = HistogramSummary.from_values("a", [0.42], 100)
        assert not h.may_match(RangePredicate("a", 0.6, 0.9))

    def test_no_false_negatives_exhaustive(self):
        rng = np.random.default_rng(3)
        values = rng.random(200)
        h = HistogramSummary.from_values("a", values, 57)
        for _ in range(200):
            lo = rng.random() * 0.9
            hi = lo + rng.random() * (1 - lo)
            pred = RangePredicate("a", lo, hi)
            actually = bool(((values >= lo) & (values <= hi)).any())
            if actually:
                assert h.may_match(pred)

    def test_false_positive_possible(self):
        # Values at both ends of one bucket's neighbours: a range falling
        # entirely inside an occupied bucket but between values matches.
        h = HistogramSummary.from_values("a", [0.101, 0.199], 10)
        assert h.may_match(RangePredicate("a", 0.14, 0.16))  # bucket 1 occupied

    def test_disjoint_range_is_false(self):
        h = HistogramSummary.from_values("rate", [5.0], 10, (0.0, 10.0))
        assert not h.may_match(RangePredicate("rate", 20.0, 30.0))

    def test_equality_predicate_rejected(self):
        h = HistogramSummary("a", 10)
        with pytest.raises(TypeError, match="cannot evaluate equality"):
            h.may_match(EqualsPredicate("c", "x"))

    @pytest.mark.parametrize("junk", [None, (0.1, 0.2), "a", 0.5])
    def test_non_predicate_rejected_by_name(self, junk):
        h = HistogramSummary.from_values("rate", [5.0], 10, (0.0, 10.0))
        with pytest.raises(TypeError) as err:
            h.may_match(junk)
        assert "'rate'" in str(err.value)
        assert type(junk).__name__ in str(err.value)


class TestMerge:
    def test_counts_add(self):
        a = HistogramSummary.from_values("a", [0.1, 0.2], 10)
        b = HistogramSummary.from_values("a", [0.1, 0.9], 10)
        m = a.merge(b)
        assert m.total == 4
        assert m.counts[1] == 2

    def test_merge_commutative(self):
        a = HistogramSummary.from_values("a", [0.1], 10)
        b = HistogramSummary.from_values("a", [0.9], 10)
        assert a.merge(b) == b.merge(a)

    def test_merge_does_not_mutate(self):
        a = HistogramSummary.from_values("a", [0.1], 10)
        b = HistogramSummary.from_values("a", [0.9], 10)
        a.merge(b)
        assert a.total == 1 and b.total == 1

    def test_incompatible_buckets(self):
        with pytest.raises(SummaryMergeError):
            HistogramSummary("a", 10).merge(HistogramSummary("a", 20))

    def test_incompatible_attribute(self):
        with pytest.raises(SummaryMergeError):
            HistogramSummary("a", 10).merge(HistogramSummary("b", 10))

    def test_incompatible_type(self):
        from repro.summaries import ValueSetSummary

        with pytest.raises(SummaryMergeError):
            HistogramSummary("a", 10).merge(ValueSetSummary("a"))


class TestEncoding:
    def test_dense_constant_size(self):
        small = HistogramSummary.from_values("a", [0.5], 100)
        big = HistogramSummary.from_values(
            "a", np.random.default_rng(0).random(10000), 100
        )
        assert small.encoded_size() == big.encoded_size() == 16 + 100 * 4


class TestCopy:
    def test_copy_independent(self):
        h = HistogramSummary.from_values("a", [0.5], 10)
        c = h.copy()
        c.add_values([0.6])
        assert h.total == 1 and c.total == 2
