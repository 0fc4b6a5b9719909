"""Tests for repro.summaries.codec (binary wire format)."""

import numpy as np
import pytest

from repro.query import EqualsPredicate, Query, RangePredicate
from repro.records import RecordStore, Schema, categorical, numeric
from repro.summaries import (
    BloomFilterSummary,
    HistogramSummary,
    ResourceSummary,
    SummaryConfig,
    ValueSetSummary,
)
from repro.summaries.codec import (
    CodecError,
    decode_attribute,
    decode_bloom,
    decode_histogram,
    decode_summary,
    decode_valueset,
    encode_attribute,
    encode_bloom,
    encode_histogram,
    encode_summary,
    encode_valueset,
)


class TestHistogramCodec:
    @pytest.mark.parametrize("encoding", ["dense", "sparse"])
    def test_roundtrip_exact(self, encoding):
        rng = np.random.default_rng(0)
        h = HistogramSummary.from_values(
            "rate", rng.random(500), 128, encoding=encoding
        )
        out, off = decode_histogram(encode_histogram(h))
        assert out == h
        assert off == len(encode_histogram(h))

    def test_roundtrip_custom_bounds(self):
        h = HistogramSummary.from_values(
            "rate", [500.0], 16, (0.0, 1000.0), encoding="dense"
        )
        out, _ = decode_histogram(encode_histogram(h))
        assert out.lo == 0.0 and out.hi == 1000.0
        assert out.counts[8] == 1

    def test_bitmap_preserves_occupancy(self):
        h = HistogramSummary.from_values(
            "a", [0.11, 0.12, 0.9], 10, encoding="bitmap"
        )
        out, _ = decode_histogram(encode_histogram(h))
        # counts collapse to occupancy, semantics preserved
        assert (out.counts > 0).tolist() == (h.counts > 0).tolist()
        for lo in np.linspace(0, 0.9, 10):
            pred = RangePredicate("a", float(lo), float(lo) + 0.05)
            assert out.may_match(pred) == h.may_match(pred)

    def test_empty_histogram(self):
        h = HistogramSummary("a", 32, encoding="sparse")
        out, _ = decode_histogram(encode_histogram(h))
        assert out.is_empty

    def test_wrong_kind_rejected(self):
        v = encode_valueset(ValueSetSummary("x", ["a"]))
        with pytest.raises(CodecError, match="histogram"):
            decode_histogram(v)


class TestValueSetCodec:
    def test_roundtrip(self):
        s = ValueSetSummary("enc", ["MPEG2", "H264", "日本語"])
        out, off = decode_valueset(encode_valueset(s))
        assert out == s

    def test_empty(self):
        out, _ = decode_valueset(encode_valueset(ValueSetSummary("enc")))
        assert out.is_empty


class TestBloomCodec:
    def test_roundtrip(self):
        f = BloomFilterSummary.from_values(
            "enc", [f"v{i}" for i in range(50)], 512, 3
        )
        out, _ = decode_bloom(encode_bloom(f))
        assert out == f
        assert out.contains("v7") and out.num_hashes == 3

    def test_empty(self):
        out, _ = decode_bloom(encode_bloom(BloomFilterSummary("enc", 64, 2)))
        assert out.is_empty


class TestDispatch:
    def test_encode_decode_any(self):
        for summ in (
            HistogramSummary.from_values("a", [0.5], 8),
            ValueSetSummary("b", ["x"]),
            BloomFilterSummary.from_values("c", ["y"], 64, 2),
        ):
            out, _ = decode_attribute(encode_attribute(summ))
            assert type(out) is type(summ)
            assert out == summ

    def test_truncated(self):
        with pytest.raises(CodecError):
            decode_attribute(b"")

    def test_unknown_kind(self):
        with pytest.raises(CodecError, match="unknown frame"):
            decode_attribute(b"\xff\x00")

    def test_unknown_summary_type_is_named(self):
        with pytest.raises(CodecError) as err:
            encode_attribute(object())
        assert str(err.value) == "no codec for summary type object"
        with pytest.raises(CodecError, match="no codec for summary type int"):
            encode_attribute(3)


class TestSummaryCodec:
    @pytest.fixture
    def schema(self):
        return Schema([numeric("a"), numeric("b"), categorical("c")])

    @pytest.fixture
    def store(self, schema):
        rng = np.random.default_rng(3)
        return RecordStore.from_arrays(
            schema, rng.random((80, 2)), [["x" if i % 3 else "y" for i in range(80)]]
        )

    @pytest.mark.parametrize("encoding", ["dense", "sparse", "bitmap"])
    def test_roundtrip_semantics(self, schema, store, encoding):
        cfg = SummaryConfig(histogram_buckets=64, histogram_encoding=encoding)
        s = ResourceSummary.from_store(store, cfg, created_at=42.0)
        out = decode_summary(encode_summary(s), schema, cfg)
        assert out.created_at == 42.0
        rng = np.random.default_rng(5)
        for _ in range(50):
            lo = rng.random(2) * 0.8
            q = Query.of(
                RangePredicate("a", lo[0], lo[0] + 0.15),
                RangePredicate("b", lo[1], lo[1] + 0.15),
                EqualsPredicate("c", "x" if rng.random() < 0.5 else "z"),
            )
            assert out.may_match(q) == s.may_match(q)

    @pytest.mark.parametrize("encoding", ["dense", "sparse", "bitmap"])
    def test_decoded_block_is_int32(self, schema, store, encoding):
        cfg = SummaryConfig(histogram_buckets=64, histogram_encoding=encoding)
        s = ResourceSummary.from_store(store, cfg)
        out = decode_summary(encode_summary(s), schema, cfg)
        assert out.block.dtype == np.int32 and out.block.flags.c_contiguous
        assert out.block.shape == (2, 64)
        if encoding == "bitmap":
            assert ((out.block > 0) == (s.block > 0)).all()
        else:
            assert (out.block == s.block).all()
            assert out.fingerprint() == s.fingerprint()
            assert out.records == s.records == len(store)

    def test_counter_past_int32_is_refused(self):
        h = HistogramSummary("a", 4)
        frame = bytearray(encode_histogram(h))
        frame[-4:] = (2**31).to_bytes(4, "little")  # last dense counter
        with pytest.raises(OverflowError):
            decode_histogram(bytes(frame))

    def test_encoded_size_matches_reality(self, schema, store):
        """The simulator's byte accounting vs the actual frame size.

        encoded_size() models per-attribute payloads with small headers;
        the real frame should be within 15% of the accounted size.
        """
        for encoding in ("dense", "sparse", "bitmap"):
            cfg = SummaryConfig(
                histogram_buckets=512, histogram_encoding=encoding
            )
            s = ResourceSummary.from_store(store, cfg)
            real = len(encode_summary(s))
            accounted = s.encoded_size()
            # within 15% plus a small fixed allowance for frame headers
            assert abs(real - accounted) <= 0.15 * accounted + 64, (
                encoding, real, accounted
            )

    def test_bad_magic(self, schema):
        cfg = SummaryConfig()
        with pytest.raises(CodecError, match="magic"):
            decode_summary(b"nope", schema, cfg)

    @pytest.mark.parametrize("encoding", ["dense", "sparse", "bitmap"])
    def test_trailing_bytes_are_refused(self, schema, store, encoding):
        cfg = SummaryConfig(histogram_buckets=64, histogram_encoding=encoding)
        buf = encode_summary(ResourceSummary.from_store(store, cfg))
        with pytest.raises(CodecError, match="end at"):
            decode_summary(buf + b"\x00\x00", schema, cfg)

    @pytest.mark.parametrize("encoding", ["dense", "sparse", "bitmap"])
    @pytest.mark.parametrize("cut", [1, 5, "half"])
    def test_a_cut_frame_is_a_codec_error(self, schema, store, encoding, cut):
        cfg = SummaryConfig(histogram_buckets=64, histogram_encoding=encoding)
        buf = encode_summary(ResourceSummary.from_store(store, cfg))
        end = len(buf) // 2 if cut == "half" else len(buf) - cut
        with pytest.raises(CodecError):
            decode_summary(buf[:end], schema, cfg)

    def test_missing_attribute_detected(self, schema, store):
        cfg = SummaryConfig(histogram_buckets=16)
        s = ResourceSummary.from_store(store, cfg)
        buf = encode_summary(s)
        bigger = Schema(
            [numeric("a"), numeric("b"), numeric("zz"), categorical("c")]
        )
        with pytest.raises(CodecError, match="missing attributes"):
            decode_summary(buf, bigger, cfg)
