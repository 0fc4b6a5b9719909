"""Tests for repro.summaries.codec (binary wire format)."""

import hashlib
import struct

import numpy as np
import pytest

from repro.query import EqualsPredicate, Query, RangePredicate
from repro.records import RecordStore, Schema, categorical, numeric
from repro.summaries import (
    HistogramSummary,
    ResourceSummary,
    SummaryConfig,
    ValueSetSummary,
)
from repro.summaries.codec import (
    CodecError,
    decode_attribute,
    decode_histogram,
    decode_summary,
    decode_valueset,
    encode_attribute,
    encode_histogram,
    encode_summary,
    encode_valueset,
)
from repro.workload import WorkloadConfig, generate_node_stores


#: the one histogram encoding; the parameter keeps these tests' ids
DENSE = pytest.mark.parametrize("encoding", ["dense"])


class TestHistogramCodec:
    @DENSE
    def test_roundtrip_exact(self, encoding):
        rng = np.random.default_rng(0)
        h = HistogramSummary.from_values("rate", rng.random(500), 128)
        out, off = decode_histogram(encode_histogram(h))
        assert out == h
        assert off == len(encode_histogram(h))

    def test_roundtrip_custom_bounds(self):
        h = HistogramSummary.from_values("rate", [500.0], 16, (0.0, 1000.0))
        out, _ = decode_histogram(encode_histogram(h))
        assert out.lo == 0.0 and out.hi == 1000.0
        assert out.counts[8] == 1

    def test_empty_histogram(self):
        h = HistogramSummary("a", 32)
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


class TestDispatch:
    def test_encode_decode_any(self):
        for summ in (
            HistogramSummary.from_values("a", [0.5], 8),
            ValueSetSummary("b", ["x"]),
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

    def test_bloom_kind_byte_is_unknown(self):
        # Kind 3 was a Bloom-filter frame: [3][0][name][bits u32][hashes
        # u16][packed bits]. Categorical summaries are value sets only.
        frame = struct.pack("<BBH", 3, 0, 3) + b"enc" + struct.pack("<IH", 64, 2)
        frame += bytes(8)
        with pytest.raises(CodecError, match="unknown frame kind 3"):
            decode_attribute(frame)
        head = b"RSUM" + struct.pack("<dI", 0.0, 1)
        with pytest.raises(CodecError, match="unknown frame kind 3"):
            decode_summary(
                head + frame, Schema([categorical("enc")]), SummaryConfig()
            )

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

    @DENSE
    def test_roundtrip_semantics(self, schema, store, encoding):
        cfg = SummaryConfig(histogram_buckets=64)
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

    @DENSE
    def test_decoded_block_is_int32(self, schema, store, encoding):
        cfg = SummaryConfig(histogram_buckets=64)
        s = ResourceSummary.from_store(store, cfg)
        out = decode_summary(encode_summary(s), schema, cfg)
        assert out.block.dtype == np.int32 and out.block.flags.c_contiguous
        assert out.block.shape == (2, 64)
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
        s = ResourceSummary.from_store(store, SummaryConfig(histogram_buckets=512))
        real = len(encode_summary(s))
        accounted = s.encoded_size()
        # within 15% plus a small fixed allowance for frame headers
        assert abs(real - accounted) <= 0.15 * accounted + 64, (real, accounted)

    def test_bad_magic(self, schema):
        cfg = SummaryConfig()
        with pytest.raises(CodecError, match="magic"):
            decode_summary(b"nope", schema, cfg)

    @DENSE
    def test_trailing_bytes_are_refused(self, schema, store, encoding):
        cfg = SummaryConfig(histogram_buckets=64)
        buf = encode_summary(ResourceSummary.from_store(store, cfg))
        with pytest.raises(CodecError, match="end at"):
            decode_summary(buf + b"\x00\x00", schema, cfg)

    @DENSE
    @pytest.mark.parametrize("cut", [1, 5, "half"])
    def test_a_cut_frame_is_a_codec_error(self, schema, store, encoding, cut):
        cfg = SummaryConfig(histogram_buckets=64)
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


class TestDenseFramePinned:
    """One seeded default-config summary's frame, byte for byte."""

    #: sha256 of the frame, generated while sparse and bitmap frames still
    #: existed: deleting them must leave the dense frame as it was
    SHA256 = "c3cf6bc2027e2ebfc51fb5f6ea9659c19222c6bac683b9f0e23ad2de6ea815fa"

    @pytest.fixture
    def summary(self):
        (store,) = generate_node_stores(WorkloadConfig(num_nodes=1, seed=7))
        return ResourceSummary.from_store(store, SummaryConfig(), created_at=12.5)

    def test_frame_bytes_are_pinned(self, summary):
        frame = encode_summary(summary)
        assert hashlib.sha256(frame).hexdigest() == self.SHA256
        assert decode_summary(frame, summary.schema, summary.config).fingerprint() == (
            summary.fingerprint()
        )

    def test_encoded_size_is_the_frame_length_less_its_framing(self, summary):
        # encoded_size() models a histogram as a 16-byte header plus its
        # counters; the frame spends 24 bytes plus the name on each one's
        # header, and 16 on the summary's (magic, created_at, count).
        framing = 16 + sum(8 + len(spec.name) for spec in summary.schema)
        assert len(encode_summary(summary)) == summary.encoded_size() + framing
        assert summary.encoded_size() == 16 * (16 + 1000 * 4)

    def test_a_nonzero_encoding_byte_is_a_codec_error(self, summary):
        frame = bytearray(encode_summary(summary))
        assert frame[16:18] == b"\x01\x00"  # first histogram: kind, encoding
        frame[17] = 1
        with pytest.raises(CodecError, match="encoding"):
            decode_summary(bytes(frame), summary.schema, summary.config)
