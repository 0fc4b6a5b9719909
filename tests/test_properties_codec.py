"""Property-based tests for the wire codec and churn-adjacent invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.summaries import HistogramSummary, ValueSetSummary
from repro.summaries.codec import (
    decode_attribute,
    encode_attribute,
)

unit_floats = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(unit_floats, min_size=0, max_size=50)
names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=16,
)
string_lists = st.lists(names, min_size=0, max_size=25)


class TestCodecProperties:
    @given(values=value_lists,
           buckets=st.sampled_from([1, 3, 16, 100, 1000]))
    @settings(max_examples=120, deadline=None)
    def test_histogram_roundtrip_identity(self, values, buckets):
        h = HistogramSummary.from_values("attr", values, buckets)
        out, consumed = decode_attribute(encode_attribute(h))
        assert out == h
        assert consumed == len(encode_attribute(h))

    @given(values=string_lists, name=names)
    @settings(max_examples=100, deadline=None)
    def test_valueset_roundtrip_identity(self, values, name):
        s = ValueSetSummary(name, values)
        out, _ = decode_attribute(encode_attribute(s))
        assert out == s

    @given(values=value_lists, buckets=st.sampled_from([4, 32, 128]))
    @settings(max_examples=80, deadline=None)
    def test_frame_self_delimiting(self, values, buckets):
        """Concatenated frames decode back in order."""
        a = HistogramSummary.from_values("x", values, buckets)
        b = ValueSetSummary("y", ["p", "q"])
        buf = encode_attribute(a) + encode_attribute(b)
        first, off = decode_attribute(buf)
        second, end = decode_attribute(buf, off)
        assert first == a and second == b and end == len(buf)


class TestFingerprintProperties:
    @given(values=value_lists, buckets=st.sampled_from([8, 64]))
    @settings(max_examples=80, deadline=None)
    def test_fingerprint_deterministic(self, values, buckets):
        a = HistogramSummary.from_values("x", values, buckets)
        b = HistogramSummary.from_values("x", values, buckets)
        assert a.fingerprint() == b.fingerprint()

    @given(values=value_lists, extra=unit_floats,
           buckets=st.sampled_from([64, 256]))
    @settings(max_examples=80, deadline=None)
    def test_fingerprint_sensitive_to_new_bucket(self, values, extra, buckets):
        a = HistogramSummary.from_values("x", values, buckets)
        b = a.copy()
        b.add_values([extra])
        # Adding a value always changes some counter, hence the hash.
        assert a.fingerprint() != b.fingerprint()

    @given(values=string_lists)
    @settings(max_examples=60, deadline=None)
    def test_valueset_fingerprint_order_independent(self, values):
        a = ValueSetSummary("e", values)
        b = ValueSetSummary("e", list(reversed(values)))
        assert a.fingerprint() == b.fingerprint()
