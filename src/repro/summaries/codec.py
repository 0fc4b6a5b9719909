"""Binary wire codecs for summaries.

The simulator accounts summary sizes via ``encoded_size()``; this module
makes those numbers honest by actually encoding summaries to bytes and
decoding them back. Each attribute summary serializes to a tagged frame::

    [1B kind][2B name length][name utf-8][payload...]

A histogram payload is its dense counters; the byte after the kind
names the encoding and is always 0 (dense), so any other value is a
:class:`CodecError`. A :class:`ResourceSummary` frame concatenates its
attribute frames behind a small header.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

import numpy as np

from ..records.schema import Schema
from .base import AttributeSummary
from .config import SummaryConfig
from .histogram import HistogramSummary
from .summary import ResourceSummary
from .valueset import ValueSetSummary

_KIND_HISTOGRAM = 1
_KIND_VALUESET = 2

#: the histogram frame's encoding byte: dense counters
_DENSE = 0


class CodecError(ValueError):
    """Raised on malformed frames."""


def _pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError(f"attribute name too long: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def _unpack_name(buf: bytes, off: int) -> Tuple[str, int]:
    (n,) = struct.unpack_from("<H", buf, off)
    off += 2
    name = buf[off : off + n].decode("utf-8")
    return name, off + n


# -- histogram ----------------------------------------------------------------

def encode_histogram(h: HistogramSummary) -> bytes:
    head = struct.pack(
        "<BB", _KIND_HISTOGRAM, _DENSE
    ) + _pack_name(h.attribute) + struct.pack("<Idd", h.buckets, h.lo, h.hi)
    return head + h.counts.astype("<u4").tobytes()


def decode_histogram(buf: bytes, off: int = 0) -> Tuple[HistogramSummary, int]:
    kind, enc_idx = struct.unpack_from("<BB", buf, off)
    if kind != _KIND_HISTOGRAM:
        raise CodecError(f"expected histogram frame, got kind {kind}")
    if enc_idx != _DENSE:
        raise CodecError(f"unknown histogram encoding index {enc_idx}")
    off += 2
    name, off = _unpack_name(buf, off)
    buckets, lo, hi = struct.unpack_from("<Idd", buf, off)
    off += struct.calcsize("<Idd")
    counts = np.frombuffer(buf, dtype="<u4", count=buckets, offset=off)
    off += buckets * 4
    return HistogramSummary(name, buckets, (lo, hi), counts=counts), off


# -- value set ----------------------------------------------------------------

def encode_valueset(s: ValueSetSummary) -> bytes:
    head = struct.pack("<BB", _KIND_VALUESET, 0) + _pack_name(s.attribute)
    values = sorted(s.values)
    payload = struct.pack("<I", len(values))
    for v in values:
        raw = v.encode("utf-8")
        payload += struct.pack("<H", len(raw)) + raw
    return head + payload


def decode_valueset(buf: bytes, off: int = 0) -> Tuple[ValueSetSummary, int]:
    kind, _ = struct.unpack_from("<BB", buf, off)
    if kind != _KIND_VALUESET:
        raise CodecError(f"expected value-set frame, got kind {kind}")
    off += 2
    name, off = _unpack_name(buf, off)
    (n,) = struct.unpack_from("<I", buf, off)
    off += 4
    values = []
    for _ in range(n):
        v, off = _unpack_name(buf, off)
        values.append(v)
    return ValueSetSummary(name, values), off


# -- dispatch ----------------------------------------------------------------

def encode_attribute(summary: AttributeSummary) -> bytes:
    if isinstance(summary, HistogramSummary):
        return encode_histogram(summary)
    if isinstance(summary, ValueSetSummary):
        return encode_valueset(summary)
    raise CodecError(f"no codec for summary type {type(summary).__name__}")


def decode_attribute(buf: bytes, off: int = 0) -> Tuple[AttributeSummary, int]:
    if off >= len(buf):
        raise CodecError("truncated frame")
    kind = buf[off]
    if kind == _KIND_HISTOGRAM:
        return decode_histogram(buf, off)
    if kind == _KIND_VALUESET:
        return decode_valueset(buf, off)
    raise CodecError(f"unknown frame kind {kind}")


_MAGIC = b"RSUM"


def encode_summary(summary: ResourceSummary) -> bytes:
    """Serialize a whole :class:`ResourceSummary` to bytes."""
    frames = b"".join(
        encode_attribute(summary.attribute(spec.name)) for spec in summary.schema
    )
    head = _MAGIC + struct.pack("<dI", summary.created_at, len(summary.schema))
    return head + frames


def decode_summary(
    buf: bytes, schema: Schema, config: SummaryConfig
) -> ResourceSummary:
    """Reconstruct a :class:`ResourceSummary` produced by
    :func:`encode_summary` against the shared *schema*. A frame that is
    cut short, runs on past its last attribute or is otherwise malformed
    raises :class:`CodecError`."""
    if buf[:4] != _MAGIC:
        raise CodecError("bad magic; not a summary frame")
    attrs: Dict[str, AttributeSummary] = {}
    try:
        created_at, n_attrs = struct.unpack_from("<dI", buf, 4)
        off = 4 + struct.calcsize("<dI")
        for _ in range(n_attrs):
            summary, off = decode_attribute(buf, off)
            attrs[summary.attribute] = summary
    except CodecError:
        raise
    except (struct.error, ValueError, OverflowError) as exc:  # incl. UnicodeDecodeError
        raise CodecError(f"malformed summary frame: {exc}") from exc
    if off != len(buf):
        raise CodecError(f"frame is {len(buf)} bytes; its attributes end at {off}")
    missing = [s.name for s in schema if s.name not in attrs]
    if missing:
        raise CodecError(f"frame missing attributes {missing}")
    return ResourceSummary(schema, config, attrs, created_at=created_at)
