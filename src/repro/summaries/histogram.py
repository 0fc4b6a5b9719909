"""Histogram summaries for numeric attributes.

A histogram divides the attribute's value domain into ``m`` equal-width
buckets, each counting how many summarized values fall inside. Two
histograms over the same domain merge by adding their counters bucket-wise,
which is exactly how branch summaries are aggregated bottom-up in the
hierarchy. A range predicate ``lo <= x <= hi`` may match iff any bucket
overlapping ``[lo, hi]`` is non-empty.

On the wire a histogram is dense: a small header and all ``m``
counters, the paper's model, where a summary has constant size ``m·r``
regardless of how many records it covers (§III-B; DESIGN.md §5 records
the sparse and bitmap encodings measured against it).

Query evaluation runs on one bit per bucket: a histogram packs
its *occupancy bitset* (a Python ``int``, bit ``i`` set iff bucket ``i`` is
non-empty) on its first ``may_match``, drops it wherever it drops its
fingerprint, and tests ``occupancy & mask != 0`` with the mask of the
memoised :func:`_bucket_span`. Counters are int32, as on the wire: a
counter that wrapped would read as an empty bucket (a false negative), so
whatever adds to counters first checks the total fits.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from typing import Iterable, Optional, Tuple

import numpy as np

from ..query.predicate import EqualsPredicate, Predicate, RangePredicate
from .base import AttributeSummary, SummaryMergeError

#: bytes per counter on the wire
_DENSE_COUNTER_BYTES = 4
#: fixed header: attribute id, bucket count, domain bounds
_HEADER_BYTES = 16
#: largest value an int32 counter holds
COUNTER_MAX = int(np.iinfo(np.int32).max)


def check_counter_room(total: int) -> None:
    """Raise unless *total* summarized values fit an int32 counter."""
    if total > COUNTER_MAX:
        raise OverflowError(f"{total} values overflow an int32 counter (max {COUNTER_MAX})")


def wire_bytes(block: np.ndarray) -> int:
    """Wire size of the histograms whose counters are the rows of the
    2-D *block*."""
    rows, buckets = block.shape
    return rows * (_HEADER_BYTES + buckets * _DENSE_COUNTER_BYTES)


def histogram_digest(attribute: str, lo: float, hi: float, wide: np.ndarray) -> bytes:
    """Content hash of one histogram, a wire value: *wide* is its counters
    widened to C-contiguous int64, the bytes hashed before they were int32."""
    h = hashlib.blake2b(
        attribute.encode("utf-8") + struct.pack("=qdd", wide.shape[0], lo, hi),
        digest_size=16,
    )
    h.update(wide)
    return h.digest()


def _bucket_block(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, buckets: int
) -> np.ndarray:
    """The bucketing kernel: ``(records, attributes)`` values to an
    ``(attributes, buckets)`` int32 count block.

    Column ``j``'s values fall in equal-width bucket ``floor((v - lo) /
    (hi - lo) * buckets)`` clamped to ``[0, buckets - 1]`` — the scalar
    twin :func:`_bucket_span`'s — so values outside ``[lo, hi]`` land in
    the nearest end bucket (a NaN in the first). Clamped non-negative,
    the cast to ``intp`` is the floor. Offsetting column ``j``'s indices
    by ``j * buckets`` lets a single ``np.bincount`` count all columns.
    """
    n_attrs = values.shape[1]
    t = values - lo
    t /= hi - lo
    t *= buckets
    np.fmax(t, 0, out=t)
    # Rebinding t frees each temporary before the next allocation: one
    # kept alive across it fragments the heap (+4 MB peak RSS, 320 x 500).
    t = np.minimum(t, buckets - 1, out=t).astype(np.intp)
    t += np.arange(0, n_attrs * buckets, buckets)
    t = np.bincount(t.ravel(), minlength=n_attrs * buckets)
    return t.astype(np.int32).reshape(n_attrs, buckets)


@functools.lru_cache(maxsize=4096)
def _bucket_span(
    lo: float, hi: float, dom_lo: float, dom_hi: float, buckets: int
) -> Tuple[int, int, int]:
    """``(first, last, mask)``: the buckets of ``[dom_lo, dom_hi]`` that
    ``[lo, hi]`` overlaps, as indices and as a bitset; ``(0, -1, 0)``
    when the range misses the domain.

    Scalar twin of :func:`_bucket_block`'s index expression, so a value
    and a range endpoint equal to it land in the same bucket. Memoised
    on the domain as well as the range: a search asks one predicate of
    every summary it consults, but nothing guarantees that all histograms
    of an attribute share a domain and bucket count.
    """
    lo = max(lo, dom_lo)
    hi = min(hi, dom_hi)
    if lo > hi:
        return 0, -1, 0
    span = dom_hi - dom_lo
    first = min(max(math.floor((lo - dom_lo) / span * buckets), 0), buckets - 1)
    last = min(max(math.floor((hi - dom_lo) / span * buckets), 0), buckets - 1)
    return first, last, ((1 << (last - first + 1)) - 1) << first


class HistogramSummary(AttributeSummary):
    """Equal-width bucket histogram over a bounded numeric domain."""

    __slots__ = ("attribute", "lo", "hi", "counts", "_fp", "_occupancy")

    def __init__(
        self,
        attribute: str,
        buckets: int,
        bounds: Tuple[float, float] = (0.0, 1.0),
        *,
        counts: Optional[np.ndarray] = None,
    ):
        if buckets <= 0:
            raise ValueError(f"histogram needs at least one bucket, got {buckets}")
        lo, hi = bounds
        if not (lo < hi):
            raise ValueError(f"invalid histogram bounds {bounds}")
        self.attribute = attribute
        self.lo = float(lo)
        self.hi = float(hi)
        if counts is None:
            self.counts = np.zeros(buckets, dtype=np.int32)
        else:
            counts = np.asarray(counts)
            if counts.shape != (buckets,):
                raise ValueError(
                    f"counts shape {counts.shape} does not match bucket count {buckets}"
                )
            if counts.dtype.kind != "u" and counts.min() < 0:  # wire counters are unsigned
                raise ValueError("histogram counts must be non-negative")
            check_counter_room(int(counts.max()))
            self.counts = counts.astype(np.int32)
        self._fp = self._occupancy = None

    # -- construction ------------------------------------------------------------
    @classmethod
    def from_values(
        cls,
        attribute: str,
        values: Iterable[float],
        buckets: int,
        bounds: Tuple[float, float] = (0.0, 1.0),
    ) -> "HistogramSummary":
        """Summarize *values*; values are clipped into the domain."""
        h = cls(attribute, buckets, bounds)
        h.add_values(values)
        return h

    @classmethod
    def _trusted(
        cls,
        attribute: str,
        bounds: Tuple[float, float],
        counts: np.ndarray,
    ) -> "HistogramSummary":
        """Internal constructor for counts already known valid.

        Skips re-validation and the defensive copy of ``__init__`` —
        merge results are freshly allocated arrays the caller owns, and a
        summary's rows are read-only views of its block.
        """
        h = cls.__new__(cls)
        h.attribute = attribute
        h.lo, h.hi = bounds
        h.counts = counts
        h._fp = h._occupancy = None
        return h

    def add_values(self, values: Iterable[float]) -> None:
        vals = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                          dtype=np.float64)
        if vals.size == 0:
            return
        check_counter_room(self.total + vals.size)
        self._fp = self._occupancy = None
        self.counts += _bucket_block(
            vals.reshape(-1, 1),
            np.float64([self.lo]),
            np.float64([self.hi]),
            self.buckets,
        )[0]

    # -- protocol ----------------------------------------------------------------
    @property
    def buckets(self) -> int:
        return int(self.counts.shape[0])

    @property
    def total(self) -> int:
        """Number of values summarized."""
        return int(self.counts.sum())

    @property
    def is_empty(self) -> bool:
        return not self.counts.any()

    def may_match(self, predicate: Predicate) -> bool:
        if not isinstance(predicate, RangePredicate):
            what = (
                f"equality on categorical attribute {predicate.attribute!r}"
                if isinstance(predicate, EqualsPredicate)
                else f"a {type(predicate).__name__} (expected a RangePredicate)"
            )
            raise TypeError(
                f"histogram on {self.attribute!r} cannot evaluate {what}"
            )
        occupancy = self._occupancy
        if occupancy is None:
            occupancy = self._occupancy = int.from_bytes(
                np.packbits(self.counts > 0, bitorder="little").tobytes(), "little"
            )
        span = _bucket_span(
            predicate.lo, predicate.hi, self.lo, self.hi, len(self.counts)
        )
        return occupancy & span[2] != 0

    def _check_mergeable(self, other: AttributeSummary) -> "HistogramSummary":
        if not isinstance(other, HistogramSummary):
            raise SummaryMergeError(
                f"cannot merge HistogramSummary with {type(other).__name__}"
            )
        if (
            other.buckets != self.buckets
            or other.lo != self.lo
            or other.hi != self.hi
            or other.attribute != self.attribute
        ):
            raise SummaryMergeError(
                f"incompatible histograms for {self.attribute!r}: "
                f"({self.buckets}, [{self.lo}, {self.hi}]) vs "
                f"({other.buckets}, [{other.lo}, {other.hi}]) on {other.attribute!r}"
            )
        return other

    def merge(self, other: AttributeSummary) -> "HistogramSummary":
        return self.merge_many([other])

    def merge_many(self, others) -> "HistogramSummary":
        """Bucket-wise sum with *others* in one pass: a single result
        array instead of one intermediate histogram per operand."""
        others = [self._check_mergeable(o) for o in others]
        check_counter_room(self.total + sum(o.total for o in others))
        counts = self.counts.copy()
        for o in others:
            counts += o.counts
        return HistogramSummary._trusted(self.attribute, (self.lo, self.hi), counts)

    def copy(self) -> "HistogramSummary":
        bounds = (self.lo, self.hi)
        return HistogramSummary._trusted(self.attribute, bounds, self.counts.copy())

    def encoded_size(self) -> int:
        return wire_bytes(self.counts.reshape(1, -1))

    def fingerprint(self) -> bytes:
        """Content hash used by delta propagation to skip unchanged sends.

        Cached: counts only change through :meth:`add_values` (which
        invalidates) — merges and copies return new instances.
        """
        if self._fp is None:
            wide = np.ascontiguousarray(self.counts, dtype=np.int64)
            self._fp = histogram_digest(self.attribute, self.lo, self.hi, wide)
        return self._fp

    # -- introspection -------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HistogramSummary)
            and self.attribute == other.attribute
            and self.buckets == other.buckets
            and self.lo == other.lo
            and self.hi == other.hi
            and bool(np.array_equal(self.counts, other.counts))
        )

    def __repr__(self) -> str:
        return (
            f"HistogramSummary({self.attribute!r}, buckets={self.buckets}, "
            f"bounds={(self.lo, self.hi)}, total={self.total})"
        )
