"""Bloom-filter summaries for categorical attributes.

When the universe of categorical values is large, enumerating them is
wasteful; the paper points to Bloom filters [10] as a more efficient
summary. A Bloom filter admits false positives (harmless: extra query
forwarding) but never false negatives (required for discoverability).
Merging two filters with identical parameters is bitwise OR.

Hashing uses ``blake2b`` with per-index salts, giving ``k`` independent,
deterministic hash functions without any third-party dependency.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable

import numpy as np

from ..query.predicate import EqualsPredicate, Predicate, RangePredicate
from .base import AttributeSummary, SummaryMergeError

_HEADER_BYTES = 12


def optimal_parameters(expected_items: int, false_positive_rate: float):
    """Classic optimal (bits, hashes) for a Bloom filter.

    ``m = -n ln p / (ln 2)^2`` and ``k = m/n ln 2``.
    """
    if expected_items <= 0:
        raise ValueError("expected_items must be positive")
    if not (0.0 < false_positive_rate < 1.0):
        raise ValueError("false_positive_rate must be in (0, 1)")
    m = -expected_items * math.log(false_positive_rate) / (math.log(2) ** 2)
    k = max(1, round(m / expected_items * math.log(2)))
    return max(8, int(math.ceil(m))), int(k)


class BloomFilterSummary(AttributeSummary):
    """Fixed-size bit-array membership summary."""

    __slots__ = ("attribute", "bits", "num_hashes", "_array", "_fp")

    def __init__(self, attribute: str, bits: int = 1024, num_hashes: int = 4):
        if bits <= 0:
            raise ValueError("bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.attribute = attribute
        self.bits = int(bits)
        self.num_hashes = int(num_hashes)
        self._array = np.zeros(self.bits, dtype=bool)
        self._fp = None

    @classmethod
    def from_values(
        cls,
        attribute: str,
        values: Iterable[str],
        bits: int = 1024,
        num_hashes: int = 4,
    ) -> "BloomFilterSummary":
        f = cls(attribute, bits, num_hashes)
        for v in values:
            f.add(v)
        return f

    def _positions(self, value: str) -> np.ndarray:
        out = np.empty(self.num_hashes, dtype=np.int64)
        data = value.encode("utf-8")
        for i in range(self.num_hashes):
            digest = hashlib.blake2b(data, digest_size=8, salt=i.to_bytes(4, "little") + b"roAD").digest()
            out[i] = int.from_bytes(digest, "little") % self.bits
        return out

    def add(self, value: str) -> None:
        self._array[self._positions(value)] = True
        self._fp = None

    def contains(self, value: str) -> bool:
        return bool(self._array[self._positions(value)].all())

    @property
    def is_empty(self) -> bool:
        return not self._array.any()

    @property
    def fill_ratio(self) -> float:
        """Fraction of set bits; drives the false-positive rate."""
        return float(self._array.mean())

    def may_match(self, predicate: Predicate) -> bool:
        if isinstance(predicate, RangePredicate):
            raise TypeError(
                f"bloom filter on {self.attribute!r} cannot evaluate a range on "
                f"numeric attribute {predicate.attribute!r}"
            )
        assert isinstance(predicate, EqualsPredicate)
        return self.contains(predicate.value)

    def _check_mergeable(self, other: AttributeSummary) -> "BloomFilterSummary":
        if not isinstance(other, BloomFilterSummary):
            raise SummaryMergeError(
                f"cannot merge BloomFilterSummary with {type(other).__name__}"
            )
        if (
            other.attribute != self.attribute
            or other.bits != self.bits
            or other.num_hashes != self.num_hashes
        ):
            raise SummaryMergeError(
                f"incompatible bloom filters for {self.attribute!r}: "
                f"({self.bits} bits, k={self.num_hashes}) vs "
                f"({other.bits} bits, k={other.num_hashes}) on {other.attribute!r}"
            )
        return other

    def merge(self, other: AttributeSummary) -> "BloomFilterSummary":
        return self.merge_many([other])

    def merge_many(self, others) -> "BloomFilterSummary":
        """Single-pass bitwise OR over this and all of *others*."""
        array = self._array.copy()
        for o in others:
            array |= self._check_mergeable(o)._array
        merged = BloomFilterSummary(self.attribute, self.bits, self.num_hashes)
        merged._array = array
        return merged

    def copy(self) -> "BloomFilterSummary":
        out = BloomFilterSummary(self.attribute, self.bits, self.num_hashes)
        out._array = self._array.copy()
        return out

    def fingerprint(self) -> bytes:
        """Content hash used by delta propagation to skip unchanged sends.

        Cached: the bit array only changes through :meth:`add` (which
        invalidates) — merges and copies return new instances.
        """
        if self._fp is not None:
            return self._fp
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        h.update(self.attribute.encode("utf-8"))
        h.update(np.int64((self.bits, self.num_hashes)).tobytes())
        h.update(np.packbits(self._array).tobytes())
        self._fp = h.digest()
        return self._fp

    def encoded_size(self) -> int:
        return _HEADER_BYTES + (self.bits + 7) // 8

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BloomFilterSummary)
            and self.attribute == other.attribute
            and self.bits == other.bits
            and self.num_hashes == other.num_hashes
            and bool(np.array_equal(self._array, other._array))
        )

    def __repr__(self) -> str:
        return (
            f"BloomFilterSummary({self.attribute!r}, bits={self.bits}, "
            f"k={self.num_hashes}, fill={self.fill_ratio:.3f})"
        )
