"""Value-set summaries for categorical attributes.

The simplest categorical summary enumerates the distinct values present in
the summarized records — acceptable when the number of distinct values is
limited (Section III-B). Merging is set union; equality predicates are
evaluated by membership, which is exact (no false positives either).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from ..query.predicate import EqualsPredicate, Predicate, RangePredicate
from .base import AttributeSummary, SummaryMergeError

_HEADER_BYTES = 8


class ValueSetSummary(AttributeSummary):
    """Explicit enumeration of the distinct categorical values present."""

    __slots__ = ("attribute", "values", "_fp")

    def __init__(self, attribute: str, values: Iterable[str] = ()):
        self.attribute = attribute
        self.values: FrozenSet[str] = frozenset(values)
        self._fp = None

    @classmethod
    def from_values(cls, attribute: str, values: Iterable[str]) -> "ValueSetSummary":
        return cls(attribute, values)

    @property
    def is_empty(self) -> bool:
        return not self.values

    def may_match(self, predicate: Predicate) -> bool:
        if isinstance(predicate, RangePredicate):
            raise TypeError(
                f"value set on {self.attribute!r} cannot evaluate a range on "
                f"numeric attribute {predicate.attribute!r}"
            )
        assert isinstance(predicate, EqualsPredicate)
        return predicate.value in self.values

    def _check_mergeable(self, other: AttributeSummary) -> "ValueSetSummary":
        if not isinstance(other, ValueSetSummary):
            raise SummaryMergeError(
                f"cannot merge ValueSetSummary with {type(other).__name__}"
            )
        if other.attribute != self.attribute:
            raise SummaryMergeError(
                f"cannot merge value sets for {self.attribute!r} and {other.attribute!r}"
            )
        return other

    def merge(self, other: AttributeSummary) -> "ValueSetSummary":
        return self.merge_many([other])

    def merge_many(self, others) -> "ValueSetSummary":
        """Single-pass set union over this and all of *others*."""
        return ValueSetSummary(
            self.attribute,
            self.values.union(*(self._check_mergeable(o).values for o in others)),
        )

    def copy(self) -> "ValueSetSummary":
        return ValueSetSummary(self.attribute, self.values)

    def fingerprint(self) -> bytes:
        """Content hash used by delta propagation to skip unchanged sends.

        Cached: the value set is a frozenset, immutable for life.
        """
        if self._fp is not None:
            return self._fp
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        h.update(self.attribute.encode("utf-8"))
        for v in sorted(self.values):
            h.update(v.encode("utf-8") + b"\x00")
        self._fp = h.digest()
        return self._fp

    def encoded_size(self) -> int:
        return _HEADER_BYTES + sum(len(v.encode("utf-8")) + 1 for v in self.values)

    def __contains__(self, value: str) -> bool:
        return value in self.values

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ValueSetSummary)
            and self.attribute == other.attribute
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"ValueSetSummary({self.attribute!r}, {sorted(self.values)})"
