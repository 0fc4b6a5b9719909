"""Summary protocol.

An *attribute summary* is a condensed, lossy representation of the values
one attribute takes across a set of resource records (Section III-B). Every
summary type must uphold the **no-false-negative invariant**: if any
summarized value satisfies a predicate, the summary must report a possible
match. False positives are allowed (they only cost extra query forwarding);
false negatives would make matching resources undiscoverable.

Summaries must also be *mergeable* — the bottom-up aggregation combines
children's summaries into a branch summary — and must report their wire
size so the simulator can account update overhead in bytes.
"""

from __future__ import annotations

import abc
from typing import Any

from ..query.predicate import Predicate


class AttributeSummary(abc.ABC):
    """Condensed representation of one attribute's values."""

    @abc.abstractmethod
    def may_match(self, predicate: Predicate) -> bool:
        """Whether any summarized value possibly satisfies *predicate*.

        Must never return ``False`` when a summarized value actually
        matches (no false negatives).
        """

    @abc.abstractmethod
    def merge(self, other: "AttributeSummary") -> "AttributeSummary":
        """A new summary covering both inputs' value sets."""

    @abc.abstractmethod
    def merge_many(self, others) -> "AttributeSummary":
        """One new summary covering this and all of *others*' value sets:
        the left fold of :meth:`merge`, in a single pass."""

    @abc.abstractmethod
    def encoded_size(self) -> int:
        """Wire size of this summary in bytes."""

    @property
    @abc.abstractmethod
    def is_empty(self) -> bool:
        """True when no values have been summarized."""


class SummaryMergeError(ValueError):
    """Raised when two structurally incompatible summaries are merged."""
