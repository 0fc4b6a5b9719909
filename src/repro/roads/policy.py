"""Voluntary-sharing policies.

The defining requirement of ROADS (Section II): a resource owner retains
final control over which resource records are returned for a given query
and to whom. Queries carry a ``requester`` identity; when a query reaches
an owner, the owner evaluates it against its private record store and then
filters the matches through its local policy — presenting different
"views" to different parties.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..query.query import Query
from ..records.store import RecordStore


class SharingPolicy(abc.ABC):
    """Decides which matching records an owner returns to a requester."""

    @abc.abstractmethod
    def filter_matches(
        self, requester: Optional[str], store: RecordStore, mask: np.ndarray
    ) -> np.ndarray:
        """Restrict the boolean match *mask* according to policy.

        The returned mask must be a subset of the input mask (a policy can
        hide records, never fabricate them).
        """

    def answer(self, query: Query, store: RecordStore) -> RecordStore:
        """Matching records visible to ``query.requester``."""
        return store.select(self.visible(query, store))

    def visible(
        self, query: Query, store: RecordStore, mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Mask of the matching records visible to ``query.requester``;
        *mask* is ``query.mask(store)``, if the caller has it."""
        if mask is None:
            mask = query.mask(store)
        allowed = self.filter_matches(query.requester, store, mask)
        if allowed is not mask and (
            allowed.shape != mask.shape or bool((allowed & ~mask).any())
        ):
            raise ValueError(
                f"{type(self).__name__} returned records outside the match set"
            )
        return allowed


class OpenPolicy(SharingPolicy):
    """Share every matching record with everyone (the paper's default)."""

    def filter_matches(self, requester, store, mask):
        return mask


@dataclass
class TieredPolicy(SharingPolicy):
    """Different views for different partner tiers.

    Business partners (Section I's example) may see everything; every
    other requester only sees records additionally satisfying the public
    predicate (e.g. ``cost <= x`` or ``load <= y``), or at most
    ``public_limit`` records. ``public_limit=0`` makes an owner
    discoverable but closed to everyone outside ``partners``.
    """

    partners: frozenset = frozenset()
    public_predicate: Optional[Callable[[RecordStore], np.ndarray]] = None
    public_limit: Optional[int] = None

    def __post_init__(self):
        if self.public_limit is not None and self.public_limit < 0:
            raise ValueError(
                f"public_limit must be >= 0, got {self.public_limit}"
            )

    def filter_matches(self, requester, store, mask):
        if requester in self.partners:
            return mask
        out = mask.copy()
        if self.public_predicate is not None:
            out &= self.public_predicate(store)
        if self.public_limit is not None and out.sum() > self.public_limit:
            keep = np.flatnonzero(out)[: self.public_limit]
            limited = np.zeros_like(out)
            limited[keep] = True
            out = limited
        return out


class PolicyTable:
    """Per-owner policy registry with a configurable default."""

    def __init__(self, default: Optional[SharingPolicy] = None):
        self._default = default if default is not None else OpenPolicy()
        self._by_owner: Dict[str, SharingPolicy] = {}

    def set(self, owner_id: str, policy: SharingPolicy) -> None:
        self._by_owner[owner_id] = policy

    def get(self, owner_id: str) -> SharingPolicy:
        return self._by_owner.get(owner_id, self._default)

    def answer(self, owner_id: str, query: Query, store: RecordStore) -> RecordStore:
        return self.get(owner_id).answer(query, store)
