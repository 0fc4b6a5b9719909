"""Multi-dimensional range queries.

A :class:`Query` is a conjunction of predicates over distinct attributes.
It can be evaluated exactly against a :class:`~repro.records.store.RecordStore`
(returning the matching rows) or approximately against a summary (the
summary API lives in :mod:`repro.summaries`; summaries expose
``may_match(query)`` built on the per-predicate hooks here).

A query is immutable, so what depends only on it is computed once and
kept on the instance outside its dataclass fields (equality, hash and repr
never see it): its wire size and, per store schema, the columns and bound
vectors of its range predicates, which :meth:`Query.mask` compares with the
store's numeric matrix in one 2-D operation, and per schema and bucket count
the bucket masks a summary ANDs with its occupancy bitsets
(``summaries.summary._match_plan``). Record values are never cached.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..records.record import ResourceRecord
from ..records.schema import Schema
from ..records.store import RecordStore
from .predicate import Predicate, RangePredicate

_query_counter = itertools.count()


@dataclass(frozen=True)
class Query:
    """A conjunctive multi-dimensional query.

    Parameters
    ----------
    predicates:
        One predicate per queried attribute. At most one predicate per
        attribute (conjunctions over the same attribute should be merged
        into a single tighter range before constructing the query).
    query_id:
        Stable identifier, auto-assigned when omitted.
    requester:
        Identity of the querying party; resource owners use it to apply
        their voluntary-sharing policies.
    """

    predicates: Tuple[Predicate, ...]
    query_id: int = field(default_factory=lambda: next(_query_counter))
    requester: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ValueError("query must have at least one predicate")
        attrs = [p.attribute for p in self.predicates]
        if len(set(attrs)) != len(attrs):
            raise ValueError(f"query has duplicate predicates on attributes: {attrs}")
        object.__setattr__(self, "_plans", {})

    @staticmethod
    def of(*predicates: Predicate, requester: Optional[str] = None) -> "Query":
        return Query(predicates=tuple(predicates), requester=requester)

    # -- structure ---------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        """Number of queried attributes (the paper's ``q``)."""
        return len(self.predicates)

    @property
    def attributes(self) -> List[str]:
        return [p.attribute for p in self.predicates]

    def predicate_on(self, attribute: str) -> Optional[Predicate]:
        for p in self.predicates:
            if p.attribute == attribute:
                return p
        return None

    def range_predicates(self) -> List[RangePredicate]:
        return [p for p in self.predicates if isinstance(p, RangePredicate)]

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self.predicates)

    def __str__(self) -> str:
        return " AND ".join(str(p) for p in self.predicates)

    # -- sizing ------------------------------------------------------------------
    @functools.cached_property
    def size_bytes(self) -> int:
        """Wire size of the query message payload.

        Grows linearly with dimensionality, which drives the SWORD query
        overhead trend in Figure 7.
        """
        header = 16  # query id + requester token
        return header + sum(p.size_bytes for p in self.predicates)

    # -- exact evaluation ----------------------------------------------------------
    def _plan(self, schema: Schema):
        """``(schema, columns, lo, hi, others)``: numeric-partition columns
        and bound vectors of the range predicates under *schema*, and the
        predicates left to evaluate one by one. Keyed by the schema's id
        (hashing a schema hashes every attribute) and checked against the
        schema the entry holds."""
        plan = self._plans.get(id(schema))
        if plan is None or plan[0] is not schema:
            ranges = self.range_predicates()
            columns = [schema.numeric_position(p.attribute) for p in ranges]
            plan = self._plans[id(schema)] = (
                schema,
                np.array(columns, dtype=np.intp),
                np.array([p.lo for p in ranges], dtype=np.float64),
                np.array([p.hi for p in ranges], dtype=np.float64),
                [p for p in self.predicates if not isinstance(p, RangePredicate)],
            )
        return plan

    def mask(self, store: RecordStore) -> np.ndarray:
        """Boolean mask of rows in *store* matching all predicates."""
        if len(store) == 0:
            return np.zeros(0, dtype=bool)
        _, columns, lo, hi, others = self._plan(store.schema)
        if columns.size:
            block = store.numeric_matrix[:, columns]
            out = np.logical_and.reduce((block >= lo) & (block <= hi), axis=1)
        else:
            out = np.ones(len(store), dtype=bool)
        for p in others:
            out &= p.mask(store)
        return out

    def match_count(self, store: RecordStore) -> int:
        return int(self.mask(store).sum())

    def select(self, store: RecordStore) -> RecordStore:
        """The sub-store of matching records."""
        return store.select(self.mask(store))

    def matches_record(self, record: ResourceRecord) -> bool:
        return all(p.matches_value(record[p.attribute]) for p in self.predicates)

    def with_requester(self, requester: str) -> "Query":
        return Query(self.predicates, query_id=self.query_id, requester=requester)
