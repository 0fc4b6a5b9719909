"""Analytical query-forwarding model.

The paper analyzes update and storage overheads (Section IV) but
evaluates query cost only by simulation. This module closes that gap
with a first-order model of ROADS query forwarding, so the simulator can
be sanity-checked against closed-form expectations.

Model: each *leaf* (owner) matches a query's dimension ``d``
independently with probability ``p_d``; a leaf matches the query with
``p = prod(p_d)``. An internal server's branch summary matches when any
of its descendants matches (ignoring cross-branch correlation), so a
subtree of ``s`` leaves matches with probability ``1 - (1-p)^s``.
Expected contacts = expected number of matching-summary servers reached
from a start node whose fan-out covers the disjoint partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class QueryCostParams:
    """Inputs to the query-forwarding model.

    ``leaf_match_probability`` is the per-owner probability that all
    queried dimensions match (the product of per-dimension match
    probabilities — measure them with
    :func:`measured_dimension_probabilities`).
    """

    num_nodes: int
    degree: int
    leaf_match_probability: float

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.degree < 2:
            raise ValueError("degree must be >= 2")
        if not (0.0 <= self.leaf_match_probability <= 1.0):
            raise ValueError("leaf_match_probability must be in [0, 1]")


def levels(params: QueryCostParams) -> int:
    """Hierarchy levels for a full ``degree``-ary tree of the given size."""
    n, k = params.num_nodes, params.degree
    total, width, lv = 0, 1, 0
    while total < n:
        total += width
        width *= k
        lv += 1
    return lv


def subtree_sizes(params: QueryCostParams) -> List[int]:
    """Approximate servers per subtree at each depth (0 = whole tree)."""
    n, k = params.num_nodes, params.degree
    out = []
    size = n
    for _ in range(levels(params)):
        out.append(max(1, int(round(size))))
        size /= k
    return out


def branch_match_probability(p_leaf: float, subtree: int) -> float:
    """P(a subtree's aggregated summary matches): 1 - (1-p)^s."""
    if subtree <= 0:
        return 0.0
    return 1.0 - (1.0 - p_leaf) ** subtree


def expected_contacts(params: QueryCostParams) -> float:
    """Expected servers contacted by one ROADS query.

    Every server sits at some depth; it is contacted iff its branch
    summary matches and all its ancestors' branch summaries match — in
    the independent-leaf model, a server whose subtree matches has
    matching ancestors by construction (the ancestor subtree contains
    it), so E[contacts] = sum over servers of P(its subtree matches).
    Counted over the depth profile of a balanced degree-k tree.
    """
    p = params.leaf_match_probability
    n, k = params.num_nodes, params.degree
    total = 0.0
    width = 1
    remaining = n
    sizes = subtree_sizes(params)
    for depth in range(levels(params)):
        count = min(width, remaining)
        subtree = sizes[depth]
        total += count * branch_match_probability(p, subtree)
        remaining -= count
        width *= k
        if remaining <= 0:
            break
    return total


def expected_query_bytes(
    params: QueryCostParams,
    query_size_bytes: int,
    response_header_bytes: int = 16,
    per_target_bytes: int = 8,
) -> float:
    """Expected query-forwarding bytes: one query message plus one
    redirect response per contacted server."""
    contacts = expected_contacts(params)
    return contacts * (
        query_size_bytes + response_header_bytes + 2 * per_target_bytes
    )


def measured_dimension_probabilities(
    summaries: Sequence, queries: Sequence
) -> Dict[str, float]:
    """Per-attribute empirical P(one owner's summary matches a query dim).

    *summaries* are per-owner :class:`ResourceSummary` objects; the
    result averages over owners and queries.
    """
    from collections import defaultdict

    hits = defaultdict(int)
    trials = defaultdict(int)
    for query in queries:
        for pred in query.predicates:
            for s in summaries:
                trials[pred.attribute] += 1
                if s.attribute(pred.attribute).may_match(pred):
                    hits[pred.attribute] += 1
    return {
        a: hits[a] / trials[a] for a in trials
    }


def leaf_match_probability_from_dims(dim_probs: Sequence[float]) -> float:
    """Independent-dimension approximation: the product."""
    return float(math.prod(dim_probs))
