"""Multi-dimensional range queries and selectivity tooling."""

from .predicate import (
    EqualsPredicate,
    Predicate,
    RangePredicate,
    greater_than,
    less_than,
)
from .query import Query
from .selectivity import calibrate_to_selectivity, selectivity

__all__ = [
    "EqualsPredicate",
    "Predicate",
    "RangePredicate",
    "greater_than",
    "less_than",
    "Query",
    "selectivity",
    "calibrate_to_selectivity",
]
