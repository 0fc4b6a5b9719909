"""ROADS: the paper's primary contribution, assembled."""

from .client import OwnerHit, QueryExecution, QueryOutcome
from .config import RoadsConfig
from .load import LoadConfig, LoadGenerator, LoadReport
from .policy import (
    OpenPolicy,
    PolicyTable,
    SharingPolicy,
    TieredPolicy,
)
from .search import (
    PendingSearch, RetryPolicy, SearchRequest, SearchResult, Verdict,
)
from .system import GuestOwner, RoadsSystem, UpdateRoundReport

__all__ = [
    "RoadsSystem",
    "RoadsConfig",
    "GuestOwner",
    "UpdateRoundReport",
    "SearchRequest",
    "SearchResult",
    "Verdict",
    "PendingSearch",
    "RetryPolicy",
    "LoadConfig",
    "LoadGenerator",
    "LoadReport",
    "QueryExecution",
    "QueryOutcome",
    "OwnerHit",
    "SharingPolicy",
    "OpenPolicy",
    "TieredPolicy",
    "PolicyTable",
]
