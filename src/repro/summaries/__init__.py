"""Condensed, mergeable summaries of resource record sets."""

from .base import AttributeSummary, SummaryMergeError
from .config import SummaryConfig
from .histogram import HistogramSummary
from .summary import ResourceSummary
from .valueset import ValueSetSummary

__all__ = [
    "AttributeSummary",
    "SummaryMergeError",
    "HistogramSummary",
    "ValueSetSummary",
    "ResourceSummary",
    "SummaryConfig",
]
