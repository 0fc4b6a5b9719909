"""Condensed, mergeable summaries of resource record sets."""

from .base import AttributeSummary, SummaryMergeError
from .bloom import BloomFilterSummary, optimal_parameters
from .config import SummaryConfig
from .histogram import HistogramSummary
from .summary import ResourceSummary
from .valueset import ValueSetSummary

__all__ = [
    "AttributeSummary",
    "SummaryMergeError",
    "HistogramSummary",
    "ValueSetSummary",
    "BloomFilterSummary",
    "optimal_parameters",
    "ResourceSummary",
    "SummaryConfig",
]
