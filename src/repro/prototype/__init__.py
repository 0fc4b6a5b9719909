"""Prototype benchmarking substrate (Figure 11's testbed, simulated)."""

from .backend import BackendCostModel
from .response import (
    CentralResponder,
    ResponseOutcome,
    RoadsResponder,
    SwordResponder,
    summarize_responses,
)

__all__ = [
    "BackendCostModel",
    "RoadsResponder",
    "CentralResponder",
    "SwordResponder",
    "ResponseOutcome",
    "summarize_responses",
]
