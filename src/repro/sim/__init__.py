"""Discrete-event simulation substrate: scheduler, traffic categories, RNG streams."""

from .engine import Event, PeriodicTask, SimulationError, Simulator
from .metrics import CATEGORIES, MAINTENANCE, QUERY, RESULT, UPDATE
from .rng import SeedSequenceFactory

__all__ = [
    "Simulator",
    "Event",
    "PeriodicTask",
    "SimulationError",
    "SeedSequenceFactory",
    "UPDATE",
    "QUERY",
    "MAINTENANCE",
    "RESULT",
    "CATEGORIES",
]
