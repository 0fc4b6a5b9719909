"""Table I: storage overhead comparison, analytical and measured.

The analytical side evaluates the paper's formulas (``repro.analysis``).
The measured side builds real (smaller) systems over one workload and
reports the bytes each design actually stores per server, demonstrating
the same ordering: ROADS orders of magnitude below SWORD and the central
repository, and independent of the record count.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.model import (
    PAPER_TABLE1_VALUES,
    ModelParams,
    table1 as analytical_table1,
    update_overheads,
)
from .config import ExperimentSettings
from .runner import (
    build_central,
    build_roads,
    build_sword,
    build_workload,
)


def analytical_rows(params: ModelParams = ModelParams()) -> List[Dict]:
    """Formula values next to the paper's printed exemplary values."""
    ours = analytical_table1(params)
    return [
        {
            "design": design,
            "formula_units": ours[design],
            "paper_exemplary_units": PAPER_TABLE1_VALUES[design],
        }
        for design in ("ROADS", "SWORD", "Central")
    ]


def analytical_update_rows(params: ModelParams = ModelParams()) -> List[Dict]:
    """Equations (1)-(3) in units/second for the example parameters."""
    ours = update_overheads(params)
    return [
        {"design": d, "update_units_per_second": v} for d, v in ours.items()
    ]


def measured_rows(settings: ExperimentSettings) -> List[Dict]:
    """Per-server storage measured from real system builds."""
    seed = settings.seed
    _, stores = build_workload(settings, seed)
    roads = build_roads(settings, stores, seed)
    sword = build_sword(settings, stores, seed)
    central = build_central(settings, stores, seed)

    roads_storage = roads.storage_bytes_by_server()
    sword_storage = sword.storage_bytes_by_server()
    return [
        {
            "design": "ROADS",
            "mean_bytes_per_server": sum(roads_storage.values()) / len(roads_storage),
            "max_bytes_per_server": max(roads_storage.values()),
        },
        {
            "design": "SWORD",
            "mean_bytes_per_server": sum(sword_storage.values()) / len(sword_storage),
            "max_bytes_per_server": max(sword_storage.values()),
        },
        {
            "design": "Central",
            "mean_bytes_per_server": float(central.storage_bytes()),
            "max_bytes_per_server": central.storage_bytes(),
        },
    ]
