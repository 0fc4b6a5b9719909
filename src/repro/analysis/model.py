"""Closed-form overhead model (Section IV).

Implements equations (1)–(4) and the Table I storage comparison. The
model speaks the paper's units: attribute values have size 1, so a record
costs ``r`` units and a histogram summary ``m·r`` units; overheads are
units per second.

Notation (Section IV-A):

=========  ====================================================
``N``      resource owners
``K``      records per owner
``r``      numeric attributes per record
``m``      histogram buckets per attribute
``q``      query dimensions
``alpha``  per-dimension query range length
``n``      servers
``k``      children per server (node degree)
``L``      hierarchy depth (levels = L + 1)
``t_r``    record update period (seconds)
``t_s``    summary update period (seconds)
=========  ====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class ModelParams:
    """Parameter set for the analytical model.

    Defaults are the paper's running example: r=25 attributes, m=100
    buckets, k=5 children, L=4 levels (156 servers), t_r/t_s = 0.1,
    N=1000 owners with K=10^4 records for the storage comparison.
    """

    N: int = 1000
    K: int = 10_000
    r: int = 25
    m: int = 100
    n: int = 156
    k: int = 5
    L: int = 4
    t_r: float = 6.0
    t_s: float = 60.0

    def __post_init__(self) -> None:
        for name in ("N", "K", "r", "m", "n", "k", "L"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.t_r <= 0 or self.t_s <= 0:
            raise ValueError("update periods must be positive")

    @property
    def log_n(self) -> float:
        return math.log2(self.n) if self.n > 1 else 1.0

    @property
    def summary_size(self) -> int:
        """One summary costs ``m·r`` units, independent of K and N."""
        return self.m * self.r


# -- update overhead, units per second (equations 1-3) ---------------------------

def roads_update_overhead(p: ModelParams) -> float:
    """Equation (1): ``r·m·(N + k·n·log n) / t_s``.

    Summary exports from N owners, n-1 bottom-up aggregation messages,
    and O(k·n·log n) top-down replication messages, each of size r·m,
    every t_s seconds.
    """
    return p.summary_size * (p.N + p.k * p.n * p.log_n) / p.t_s


def sword_update_overhead(p: ModelParams) -> float:
    """Equation (2): ``r²·K·N·log n / t_r``.

    Each of the K·N records is replicated in r rings over O(log n) hops,
    each copy of size r, every t_r seconds.
    """
    return (p.r ** 2) * p.K * p.N * p.log_n / p.t_r


def central_update_overhead(p: ModelParams) -> float:
    """Equation (3): ``r·K·N / t_r`` — direct record export."""
    return p.r * p.K * p.N / p.t_r


# -- summary maintenance overhead (equation 4) -----------------------------------

def roads_maintenance_per_node(p: ModelParams, level: int) -> float:
    """Per-node replication message count at hierarchy *level*: O(k²·i).

    A level-i node forwards its k children's summaries to each of them
    (k² messages' worth) for every level above it contributing replicated
    state.
    """
    if not (0 <= level <= p.L):
        raise ValueError(f"level must be in [0, {p.L}]")
    return (p.k ** 2) * level


def roads_maintenance_overhead(p: ModelParams) -> float:
    """Equation (4): worst-case per-node maintenance ``O(k²·log n)/t_s``."""
    return (p.k ** 2) * p.log_n / p.t_s


# -- storage overhead (Table I) --------------------------------------------------

def roads_storage(p: ModelParams, level: int = None) -> float:
    """Table I, ROADS: ``r·m·k·(i+1)`` units at a level-i node.

    A level-i node holds k child summaries plus k·i replicated summaries
    from its ancestors and their siblings. Worst case is a leaf
    (``i = L``), which is the table's exemplary value.
    """
    i = p.L if level is None else level
    return p.summary_size * p.k * (i + 1)


def sword_storage(p: ModelParams) -> float:
    """Table I, SWORD: ``r²·K·N / n`` units per server.

    All K·N records are stored once per ring (r rings); spread over the
    n servers that is r·K·N/n records of size r each.
    """
    return (p.r ** 2) * p.K * p.N / p.n


def central_storage(p: ModelParams) -> float:
    """Table I, central: ``r·K·N`` units at the repository."""
    return p.r * p.K * p.N


def table1(p: ModelParams = ModelParams()) -> Dict[str, float]:
    """The Table I row for parameter set *p*."""
    return {
        "ROADS": roads_storage(p),
        "SWORD": sword_storage(p),
        "Central": central_storage(p),
    }


def update_overheads(p: ModelParams = ModelParams()) -> Dict[str, float]:
    """Equations (1)-(3) for parameter set *p*, units per second."""
    return {
        "ROADS": roads_update_overhead(p),
        "SWORD": sword_update_overhead(p),
        "Central": central_update_overhead(p),
    }


#: the paper's printed Table I exemplary values. Note they do not follow
#: exactly from the printed formulas under the stated parameters (e.g.
#: r·K·N = 2.5e8, not 1e9); EXPERIMENTS.md reports both.
PAPER_TABLE1_VALUES = {
    "ROADS": 2e5,
    "SWORD": 6.4e8,
    "Central": 1e9,
}
