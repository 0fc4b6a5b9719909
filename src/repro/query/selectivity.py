"""Query selectivity measurement and calibration.

The prototype benchmark (Figure 11) groups queries by *selectivity* — the
percentage of records that match. This module measures selectivity against
a reference store and calibrates query range widths to hit a target
selectivity, via monotone bisection on a shared scale factor applied to
every range predicate.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..records.store import RecordStore
from .predicate import EqualsPredicate, RangePredicate
from .query import Query


def selectivity(query: Query, store: RecordStore) -> float:
    """Fraction of records in *store* matching *query* (0..1)."""
    if len(store) == 0:
        return 0.0
    return query.match_count(store) / len(store)


def _scaled(query: Query, scale: float, bounds: dict) -> Query:
    """Scale every range predicate's width by *scale* around its center."""
    preds = []
    for p in query.predicates:
        if isinstance(p, RangePredicate):
            lo_b, hi_b = bounds[p.attribute]
            center = (p.lo + p.hi) / 2.0
            half = (p.hi - p.lo) / 2.0 * scale
            preds.append(
                RangePredicate(
                    p.attribute,
                    max(lo_b, center - half),
                    min(hi_b, center + half),
                )
            )
        else:
            preds.append(p)
    return Query(tuple(preds), requester=query.requester)


def calibrate_to_selectivity(
    query: Query,
    store: RecordStore,
    target: float,
    *,
    tolerance: float = 0.25,
    max_iterations: int = 48,
) -> Optional[Query]:
    """Rescale *query*'s ranges so its selectivity on *store* nears *target*.

    Returns the calibrated query, or ``None`` when the target cannot be
    reached within ``(1 ± tolerance) * target`` — e.g. the categorical
    predicates alone already select fewer records than the target.

    Selectivity is monotone in the shared width scale, so bisection
    converges; *tolerance* is relative.
    """
    if not (0.0 < target <= 1.0):
        raise ValueError(f"target selectivity must be in (0, 1], got {target}")
    if not query.range_predicates():
        s = selectivity(query, store)
        return query if abs(s - target) <= tolerance * target else None

    bounds = {
        spec.name: spec.bounds for spec in store.schema.numeric_attributes
    }
    # Each scale is scanned once, though the two loops revisit some.
    memo: Dict[float, Tuple[Query, float]] = {}

    def at(scale: float) -> Tuple[Query, float]:
        if scale not in memo:
            q = _scaled(query, scale, bounds)
            memo[scale] = (q, selectivity(q, store))
        return memo[scale]

    lo_scale, hi_scale = 0.0, 1.0
    # Grow the upper scale until it overshoots the target (ranges are
    # clipped to attribute bounds so this terminates).
    for _ in range(20):
        if at(hi_scale)[1] >= target:
            break
        prev = hi_scale
        hi_scale *= 2.0
        if at(hi_scale)[1] == at(prev)[1] and hi_scale > 64:
            break  # fully clipped; cannot grow further
    else:
        return None

    best: Optional[Query] = None
    best_err = np.inf
    for _ in range(max_iterations):
        mid = (lo_scale + hi_scale) / 2.0
        q, s = at(mid)
        err = abs(s - target)
        if err < best_err:
            best, best_err = q, err
        if s < target:
            lo_scale = mid
        else:
            hi_scale = mid
        if err <= tolerance * target:
            return q
    if best is not None and best_err <= tolerance * target:
        return best
    return None
