"""Query selectivity measurement and calibration.

The prototype benchmark (Figure 11) groups queries by *selectivity* — the
percentage of records that match. This module measures selectivity against
a reference store and calibrates query range widths to hit a target
selectivity, via monotone bisection on a shared scale factor applied to
every range predicate.

Calibration reads the store once per query. A record inside its
attributes' bounds is in the clipped range ``c ± h·s`` exactly when
``s >= t = maxₚ |v - cₚ| / hₚ`` (∞ outside the bounds or failing an
equality predicate), so a probe counts thresholds instead of scanning.
Only a record whose ``t`` lies within :data:`TIE_WINDOW` of the probed
scale, where float rounding could decide, goes to the scaled query.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..records.store import RecordStore
from .predicate import RangePredicate
from .query import Query


def selectivity(query: Query, store: RecordStore) -> float:
    """Fraction of records in *store* matching *query* (0..1)."""
    if len(store) == 0:
        return 0.0
    return query.match_count(store) / len(store)


#: Width, relative to ``s + maxₚ |cₚ|/hₚ``, of the window around a probed
#: scale ``s`` inside which a threshold is too close to call by arithmetic:
#: the scaled range ``c ± h·s`` is off by a few ulps of ``|c| + h·s``, and
#: the threshold by a few ulps of ``s``, i.e. by ~1e-16 of that sum.
TIE_WINDOW = 1e-12


def _scaled(query: Query, scale: float, bounds: dict) -> Query:
    """Scale every range predicate's width by *scale* around its center."""
    preds = []
    for p in query.predicates:
        if isinstance(p, RangePredicate):
            lo_b, hi_b = bounds[p.attribute]
            center = (p.lo + p.hi) / 2.0
            half = (p.hi - p.lo) / 2.0 * scale
            p = RangePredicate(
                p.attribute, max(lo_b, center - half), min(hi_b, center + half)
            )
        preds.append(p)
    return Query(tuple(preds), requester=query.requester)


def _prober(
    query: Query, store: RecordStore, bounds: dict
) -> Callable[[float], Tuple[Query, float]]:
    """``at(scale)``: *query* scaled by *scale* and its selectivity on
    *store*, from one pass over the store made here."""
    ranges = query.range_predicates()
    center = np.array([(p.lo + p.hi) / 2.0 for p in ranges])
    half = np.array([(p.hi - p.lo) / 2.0 for p in ranges])
    if np.all(half > 0):
        block = store.numeric_matrix[
            :, [store.schema.numeric_position(p.attribute) for p in ranges]
        ]
        lo_b, hi_b = np.array([bounds[p.attribute] for p in ranges]).T
        outside = (block < lo_b) | (block > hi_b)
        block -= center
        np.abs(block, out=block)
        with np.errstate(over="ignore"):  # ∞: matches at no finite scale
            block /= half
            slack = float(np.max(np.abs(center) / half))
        block[outside] = np.inf
        t = block.max(axis=1)  # the thresholds
        for p in query.predicates:
            if not isinstance(p, RangePredicate):
                t[~p.mask(store)] = np.inf
    else:  # a zero-width range: the scaled query decides every record
        t, slack = np.zeros(len(store)), np.inf

    def at(scale: float) -> Tuple[Query, float]:
        q = _scaled(query, scale, bounds)
        window = TIE_WINDOW * (scale + slack)
        near = np.abs(t - scale) <= window
        count = np.count_nonzero(t < scale - window)
        count += q.match_count(store.select(near))
        return q, count / len(store) if len(store) else 0.0

    return at


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
    converges; *tolerance* is relative. Each scale is probed once.
    """
    if not (0.0 < target <= 1.0):
        raise ValueError(f"target selectivity must be in (0, 1], got {target}")
    if not query.range_predicates():
        s = selectivity(query, store)
        return query if abs(s - target) <= tolerance * target else None

    bounds = {
        spec.name: spec.bounds for spec in store.schema.numeric_attributes
    }
    at = _prober(query, store, bounds)
    lo_scale, hi_scale = 0.0, 1.0
    q, s = at(hi_scale)
    # Grow the upper scale until it overshoots the target (ranges are
    # clipped to attribute bounds so this terminates). The last scale
    # grown past is the bisection's first midpoint.
    below = None
    for _ in range(20):
        if s >= target:
            break
        below = q, s
        hi_scale *= 2.0
        q, s = at(hi_scale)
        if s == below[1] and hi_scale > 64:
            break  # fully clipped; cannot grow further
    else:
        return None

    best: Optional[Query] = None
    best_err = np.inf
    for _ in range(max_iterations):
        mid = (lo_scale + hi_scale) / 2.0
        q, s = below if below is not None else at(mid)
        below = None
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
