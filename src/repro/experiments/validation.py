"""Reusable shape validators for reproduction criteria.

EXPERIMENTS.md states each figure's acceptance criteria in prose ("ROADS
grows logarithmically, SWORD linearly, ROADS 40-60% lower"); this module
states them as code. The validators return a list of human-readable
failure strings (empty = all criteria met). Each one is registered on
its ``bench.SCENARIOS`` entry, so every ``run_scenario`` artifact carries
its verdict, ``repro bench run`` exits 1 on a violation and ``bench
compare`` re-checks it. DESIGN.md §3's experiment index states each
validator's bands and the seeds and scales they were checked on.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

Rows = Sequence[Dict]


def _series(rows: Rows, column: str) -> np.ndarray:
    return np.array([float(r[column]) for r in rows])


def _unmet(*checks) -> List[str]:
    """The message of every ``(holds, message)`` pair that does not hold."""
    return [message for holds, message in checks if not holds]


def check_dominates(
    rows: Rows, winner: str, loser: str, *, min_factor: float = 1.0
) -> List[str]:
    """*winner* column strictly below *loser* at every point, by at least
    *min_factor* on average."""
    failures = []
    w, l = _series(rows, winner), _series(rows, loser)
    if not (w < l).all():
        failures.append(f"{winner} not below {loser} at every point")
    if np.mean(l / np.maximum(w, 1e-12)) < min_factor:
        failures.append(
            f"mean {loser}/{winner} factor below {min_factor}"
        )
    return failures


def check_growth_order(
    rows: Rows,
    x: str,
    y: str,
    *,
    order: str,
    linear_fraction: float = 0.4,
    sublinear_fraction: float = 0.6,
) -> List[str]:
    """Check a series grows ~linearly, sub-linearly, or stays constant.

    ``order`` is one of ``"linear"``, ``"sublinear"``, ``"constant"``.
    Linear: end/start growth at least ``linear_fraction`` of the x ratio.
    Sublinear: growth at most ``sublinear_fraction`` of the x ratio.
    Constant: within 10% across the sweep.
    """
    xs, ys = _series(rows, x), _series(rows, y)
    if len(xs) < 2:
        return [f"need at least two points to judge growth of {y}"]
    x_ratio = xs[-1] / xs[0]
    y_ratio = ys[-1] / max(ys[0], 1e-12)
    if order == "linear":
        if y_ratio < linear_fraction * x_ratio:
            return [
                f"{y} grew {y_ratio:.2f}x over a {x_ratio:.2f}x sweep; "
                "expected ~linear"
            ]
    elif order == "sublinear":
        if y_ratio > sublinear_fraction * x_ratio:
            return [
                f"{y} grew {y_ratio:.2f}x over a {x_ratio:.2f}x sweep; "
                "expected sublinear"
            ]
    elif order == "constant":
        if ys.max() / max(ys.min(), 1e-12) > 1.1:
            return [f"{y} varies more than 10% across the sweep"]
    else:
        raise ValueError(f"unknown growth order {order!r}")
    return []


def check_monotone(
    rows: Rows, y: str, *, direction: str, tolerance: float = 0.0
) -> List[str]:
    """Series rises or falls across the sweep (endpoints, with slack)."""
    ys = _series(rows, y)
    if direction == "increasing":
        ok = ys[-1] >= ys[0] * (1 - tolerance)
    elif direction == "decreasing":
        ok = ys[-1] <= ys[0] * (1 + tolerance)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if not ok:
        return [f"{y} not {direction} across the sweep ({ys[0]:g} -> {ys[-1]:g})"]
    return []


def check_crossover(
    rows: Rows, x: str, a: str, b: str
) -> List[str]:
    """*a* starts above *b* and ends at or below it — and report where.

    Returns failures; on success the crossover position can be read with
    :func:`crossover_position`.
    """
    av, bv = _series(rows, a), _series(rows, b)
    failures = []
    if not av[0] > bv[0]:
        failures.append(f"{a} does not start above {b}")
    if not av[-1] <= bv[-1] * 1.1:
        failures.append(f"{a} never becomes comparable to {b}")
    return failures


def crossover_position(rows: Rows, x: str, a: str, b: str):
    """First x at which *a* drops to or below *b* (None if never)."""
    for r in rows:
        if float(r[a]) <= float(r[b]):
            return r[x]
    return None


def check_ratio_band(
    rows: Rows, numerator: str, denominator: str, lo: float, hi: float
) -> List[str]:
    """Per-row ratio stays within [lo, hi]."""
    n, d = _series(rows, numerator), _series(rows, denominator)
    ratios = n / np.maximum(d, 1e-12)
    failures = []
    if ratios.min() < lo:
        failures.append(
            f"{numerator}/{denominator} fell to {ratios.min():.2f} < {lo}"
        )
    if ratios.max() > hi:
        failures.append(
            f"{numerator}/{denominator} rose to {ratios.max():.2f} > {hi}"
        )
    return failures


def validate_table1(rows: Rows) -> List[str]:
    """ROADS < SWORD < central, in the formulas (SWORD over 100x ROADS)
    and in the measured per-server storage."""
    by = {
        col: {r["design"]: float(r[col]) for r in rows if col in r}
        for col in ("formula_units", "mean_bytes_per_server")
    }
    if any(not {"ROADS", "SWORD", "Central"} <= set(d) for d in by.values()):
        return ["Table I rows missing a design"]
    return [
        f"{col} ordering ROADS < SWORD < Central violated: {d}"
        for col, d in by.items() if not d["ROADS"] < d["SWORD"] < d["Central"]
    ] + _unmet((by["formula_units"]["SWORD"] > 100 * by["formula_units"]["ROADS"],
                "formula SWORD/ROADS storage below 100x"))


def validate_fig3(rows: Rows) -> List[str]:
    """ROADS below SWORD everywhere and over 30% lower on average (paper:
    40-60%); SWORD ~linear; ROADS sublinear."""
    saving = 1 - np.mean(
        _series(rows, "roads_latency_ms") / _series(rows, "sword_latency_ms")
    )
    return (
        check_dominates(rows, "roads_latency_ms", "sword_latency_ms")
        + check_growth_order(rows, "nodes", "sword_latency_ms", order="linear")
        + check_growth_order(rows, "nodes", "roads_latency_ms", order="sublinear")
        + _unmet((saving > 0.3, f"ROADS {saving:.0%} below SWORD on average; "
                  "expected over 30%"))
    )


def validate_fig4(rows: Rows) -> List[str]:
    """ROADS 1-2 orders of magnitude below SWORD; both grow with n."""
    return check_dominates(
        rows, "roads_update_bytes", "sword_update_bytes", min_factor=10.0
    ) + check_ratio_band(
        rows, "sword_update_bytes", "roads_update_bytes", 10.0, 10_000.0
    ) + [
        f"{y} does not grow with the node count"
        for y in ("roads_update_bytes", "sword_update_bytes")
        if not _series(rows, y)[-1] > _series(rows, y)[0]
    ]


def validate_fig5(rows: Rows) -> List[str]:
    """SWORD cheaper; ROADS 1.2-8x above it at every point (paper: 2-5x)."""
    return check_dominates(
        rows, "sword_query_bytes", "roads_query_bytes"
    ) + check_ratio_band(
        rows, "roads_query_bytes", "sword_query_bytes", 1.2, 8.0
    )


def validate_fig6(rows: Rows) -> List[str]:
    """ROADS latency falls over 25% from the fewest to the most queried
    dimensions (paper: ~40%); SWORD flat within 1.25x."""
    roads = _series(rows, "roads_latency_ms")
    sword = _series(rows, "sword_latency_ms")
    return _unmet(
        (roads[-1] < 0.75 * roads[0], "ROADS latency fell "
         f"{1 - roads[-1] / roads[0]:.0%} across the sweep; expected over 25%"),
        (sword.max() < 1.25 * sword.min(), "SWORD latency spans "
         f"{sword.max() / sword.min():.2f}x; expected flat within 1.25x"),
    )


def validate_fig7(rows: Rows) -> List[str]:
    """SWORD rises with every added dimension; ROADS costs most at the
    fewest and dips below 60% of that (its inner rise is not checked)."""
    roads = _series(rows, "roads_query_bytes")
    sword = _series(rows, "sword_query_bytes")
    return _unmet(
        (all(np.diff(sword) > 0), "SWORD query bytes do not rise with every "
         "added dimension"),
        (roads[0] == roads.max(), "ROADS query bytes are not largest at the "
         "fewest dimensions"),
        (roads.min() < 0.6 * roads[0], "ROADS query bytes never dip below 60% "
         "of the first point"),
    )


def validate_fig8(rows: Rows) -> List[str]:
    """ROADS constant in records; SWORD ~linear; ROADS below SWORD at
    every point, its advantage widening with the record count."""
    roads = _series(rows, "roads_update_bytes")
    sword = _series(rows, "sword_update_bytes")
    return (
        check_growth_order(
            rows, "records_per_node", "roads_update_bytes", order="constant"
        )
        + check_growth_order(
            rows, "records_per_node", "sword_update_bytes", order="linear",
            linear_fraction=0.7,
        )
        + check_dominates(rows, "roads_update_bytes", "sword_update_bytes")
        + _unmet((sword[-1] / roads[-1] > sword[0] / roads[0],
                  "ROADS advantage does not widen with the record count"))
    )


def validate_fig9(rows: Rows) -> List[str]:
    """ROADS latency and query bytes do not fall (5% slack) from the
    least to the most overlap; latency stays within 3x."""
    lat = _series(rows, "roads_latency_ms")
    return [
        failure
        for y in ("roads_latency_ms", "roads_query_bytes")
        for failure in check_monotone(
            rows, y, direction="increasing", tolerance=0.05
        )
    ] + _unmet((lat.max() < 3 * lat.min(), "ROADS latency spans "
                f"{lat.max() / lat.min():.2f}x; expected within 3x"))


def validate_fig10(rows: Rows) -> List[str]:
    """ROADS latency falls over 15% from the lowest to the highest degree
    (paper: ~35%) and the hierarchy never deepens; inner latency points
    are not checked."""
    lat = _series(rows, "roads_latency_ms")
    return _unmet(
        (lat[-1] < 0.85 * lat[0], "ROADS latency fell "
         f"{1 - lat[-1] / lat[0]:.0%} across the sweep; expected over 15%"),
        (all(np.diff(_series(rows, "levels")) <= 0),
         "hierarchy deepens as the degree grows"),
    )


def validate_fig11(rows: Rows) -> List[str]:
    """Central wins at low selectivity and more than doubles; ROADS stays
    within 2x and crosses central between 0.3% and 3%."""
    roads = _series(rows, "roads_mean_ms")
    central = _series(rows, "central_mean_ms")
    at = crossover_position(
        rows, "selectivity_pct", "roads_mean_ms", "central_mean_ms"
    )
    return (
        check_crossover(
            rows, "selectivity_pct", "roads_mean_ms", "central_mean_ms"
        )
        + check_monotone(rows, "central_mean_ms", direction="increasing")
        + _unmet(
            (central[-1] > 2 * central[0],
             "central response less than doubles across the sweep"),
            (roads.max() < 2 * roads.min(), "ROADS response spans "
             f"{roads.max() / roads.min():.2f}x; expected within 2x"),
            (at is not None and 0.3 <= float(at) <= 3.0,
             f"ROADS crosses central at {at}% selectivity; expected 0.3-3%"),
        )
    )


def validate_load_plane(rows: Rows) -> List[str]:
    """The bottleneck story: root entry saturates, overlay stays flat.

    Rows come from :func:`repro.experiments.load.offered_load_rows`,
    one per (offered rate, overlay on/off) pair.
    """
    failures: List[str] = []
    if not rows:
        return ["load_plane produced no rows"]
    no_ov = sorted(
        (r for r in rows if not r["use_overlay"]),
        key=lambda r: float(r["rate"]),
    )
    ov = sorted(
        (r for r in rows if r["use_overlay"]),
        key=lambda r: float(r["rate"]),
    )
    if len(no_ov) < 2 or len(ov) < 2:
        return ["load_plane sweep needs >= 2 rates per overlay setting"]
    # Root entry: queue depth and tail latency must grow with offered
    # load, and the top rate must push the root past its queue bound.
    lo, hi = no_ov[0], no_ov[-1]
    if float(hi["root_queue_max"]) <= float(lo["root_queue_max"]):
        failures.append(
            "no-overlay root queue depth did not grow with offered load "
            f"({float(lo['root_queue_max']):g} -> "
            f"{float(hi['root_queue_max']):g})"
        )
    if float(hi["latency_p95"]) <= float(lo["latency_p95"]):
        failures.append(
            "no-overlay p95 latency did not grow with offered load "
            f"({float(lo['latency_p95']):g} -> "
            f"{float(hi['latency_p95']):g})"
        )
    if float(hi["root_shed"]) + float(hi["shed_queries"]) <= 0:
        failures.append(
            "no-overlay top rate shed nothing: the root never saturated"
        )
    # Overlay: flat latency across the sweep, and clearly below the
    # saturated root at the top rate.
    p95s = [float(r["latency_p95"]) for r in ov]
    if max(p95s) > 3.0 * max(min(p95s), 1e-9):
        failures.append(
            "overlay p95 latency not flat across the sweep "
            f"({min(p95s):g} -> {max(p95s):g})"
        )
    if not float(ov[-1]["latency_p95"]) < float(hi["latency_p95"]):
        failures.append(
            "overlay p95 at the top rate is not below the root-entry p95"
        )
    if float(ov[-1]["root_queue_max"]) >= float(hi["root_queue_max"]):
        failures.append(
            "overlay root queue at the top rate is not below root-entry's"
        )
    return failures
