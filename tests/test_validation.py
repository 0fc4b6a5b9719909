"""Tests for the shape validators (repro.experiments.validation)."""

import pytest

from repro.experiments.validation import (
    check_crossover,
    check_dominates,
    check_growth_order,
    check_monotone,
    check_ratio_band,
    crossover_position,
    validate_fig3,
    validate_fig4,
    validate_fig5,
    validate_fig6,
    validate_fig7,
    validate_fig8,
    validate_fig9,
    validate_fig10,
    validate_fig11,
    validate_table1,
)

# Row sets shaped like our measured quick-scale results.
FIG3 = [
    {"nodes": 64, "roads_latency_ms": 222, "sword_latency_ms": 476},
    {"nodes": 192, "roads_latency_ms": 527, "sword_latency_ms": 777},
    {"nodes": 320, "roads_latency_ms": 558, "sword_latency_ms": 1079},
]
FIG4 = [
    {"nodes": 64, "roads_update_bytes": 6.8e8, "sword_update_bytes": 2.2e10},
    {"nodes": 320, "roads_update_bytes": 4.6e9, "sword_update_bytes": 1.5e11},
]
FIG5 = [
    {"nodes": 64, "roads_query_bytes": 1317, "sword_query_bytes": 664},
    {"nodes": 320, "roads_query_bytes": 7855, "sword_query_bytes": 1424},
]
FIG8 = [
    {"records_per_node": 50, "roads_update_bytes": 2.5e9, "sword_update_bytes": 8.1e9},
    {"records_per_node": 500, "roads_update_bytes": 2.5e9, "sword_update_bytes": 8.1e10},
]
FIG11 = [
    {"selectivity_pct": 0.01, "roads_mean_ms": 720, "central_mean_ms": 238},
    {"selectivity_pct": 1.0, "roads_mean_ms": 790, "central_mean_ms": 488},
    {"selectivity_pct": 3.0, "roads_mean_ms": 778, "central_mean_ms": 1038},
]
# Quick scale, seed 1: EXPERIMENTS.md's tables.
TABLE1 = [
    {"design": "ROADS", "formula_units": 62500},
    {"design": "SWORD", "formula_units": 4.01e7},
    {"design": "Central", "formula_units": 2.5e8},
    {"design": "ROADS", "mean_bytes_per_server": 1.19e6},
    {"design": "SWORD", "mean_bytes_per_server": 1.84e6},
    {"design": "Central", "mean_bytes_per_server": 1.11e7},
]
FIG6 = [
    {"dimensions": 2, "roads_latency_ms": 669, "sword_latency_ms": 1091},
    {"dimensions": 4, "roads_latency_ms": 556, "sword_latency_ms": 1109},
    {"dimensions": 6, "roads_latency_ms": 558, "sword_latency_ms": 1079},
    {"dimensions": 8, "roads_latency_ms": 364, "sword_latency_ms": 1096},
]
FIG7 = [
    {"dimensions": 2, "roads_query_bytes": 25448, "sword_query_bytes": 577},
    {"dimensions": 4, "roads_query_bytes": 6508, "sword_query_bytes": 1006},
    {"dimensions": 6, "roads_query_bytes": 7855, "sword_query_bytes": 1424},
    {"dimensions": 8, "roads_query_bytes": 3538, "sword_query_bytes": 1862},
]
FIG9 = [
    {"overlap_factor": 1, "roads_latency_ms": 247, "roads_query_bytes": 1409},
    {"overlap_factor": 4, "roads_latency_ms": 267, "roads_query_bytes": 1501},
    {"overlap_factor": 8, "roads_latency_ms": 277, "roads_query_bytes": 1590},
    {"overlap_factor": 12, "roads_latency_ms": 308, "roads_query_bytes": 1716},
]
FIG10 = [
    {"degree": 4, "roads_latency_ms": 768, "levels": 5},
    {"degree": 8, "roads_latency_ms": 558, "levels": 4},
    {"degree": 12, "roads_latency_ms": 525, "levels": 4},
]


class TestPrimitives:
    def test_dominates_pass_and_fail(self):
        assert check_dominates(FIG3, "roads_latency_ms", "sword_latency_ms") == []
        assert check_dominates(FIG3, "sword_latency_ms", "roads_latency_ms")

    def test_dominates_min_factor(self):
        assert check_dominates(
            FIG4, "roads_update_bytes", "sword_update_bytes", min_factor=10
        ) == []
        assert check_dominates(
            FIG4, "roads_update_bytes", "sword_update_bytes", min_factor=100
        )

    def test_growth_orders(self):
        assert check_growth_order(
            FIG3, "nodes", "sword_latency_ms", order="linear"
        ) == []
        assert check_growth_order(
            FIG3, "nodes", "roads_latency_ms", order="sublinear"
        ) == []
        assert check_growth_order(
            FIG8, "records_per_node", "roads_update_bytes", order="constant"
        ) == []
        # linear claim fails for a constant series
        assert check_growth_order(
            FIG8, "records_per_node", "roads_update_bytes", order="linear"
        )

    def test_growth_unknown_order(self):
        with pytest.raises(ValueError):
            check_growth_order(FIG3, "nodes", "roads_latency_ms", order="wat")

    def test_growth_single_point(self):
        assert check_growth_order(
            FIG3[:1], "nodes", "roads_latency_ms", order="linear"
        )

    def test_monotone(self):
        assert check_monotone(
            FIG11, "central_mean_ms", direction="increasing"
        ) == []
        assert check_monotone(
            FIG11, "central_mean_ms", direction="decreasing"
        )
        with pytest.raises(ValueError):
            check_monotone(FIG11, "central_mean_ms", direction="sideways")

    def test_crossover(self):
        assert check_crossover(
            FIG11, "selectivity_pct", "roads_mean_ms", "central_mean_ms"
        ) == []
        assert crossover_position(
            FIG11, "selectivity_pct", "roads_mean_ms", "central_mean_ms"
        ) == 3.0

    def test_crossover_never(self):
        rows = [
            {"x": 1, "a": 10, "b": 1},
            {"x": 2, "a": 10, "b": 2},
        ]
        assert check_crossover(rows, "x", "a", "b")
        assert crossover_position(rows, "x", "a", "b") is None

    def test_ratio_band(self):
        assert check_ratio_band(
            FIG5, "roads_query_bytes", "sword_query_bytes", 1.0, 8.0
        ) == []
        assert check_ratio_band(
            FIG5, "roads_query_bytes", "sword_query_bytes", 6.0, 8.0
        )


class TestFigureValidators:
    def test_all_pass_on_measured_shapes(self):
        assert validate_fig3(FIG3) == []
        assert validate_fig4(FIG4) == []
        assert validate_fig5(FIG5) == []
        assert validate_fig8(FIG8) == []
        assert validate_fig11(FIG11) == []

    def test_fig3_catches_inverted_winner(self):
        bad = [
            dict(r, roads_latency_ms=r["sword_latency_ms"] * 2) for r in FIG3
        ]
        assert validate_fig3(bad)

    def test_fig11_catches_missing_crossover(self):
        bad = [dict(r, roads_mean_ms=5000) for r in FIG11]
        assert validate_fig11(bad)

    def test_live_fig10_rows_validate(self):
        """End-to-end: a real (tiny) driver run satisfies its validator
        primitives."""
        from repro.experiments import ExperimentSettings, fig10_latency_vs_degree

        rows = fig10_latency_vs_degree(
            ExperimentSettings.smoke().with_(num_queries=10),
            degree_sweep=(3, 12),
        )
        assert check_monotone(
            rows, "roads_latency_ms", direction="decreasing"
        ) == []


def _swapped(rows, a, b):
    return [dict(r, **{a: r[b], b: r[a]}) for r in rows]


class TestMutations:
    """Each validator fails on the two cheapest wrong answers: the
    ROADS and SWORD (or central) columns swapped, and the sweep run
    backwards. Figures 9 and 10 have no second design, Table I no
    sweep, and Figure 5 claims no direction along its sweep."""

    SWEEPS = [
        (validate_fig3, FIG3), (validate_fig4, FIG4), (validate_fig6, FIG6),
        (validate_fig7, FIG7), (validate_fig8, FIG8), (validate_fig9, FIG9),
        (validate_fig10, FIG10), (validate_fig11, FIG11),
    ]
    PAIRS = [
        (validate_fig3, FIG3, "roads_latency_ms", "sword_latency_ms"),
        (validate_fig4, FIG4, "roads_update_bytes", "sword_update_bytes"),
        (validate_fig5, FIG5, "roads_query_bytes", "sword_query_bytes"),
        (validate_fig6, FIG6, "roads_latency_ms", "sword_latency_ms"),
        (validate_fig7, FIG7, "roads_query_bytes", "sword_query_bytes"),
        (validate_fig8, FIG8, "roads_update_bytes", "sword_update_bytes"),
        (validate_fig11, FIG11, "roads_mean_ms", "central_mean_ms"),
    ]

    @pytest.mark.parametrize(
        "validator, rows", SWEEPS, ids=[c[0].__name__ for c in SWEEPS]
    )
    def test_reversed_sweep_fails(self, validator, rows):
        assert validator(rows) == []
        assert validator(rows[::-1])

    @pytest.mark.parametrize(
        "validator, rows, a, b", PAIRS, ids=[c[0].__name__ for c in PAIRS]
    )
    def test_swapped_columns_fail(self, validator, rows, a, b):
        assert validator(rows) == []
        assert validator(_swapped(rows, a, b))

    def test_table1_swapped_designs_fail(self):
        assert validate_table1(TABLE1) == []
        swap = {"ROADS": "SWORD", "SWORD": "ROADS", "Central": "Central"}
        assert validate_table1(
            [dict(r, design=swap[r["design"]]) for r in TABLE1]
        )
        assert validate_table1(TABLE1[:3]) == ["Table I rows missing a design"]
