"""Experiment drivers reproducing the paper's evaluation section."""

from .config import (
    DEGREE_SWEEP,
    DIMENSION_SWEEP,
    NODE_SWEEP,
    OVERLAP_SWEEP,
    RECORDS_SWEEP,
    SELECTIVITY_SWEEP,
    ExperimentSettings,
)
from .figures import (
    fig3_latency_vs_nodes,
    fig4_update_overhead_vs_nodes,
    fig5_query_overhead_vs_nodes,
    fig6_latency_vs_dimensions,
    fig7_query_overhead_vs_dimensions,
    fig8_update_overhead_vs_records,
    fig9_latency_vs_overlap,
    fig10_latency_vs_degree,
    fig11_response_time_vs_selectivity,
)
from .charts import ascii_chart
from .export import save_rows_csv, save_rows_json
from .report import format_table, print_table
from .suite import available_targets, run_suite
from .runner import (
    TrialMeasurement,
    TrialResult,
    average_trials,
    build_central,
    build_roads,
    build_sword,
    build_workload,
    drive_queries,
    measure_system,
    run_trial,
    trial_queries,
)
from .staleness import (
    LOSS_SWEEP,
    update_plane_staleness_rows,
    validate_update_plane,
)
from .table1 import analytical_rows, analytical_update_rows, measured_rows

__all__ = [
    "ExperimentSettings",
    "NODE_SWEEP",
    "DIMENSION_SWEEP",
    "RECORDS_SWEEP",
    "OVERLAP_SWEEP",
    "DEGREE_SWEEP",
    "SELECTIVITY_SWEEP",
    "fig3_latency_vs_nodes",
    "fig4_update_overhead_vs_nodes",
    "fig5_query_overhead_vs_nodes",
    "fig6_latency_vs_dimensions",
    "fig7_query_overhead_vs_dimensions",
    "fig8_update_overhead_vs_records",
    "fig9_latency_vs_overlap",
    "fig10_latency_vs_degree",
    "fig11_response_time_vs_selectivity",
    "analytical_rows",
    "analytical_update_rows",
    "measured_rows",
    "format_table",
    "ascii_chart",
    "save_rows_csv",
    "save_rows_json",
    "print_table",
    "run_suite",
    "available_targets",
    "LOSS_SWEEP",
    "update_plane_staleness_rows",
    "validate_update_plane",
    "TrialMeasurement",
    "TrialResult",
    "run_trial",
    "drive_queries",
    "average_trials",
    "build_workload",
    "build_roads",
    "build_sword",
    "build_central",
    "trial_queries",
    "measure_system",
]
