"""Experiment configuration and scaling presets."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..sim.metrics import finite_positive


#: each count field's least legal value
_LEAST = {
    "num_nodes": 2, "records_per_node": 1, "query_dimensions": 1,
    "num_queries": 1, "runs": 1, "max_children": 1, "histogram_buckets": 1,
}


@dataclass(frozen=True)
class ExperimentSettings:
    """Shared knobs for the evaluation experiments.

    ``paper()`` reproduces Section V's defaults (320 nodes, 500 records
    per node, 500 six-dimensional queries, averaged over 10 runs);
    the scaled-down presets behind ``--scale`` are
    :func:`repro.bench.scale_settings`'s.
    """

    num_nodes: int = 320
    records_per_node: int = 500
    query_dimensions: int = 6
    num_queries: int = 500
    runs: int = 10
    max_children: int = 8
    histogram_buckets: int = 1000
    query_range_length: float = 0.25
    #: observation window for update-overhead accounting, seconds.
    #: Summaries refresh every t_s=60s, records every t_r=6s (t_r/t_s=0.1),
    #: so one window holds 10 summary epochs and 100 record epochs.
    update_window_seconds: float = 600.0
    summary_interval: float = 60.0
    record_interval: float = 6.0
    seed: int = 1

    def __post_init__(self) -> None:
        # Every field is a trial memo key: a bad one fails here, by name.
        seed, length = self.seed, self.query_range_length
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"seed must be an int >= 0, got {seed!r}")
        for name, least in _LEAST.items():
            value = getattr(self, name)
            if not value >= least:
                raise ValueError(f"{name} must be >= {least}, got {value!r}")
        if not 0.0 < length <= 1.0:
            raise ValueError(f"query_range_length must be in (0, 1], got {length!r}")
        for name in ("update_window_seconds", "summary_interval", "record_interval"):
            finite_positive(name, getattr(self, name))

    @staticmethod
    def paper() -> "ExperimentSettings":
        return ExperimentSettings()

    @staticmethod
    def smoke() -> "ExperimentSettings":
        """Tiny preset for unit tests."""
        return ExperimentSettings(
            num_nodes=48,
            records_per_node=60,
            num_queries=25,
            runs=1,
        )

    def with_(self, **kwargs) -> "ExperimentSettings":
        return replace(self, **kwargs)


#: the paper's node-count sweep for Figures 3-5
NODE_SWEEP = tuple(range(64, 641, 64))
#: Figure 6/7 dimensionality sweep
DIMENSION_SWEEP = tuple(range(2, 9))
#: Figure 8 records-per-node sweep
RECORDS_SWEEP = (50, 100, 150, 200, 250, 300, 350, 400, 450, 500)
#: Figure 9 overlap-factor sweep
OVERLAP_SWEEP = tuple(range(1, 13))
#: Figure 10 node-degree sweep
DEGREE_SWEEP = tuple(range(4, 13))
#: Figure 11 selectivity groups (fractions)
SELECTIVITY_SWEEP = (0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03)
