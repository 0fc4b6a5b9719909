"""Dynamic resource records.

Section II: resources are dynamic — capacities, loads, and rates change
continuously, which is why ROADS keeps summaries as TTL'd soft state and
why the analysis distinguishes the record update period ``t_r`` from the
summary period ``t_s``. This module drives that dynamism: every ``t_r``
a fraction of each owner's records takes a bounded random-walk step on
selected numeric attributes.

Steps are small relative to a histogram bucket by default, so most
epochs leave summaries unchanged — exactly the regime in which delta
propagation (``RoadsConfig.delta_updates``) pays off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..records.store import RecordStore
from ..sim.engine import PeriodicTask, Simulator


@dataclass(frozen=True)
class DynamicsConfig:
    """Random-walk parameters for dynamic records.

    ``change_fraction`` of each store's records move per epoch; each
    moving record's selected attributes step by N(0, ``step_sigma``),
    clipped to the attribute bounds.
    """

    record_interval: float = 6.0  # the paper's t_r
    change_fraction: float = 0.2
    step_sigma: float = 0.01
    attributes: Optional[Sequence[str]] = None  # default: all numeric

    def __post_init__(self) -> None:
        if not self.record_interval > 0:
            raise ValueError("record_interval must be positive")
        if not (0.0 < self.change_fraction <= 1.0):
            raise ValueError("change_fraction must be in (0, 1]")
        if not self.step_sigma > 0:
            raise ValueError("step_sigma must be positive")


class RecordDynamics:
    """Periodic random-walk mutation of a federation's record stores."""

    def __init__(
        self,
        sim: Simulator,
        stores: Sequence[RecordStore],
        rng: np.random.Generator,
        config: DynamicsConfig = DynamicsConfig(),
    ):
        self.sim = sim
        self.stores = list(stores)
        self.rng = rng
        self.config = config
        self.epochs = 0
        self.records_changed = 0
        self._plans: dict = {}
        self._task: PeriodicTask = sim.schedule_periodic(
            config.record_interval, self.step, label="workload.churn"
        )

    def stop(self) -> None:
        """Freeze the drift: the stores move only when :meth:`step` is
        called by hand."""
        self._task.stop()

    pause = stop

    # -- mutation ----------------------------------------------------------------
    def step(self) -> int:
        """One t_r epoch: perturb records in every store; returns the
        number of records changed."""
        changed = 0
        for store in self.stores:
            changed += self._perturb(store)
        self.epochs += 1
        self.records_changed += changed
        return changed

    def _plan(self, schema):
        """``(schema, columns, lo, hi, sigma)`` of the walking attributes:
        numeric-partition positions (all of them as one slice), bounds
        and step deviations, compiled once per schema (keyed by its id)."""
        plan = self._plans.get(id(schema))
        if plan is None or plan[0] is not schema:
            columns = slice(None)
            if self.config.attributes is not None:
                columns = [schema.numeric_position(a) for a in self.config.attributes]
            lo, hi = schema.numeric_bounds[:, columns]
            sigma = (self.config.step_sigma * (hi - lo))[:, None]
            plan = self._plans[id(schema)] = (schema, columns, lo, hi, sigma)
        return plan

    def _perturb(self, store: RecordStore) -> int:
        n = len(store)
        if n == 0:
            return 0
        _, columns, lo, hi, sigma = self._plan(store.schema)
        k = max(1, int(round(n * self.config.change_fraction)))
        rows = self.rng.choice(n, size=k, replace=False)
        # Row j of the draw is the k steps of attribute j, in the order
        # one normal(0, sigma_j, k) call per attribute would draw them;
        # normal() computes 0.0 + sigma * z, so these are its bits.
        steps = self.rng.standard_normal((len(sigma), k))
        steps *= sigma
        block = store.numeric_matrix[rows]
        walked = block[:, columns]  # a view of block when all columns walk
        walked += steps.T
        np.maximum(walked, lo, out=walked)
        np.minimum(walked, hi, out=walked)
        if isinstance(columns, list):
            block[:, columns] = walked
        store.write_rows(rows, block)
        return k
