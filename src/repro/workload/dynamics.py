"""Dynamic resource records.

Section II: resources are dynamic — capacities, loads, and rates change
continuously, which is why ROADS keeps summaries as TTL'd soft state and
why the analysis distinguishes the record update period ``t_r`` from the
summary period ``t_s``. This module drives that dynamism: every ``t_r``
a fraction of each owner's records takes a bounded random-walk step on
every numeric attribute.

Steps are small relative to a histogram bucket, so most
epochs leave summaries unchanged — exactly the regime in which delta
propagation (``RoadsConfig.delta_updates``) pays off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..records.store import RecordStore
from ..sim.engine import PeriodicTask, Simulator


#: share of each store's records that move per epoch
MOVING_FRACTION = 0.2
#: a moving attribute steps by N(0, STEP_SCALE x its range)
STEP_SCALE = 0.01


@dataclass(frozen=True)
class DynamicsConfig:
    """Random-walk cadence for dynamic records.

    Every ``record_interval``, ``MOVING_FRACTION`` of each store's
    records move; each moving record's numeric attributes step by
    N(0, ``STEP_SCALE`` x range), clipped to the attribute bounds.
    """

    record_interval: float = 6.0  # the paper's t_r

    def __post_init__(self) -> None:
        if not self.record_interval > 0:
            raise ValueError("record_interval must be positive")


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
        """``(schema, lo, hi, sigma)``: the numeric bounds and step
        deviations, compiled once per schema (keyed by its id)."""
        plan = self._plans.get(id(schema))
        if plan is None or plan[0] is not schema:
            lo, hi = schema.numeric_bounds
            sigma = (STEP_SCALE * (hi - lo))[:, None]
            plan = self._plans[id(schema)] = (schema, lo, hi, sigma)
        return plan

    def _perturb(self, store: RecordStore) -> int:
        n = len(store)
        if n == 0:
            return 0
        _, lo, hi, sigma = self._plan(store.schema)
        k = max(1, int(round(n * MOVING_FRACTION)))
        rows = self.rng.choice(n, size=k, replace=False)
        # Row j of the draw is the k steps of attribute j, in the order
        # one normal(0, sigma_j, k) call per attribute would draw them;
        # normal() computes 0.0 + sigma * z, so these are its bits.
        steps = self.rng.standard_normal((len(sigma), k))
        steps *= sigma
        block = store.numeric_matrix[rows]
        block += steps.T
        np.maximum(block, lo, out=block)
        np.minimum(block, hi, out=block)
        store.write_rows(rows, block)
        return k
