"""Availability churn: servers crash and recover over time.

The paper lists churn as the future-work stressor a discovery service
must survive. This module drives a live hierarchy with a continuous
fail/recover process: each alive server crashes after an exponential
time-to-failure, goes silent (the maintenance protocol detects it and
heals the tree), and later recovers and rejoins via the normal balanced
join walk. This module only decides *when*: the tree and the membership
change through :class:`MaintenanceProtocol`'s ``fail`` and ``recover``.

The process never touches the root directly more often than any other
node — root crashes exercise the election path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..net.transport import Network
from ..sim.engine import Simulator
from .join import Hierarchy
from .maintenance import MaintenanceProtocol
from .node import Server


@dataclass(frozen=True)
class ChurnConfig:
    """Exponential fail/recover process parameters (seconds).

    With MTTF=600 and MTTR=120 each node is up ~83% of the time; a
    24-node federation then sees a crash roughly every 25 s.
    """

    mean_time_to_failure: float = 600.0
    mean_time_to_recovery: float = 120.0
    #: never crash below this many alive servers
    min_alive: int = 3

    def __post_init__(self) -> None:
        if self.mean_time_to_failure <= 0 or self.mean_time_to_recovery <= 0:
            raise ValueError("churn time constants must be positive")
        if self.min_alive < 1:
            raise ValueError("min_alive must be >= 1")


@dataclass
class ChurnStats:
    crashes: int = 0
    recoveries: int = 0
    skipped_crashes: int = 0  # blocked by the min_alive floor
    downtime_log: List[tuple] = field(default_factory=list)


class ChurnProcess:
    """Drives crash/recover events against a maintained hierarchy."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        hierarchy: Hierarchy,
        maintenance: MaintenanceProtocol,
        rng: np.random.Generator,
        config: ChurnConfig = ChurnConfig(),
    ):
        self.sim = sim
        self.network = network
        self.hierarchy = hierarchy
        self.maintenance = maintenance
        self.rng = rng
        self.config = config
        self.stats = ChurnStats()
        self._down: Dict[int, Server] = {}
        self._stopped = False
        for server in hierarchy:
            self._schedule_failure(server)

    # -- scheduling ----------------------------------------------------------------
    def _schedule_failure(self, server: Server) -> None:
        delay = float(self.rng.exponential(self.config.mean_time_to_failure))
        self.sim.schedule(delay, lambda s=server: self._crash(s), "churn.fail")

    def _schedule_recovery(self, server: Server) -> None:
        delay = float(self.rng.exponential(self.config.mean_time_to_recovery))
        self.sim.schedule(delay, lambda s=server: self._recover(s), "churn.recover")

    def stop(self) -> None:
        self._stopped = True

    # -- events ----------------------------------------------------------------
    def alive_count(self) -> int:
        return sum(1 for s in self.hierarchy if s.alive)

    def _crash(self, server: Server) -> None:
        if self._stopped or not server.alive:
            return
        if self.alive_count() <= self.config.min_alive:
            self.stats.skipped_crashes += 1
            self._schedule_failure(server)  # try again later
            return
        self.maintenance.fail(server)
        self._down[server.server_id] = server
        self.stats.crashes += 1
        self.stats.downtime_log.append((server.server_id, self.sim.now, None))
        self._schedule_recovery(server)

    def _recover(self, server: Server) -> None:
        if self._stopped:
            return
        root = self.hierarchy.root
        if server is not root and (
            not root.alive or self.network.is_failed(root.server_id)
        ):
            # No live root to rejoin under yet (election pending): retry.
            self._schedule_recovery(server)
            return
        if not self.maintenance.recover(server):
            # No capacity anywhere (transient): down again, retry later.
            self.maintenance.fail(server)
            self._schedule_recovery(server)
            return
        sid = server.server_id
        self._down.pop(sid, None)
        self.stats.recoveries += 1
        # Close the downtime log entry.
        for i in range(len(self.stats.downtime_log) - 1, -1, -1):
            nid, start, end = self.stats.downtime_log[i]
            if nid == sid and end is None:
                self.stats.downtime_log[i] = (nid, start, self.sim.now)
                break
        self._schedule_failure(server)

    # -- reporting ----------------------------------------------------------------
    def availability(self, window_end: Optional[float] = None) -> float:
        """Fraction of node-time spent up, over the simulated window."""
        end = window_end if window_end is not None else self.sim.now
        if end <= 0:
            return 1.0
        # A crashed server stays a member until the detector forgets it.
        n = len({s.server_id for s in self.hierarchy} | self._down.keys())
        down = 0.0
        for nid, start, stop in self.stats.downtime_log:
            down += (stop if stop is not None else end) - start
        return 1.0 - down / (n * end)
