"""Open-loop load generation for the concurrent serving plane.

The paper's root-bottleneck claim (Figs. 5/7) is about *contention*:
many clients querying at once, all funnelling through the root when the
replication overlay is off. :class:`LoadGenerator` offers queries to a
:class:`~repro.roads.system.RoadsSystem` open-loop — Poisson arrivals at
a configured rate, regardless of how the system keeps up — so a
saturated server shows up as queueing delay and shed queries rather than
just message counts.

Each arrival draws a query from the pool and a client from the mix, then
``system.submit(...)`` puts it in flight on the shared dispatcher; the
free-running update plane and maintenance heartbeats interleave with the
whole burst. ``run()`` drives the simulator until every offered query
resolves and returns a :class:`LoadReport` with latency percentiles,
goodput and shed counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..query.query import Query
from .search import RetryPolicy, SearchRequest, SearchResult


@dataclass(frozen=True)
class LoadConfig:
    """Shape of one offered-load run.

    ``rate`` is the mean arrival rate in queries per (virtual) second;
    inter-arrival times are exponential, so the offered stream is
    Poisson. ``horizon`` bounds the *arrival* window — queries already
    in flight at the horizon still run to completion. Every node is a
    client, drawn uniformly, and every query searches the federation.
    """

    rate: float
    horizon: float
    use_overlay: bool = True
    first_k: Optional[int] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not 0 < self.rate < np.inf:  # nan or inf never ends the draw
            raise ValueError(f"rate must be finite and positive, got {self.rate}")
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")


@dataclass
class LoadReport:
    """Everything one load run measured."""

    config: LoadConfig
    results: List[SearchResult]
    #: virtual time the run started / fully drained
    started_at: float = 0.0
    drained_at: float = 0.0

    @property
    def offered(self) -> int:
        return len(self.results)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r.outcome.completed)

    @property
    def ok(self) -> int:
        """Queries that resolved with no timed-out and no shed contact."""
        return sum(1 for r in self.results if r.ok)

    @property
    def shed_queries(self) -> int:
        """Queries where at least one contact was load-shed past retries."""
        return sum(1 for r in self.results if r.shed)

    @property
    def degraded(self) -> int:
        """Queries routed past expired summary entries (their
        :class:`~repro.roads.search.Verdict` is degraded)."""
        return sum(1 for r in self.results if r.verdict.degraded)

    @property
    def rejections(self) -> int:
        """Total reject notices received across all queries (pre-retry)."""
        return sum(r.outcome.rejections for r in self.results)

    @property
    def goodput(self) -> float:
        """Cleanly-served queries per second of wall (virtual) time."""
        elapsed = self.drained_at - self.started_at
        return self.ok / elapsed if elapsed > 0 else 0.0

    def latencies(self) -> np.ndarray:
        """Client-observed latency of every completed query."""
        return np.array(
            [r.outcome.latency for r in self.results if r.outcome.completed],
            dtype=float,
        )

    def summary(self) -> dict:
        lats = self.latencies()
        return {
            "rate": self.config.rate,
            "offered": self.offered,
            "completed": self.completed,
            "ok": self.ok,
            "shed_queries": self.shed_queries,
            "rejections": self.rejections,
            "goodput": round(self.goodput, 4),
            "latency_p50": (
                round(float(np.percentile(lats, 50)), 6) if len(lats) else None
            ),
            "latency_p95": (
                round(float(np.percentile(lats, 95)), 6) if len(lats) else None
            ),
            "latency_max": (
                round(float(lats.max()), 6) if len(lats) else None
            ),
        }


class LoadGenerator:
    """Offer a Poisson query stream to a system, open-loop.

    Deterministic for a fixed generator: arrival times, query choices
    and client choices are all drawn up front from *rng*, so two runs
    against identically-built systems see the identical offered stream.
    """

    def __init__(
        self,
        system,
        queries: Sequence[Query],
        config: LoadConfig,
        rng: np.random.Generator,
    ):
        if not queries:
            raise ValueError("query pool must not be empty")
        self.system = system
        self.queries = list(queries)
        self.config = config
        self.rng = rng

    def _draw_schedule(self) -> List[SearchRequest]:
        """Pre-draw the full offered stream (arrival order)."""
        cfg = self.config
        clients = len(self.system.hierarchy)
        requests: List[SearchRequest] = []
        self._arrivals: List[float] = []
        t = 0.0
        while True:
            t += float(self.rng.exponential(1.0 / cfg.rate))
            if t >= cfg.horizon:
                break
            query = self.queries[int(self.rng.integers(0, len(self.queries)))]
            client = int(self.rng.integers(0, clients))
            requests.append(
                SearchRequest(
                    query,
                    client_node=client,
                    first_k=cfg.first_k,
                    use_overlay=cfg.use_overlay,
                    retry=cfg.retry,
                )
            )
            self._arrivals.append(t)
        return requests

    def run(self) -> LoadReport:
        """Offer the stream, drain the dispatcher, report."""
        requests = self._draw_schedule()
        started = self.system.sim.now
        results = self.system.search_many(requests, arrivals=self._arrivals)
        return LoadReport(
            config=self.config,
            results=results,
            started_at=started,
            drained_at=self.system.sim.now,
        )
