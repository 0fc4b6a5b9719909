"""The canonical search API: request and response objects.

A query submitted to an open-loop load generator has to carry *all* of
its parameters — including its timeout/retry policy — as one value that
can be queued, retried and reported on. :class:`SearchRequest` is that
value; :class:`SearchResult` wraps the measured
:class:`~repro.roads.client.QueryOutcome` together with serving-plane
timestamps (submission and completion on the virtual clock).

``RoadsSystem.search(request)`` / ``search_many(requests)`` /
``widening(request)`` are the only entry points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..query.query import Query
from ..sim.metrics import finite_positive
from .client import QueryOutcome


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side patience: per-contact timeout, retries and backoff.

    ``timeout`` is how long the client waits for a server's response
    before retrying; ``retries`` how many times a timed-out or rejected
    contact is re-sent before the client gives up on that server.
    ``backoff_base`` is the wait before the first retry; each further
    retry doubles it (exponential backoff). The default base of ``0``
    retries immediately — the historical behaviour; load experiments
    raise it so shed queries back off instead of hammering a saturated
    server.
    """

    timeout: float = 5.0
    retries: int = 1
    backoff_base: float = 0.0

    def __post_init__(self) -> None:
        # Each bound is written so that NaN fails it, and infinity too.
        finite_positive("timeout", self.timeout)
        if type(self.retries) is not int or self.retries < 0:
            raise ValueError(f"retries must be an int >= 0, got {self.retries!r}")
        if not 0 <= self.backoff_base < math.inf:
            raise ValueError(f"backoff_base must be >= 0 and finite, got {self.backoff_base}")

    def delay_before_attempt(self, attempt: int) -> float:
        """Backoff before re-attempt number *attempt* (2 = first retry)."""
        if attempt <= 1 or self.backoff_base <= 0:
            return 0.0
        return self.backoff_base * 2.0 ** (attempt - 2)


@dataclass(frozen=True)
class SearchRequest:
    """Everything one query submission needs, as a single value.

    *client_node* ``None`` lets the system draw a uniform random client
    (the evaluation's default). *scope* restricts the search to the
    subtree of the given server (Section III-C); *start_server* forces a
    particular entry server — giving both is only allowed when they
    agree, otherwise the request is rejected up front (the legacy API
    silently dropped ``start_server``).
    """

    query: Query
    client_node: Optional[int] = None
    scope: Optional[int] = None
    start_server: Optional[int] = None
    first_k: Optional[int] = None
    use_overlay: bool = True
    collect_records: bool = False
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if (
            self.scope is not None
            and self.start_server is not None
            and self.scope != self.start_server
        ):
            raise ValueError(
                f"scope={self.scope} and start_server={self.start_server} "
                "are inconsistent: a scoped search enters at the scope "
                "server; give one or the other (or the same id)"
            )
        if self.first_k is not None and self.first_k < 1:
            raise ValueError(f"first_k must be >= 1, got {self.first_k}")

    @property
    def entry_mode(self) -> str:
        """Entry mode at the first contacted server.

        Scoped searches and the no-overlay basic hierarchy stay inside
        the entry server's branch (``"descent"``); the overlay's
        start-anywhere entry fans out over everything the server's
        summaries cover (``"start"``).
        """
        return (
            "descent"
            if self.scope is not None or not self.use_overlay
            else "start"
        )


@dataclass(eq=False)
class SearchResult:
    """One served query: the request, its outcome, and serving times.

    Delegates unknown attribute access to the wrapped
    :class:`QueryOutcome`, so ``result.latency`` /
    ``result.total_matches`` / ``result.matched_records()`` all work —
    migration from the outcome-returning legacy API is mechanical.
    """

    request: SearchRequest
    outcome: QueryOutcome
    #: virtual time the request entered the serving plane
    submitted_at: float = 0.0
    #: virtual time the query fully resolved (fan-out and timeouts)
    finished_at: float = 0.0
    #: shadow-oracle verdict (``QualityReport``) when the system has a
    #: quality plane attached; ``None`` otherwise
    quality: Optional[object] = None

    @property
    def sojourn(self) -> float:
        """Submission-to-resolution time, including retries/backoff."""
        return self.finished_at - self.submitted_at

    @property
    def shed(self) -> bool:
        """True when at least one contact was load-shed past its retries."""
        return bool(self.outcome.shed_servers)

    @property
    def ok(self) -> bool:
        """Fully resolved with no timed-out and no shed servers."""
        return (
            self.outcome.completed
            and not self.outcome.timed_out_servers
            and not self.outcome.shed_servers
        )

    def __getattr__(self, name: str):
        # Only reached for attributes not defined on SearchResult;
        # guard the delegate itself against recursion during unpickling.
        if name.startswith("_") or name == "outcome":
            raise AttributeError(name)
        return getattr(self.outcome, name)


@dataclass(eq=False)
class PendingSearch:
    """Handle for an in-flight query on the serving plane.

    Returned by :meth:`RoadsSystem.submit`; ``result`` is populated (and
    ``done`` flips) when the underlying execution fully resolves as the
    shared simulator is driven.
    """

    request: SearchRequest
    execution: object = None  # the live QueryExecution
    result: Optional[SearchResult] = None

    @property
    def done(self) -> bool:
        return self.result is not None
