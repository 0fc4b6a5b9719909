"""Answer-quality observatory: a ground-truth shadow oracle.

The paper's Figures 4/5 trade update bytes against *false positives* —
queries routed into branches whose stale replicated summaries claimed
matches that the authoritative leaf data no longer supports. The rest of
the observability stack measures latency and load; this module measures
**answer quality** with ground truth.

After every completed search the :class:`QualityPlane` recomputes the
exact answer directly from the authoritative leaf record stores and
classifies every server the search touched or pruned:

* **TP** — contacted, and the region its visit covered really holds
  matching raw records;
* **FP** — contacted, but no raw record anywhere in the covered region
  matches: the summary that justified the visit lied (bloom-filter
  collision, histogram coarseness, or staleness);
* **FN** — not contacted although its locally attached owners would have
  answered with real records: the summary that pruned it lied (stale,
  expired, or never arrived);
* **TN** — correctly pruned.

Every FP/FN carries a :class:`DivergenceAttribution` naming the *specific
summary that lied*: which server held it, in which table (child branch /
overlay replica / ancestor-local), which source branch it summarised, its
staleness age at audit time, and the first predicate dimension whose
per-attribute summary diverged from the raw data.

Two truth notions are deliberately asymmetric:

* *raw truth* (``query.mask(store).any()``) judges **visits** — a summary's
  job is to predict raw matches, so a visit that finds raw records which a
  sharing policy then filters to an empty answer was still justified;
* *policy truth* (``policies.answer(...)`` non-empty) judges **prunes** —
  a missed server only costs the user real, returnable records.

Policy truth is a subset of raw truth, so no server is ever both FP and FN.

**Non-perturbation.** The audit runs synchronously inside the search
completion path and only *reads*: numpy masks over the leaf stores, the
hierarchy's summary tables, and the outcome's arrival map. It schedules
no events, sends no messages, and draws no randomness, so a quality-on
arm is event-for-event identical to a quality-off arm — same latencies,
same delivery census — the same tripwire the tracing and series planes
hold. Its wall cost is visible as the ``quality.audit`` frame in the
call-path profiler.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..query.query import Query

__all__ = [
    "DivergenceAttribution",
    "QualityReport",
    "QualityPlane",
]

#: divergence dimension reported when every predicate individually matches
#: raw data somewhere in the region but no single record satisfies the
#: conjunction — the per-dimension summaries were each truthful, the lie
#: is the independence assumption of combining them
CONJUNCTION = "(conjunction)"

#: audit-time summary state already agrees with the query — the summary
#: was refreshed between the routing decision and the audit
REFRESHED = "(refreshed)"


@dataclass(frozen=True)
class DivergenceAttribution:
    """One false positive/negative pinned on the summary that lied."""

    #: the misjudged server (visited in vain, or wrongly pruned)
    server_id: int
    #: ``"fp"`` (visited, region empty) or ``"fn"`` (pruned, had answers)
    kind: str
    #: summary table the lying entry lived in: ``"child"`` (branch
    #: summary at the parent), ``"replica"`` (overlay branch replica) or
    #: ``"replica_local"`` (ancestor local-owners replica)
    table: str
    #: server that held the lying summary and made the routing call
    holder_id: int
    #: the holder's hierarchy level (root = 0)
    holder_level: int
    #: branch the lying summary describes (its source server id)
    src_id: int
    #: ``now - summary.created_at`` at audit time; None when the lie is
    #: the summary's absence
    staleness_age: Optional[float]
    #: first query attribute whose per-dimension summary diverged from
    #: the raw leaf data (or a ``(...)`` pseudo-dimension)
    dimension: str
    #: why the summary lied: ``divergence`` / ``conjunction`` /
    #: ``stale-divergence`` / ``expired`` / ``missing`` / ``refreshed-since``
    reason: str

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class QualityReport:
    """Oracle verdict for one completed search."""

    query_id: int
    trace_id: Optional[str]
    audited_at: float
    start_server: int
    entry_mode: str
    #: server-level confusion counts over the search's coverage region
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0
    #: servers the search contacted (hierarchy servers only)
    contacted: int = 0
    #: timed-out / shed servers — unreachable, excluded from FN
    unreachable: List[int] = field(default_factory=list)
    #: owner-level contacts that answered empty with no raw match
    owner_false_positives: int = 0
    #: owner-level contacts that answered or held raw matches
    owner_hits: int = 0
    attributions: List[DivergenceAttribution] = field(default_factory=list)

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 1.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 1.0

    def to_dict(self) -> Dict[str, object]:
        return {
            **asdict(self), "precision": self.precision, "recall": self.recall
        }


class _Edge:
    """How the shadow walk justified contacting one server."""

    __slots__ = ("mode", "holder_id", "table", "src_id")

    def __init__(self, mode, holder_id=None, table=None, src_id=None):
        self.mode = mode
        self.holder_id = holder_id
        self.table = table
        self.src_id = src_id


class QualityPlane:
    """Shadow oracle auditing every completed search against ground truth.

    Strictly read-only over the simulation: attach it, run searches, and
    read the cumulative gauges — the simulated behaviour is byte-identical
    to an unaudited run.
    """

    def __init__(self, system, *, max_reports: int = 256):
        self._system = system
        self.audits = 0
        self.tp = 0
        self.fp = 0
        self.fn = 0
        self.tn = 0
        self.owner_false_positives = 0
        self.owner_hits = 0
        #: per-server cumulative confusion counts (server_id -> counts)
        self.per_node: Dict[int, Dict[str, int]] = {}
        self._age_sum = 0.0
        self._age_count = 0
        self.reports: Deque[QualityReport] = deque(maxlen=max_reports)

    # -- aggregate gauges ----------------------------------------------------------
    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 1.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 1.0

    @property
    def fp_rate(self) -> float:
        denom = self.fp + self.tn
        return self.fp / denom if denom else 0.0

    @property
    def divergence_age_mean(self) -> float:
        return self._age_sum / self._age_count if self._age_count else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "audits": self.audits,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
            "precision": self.precision,
            "recall": self.recall,
            "fp_rate": self.fp_rate,
            "divergence_age_mean": self.divergence_age_mean,
            "owner_false_positives": self.owner_false_positives,
            "owner_hits": self.owner_hits,
        }

    def breach_evidence(self) -> Dict[str, object]:
        """What a postmortem bundle freezes when a quality SLO breaches."""
        last = self.reports[-1] if self.reports else None
        return {
            "snapshot": self.snapshot(),
            "last_report": last.to_dict() if last is not None else None,
        }

    # -- satellite: oracle-backed owner false-positive verdict -----------------------
    def owner_false_positive(self, query: Query, owner, answered: int) -> bool:
        """Empty answer *and* no raw match: the summary, not policy, lied."""
        if answered > 0:
            return False
        return not bool(query.mask(owner.origin).any())

    # -- the audit -------------------------------------------------------------------
    def audit(self, request, outcome) -> QualityReport:
        """Classify every contacted/pruned server for one finished search."""
        system = self._system
        hierarchy = system.hierarchy
        now = system.sim.now
        query = outcome.query
        entry = hierarchy.get(outcome.start_server)
        entry_mode = request.entry_mode

        report = QualityReport(
            query_id=query.query_id,
            trace_id=outcome.trace_id,
            audited_at=now,
            start_server=entry.server_id,
            entry_mode=entry_mode,
        )

        contacted: Set[int] = {
            sid for sid in outcome.arrivals if sid in hierarchy
        }
        report.contacted = len(contacted)
        unreachable: Set[int] = {
            sid
            for sid in set(outcome.timed_out_servers) | set(outcome.shed_servers)
            if sid in hierarchy
        }
        report.unreachable = sorted(unreachable)

        raw_truth: Dict[int, bool] = {}
        policy_truth: Dict[int, bool] = {}
        subtree_truth: Dict[int, bool] = {}

        def local_raw(sid: int) -> bool:
            hit = raw_truth.get(sid)
            if hit is None:
                hit = any(
                    bool(query.mask(o.origin).any())
                    for o in hierarchy.get(sid).owners
                )
                raw_truth[sid] = hit
            return hit

        def local_policy(sid: int) -> bool:
            hit = policy_truth.get(sid)
            if hit is None:
                hit = any(
                    len(system.policies.answer(o.owner_id, query, o.origin)) > 0
                    for o in hierarchy.get(sid).owners
                )
                policy_truth[sid] = hit
            return hit

        def subtree_raw(sid: int) -> bool:
            hit = subtree_truth.get(sid)
            if hit is None:
                hit = any(
                    local_raw(s.server_id)
                    for s in hierarchy.get(sid).iter_subtree()
                )
                subtree_truth[sid] = hit
            return hit

        edges = self._shadow_walk(query, entry, entry_mode, contacted, now)

        # -- contacted servers: TP or FP over the region each visit covered
        for sid in sorted(contacted):
            edge = edges.get(sid)
            if edge is None:
                # Reached outside the audit-time walk (a summary changed
                # mid-flight); judge it as a descent from its parent.
                server = hierarchy.get(sid)
                parent = (
                    server.root_path[-2] if len(server.root_path) > 1 else sid
                )
                edge = _Edge("descent", parent, "child", sid)
            if sid == entry.server_id:
                # Entering somewhere is a protocol necessity, never a lie.
                if local_raw(sid):
                    report.tp += 1
                    self._count(sid, "tp")
                continue
            region_hit = (
                local_raw(sid) if edge.mode == "local" else subtree_raw(sid)
            )
            if region_hit:
                report.tp += 1
                self._count(sid, "tp")
            else:
                report.fp += 1
                self._count(sid, "fp")
                report.attributions.append(
                    self._attribute_fp(query, sid, edge, now, local_raw)
                )

        # -- pruned servers: FN (real answers missed) or TN over the cover
        for server in self._cover(entry, entry_mode):
            sid = server.server_id
            if sid in contacted:
                continue
            if sid in unreachable:
                # The route was right; the network lost it. Counted in
                # ``unreachable``, excluded from summary attribution.
                continue
            if local_policy(sid):
                report.fn += 1
                self._count(sid, "fn")
                report.attributions.append(
                    self._attribute_fn(query, server, entry, edges, now)
                )
            else:
                report.tn += 1
                self._count(sid, "tn")

        # -- owner-level oracle verdicts over the recorded hits
        for hit in outcome.owner_hits:
            owner = self._find_owner(hit.server_id, hit.owner_id)
            if owner is None:
                continue
            if hit.match_count == 0 and not bool(query.mask(owner.origin).any()):
                report.owner_false_positives += 1
                self.owner_false_positives += 1
            else:
                report.owner_hits += 1
                self.owner_hits += 1

        for attribution in report.attributions:
            if attribution.staleness_age is not None:
                self._age_sum += attribution.staleness_age
                self._age_count += 1
        self.tp += report.tp
        self.fp += report.fp
        self.fn += report.fn
        self.tn += report.tn
        self.audits += 1
        self.reports.append(report)
        return report

    # -- internals ---------------------------------------------------------------
    def _count(self, sid: int, key: str) -> None:
        counts = self.per_node.get(sid)
        if counts is None:
            counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
            self.per_node[sid] = counts
        counts[key] += 1

    def _find_owner(self, server_id: int, owner_id: int):
        hierarchy = self._system.hierarchy
        if server_id not in hierarchy:
            return None
        for owner in hierarchy.get(server_id).owners:
            if owner.owner_id == owner_id:
                return owner
        return None

    def _cover(self, entry, entry_mode: str):
        """Servers the search claimed responsibility for pruning."""
        if entry_mode == "start":
            return self._system.hierarchy.servers()
        if entry_mode == "descent":
            return list(entry.iter_subtree())
        return [entry]

    def _shadow_walk(
        self,
        query: Query,
        entry,
        entry_mode: str,
        contacted: Set[int],
        now: float,
    ) -> Dict[int, _Edge]:
        """Re-run the routing decisions to justify each contacted server.

        Replays :func:`decide_start` / :func:`decide_descent` /
        :func:`decide_local` from the entry server at audit time, but only
        follows redirects the real search actually took, recording for
        each contacted server which holder's summary table sent the
        client there.
        """
        # Imported here: the overlay package pulls in sim.metrics, which
        # imports telemetry — a module-level import would be circular.
        from ..overlay.routing import (
            decide_descent,
            decide_local,
            decide_start,
        )

        hierarchy = self._system.hierarchy
        cfg = self._system.config.summary
        decide = {
            "start": decide_start,
            "descent": decide_descent,
            "local": decide_local,
        }
        edges: Dict[int, _Edge] = {entry.server_id: _Edge(entry_mode)}
        stack: List[Tuple[int, str]] = [(entry.server_id, entry_mode)]
        while stack:
            sid, mode = stack.pop()
            server = hierarchy.get(sid)
            decision = decide[mode](server, query, cfg, now)
            children = set(server.child_ids())
            for rid in decision.redirect_ids:
                if rid not in contacted or rid in edges:
                    continue
                table = "child" if rid in children else "replica"
                edges[rid] = _Edge("descent", sid, table, rid)
                stack.append((rid, "descent"))
            for oid in decision.owners_only_ids:
                if oid not in contacted or oid in edges:
                    continue
                edges[oid] = _Edge("local", sid, "replica_local", oid)
                # owners-only visits never fan out further
        return edges

    def _summary_for(self, holder_id: int, table: str, src_id: int):
        hierarchy = self._system.hierarchy
        if holder_id not in hierarchy:
            return None, None
        holder = hierarchy.get(holder_id)
        summary = holder._summary_table(table).get(src_id)
        return holder, summary

    def _region_stores(self, sid: int, mode: str):
        hierarchy = self._system.hierarchy
        if mode == "local":
            servers = [hierarchy.get(sid)]
        else:
            servers = list(hierarchy.get(sid).iter_subtree())
        for server in servers:
            for owner in server.owners:
                yield owner.origin

    def _attribute_fp(
        self, query: Query, sid: int, edge: _Edge, now: float, local_raw
    ) -> DivergenceAttribution:
        """Which summary dimension claimed matches the region can't hold."""
        holder_id = edge.holder_id if edge.holder_id is not None else sid
        table = edge.table or "child"
        src_id = edge.src_id if edge.src_id is not None else sid
        holder, summary = self._summary_for(holder_id, table, src_id)
        level = holder.depth if holder is not None else 0
        age = now - summary.created_at if summary is not None else None

        dimension = CONJUNCTION
        reason = "conjunction"
        stores = list(self._region_stores(sid, edge.mode))
        for pred in query.predicates:
            region_dim_hit = any(
                bool(pred.mask(store).any()) for store in stores
            )
            if region_dim_hit:
                continue
            # No raw record in the region matches this dimension alone —
            # the summary's per-dimension structure claimed otherwise.
            dimension, reason = pred.attribute, "divergence"
            break
        if summary is None:
            reason = "missing"
        return DivergenceAttribution(
            server_id=sid,
            kind="fp",
            table=table,
            holder_id=holder_id,
            holder_level=level,
            src_id=src_id,
            staleness_age=age,
            dimension=dimension,
            reason=reason,
        )

    def _attribute_fn(
        self, query: Query, server, entry, edges: Dict[int, _Edge], now: float
    ) -> DivergenceAttribution:
        """Which summary pruned a server that held real answers."""
        hierarchy = self._system.hierarchy
        sid = server.server_id
        entry_path = set(entry.root_path)
        holder_id, table, src_id = entry.server_id, "child", sid

        if sid in entry.root_path[:-1]:
            # A proper ancestor of the entry: only its *local* owners were
            # in play, reachable through the entry's replica_local table.
            table, src_id = "replica_local", sid
        else:
            # Deepest contacted server that could have redirected toward
            # this branch wins the attribution; the summary it consulted
            # for the next hop on the path is the one that pruned.
            path = server.root_path
            branch = next(
                (rid for rid in path if rid not in entry_path), sid
            )
            holder_id, table, src_id = entry.server_id, "replica", branch
            if branch in set(entry.child_ids()):
                table = "child"
            best_depth = -1
            for pid, edge in edges.items():
                if edge.mode not in ("start", "descent"):
                    continue
                if pid not in path or pid == sid:
                    continue
                depth = hierarchy.get(pid).depth
                if depth > best_depth:
                    best_depth = depth
                    nxt = path[path.index(pid) + 1]
                    holder_id, table, src_id = pid, "child", nxt

        holder, summary = self._summary_for(holder_id, table, src_id)
        level = holder.depth if holder is not None else 0
        age = now - summary.created_at if summary is not None else None

        if summary is None:
            dimension, reason = query.predicates[0].attribute, "missing"
        elif summary.is_expired(now):
            dimension, reason = query.predicates[0].attribute, "expired"
        else:
            # The pruned server's records match *all* predicates, so at
            # decision time some per-dimension summary must have said no.
            dimension, reason = REFRESHED, "refreshed-since"
            attributes = summary.attributes
            for pred in query.predicates:
                attr = attributes.get(pred.attribute)
                if attr is None or not attr.may_match(pred):
                    dimension, reason = pred.attribute, "stale-divergence"
                    break
        return DivergenceAttribution(
            server_id=sid,
            kind="fn",
            table=table,
            holder_id=holder_id,
            holder_level=level,
            src_id=src_id,
            staleness_age=age,
            dimension=dimension,
            reason=reason,
        )
