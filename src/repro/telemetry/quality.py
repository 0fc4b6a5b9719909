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
per-attribute summary diverged from the raw data. An FP's holder is read
off the walk the search recorded (``QueryOutcome.routes``: the server
whose redirect was followed, and whether the visit was a full descent or
owners-only); the oracle never re-decides a route.

An owner contact is a false positive when it answered nothing and its raw
store holds no match either: a policy-filtered empty answer was still a
justified visit (``QualityReport.owner_false_positives`` / ``owner_hits``).

Two truth notions are deliberately asymmetric:

* *raw truth* (``query.mask(store).any()``) judges **visits** — a summary's
  job is to predict raw matches, so a visit that finds raw records which a
  sharing policy then filters to an empty answer was still justified;
* *policy truth* (``policies.answer(...)`` non-empty) judges **prunes** —
  a missed server only costs the user real, returnable records.

Policy truth is a subset of raw truth, so no server is ever both FP and FN,
and a prune asks the cheaper raw question first.

**Non-perturbation.** The audit runs synchronously inside the search
completion path and only *reads*: numpy masks over the leaf stores, the
hierarchy's summary tables, and the outcome's arrivals and routes. It
schedules no events, sends no messages, and draws no randomness, so a
quality-on arm is event-for-event identical to a quality-off arm — same
latencies, same delivery census — the same tripwire the tracing and
series planes hold. Its wall cost is visible as the ``quality.audit``
frame in the call-path profiler.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, List, Optional, Set

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

    # -- the audit -------------------------------------------------------------------
    def audit(self, request, outcome) -> QualityReport:
        """Classify every contacted/pruned server for one finished search."""
        system = self._system
        hierarchy = system.hierarchy
        now = system.sim.now
        query = outcome.query
        entry_id = outcome.start_server
        entry_mode = request.entry_mode

        report = QualityReport(
            query_id=query.query_id,
            trace_id=outcome.trace_id,
            audited_at=now,
            start_server=entry_id,
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
        # The cover belonged to the entry server: once it has left, no
        # prune can be judged, and the entry itself is unreachable.
        entry = hierarchy.get(entry_id) if entry_id in hierarchy else None
        if entry is None:
            unreachable.add(entry_id)
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

        routes = outcome.routes

        # -- contacted servers: TP or FP over the region each visit covered
        for sid in sorted(contacted):
            route = routes.get(sid)
            if route is None:
                # The entry: entering somewhere is a protocol necessity,
                # never a lie.
                if local_raw(sid):
                    report.tp += 1
                    self._count(sid, "tp")
                continue
            holder_id, mode = route
            region_hit = (
                local_raw(sid) if mode == "local" else subtree_raw(sid)
            )
            if region_hit:
                report.tp += 1
                self._count(sid, "tp")
            else:
                report.fp += 1
                self._count(sid, "fp")
                report.attributions.append(
                    self._attribute_fp(query, sid, holder_id, mode, now)
                )

        # -- pruned servers: FN (real answers missed) or TN over the cover
        # Servers that fanned out: a later FN is pinned on the deepest.
        walkers = [
            sid for sid, (_, mode) in routes.items()
            if mode == "descent" and sid in contacted
        ]
        if entry_mode != "local":
            walkers.append(entry_id)
        for server in self._cover(entry, entry_mode):
            sid = server.server_id
            if sid in contacted:
                continue
            if sid in unreachable:
                # The route was right; the network lost it. Counted in
                # ``unreachable``, excluded from summary attribution.
                continue
            if local_raw(sid) and local_policy(sid):
                report.fn += 1
                self._count(sid, "fn")
                report.attributions.append(
                    self._attribute_fn(query, server, entry, walkers, now)
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
        if entry is None:
            return []
        if entry_mode == "start":
            return self._system.hierarchy.servers()
        if entry_mode == "descent":
            return list(entry.iter_subtree())
        return [entry]

    def _summary_for(self, holder_id: int, table: str, src_id: int):
        hierarchy = self._system.hierarchy
        if holder_id not in hierarchy:
            return None, None
        holder = hierarchy.get(holder_id)
        summary = holder._tables[table].get(src_id)
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
        self, query: Query, sid: int, holder_id: int, mode: str, now: float
    ) -> DivergenceAttribution:
        """Which summary dimension claimed matches the region can't hold."""
        hierarchy = self._system.hierarchy
        if mode == "local":
            table = "replica_local"
        elif (
            holder_id in hierarchy
            and sid in hierarchy.get(holder_id).child_ids()
        ):
            table = "child"
        else:
            table = "replica"
        holder, summary = self._summary_for(holder_id, table, sid)
        level = holder.depth if holder is not None else 0
        age = now - summary.created_at if summary is not None else None

        dimension = CONJUNCTION
        reason = "conjunction"
        stores = list(self._region_stores(sid, mode))
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
            src_id=sid,
            staleness_age=age,
            dimension=dimension,
            reason=reason,
        )

    def _attribute_fn(
        self, query: Query, server, entry, walkers: List[int], now: float
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
            for pid in walkers:
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
