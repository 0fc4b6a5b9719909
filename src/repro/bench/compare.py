"""Artifact comparison with per-metric tolerance bands.

``repro bench compare`` diffs a freshly produced ``BENCH_*.json``
against a committed baseline:

* **simulated metrics** (``sim.*``, ``rows.*``) are deterministic for a
  fixed seed, so they get a tight symmetric band (default 5%) — any
  drift means the system's behaviour changed;
* **answer-quality metrics** (``rows.quality_*``) ride the same band
  but fail only in the *regression* direction, so a change that makes
  answers strictly more accurate needs no baseline regeneration;
* the **event-census fingerprint** (deliveries per message kind per
  server) is deterministic per seed, so a mismatch — or a fingerprint
  missing on either side — is a hard failure: the dispatch mix changed,
  and the baseline must be regenerated deliberately;
* the scenario's **paper-shape invariants** are re-asserted on the
  current rows (ROADS below SWORD on latency, ROADS update bytes flat in
  records/node, overlay root-share under the ceiling), so a run that
  stays within tolerance but flips a qualitative claim still fails.

A config-fingerprint mismatch is a hard failure: metric deltas between
different configurations are meaningless, and baselines must be
regenerated deliberately.

Nothing here reads a host clock or judges host time: every compared
quantity is exact per seed, so a rerun of an unchanged tree reports
every delta as ``+0.0%``. Host-time claims go through ``perf/run.py``
and ``perf/agree.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .artifact import BenchArtifact
from .scenarios import SCENARIOS, _simulated_invariants

#: symmetric band for deterministic simulated metrics
DEFAULT_TOLERANCE = 0.05

#: substrings of ``rows.quality_*`` metric names where *higher* is the
#: good direction (accuracy); everything else counts misroutes, where
#: lower is better
_QUALITY_GOOD_UP = ("precision", "recall", "_tp", "_tn")


def _quality_regression_only(name: str) -> Optional[bool]:
    """Is *name* an answer-quality metric, and is higher better?

    Oracle verdict counts are deterministic per seed, but they gate in
    the *regression* direction only: a change that makes answers
    strictly more accurate should not fail the bench and force a
    baseline regeneration. Returns ``None`` for non-quality metrics,
    else whether higher is the good direction.
    """
    if not name.startswith("rows.quality_"):
        return None
    return any(tag in name for tag in _QUALITY_GOOD_UP)


@dataclass
class MetricDelta:
    """One metric's baseline/current pair and its verdict."""

    name: str
    baseline: float
    current: float
    #: signed relative change, ``(current - baseline) / |baseline|``
    rel_change: float
    tolerance: float
    ok: bool

    def row(self) -> Dict[str, object]:
        return {
            "metric": self.name,
            "baseline": f"{self.baseline:.6g}",
            "current": f"{self.current:.6g}",
            "change": f"{self.rel_change:+.1%}",
            "band": (
                f"+{self.tolerance:.0%}"
                if self.name.startswith("rows.quality_")
                else f"±{self.tolerance:.0%}"
            ),
            "ok": "ok" if self.ok else "FAIL",
        }


@dataclass
class ComparisonResult:
    """Outcome of one artifact-vs-baseline comparison."""

    scenario: str
    deltas: List[MetricDelta] = field(default_factory=list)
    #: hard failures (config mismatch, missing metrics, shape breaks)
    failures: List[str] = field(default_factory=list)
    shape_failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.failures
            and not self.shape_failures
            and all(d.ok for d in self.deltas)
        )

    def failed_deltas(self) -> List[MetricDelta]:
        return [d for d in self.deltas if not d.ok]

    def summary_lines(self) -> List[str]:
        lines = []
        for msg in self.failures:
            lines.append(f"[FAIL] {msg}")
        for msg in self.shape_failures:
            lines.append(f"[FAIL] shape: {msg}")
        for d in self.failed_deltas():
            lines.append(
                f"[FAIL] {d.name}: {d.baseline:.6g} -> {d.current:.6g} "
                f"({d.rel_change:+.1%}, band {d.tolerance:.0%})"
            )
        if not lines:
            lines.append(
                f"[ok] {self.scenario}: {len(self.deltas)} metrics within "
                "tolerance, shape invariants hold"
            )
        return lines


def _rel_change(baseline: float, current: float) -> float:
    denom = max(abs(baseline), 1e-12)
    return (current - baseline) / denom


def compare_artifacts(
    current: BenchArtifact,
    baseline: BenchArtifact,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ComparisonResult:
    """Diff *current* against *baseline*; see the module docstring."""
    result = ComparisonResult(scenario=current.scenario)

    for attr in ("scenario", "scale", "seed"):
        cur, base = getattr(current, attr), getattr(baseline, attr)
        if cur != base:
            result.failures.append(
                f"{attr} mismatch: current={cur!r} baseline={base!r}"
            )
    if current.config_fingerprint != baseline.config_fingerprint:
        result.failures.append(
            "config fingerprint mismatch "
            f"(current={current.config_fingerprint} "
            f"baseline={baseline.config_fingerprint}); regenerate the "
            "baseline if the settings change was intentional"
        )
    if result.failures:
        return result

    for name in sorted(baseline.metrics):
        base_val = float(baseline.metrics[name])
        if name not in current.metrics:
            result.failures.append(f"metric {name} missing from current run")
            continue
        cur_val = float(current.metrics[name])
        rel = _rel_change(base_val, cur_val)
        higher_is_better = _quality_regression_only(name)
        if higher_is_better is None:
            ok = abs(rel) <= tolerance
        else:
            # Regression-only: less accurate answers / more misroutes
            # fail; strict accuracy improvements pass without a regen.
            ok = rel >= -tolerance if higher_is_better else rel <= tolerance
        result.deltas.append(
            MetricDelta(
                name=name, baseline=base_val, current=cur_val,
                rel_change=rel, tolerance=tolerance, ok=ok,
            )
        )

    # The event census is deterministic per seed: two runs of the same
    # configuration must deliver the same messages to the same servers.
    # A mismatch means the dispatch mix itself changed; an absent
    # fingerprint means the check cannot be made, which is a failure
    # too, never a pass.
    fp_cur = current.profile.get("census_fingerprint")
    fp_base = baseline.profile.get("census_fingerprint")
    if not fp_cur or not fp_base:
        result.failures.append(
            "profile census fingerprint missing "
            f"(current={fp_cur!r} baseline={fp_base!r}); "
            "regenerate the artifact"
        )
    elif fp_cur != fp_base:
        result.failures.append(
            "profile census fingerprint mismatch "
            f"(current={fp_cur} baseline={fp_base}); the event mix "
            "changed — regenerate the baseline if intentional"
        )

    # Re-assert the paper-shape invariants on the *current* artifact.
    scenario = SCENARIOS.get(current.scenario)
    if scenario is not None:
        result.shape_failures += scenario.judge(current.rows)
    if current.simulated:
        result.shape_failures += _simulated_invariants(current.simulated)
    return result


def format_comparison(
    result: ComparisonResult, *, verbose: bool = False
) -> str:
    """Human-readable report; failed metrics always listed."""
    from ..experiments.report import format_table

    parts: List[str] = []
    shown = result.deltas if verbose else result.failed_deltas()
    if shown:
        parts.append(format_table([d.row() for d in shown]))
    parts.extend(result.summary_lines())
    return "\n".join(parts)
