"""Canonical ``BENCH_<scenario>.json`` benchmark artifacts.

Every benchmark run is stamped with enough provenance to make a later
comparison meaningful: the scenario and scale, the seed, a config
fingerprint (hash of the fully-resolved
:class:`~repro.experiments.config.ExperimentSettings`), and the git
revision of the working tree. The payload carries the paper-series rows,
a registry-derived simulated-metrics block, the event-census fingerprint
and the flat ``metrics`` dict that ``repro bench compare`` consumes.

An artifact records what the simulation *did*, never how long the host
took to do it: apart from the provenance stamp (``git_rev``,
``created_unix``) every field is exact per seed. Host time is measured
by ``perf/run.py`` alone.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ..experiments.config import ExperimentSettings

#: artifact schema identifier; bump on incompatible layout changes
SCHEMA = "roads.bench/2"

_REQUIRED_KEYS = (
    "schema", "scenario", "scale", "seed", "git_rev",
    "config_fingerprint", "created_unix", "settings", "rows",
    "metrics", "simulated", "shape", "profile",
)


def config_fingerprint(settings: ExperimentSettings) -> str:
    """Stable short hash of the fully-resolved experiment settings."""
    doc = json.dumps(asdict(settings), sort_keys=True, default=str)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


def git_rev(repo_dir: Optional[Path] = None) -> str:
    """Current git revision, ``REPRO_GIT_REV`` override, or ``unknown``."""
    import os

    env = os.environ.get("REPRO_GIT_REV")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_dir, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


#: scenarios whose artifact file keeps a shorter stem than the
#: registry name (the quality plane's baseline is BENCH_quality.json)
_ARTIFACT_STEMS = {"quality_plane": "quality"}


def artifact_filename(scenario: str) -> str:
    return f"BENCH_{_ARTIFACT_STEMS.get(scenario, scenario)}.json"


@dataclass
class BenchArtifact:
    """One benchmark run: provenance + rows + metrics + event census."""

    scenario: str
    scale: str
    seed: int
    git_rev: str
    config_fingerprint: str
    created_unix: float
    settings: Dict[str, object]
    #: the paper-series rows the scenario's driver produced
    rows: List[Dict[str, object]]
    #: flat ``name -> float`` map; the compare currency
    metrics: Dict[str, float]
    #: registry-derived block (latency percentiles, byte totals, shares)
    simulated: Dict[str, object]
    #: paper-shape check outcome: {"failures": [...]}
    shape: Dict[str, object]
    #: the canonical run's event census: ``census_fingerprint`` plus
    #: ``census_kinds`` (deliveries per message kind)
    profile: Dict[str, object]
    schema: str = SCHEMA

    @property
    def ok(self) -> bool:
        return not self.shape.get("failures")

    def to_dict(self) -> Dict[str, object]:
        doc = asdict(self)
        # Keep provenance keys first for readable diffs.
        return {k: doc[k] for k in _REQUIRED_KEYS}

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "BenchArtifact":
        problems = validate_artifact(doc)
        if problems:
            raise ValueError(
                "invalid bench artifact: " + "; ".join(problems)
            )
        return cls(**{k: doc[k] for k in _REQUIRED_KEYS})


def validate_artifact(doc: Dict[str, object]) -> List[str]:
    """Schema check; returns human-readable problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["artifact is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        # Checked before the keys: for an older layout the useful
        # message is that the file is outdated, not which keys moved.
        return [
            f"schema {doc.get('schema')!r} != expected {SCHEMA!r}; "
            "regenerate the baseline"
        ]
    for key in _REQUIRED_KEYS:
        if key not in doc:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    for key, typ in (
        ("scenario", str), ("scale", str), ("git_rev", str),
        ("config_fingerprint", str), ("seed", int),
        ("settings", dict), ("rows", list), ("metrics", dict),
        ("simulated", dict), ("shape", dict), ("profile", dict),
    ):
        if not isinstance(doc[key], typ):
            problems.append(
                f"{key} must be {typ.__name__}, got {type(doc[key]).__name__}"
            )
    if not isinstance(doc["created_unix"], (int, float)):
        problems.append("created_unix must be a number")
    if isinstance(doc["metrics"], dict):
        bad = [
            k for k, v in doc["metrics"].items()
            if not isinstance(v, (int, float))
        ]
        if bad:
            problems.append(f"non-numeric metrics: {sorted(bad)[:5]}")
    if isinstance(doc["shape"], dict) and "failures" not in doc["shape"]:
        problems.append("shape block missing 'failures'")
    return problems


def write_artifact(artifact: BenchArtifact, path) -> Path:
    """Write the artifact as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(artifact.to_dict(), indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    return path


def load_artifact(path) -> BenchArtifact:
    """Load and schema-validate a ``BENCH_*.json`` artifact."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return BenchArtifact.from_dict(doc)


def stamp(
    scenario: str,
    scale: str,
    seed: int,
    settings: ExperimentSettings,
) -> Dict[str, object]:
    """Provenance block of an artifact."""
    return {
        "scenario": scenario,
        "scale": scale,
        "seed": seed,
        "git_rev": git_rev(),
        "config_fingerprint": config_fingerprint(settings),
        "created_unix": time.time(),
    }
