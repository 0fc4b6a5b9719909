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
from ..telemetry.events import checked, parse_json

#: artifact schema identifier; bump on incompatible layout changes
SCHEMA = "roads.bench/2"

#: an artifact's fields, in the order they are written (``events.checked``)
ARTIFACT = {
    "schema": "str", "scenario": "str", "scale": "str", "seed": "int",
    "git_rev": "str", "config_fingerprint": "str", "created_unix": "number",
    "settings": "dict", "rows": ["dict", ...], "metrics": {"*": "number"},
    "simulated": "dict", "shape": {"failures": "list"}, "profile": "dict",
}


def config_fingerprint(settings: ExperimentSettings) -> str:
    """Stable short hash of the fully-resolved experiment settings."""
    doc = json.dumps(asdict(settings), sort_keys=True, default=str)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


def _census_document(census: Dict[str, Dict]) -> Dict[str, Dict[str, int]]:
    """A deliveries-per-kind-per-server census in its JSON form: string
    keys, sorted."""
    return {
        str(kind): {
            str(server): int(count)
            for server, count in sorted(
                servers.items(), key=lambda kv: str(kv[0])
            )
        }
        for kind, servers in sorted(census.items())
    }


def census_fingerprint(census: Dict[str, Dict]) -> str:
    """Stable short hash of a deliveries-per-kind-per-server census
    (``Network.census``).

    Deterministic per seed and configuration: two runs whose dispatch
    mixes differ in any (kind, server, count) triple get different
    fingerprints, so baseline comparisons can gate on the mix without
    committing the full census.
    """
    doc = json.dumps(_census_document(census), sort_keys=True)
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
        return {k: doc[k] for k in ARTIFACT}

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "BenchArtifact":
        """The artifact *doc* holds; one ValueError naming the field
        otherwise. The schema is checked first: for an older layout the
        useful message is that the file is outdated, not which keys
        moved."""
        try:
            checked(doc, "dict")
            if doc.get("schema") != SCHEMA:
                raise ValueError(
                    f"schema {doc.get('schema')!r} != expected {SCHEMA!r}; "
                    "regenerate the baseline"
                )
            checked(doc, ARTIFACT)
        except ValueError as exc:
            raise ValueError(f"invalid bench artifact: {exc}") from None
        return cls(**{k: doc[k] for k in ARTIFACT})


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
    text = Path(path).read_text(encoding="utf-8")
    return BenchArtifact.from_dict(parse_json(text))


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
