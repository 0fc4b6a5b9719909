"""Persisting experiment rows.

Figure drivers return lists of row dicts; this module writes them as
CSV and JSON so sweeps can be archived, diffed across runs, and
re-plotted without re-simulating.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

PathLike = Union[str, Path]


def save_rows_csv(rows: Sequence[Dict], path: PathLike) -> Path:
    """Write rows to CSV (columns = union of keys, first-seen order)."""
    path = Path(path)
    if not rows:
        path.write_text("")
        return path
    columns: List[str] = []
    for r in rows:
        for k in r:
            if k not in columns:
                columns.append(k)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
    return path


def save_rows_json(rows: Sequence[Dict], path: PathLike, *, meta: Dict = None) -> Path:
    """Write rows (plus optional metadata) as a JSON document."""
    path = Path(path)
    doc = {"meta": meta or {}, "rows": list(rows)}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path

