"""Plain-text reporting of experiment rows."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:,.1f}"
    return str(value)


def format_table(
    rows: Sequence[Dict],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Align rows of dicts into a monospace table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    # Default: every column any row has, in first-seen order (Table I
    # stacks analytical rows over measured ones).
    cols = list(columns) if columns is not None else list(
        dict.fromkeys(c for r in rows for c in r)
    )
    cells = [[format_value(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.rjust(w) for c, w in zip(cols, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(
    rows: Sequence[Dict],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> None:
    print(format_table(rows, columns, title))
