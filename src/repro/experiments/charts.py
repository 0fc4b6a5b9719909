"""ASCII charts for experiment rows.

The evaluation environment is terminal-only, so the figure drivers can
render their series as text charts — enough to eyeball the shapes the
paper plots (log vs linear growth, crossovers, dips).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

_MARKS = "*o+x#@"


def ascii_chart(
    rows: Sequence[Dict],
    x: str,
    ys: Sequence[str],
    *,
    width: int = 60,
    height: int = 16,
    title: Optional[str] = None,
    log_y: bool = False,
) -> str:
    """Scatter/line chart of columns *ys* against column *x*.

    Each series gets its own mark; points are plotted on a
    ``width``×``height`` grid with min/max axis annotations.
    """
    if not rows:
        return "(no rows)"
    xs = [float(r[x]) for r in rows]
    series = {}
    for y in ys:
        vals = [float(r[y]) for r in rows]
        if log_y:
            if any(v <= 0 for v in vals):
                raise ValueError(f"log_y requires positive values in {y!r}")
            vals = [math.log10(v) for v in vals]
        series[y] = vals

    x_lo, x_hi = min(xs), max(xs)
    all_y = [v for vals in series.values() for v in vals]
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for si, (name, vals) in enumerate(series.items()):
        mark = _MARKS[si % len(_MARKS)]
        for xv, yv in zip(xs, vals):
            col = int((xv - x_lo) / x_span * (width - 1))
            row = int((yv - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = mark

    def fmt(v: float) -> str:
        if log_y:
            return f"1e{v:.1f}"
        return f"{v:.3g}"

    lines: List[str] = []
    if title:
        lines.append(title)
    legend = "  ".join(
        f"{_MARKS[i % len(_MARKS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(legend)
    lines.append(f"{fmt(y_hi):>10} ┤" + "".join(grid[0]))
    for r in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(r))
    lines.append(f"{fmt(y_lo):>10} ┤" + "".join(grid[-1]))
    lines.append(" " * 10 + " └" + "─" * width)
    lines.append(
        " " * 12 + f"{fmt(x_lo):<{width // 2}}{fmt(x_hi):>{width // 2}}"
    )
    lines.append(" " * 12 + f"{x:^{width}}")
    return "\n".join(lines)
