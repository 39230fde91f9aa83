"""Terminal (ASCII) rendering of the paper's figures.

The experiment drivers emit tables; these helpers render the two
graphical figure types -- scatter plots (Figures 3/4) and grouped bars
(Figures 1/5) -- as plain text so `python -m repro.experiments` output
can be eyeballed without a plotting stack.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

#: One marker per technique family, stable across figures.
FAMILY_MARKERS = {
    "SimPoint": "P",
    "SMARTS": "S",
    "Reduced": "r",
    "Run Z": "z",
    "FF+Run Z": "f",
    "FF+WU+Run Z": "w",
    "Random": "n",
    "Reference": "*",
}


def scatter_plot(
    points: Sequence[Tuple[str, float, float]],
    width: int = 64,
    height: int = 18,
    x_label: str = "x",
    y_label: str = "y",
    log_x: bool = False,
) -> str:
    """Render labeled (family, x, y) points as an ASCII scatter plot.

    Families are drawn with the markers in :data:`FAMILY_MARKERS`
    (first letter otherwise); a legend follows the axes.
    """
    if not points:
        raise ValueError("need at least one point")
    if width < 16 or height < 6:
        raise ValueError("plot too small")

    def x_of(value: float) -> float:
        return math.log10(max(value, 1e-9)) if log_x else value

    xs = [x_of(x) for _, x, _ in points]
    ys = [y for _, _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    used_families: Dict[str, str] = {}
    for family, x, y in points:
        marker = FAMILY_MARKERS.get(family, family[:1] or "?")
        used_families[family] = marker
        column = int((x_of(x) - x_lo) / (x_hi - x_lo) * (width - 1))
        row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
        grid[height - 1 - row][column] = marker

    lines = [f"{y_label} (top={y_hi:.3g}, bottom={y_lo:.3g})"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    if log_x:
        lines.append(
            f" {x_label} (log scale: {10 ** x_lo:.3g} .. {10 ** x_hi:.3g})"
        )
    else:
        lines.append(f" {x_label} ({x_lo:.3g} .. {x_hi:.3g})")
    legend = ", ".join(
        f"{marker}={family}" for family, marker in sorted(used_families.items())
    )
    lines.append(f" legend: {legend}")
    return "\n".join(lines)


def bar_chart(
    rows: Sequence[Tuple[str, float]],
    width: int = 50,
    max_value: float | None = None,
) -> str:
    """Render (label, value) rows as horizontal ASCII bars."""
    if not rows:
        raise ValueError("need at least one row")
    limit = max_value if max_value is not None else max(v for _, v in rows)
    if limit <= 0:
        limit = 1.0
    label_width = max(len(label) for label, _ in rows)
    lines = []
    for label, value in rows:
        filled = int(round(min(value, limit) / limit * width))
        lines.append(
            f"{label.ljust(label_width)} |{'#' * filled}{' ' * (width - filled)}| "
            f"{value:.3g}"
        )
    return "\n".join(lines)


def grouped_bar_chart(
    groups: Dict[str, List[Tuple[str, float]]],
    width: int = 50,
) -> str:
    """Render named groups of (label, value) bars on a shared scale."""
    if not groups:
        raise ValueError("need at least one group")
    overall = max(
        (value for rows in groups.values() for _, value in rows), default=1.0
    )
    sections = []
    for name, rows in groups.items():
        sections.append(f"-- {name}")
        sections.append(bar_chart(rows, width=width, max_value=overall))
    return "\n".join(sections)
