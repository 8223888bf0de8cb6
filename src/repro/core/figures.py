"""ASCII figure rendering for terminal-only environments.

The paper's evaluation is figures as much as tables; this module renders
(x, y) series and grouped bars as plain text so the benchmark artefacts
under ``benchmarks/results/`` can show the *shape* of each figure (who
wins, where curves cross) without matplotlib.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

MARKERS = "ox+*#@%&"


def _scale(values: np.ndarray, lo: float, hi: float, cells: int
           ) -> np.ndarray:
    span = hi - lo
    if span <= 0:
        return np.zeros(len(values), dtype=int)
    positions = (values - lo) / span * (cells - 1)
    return np.clip(np.round(positions).astype(int), 0, cells - 1)


def ascii_line_chart(series: Dict[str, Tuple[Sequence[float],
                                             Sequence[float]]],
                     width: int = 60, height: int = 16,
                     title: str = "", x_label: str = "x",
                     y_label: str = "y") -> str:
    """Render named (xs, ys) series on one shared-axis character grid.

    Each series gets a marker from :data:`MARKERS`; the legend maps them
    back.  Axes are annotated with min/max values.
    """
    if not series:
        raise ValueError("no series to plot")
    all_x = np.concatenate([np.asarray(xs, dtype=float)
                            for xs, _ in series.values()])
    all_y = np.concatenate([np.asarray(ys, dtype=float)
                            for _, ys in series.values()])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if np.isclose(y_lo, y_hi):
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for index, (name, (xs, ys)) in enumerate(series.items()):
        marker = MARKERS[index % len(MARKERS)]
        legend.append(f"{marker} = {name}")
        cols = _scale(np.asarray(xs, dtype=float), x_lo, x_hi, width)
        rows = _scale(np.asarray(ys, dtype=float), y_lo, y_hi, height)
        for col, row in zip(cols, rows):
            grid[height - 1 - row][col] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    top_label = f"{y_hi:.3g}"
    bottom_label = f"{y_lo:.3g}"
    pad = max(len(top_label), len(bottom_label))
    for index, row in enumerate(grid):
        prefix = top_label.rjust(pad) if index == 0 else (
            bottom_label.rjust(pad) if index == height - 1 else " " * pad)
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * pad + " +" + "-" * width)
    lines.append(" " * pad + f"  {x_lo:.3g} ... {x_hi:.3g}  ({x_label})")
    lines.append(f"[{y_label}]  " + "   ".join(legend))
    return "\n".join(lines)


def stacked_latency_chart(rows: Dict[str, Dict[str, float]],
                          width: int = 48, title: str = "") -> str:
    """Render stacked latency bars (the Fig. 2 / Fig. 12 style).

    ``rows`` maps bar name -> ordered {phase -> seconds}; each phase gets
    a distinct fill character and the legend shows the mapping.
    """
    if not rows:
        raise ValueError("no rows to plot")
    fills = "#=+:.~"
    phases: List[str] = []
    for bars in rows.values():
        for phase in bars:
            if phase not in phases:
                phases.append(phase)
    peak = max(sum(bars.values()) for bars in rows.values())
    if peak <= 0:
        peak = 1.0
    name_width = max(len(name) for name in rows)

    lines: List[str] = []
    if title:
        lines.append(title)
    for name, bars in rows.items():
        segments = []
        for index, phase in enumerate(phases):
            value = bars.get(phase, 0.0)
            cells = int(round(value / peak * width))
            segments.append(fills[index % len(fills)] * cells)
        bar = "".join(segments)
        lines.append(f"  {name.ljust(name_width)} |{bar.ljust(width)}| "
                     f"{sum(bars.values()):.4g}s")
    legend = "   ".join(f"{fills[i % len(fills)]} = {phase}"
                        for i, phase in enumerate(phases))
    lines.append(f"legend: {legend}  (scale 0 ... {peak:.4g}s)")
    return "\n".join(lines)
