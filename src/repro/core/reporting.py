"""Plain-text table and series formatting for the experiment harness.

Every benchmark regenerates its paper table/figure as text; these
helpers keep the output layout consistent (fixed-width columns, one
header row, optional paper-reference column) so EXPERIMENTS.md can be
assembled straight from bench logs.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence, Union

Cell = Union[str, float, int]


def atomic_write(path: str, writer, mode: str = "w") -> str:
    """Write a file atomically: temp file + ``os.replace``.

    ``writer(handle)`` produces the content.  A crashed or concurrent
    run can therefore never leave a truncated file on disk — readers
    see either the old complete file or the new complete one.  The
    temp file lives in the destination directory so the rename stays
    on one filesystem; on any failure it is removed and the previous
    file survives intact.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as handle:
            writer(handle)
        # mkstemp creates 0600 files; restore the umask-derived mode a
        # plain open() would have used, so committed artefacts and
        # shared cache directories stay group/other readable.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_artifact(path: str, text: str) -> str:
    """Write artefact text atomically (see :func:`atomic_write`), so a
    crashed or parallel run can never leave a truncated
    ``benchmarks/results/*.txt`` on disk."""
    return atomic_write(path, lambda handle: handle.write(text))


def _format_cell(value: Cell, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 10 ** (-precision):
            return f"{value:.3g}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Cell]],
                 title: Optional[str] = None, precision: int = 3) -> str:
    """Render rows as a fixed-width text table."""
    text_rows = [[_format_cell(cell, precision) for cell in row]
                 for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(headers))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in text_rows)
    return "\n".join(parts)


def ratio_note(measured: float, paper: float, label: str = "") -> str:
    """One-line paper-vs-measured comparison used in bench output."""
    if paper == 0:
        return f"{label}: measured {measured:.4g} (paper N/A)"
    return (f"{label}: measured {measured:.4g} vs paper {paper:.4g} "
            f"(ratio {measured / paper:.2f}x)")
