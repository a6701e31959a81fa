"""Plain-text table rendering for benchmark and experiment reports.

The evaluation harness prints the same rows/series the paper's tables and
figures report; this module owns the formatting so every report looks alike.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def _cell(value: object, float_digits: int) -> str:
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    float_digits: int = 3,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned monospace table."""
    str_rows = [[_cell(value, float_digits) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)
