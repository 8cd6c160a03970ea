"""Plain-text rendering helpers for experiment output."""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["format_table", "sparkline", "fmt_pct", "dot_timeline"]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def fmt_pct(value: float, digits: int = 1) -> str:
    """Format a percentage value."""
    return f"{value:.{digits}f}%"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    header_cells = [str(cell) for cell in headers]
    body = [[str(cell) for cell in row] for row in rows]
    widths = [len(cell) for cell in header_cells]
    for row in body:
        for column, cell in enumerate(row):
            if column < len(widths):
                widths[column] = max(widths[column], len(cell))
            else:
                widths.append(len(cell))

    def fmt_row(cells: List[str]) -> str:
        return "  ".join(
            cell.ljust(widths[column]) for column, cell in enumerate(cells)
        ).rstrip()

    separator = "  ".join("-" * width for width in widths)
    lines = [fmt_row(header_cells), separator]
    lines.extend(fmt_row(row) for row in body)
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """A unicode sparkline of a numeric series."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARK_CHARS[0] * len(values)
    scale = (len(_SPARK_CHARS) - 1) / (hi - lo)
    return "".join(
        _SPARK_CHARS[int(round((value - lo) * scale))] for value in values
    )


def dot_timeline(flags: Sequence[bool], on: str = "●", off: str = "·") -> str:
    """Figure-8 style dot timeline (one char per sampled day)."""
    return "".join(on if flag else off for flag in flags)
