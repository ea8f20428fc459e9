"""Plain-text table formatting for experiment results."""

from __future__ import annotations


def format_table(rows: list[dict[str, object]], title: str | None = None) -> str:
    """Render a list of dicts as an aligned text table.

    Columns are the union of all rows' keys in first-seen order, so rows
    with extra or missing keys render blanks instead of losing data."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: list[str] = []
    seen: set[str] = set()
    for r in rows:
        for k in r:
            if k not in seen:
                seen.add(k)
                columns.append(k)
    cells = [[_fmt(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(str(c)), *(len(row[i]) for row in cells))
        for i, c in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def normalized_bar(value: float, scale: int = 40) -> str:
    """ASCII bar for normalized execution times (1.0 = full scale)."""
    n = max(0, min(scale * 2, round(value * scale)))
    return "#" * n
