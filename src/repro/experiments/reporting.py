"""Shared result-table rendering.

One fixed-width formatter for everything that prints experiment tables —
the benchmark suite's ``table_printer`` fixture and the validation grid's
verdict table — so the layout cannot silently diverge between surfaces.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(header: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> List[str]:
    """The header, a dashed rule under each column, then one line per row.

    Cells are ``str()``-ed and left-justified to their column's widest
    entry, with two spaces between columns.
    """
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [max([len(name), *(len(row[i]) for row in rows)])
              for i, name in enumerate(header)]

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    return [line(header), line(["-" * width for width in widths]), *map(line, rows)]


def print_table(title: str, header: Sequence[str],
                rows: Iterable[Sequence[object]]) -> None:
    """Print one experiment's result table under a one-line rule."""
    lines = format_table(header, rows)
    print(f"\n=== {title} ===")
    print(lines[0])
    print("-" * len(lines[0]))
    for line in lines[2:]:
        print(line)
