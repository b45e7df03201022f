"""Aligned plain-text tables for the terminal views."""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["text_table"]


def text_table(rows: Sequence[Sequence[str]]) -> List[str]:
    """``rows`` as left-aligned columns two spaces apart, with a rule
    under the first (header) row and trailing blanks stripped."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths).rstrip())
    return lines
