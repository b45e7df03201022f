"""Experiment rows as an aligned text table.

Kept apart from :mod:`repro.experiments.common` so printing an
artifact's rows loads no placer and no verifier.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["format_rows"]

#: Every float cell, in every table.
_FLOAT_FORMAT = "{:.4f}"


def format_rows(rows: List[Dict[str, object]]) -> str:
    """Render experiment rows as an aligned text table.

    The columns are every key any row carries, in the order the rows
    first show them; a row lacking a column leaves its cell blank.
    """
    if not rows:
        return "(no rows)"
    columns = list(dict.fromkeys(key for row in rows for key in row))

    def cell(value: object) -> str:
        if isinstance(value, float):
            return _FLOAT_FORMAT.format(value)
        return str(value)

    table = [[cell(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(str(c)), *(len(line[i]) for line in table))
        for i, c in enumerate(columns)
    ]
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(v.ljust(w) for v, w in zip(line, widths)) for line in table
    )
    return f"{header}\n{rule}\n{body}"
