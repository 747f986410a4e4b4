"""The one CSV layout of every table the package writes and reads back.

A table is a header line of column names followed by one line per row:
fields joined by ``,``, lines ended by LF, no quoting.  Cells are formatted
column by column: floats as their shortest round-trip ``repr``, boolean
flags as ``1``/``0``, integers and strings with ``str``.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

__all__ = ["write_table", "read_table"]

# Rows formatted per write: bounds the text held at once whatever the table size.
BLOCK_ROWS = 8192


def _cells(column) -> list[str]:
    """Cell texts of a column slice (a numpy array or a sequence)."""
    if isinstance(column, np.ndarray):
        if column.dtype == bool:
            return list(map("01".__getitem__, column.tolist()))
        column = column.tolist()
    # str of a Python float is its repr, the shortest text that round-trips
    return list(map(str, column))


def write_table(path, header, columns) -> None:
    """Write ``columns`` (equal-length arrays or sequences) under ``header``."""
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, BLOCK_ROWS):
            block = [_cells(column[start:start + BLOCK_ROWS]) for column in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Read a table back as (column names, cell texts per column).

    Rows are split on whitespace, so blank lines and CR line ends are
    ignored.  Every row must have as many fields as the header.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = fh.read().split()
    width = len(header)
    if not all(map((width - 1).__eq__, map(str.count, rows, repeat(",")))):
        bad = next(i for i, row in enumerate(rows) if row.count(",") != width - 1)
        raise ValueError(
            f"{path}: data row {bad + 1} has {rows[bad].count(',') + 1} fields, "
            f"the header {width}"
        )
    fields = ",".join(rows).split(",") if rows else []
    del rows  # the row texts go before the columns are built: a lower peak
    return header, [fields[i::width] for i in range(width)]
