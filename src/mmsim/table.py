"""The one CSV layout of every table the package writes and reads back.

A table is a header line of column names followed by one line per row:
fields joined by ``,``, lines ended by LF, no quoting.  Cells are formatted
column by column: floats as their shortest round-trip ``repr``, boolean
flags as ``1``/``0``, integers and strings with ``str``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_table", "read_table"]

# Rows formatted per write: bounds the text held at once whatever the table size.
BLOCK_ROWS = 8192


def _cells(column) -> list[str]:
    """Cell texts of a column slice (a numpy array or a sequence)."""
    # str of a Python float is its repr, the shortest text that round-trips
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        # each distinct value is formatted once; keyed by its bits, -0.0 keeps its own text
        bits, index = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
        fmt = "01".__getitem__ if column.dtype == bool else str
        texts = np.array(list(map(fmt, bits.view(column.dtype).tolist())), dtype=object)
        return texts[index].tolist()
    if isinstance(column, np.ndarray):
        column = column.tolist()
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
        body = "\n".join(fh.read().split())
    width = len(header)
    if not body:
        return header, [[] for _ in range(width)]
    # each row's comma count, summed between the newlines
    data = np.frombuffer(body.encode("utf-8"), dtype=np.uint8)
    row_starts = np.concatenate(([0], np.flatnonzero(data == ord("\n")) + 1))
    commas = np.add.reduceat(data == ord(","), row_starts, dtype=np.intp)
    del data, row_starts
    if (commas != width - 1).any():
        bad = int(np.argmax(commas != width - 1))
        raise ValueError(
            f"{path}: data row {bad + 1} has {commas[bad] + 1} fields, the header {width}"
        )
    fields = body.replace("\n", ",").split(",")
    del body  # the text goes before the columns are built: a lower peak
    return header, [fields[i::width] for i in range(width)]
