"""Result summaries emitted as machine-readable files for external plotting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fills import FillColumns, FillCounters
from .table import read_cells, write_table

__all__ = [
    "Histogram",
    "EmptyValuesError",
    "terminal_cash_histogram",
    "summarize_fills",
    "counters_from_fills",
    "write_histogram_csv",
    "write_fill_type_summary_csv",
    "read_batch_wealth_csv",
]


class EmptyValuesError(ValueError):
    pass


@dataclass(eq=False)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray


def terminal_cash_histogram(values, n_bins: int) -> Histogram:
    """Equal-width histogram over [min, max]; the max lands in the last bin."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptyValuesError("no terminal values to bin")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    counts, edges = np.histogram(values, bins=n_bins)
    return Histogram(bin_edges=edges, counts=counts)


def summarize_fills(fill_totals: FillCounters) -> list[tuple[str, int]]:
    """Aggregate fill counts by kind and side, ask side first."""
    return [
        ("AFA", fill_totals.afa),
        ("NFA", fill_totals.nfa),
        ("AFB", fill_totals.afb),
        ("NFB", fill_totals.nfb),
    ]


def counters_from_fills(fills: FillColumns) -> FillCounters:
    return FillCounters.from_columns(fills)


def write_histogram_csv(hist: Histogram, path) -> None:
    write_table(path, ["bin_lo", "bin_hi", "count"],
                [hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts])


def write_fill_type_summary_csv(rows: list[tuple[str, int]], path) -> None:
    write_table(path, ["fill_type", "count"], list(zip(*rows)))


def read_batch_wealth_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back (terminal_wealths, objectives) written by the simulator,
    whose windows run 0..n-1 in order."""
    cells = read_cells(path)
    if cells.header != ["window", "terminal_wealth", "objective"]:
        raise ValueError(f"unexpected batch wealth header {','.join(cells.header)!r}")
    off = np.flatnonzero(cells.ints("window") != np.arange(cells.n_rows))
    if off.size:
        cells.reject("window", int(off[0]), f"not {off[0]}: windows run 0..n-1 in order")
    return cells.floats("terminal_wealth"), cells.floats("objective")
