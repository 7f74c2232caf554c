"""Result tables and their text formats: CSV with '#' metadata lines, and
gnuplot-style plot data.  Every command writes through here, so this module
imports nothing from the package and no Monte Carlo code."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Table", "emit_csv", "emit_plot_data", "parse_csv"]


@dataclass
class Table:
    """Result rows plus metadata emitted as comment lines."""

    columns: list
    rows: list  # or an iterator, which one emit reads
    meta: dict = field(default_factory=dict)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def _emit(table: Table, fh, sep: str, header: str) -> None:
    """'#' metadata lines, ``header`` + the column names, then the rows."""
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
    for k in sorted(table.meta):
        fh.write(f"# {k}={table.meta[k]}\n")
    fh.write(header + sep.join(table.columns) + "\n")
    for row in table.rows:
        fh.write(sep.join(_fmt(v) for v in row) + "\n")


def emit_csv(table: Table, fh) -> None:
    """CSV with '#' metadata lines, a header row, 12 significant digits."""
    _emit(table, fh, ",", "")


def emit_plot_data(table: Table, fh) -> None:
    """gnuplot-style whitespace-separated columns with a '#' header."""
    _emit(table, fh, " ", "# ")


def parse_csv(fh) -> Table:
    meta = {}
    columns = None
    rows = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                meta[k] = v
            continue
        parts = line.split(",")
        if columns is None:
            columns = parts
            continue
        row = []
        for p in parts:
            try:
                row.append(float(p))
            except ValueError:
                row.append(p)
        rows.append(tuple(row))
    return Table(columns=columns or [], rows=rows, meta=meta)
