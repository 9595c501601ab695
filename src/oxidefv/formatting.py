"""Shared deterministic number formatting and the one CSV writer."""

from __future__ import annotations

from itertools import islice

import numpy as np

# Rows formatted and written at a time.  A chunk's values and text are the
# writer's only copies of the columns, about 50 kB for ten float columns
# whatever their length; larger chunks write no faster and raise the peak
# resident set of a run.
CHUNK_ROWS = 32


def format_float(x: float) -> str:
    """17-significant-digit formatting: round-trips doubles exactly and is
    byte-stable across runs and platforms."""
    return format(float(x), ".17g")


def _column_reader(column):
    """(read, slot) of one column: read() returns its next CHUNK_ROWS values
    at most, and slot is their placeholder in the row format.

    A 1-d float64 or integer array is sliced and read with tolist, so it
    gives Python floats, for %.17g, or Python ints, for str().  Any other
    column is iterated, and each value formatted on its own."""
    if type(column) is np.ndarray and column.ndim == 1 and (
        column.dtype == np.float64 or column.dtype.kind in "iu"
    ):
        chunks = (column[i : i + CHUNK_ROWS].tolist() for i in range(0, len(column), CHUNK_ROWS))
        slot = "%.17g" if column.dtype == np.float64 else "%s"
        return (lambda: next(chunks, [])), slot
    values = iter(column)
    return (lambda: [format_float(v) if isinstance(v, float) else str(v)
                     for v in islice(values, CHUNK_ROWS)]), "%s"


def write_csv(path, names, columns) -> None:
    """Write a table to path: a header line of the column names, then one
    line per row.  The columns must have equal lengths, or ValueError is
    raised.  A float field (numpy float64 included) is written as %.17g,
    the same bytes as format_float; any other field as str() of it, so an
    integer as an integer and a string as it is.

    The columns are read CHUNK_ROWS rows at a time, generators lazily; each
    row is formatted by one format string and each chunk written by one
    write, so no column is copied whole."""
    readers = [_column_reader(column) for column in columns]
    row_format = ",".join(slot for _, slot in readers) + "\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(names) + "\n")
        while True:
            rows = list(zip(*(read() for read, _ in readers), strict=True))
            f.write("".join([row_format % row for row in rows]))
            if len(rows) < CHUNK_ROWS:
                return
