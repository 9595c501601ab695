"""Shared deterministic number formatting and the one CSV writer."""

from __future__ import annotations


def format_float(x: float) -> str:
    """17-significant-digit formatting: round-trips doubles exactly and is
    byte-stable across runs and platforms."""
    return format(float(x), ".17g")


def write_csv(path, names, columns) -> None:
    """Write a table to path: a header line of the column names, then one
    line per row.  The columns are walked together with zip, a row at a
    time, so numpy arrays, tuples and generators are streamed and none is
    copied whole; they must have equal lengths.  A float field (numpy
    float64 included) is written as %.17g, the same bytes as format_float;
    any other field as str() of it, so an integer as an integer and a
    string as it is."""
    with open(path, "w", newline="") as f:
        f.write(",".join(names) + "\n")
        for row in zip(*columns, strict=True):
            f.write(",".join([
                "%.17g" % v if isinstance(v, float) else str(v)
                for v in row
            ]) + "\n")
