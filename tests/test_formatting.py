import math
import sys
import tracemalloc

import numpy as np
import pytest

from oxidefv.formatting import CHUNK_ROWS, format_float, write_csv

# doubles at the edges of the %.17g format: non-finite values, signed
# zeros, the subnormal and normal extremes and values near 1e17, where the
# format switches to an exponent
AWKWARD = (
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -sys.float_info.max,
    0.1, 1.0 / 3.0, 1e16, 1e17, 123456789012345678.0, 2.0**53 + 2.0,
)


def reference_write_csv(path, names, columns) -> None:
    """The writer before chunking: one row at a time, field by field."""
    with open(path, "w", newline="") as f:
        f.write(",".join(names) + "\n")
        for row in zip(*columns, strict=True):
            f.write(",".join([
                "%.17g" % v if isinstance(v, float) else str(v)
                for v in row
            ]) + "\n")


def assert_same_bytes(tmp_path, names, make_columns):
    """write_csv and reference_write_csv write the same bytes; make_columns
    gives each writer its own columns, so generators are fresh."""
    write_csv(tmp_path / "new.csv", names, make_columns())
    reference_write_csv(tmp_path / "ref.csv", names, make_columns())
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def read_rows(path):
    lines = path.read_bytes().decode().split("\n")
    assert lines[-1] == ""
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


def test_floats_are_written_as_format_float(tmp_path):
    # random bit patterns: any sign, exponent and mantissa, NaN payloads included
    bits = np.random.default_rng(0).integers(0, 2**64, size=20000, dtype=np.uint64)
    values = np.concatenate((AWKWARD, bits.view(np.float64)))
    path = tmp_path / "floats.csv"
    # numpy float64 scalars from the array, Python floats from the list
    write_csv(path, ("array", "list"), (values, values.tolist()))
    names, rows = read_rows(path)
    assert names == ["array", "list"]
    assert len(rows) == len(values)
    for row, value in zip(rows, values):
        assert row == [format_float(value)] * 2


def test_integers_and_strings_are_written_as_they_are(tmp_path):
    path = tmp_path / "mixed.csv"
    write_csv(
        path,
        ("n", "big", "np", "text"),
        (range(3), (10**20, -1, 0), np.arange(3), ("", "a", "b")),
    )
    assert path.read_bytes() == (
        b"n,big,np,text\n"
        b"0,100000000000000000000,0,\n"
        b"1,-1,1,a\n"
        b"2,0,2,b\n"
    )


def test_generator_columns_are_streamed(tmp_path):
    path = tmp_path / "gen.csv"
    write_csv(path, ("x", "x2"), ((float(i) for i in range(4)), (i * i for i in range(4))))
    assert read_rows(path)[1] == [["0", "0"], ["1", "1"], ["2", "4"], ["3", "9"]]


def test_columns_of_unequal_length_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a", "b"), ((1.0, 2.0), (1.0,)))


def test_no_rows_writes_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ("a", "b"), ((), ()))
    assert path.read_bytes() == b"a,b\n"


@pytest.mark.parametrize(
    "rows", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]
)
def test_every_column_kind_matches_the_reference(rows, tmp_path):
    rng = np.random.default_rng(rows)
    U = rng.standard_normal((rows, 3))
    floats = rng.standard_normal(rows)
    # the AWKWARD doubles lead the float64 column and repeat in the tuple
    floats[: min(rows, len(AWKWARD))] = AWKWARD[:rows]
    ints = rng.integers(-(2**63), 2**63 - 1, size=rows, dtype=np.int64)
    with np.errstate(over="ignore"):
        singles = floats.astype(np.float32)

    def columns():
        return (
            range(rows),
            floats,
            U[:, 0],
            U[:, -1],
            ints,
            singles,
            floats > 0.0,
            ["" if i % 3 == 0 else float(v) for i, v in enumerate(floats)],
            (float(v) for v in floats),
            tuple(AWKWARD[i % len(AWKWARD)] for i in range(rows)),
        )

    names = ("n", "f64", "view0", "view2", "i64", "f32", "bool", "blank", "gen", "tuple")
    assert_same_bytes(tmp_path, names, columns)


def test_generator_of_floats_then_a_non_float_matches_the_reference(tmp_path):
    rows = CHUNK_ROWS + 5

    def values():
        # a chunk of floats only, then a chunk with an int and a string
        yield from (0.1 * i for i in range(CHUNK_ROWS))
        yield 7
        yield "x"
        yield from (1.0 / 3.0, math.nan, -0.0)

    assert_same_bytes(tmp_path, ("n", "v"), lambda: (range(rows), values()))


@pytest.mark.parametrize("short", ["array", "generator"])
def test_column_running_out_in_a_later_chunk_is_rejected(short, tmp_path):
    rows = 2 * CHUNK_ROWS + 1
    full = np.arange(rows, dtype=float)
    column = full[:-1] if short == "array" else (float(v) for v in full[:-1])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "short.csv", ("a", "b"), (full, column))


def test_a_long_column_is_not_copied_whole(tmp_path):
    column = np.random.default_rng(0).standard_normal(200_000)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "long.csv", ("x",), (column,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < column.nbytes / 4
    assert (tmp_path / "long.csv").read_bytes().count(b"\n") == len(column) + 1
