import math
import sys

import numpy as np
import pytest

from oxidefv.formatting import format_float, write_csv

# doubles at the edges of the %.17g format: non-finite values, signed
# zeros, the subnormal and normal extremes and values near 1e17, where the
# format switches to an exponent
AWKWARD = (
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -sys.float_info.max,
    0.1, 1.0 / 3.0, 1e16, 1e17, 123456789012345678.0, 2.0**53 + 2.0,
)


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
