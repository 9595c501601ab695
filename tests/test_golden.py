"""The CLI writes, byte for byte, the outputs recorded in tests/golden/.

A change that moves them re-records them with tests/golden/record.py and
says which files moved, by how much, and why."""

import ctypes
import json
import math

import pytest
from numpy.linalg import _umath_linalg

from golden.record import GOLDEN, MANIFEST, RUNS, run_one, sha256, versions

RECORDED = json.loads(MANIFEST.read_text())


def _number(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def column_changes(recorded: str, current: str) -> dict:
    """The largest absolute change per column of two CSV texts, over the
    rows both hold, for the columns that changed: inf where only one side
    is nan, "text" where a changed field is not a number."""
    old, new = recorded.splitlines(), current.splitlines()
    names = old[0].split(",")
    changes = dict.fromkeys(names, 0.0)
    for old_row, new_row in zip(old[1:], new[1:]):
        for name, a, b in zip(names, old_row.split(","), new_row.split(",")):
            if a == b or changes[name] == "text":
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None:
                changes[name] = "text"
            else:
                change = math.inf if math.isnan(x) or math.isnan(y) else abs(x - y)
                changes[name] = max(changes[name], change)
    return {name: change for name, change in changes.items() if change}


def _versions(v: dict) -> str:
    return ", ".join(f"{name} {version}" for name, version in v.items())


def cpu_kernels() -> str:
    """The CPU-specific code the outputs' round-off depends on: the SIMD
    target numpy dispatched each float64 math kernel the scheme calls to,
    and the core OpenBLAS chose for its kernels."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2
        targets = "unknown"
    else:
        info = opt_func_info(func_name="^(exp|expm1|log|log1p|power)$", signature="float64")
        targets = ", ".join(
            f"{name} {target['current']}" for name, sigs in info.items() for target in sigs.values()
        )
    lib = ctypes.CDLL(_umath_linalg.__file__)
    core = "unknown"
    for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
        corename = getattr(lib, sym, None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
            break
    return f"numpy kernels: {targets}; OpenBLAS core: {core}"


def describe(path: str, recorded: bytes, current: bytes) -> str:
    """A mismatch report: the file, its first differing line on both sides,
    the largest change per column of a CSV, the recorded and current
    Python, numpy and scipy versions, and the CPU kernels running now."""
    old, new = recorded.decode().splitlines(), current.decode().splitlines()
    first = next(
        (i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new))
    )
    lines = [
        f"{path} differs from its recording; first differing line {first + 1}:",
        f"  recorded: {old[first] if first < len(old) else '<end of file>'}",
        f"  current:  {new[first] if first < len(new) else '<end of file>'}",
    ]
    if len(old) != len(new):
        lines.append(f"{len(old)} lines recorded, {len(new)} now")
    if path.endswith(".csv"):
        changes = column_changes(recorded.decode(), current.decode())
        lines.append(
            "largest change per column: "
            + ", ".join(
                f"{name} {change if isinstance(change, str) else format(change, '.3g')}"
                for name, change in changes.items()
            )
        )
    lines.append(f"recorded with {_versions(RECORDED['versions'])}")
    lines.append(f"running      {_versions(versions())}")
    lines.append(f"on           {cpu_kernels()}")
    return "\n".join(lines)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_outputs_match_the_recording(run, tmp_path):
    entry = RECORDED["runs"][run]
    assert entry["argv"] == RUNS[run], "RUNS changed since the recording: rerun record.py"
    out = tmp_path / run
    assert run_one(run, out) == entry["exit"]
    assert sorted(p.name for p in out.iterdir()) == sorted(entry["files"])
    for name, digest in entry["files"].items():
        golden = GOLDEN / run / name
        assert sha256(golden) == digest, f"{run}/{name} does not match manifest.json"
        current = (out / name).read_bytes()
        if current != golden.read_bytes():
            pytest.fail(describe(f"{run}/{name}", golden.read_bytes(), current), pytrace=False)


def test_mismatch_report():
    recorded = b"n,t,L,note\n0,0,1.5,a\n1,0.5,1.25,b\n"
    current = b"n,t,L,note\n0,0,1.5,a\n1,0.5,1.2500001,c\n2,1,nan,d\n"
    report = describe("run/steps.csv", recorded, current)
    assert "run/steps.csv differs from its recording; first differing line 3:" in report
    assert "  recorded: 1,0.5,1.25,b\n  current:  1,0.5,1.2500001,c" in report
    assert "3 lines recorded, 4 now" in report
    assert "largest change per column: L 1e-07, note text" in report
    assert "recorded with python " in report and "running      python " in report
    assert "kernels: exp " in report and "power " in report and "; OpenBLAS core: " in report
