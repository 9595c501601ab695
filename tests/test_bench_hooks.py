"""The benchmark traces layers by wrapping module attributes from outside
(`perfbench/worker.py`); a refactor that drops one of those names would
break `--trace 1` without any test failing.  Check each name still exists."""

import importlib
import re
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
_WRAP = re.compile(r'tracer\.wrap\(\s*(\w+)\s*,\s*"(\w+)"')


def wrapped_names():
    if not WORKER.is_file():
        return []
    return _WRAP.findall(WORKER.read_text())


def test_worker_declares_wraps():
    if not WORKER.is_file():
        pytest.skip("perfbench/worker.py is absent")
    assert len(wrapped_names()) >= 10


@pytest.mark.parametrize("module,name", wrapped_names())
def test_wrapped_name_exists(module, name):
    mod = importlib.import_module(f"oxidefv.{module}")
    assert hasattr(mod, name), f"oxidefv.{module}.{name} is traced by the benchmark but missing"
