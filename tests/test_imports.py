"""Every name a module of the package imports is read in that module, so an
import left behind by a refactor fails here.  The one exception is a name
the benchmark wraps in that module (`perfbench/worker.py`): the module
keeps it as an attribute for the tracer to replace."""

import ast
from pathlib import Path

import pytest

from test_bench_hooks import wrapped_names

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oxidefv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names bound by the module's imports that nothing in it reads.
    `from __future__` imports bind no name."""
    tree = ast.parse(source)
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [name for name in imported if name not in read]


def test_package_modules_found():
    assert {"core.py", "energy.py", "scheme.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    wrapped = {name for module, name in wrapped_names() if module == path.stem}
    unread = [n for n in unread_imports(path.read_text()) if n not in wrapped]
    assert not unread, f"oxidefv.{path.stem} imports {unread} and never reads them"


def test_guard_catches_an_unread_import():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unread_imports(source) == ["field"]
