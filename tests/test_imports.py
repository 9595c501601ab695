"""Every name a module of the package imports is read in that module, so an
import left behind by a refactor fails here.  The one exception is a name
the benchmark wraps in that module (`perfbench/worker.py`): the module
keeps it as an attribute for the tracer to replace.

Likewise every public function or class the package defines is loaded by
its bare name in the package, or read or wrapped by the benchmark, so code
that only its own tests call fails here, unless it is listed in
KEPT_FOR_TESTS with its reason.  Every public method of a package class is
read by name or as an attribute the benchmark loads, and every public field
of a package class is loaded as an attribute by the package or the
benchmark."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_bench_hooks import WORKER, module_reads, wrapped_names

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "oxidefv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Public functions that neither the package nor the benchmark calls, kept
# because the certification tests state a property of the scheme through
# them.
KEPT_FOR_TESTS = {
    "jacobian": "criterion 08 checks the analytic Jacobian against finite differences",
    "velocities": "the frame-velocity identities: uniform on the wave, telescoping to -d[L] h",
    "mean_value_theta": "the mean-value identity behind the bulk dissipation's edge weights",
    "residual": "the step residual the assembled Jacobian and the Newton solves are checked against",
}


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


def bare_name_reads(source: str) -> set[str]:
    """The names the module's code loads as a bare name."""
    return {
        node.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def attribute_reads(source: str) -> set[str]:
    """The attribute names the module's code loads."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def name_reads(source: str) -> set[str]:
    """The names the module's code loads, as a name or as an attribute."""
    return bare_name_reads(source) | attribute_reads(source)


def unread_definitions(sources: dict, reads=frozenset()) -> list[str]:
    """"module.name" of each public top-level function or class in sources
    (module name -> source) that no source loads by its bare name and that
    is not in reads.  An attribute load does not count: `system.residual`
    reads a method, not the function `residual`."""
    read = set(reads).union(*map(bare_name_reads, sources.values()))
    return [
        f"{module}.{node.name}"
        for module, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


def package_sources() -> dict:
    return {path.stem: path.read_text() for path in MODULES}


def benchmark_reads() -> set[str]:
    """The package names the benchmark calls, reads or wraps."""
    return {name for _, name in (*module_reads(), *wrapped_names())}


def test_every_public_definition_is_read():
    unread = unread_definitions(package_sources(), benchmark_reads() | set(KEPT_FOR_TESTS))
    assert not unread, f"{unread} are read by neither the package nor the benchmark"


def unread_methods(sources: dict, reads=frozenset()) -> list[str]:
    """"module.Class.name" of each public method of a top-level class in
    sources (module name -> source) that no source loads by name and that
    is not in reads."""
    read = set(reads).union(*map(name_reads, sources.values()))
    return [
        f"{module}.{cls.name}.{node.name}"
        for module, source in sources.items()
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in read
    ]


def worker_attribute_reads() -> set[str]:
    """Every attribute name the benchmark's worker loads."""
    return attribute_reads(WORKER.read_text()) if WORKER.is_file() else set()


def test_every_public_method_is_read():
    unread = unread_methods(package_sources(), worker_attribute_reads())
    assert not unread, f"{unread} are read by neither the package nor the benchmark"


def test_guard_catches_an_unread_method():
    sources = {
        "a": "class A:\n    def used(self):\n        pass\n\n    def unused(self):\n"
             "        pass\n\n    def _private(self):\n        pass\n\n    def __call__(self):\n"
             "        pass\n",
        "b": "from .a import A\n\nA().used()\n",
    }
    assert unread_methods(sources) == ["a.A.unused"]
    assert unread_methods(sources, {"unused"}) == []


@pytest.mark.parametrize("name", sorted(KEPT_FOR_TESTS))
def test_kept_name_is_unread_and_tested(name):
    # an entry whose name the package or the benchmark reads again, or that
    # no test loads by its bare name, is stale
    assert name in {n.split(".")[1] for n in unread_definitions(package_sources())}
    assert name not in benchmark_reads()
    assert any(name in bare_name_reads(path.read_text()) for path in TESTS.glob("test_*.py"))


def test_guard_catches_an_uncalled_definition():
    sources = {
        "a": "def used():\n    pass\n\ndef unused():\n    pass\n\ndef _private():\n    pass\n",
        "b": "from .a import used, unused\n\nclass Kept:\n    pass\n\nused()\n",
    }
    assert unread_definitions(sources) == ["a.unused", "b.Kept"]
    assert unread_definitions(sources, {"Kept"}) == ["a.unused"]


def test_guard_does_not_take_a_method_read_for_a_function():
    sources = {
        "a": "def residual():\n    pass\n\nclass System:\n    def residual(self):\n"
             "        pass\n",
        "b": "from .a import System\n\nSystem().residual()\n",
    }
    assert unread_definitions(sources) == ["a.residual"]
    assert unread_methods(sources) == []


def reads_block_budget(source: str) -> bool:
    """Whether the module's code imports the name _BLOCK_ELEMS or loads it,
    as a bare name or as an attribute."""
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return "_BLOCK_ELEMS" in imported | name_reads(source)


def test_only_core_reads_the_block_budget():
    # the block budget has one home: the other modules take their rows from
    # core._block_steps, so patching core's budget reaches every block
    readers = [p.stem for p in MODULES if p.stem != "core" and reads_block_budget(p.read_text())]
    assert not readers, f"oxidefv.{readers} read core's _BLOCK_ELEMS"


def test_guard_catches_a_block_budget_read():
    assert reads_block_budget("from .core import _BLOCK_ELEMS, _block_steps\n")
    assert reads_block_budget("from . import core\n\nrows = core._BLOCK_ELEMS // 3\n")
    # a docstring that names the budget does not read it
    assert not reads_block_budget(
        '"""At most about _BLOCK_ELEMS entries."""\nfrom .core import _block_steps\n'
    )


def unread_fields(sources: dict, reads=frozenset()) -> list[str]:
    """"module.Class.name" of each public annotated field of a top-level
    class in sources (module name -> source) that no source loads as an
    attribute and that is not in reads."""
    read = set(reads).union(*map(attribute_reads, sources.values()))
    return [
        f"{module}.{cls.name}.{node.target.id}"
        for module, source in sources.items()
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and not node.target.id.startswith("_")
        and node.target.id not in read
    ]


def test_every_public_field_is_read():
    unread = unread_fields(package_sources(), worker_attribute_reads())
    assert not unread, f"{unread} are read by neither the package nor the benchmark"


def test_guard_catches_an_unread_field():
    sources = {
        "a": "from dataclasses import dataclass\n\n@dataclass\nclass A:\n    used: int\n"
             "    unused: float\n    _private: int\n    named: int\n",
        "b": "from .a import A\n\nused = 1\nunused = 2\nprint(A(1, 2, 3, 4).used, used, unused)\n"
             "getattr(A(1, 2, 3, 4), 'named')\n",
    }
    # a bare name is not the field, and neither is a string
    assert unread_fields(sources) == ["a.A.unused", "a.A.named"]
    assert unread_fields(sources, {"unused", "named"}) == []


# Imports every module of the package and runs `python -m oxidefv simulate`
# in one fresh interpreter, then prints the scipy modules it loaded.  With
# "block", a finder refuses every scipy import first, as on an install
# without scipy.
RUN_WITHOUT_SCIPY = """
import importlib, json, pkgutil, runpy, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"No module named {name!r}")

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
import oxidefv
for info in pkgutil.iter_modules(oxidefv.__path__):
    importlib.import_module("oxidefv." + info.name)
sys.argv = ["oxidefv", "simulate", "--preset", "testcase1", "--cells", "20",
            "--t-final", "0.1", "--out", sys.argv[2]]
try:
    runpy.run_module("oxidefv", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert stop.code == 0, stop.code
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


@pytest.mark.parametrize("mode", ["installed", "block"])
def test_package_runs_without_scipy(mode, tmp_path):
    src = str(PACKAGE.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, path)) if path else src)
    result = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_SCIPY, mode, str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
    assert (tmp_path / "out" / "steps.csv").is_file()


def test_solve_banded_is_imported_on_access():
    # the benchmark's tracer wraps scheme.solve_banded; reading it is what
    # imports scipy.linalg
    code = (
        "import sys; from oxidefv import scheme\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "assert hasattr(scheme, 'solve_banded')\n"
        "assert 'scipy.linalg' in sys.modules\n"
        "assert not hasattr(scheme, 'no_such_name')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
