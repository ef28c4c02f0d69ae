"""The package API: ``kdvtorus.__all__`` is the union of the library modules' lists.

Every public name is one that code outside its module writes, and every name
``perfbench/`` takes from the package resolves. Also: the acceptance gate
needs nothing but the package to load, the baseline freezer writes the table
the gate reads, and the suite's own pytest settings let a failing property
test fail alone.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kdvtorus
import test_acceptance
from kdvtorus import cli, experiments, fields, integrator, normal_form, shallow_water, svgplot

ROOT = Path(__file__).resolve().parents[1]

MODULES = (fields, integrator, normal_form, experiments, shallow_water)


def test_package_exports_exactly_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(kdvtorus.__all__) == len(set(kdvtorus.__all__))
    assert len(names) == len(set(names))  # no name is public in two modules
    assert set(kdvtorus.__all__) == {"__version__", *names}


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_listed_name_is_the_module_object(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"
        assert getattr(kdvtorus, name) is getattr(module, name)


def _parsed(*folders: str) -> dict[Path, ast.Module]:
    """The syntax tree of every ``.py`` file under the given folders of the checkout."""
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for folder in folders for path in sorted((ROOT / folder).rglob("*.py"))}


def _written(tree: ast.Module) -> set[str]:
    """Every identifier the code writes: names, attributes and imported names."""
    return {getattr(node, "id", None) or getattr(node, "attr", None) or node.name
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}


def test_every_public_name_is_written_outside_its_module():
    """A name in ``__all__`` that no other file under src, tests, tools or perfbench
    writes is reached only through a call that returns it, and is not API.

    The library modules and the two that the package does not re-export, alike.
    """
    written = {path.resolve(): _written(tree)
               for path, tree in _parsed("src", "tests", "tools", "perfbench").items()}
    unwritten = [
        f"{module.__name__}.{name}"
        for module in (*MODULES, cli, svgplot) for name in module.__all__
        if not any(name in names for path, names in written.items()
                   if path != Path(module.__file__).resolve())
    ]
    assert not unwritten, f"public, yet written nowhere outside its module: {unwritten}"


def test_every_name_perfbench_imports_from_the_package_resolves():
    """Nothing runs perfbench/reference.py, so a name it imports that the package
    dropped would go unseen; each ``from kdvtorus... import`` must resolve."""
    imports = [(node.module, alias.name)
               for tree in _parsed("perfbench").values() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "kdvtorus"
               for alias in node.names]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports if not _resolves(module, name)]
    assert not missing, f"perfbench imports names the package lacks: {missing}"


def _resolves(module: str, name: str) -> bool:
    """``from module import name`` finds an attribute, or else a submodule of a package."""
    source = importlib.import_module(module)
    return hasattr(source, name) or (
        hasattr(source, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None)


_LOAD = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("gate", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(" ".join(sorted(n for n in dir(module) if n.startswith("test_criterion_"))))
"""


def test_the_gate_loads_with_only_the_package_on_the_path(tmp_path):
    """perfbench/reference.py loads the gate with src/ alone, so it imports nothing from tests/."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD, str(ROOT / "tests" / "test_acceptance.py")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    numbers = [int(name.split("_")[2]) for name in proc.stdout.split()]
    assert numbers == list(range(1, 11))


def test_the_freezer_writes_where_the_gate_reads():
    spec = importlib.util.spec_from_file_location(
        "freeze_baselines", ROOT / "tools" / "freeze_baselines.py"
    )
    freezer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(freezer)
    assert freezer.OUT == Path(test_acceptance.__file__).with_name("baselines.json")


_PROPERTY_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    """Under ``filterwarnings = error`` a deprecation raised in hypothesis's
    teardown once turned one failing @given test into an INTERNALERROR that
    skipped every later test."""
    (tmp_path / "test_two.py").write_text(_PROPERTY_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
