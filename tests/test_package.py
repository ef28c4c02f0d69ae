"""The package API: ``kdvtorus.__all__`` is the union of the library modules' lists.

Also: the acceptance gate needs nothing but the package to load, the
baseline freezer writes the table the gate reads, and the suite's own pytest
settings let a failing property test fail alone.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kdvtorus
import test_acceptance
from kdvtorus import errors, experiments, fields, integrator, normal_form, shallow_water

ROOT = Path(__file__).resolve().parents[1]

MODULES = (errors, fields, integrator, normal_form, experiments, shallow_water)


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
