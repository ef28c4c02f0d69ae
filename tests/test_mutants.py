"""The mutant list of tools/mutants.py stays applicable to the source it mutates."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.reason)
def test_each_old_text_occurs_exactly_once(mutant):
    assert mutant.old != mutant.new
    assert mutants.occurrences(mutants.ROOT, mutant) == 1


def test_the_first_failure_names_the_test():
    """The test id and the failure's first line; later lines of the message are left out.

    A message on the line after ``AssertionError: ``, as NumPy's testing functions
    write it, is read from that test's own failure section.
    """
    first = "FAILED tests/test_cli.py::TestIdentities::test_x[3] - AssertionError: boom"
    for rest in ("", "\nassert 1 == 2\n +  where 1 = f()"):
        output = ("F\n=== short test summary info ===\n" + first + rest
                  + "\n!!! stopping after 1 failures !!!\n1 failed, 12 passed in 1.0s\n")
        assert mutants._first_failure(output) == (
            "tests/test_cli.py::TestIdentities::test_x[3] - AssertionError: boom")
    numpy_output = "\n".join([
        "F", "=== FAILURES ===",
        "___ TestBits.test_other ___", "", ">       assert_same_bits(a, b)",
        "E       AssertionError: ", "E       Arrays differ elsewhere", "",
        "___ TestBits.test_bits[1] ___", "", ">       assert_same_bits(a, b)", "",
        "tests/test_x.py:7: ", "_ _ _ _ _ _ _ _", "",
        ">       np.testing.assert_array_equal(got, want)",
        "E       AssertionError: ", "E       Arrays are not equal", "E       ",
        "E       Mismatched elements: 1 / 2 (50%)", "",
        "tests/test_x.py:9: AssertionError", "=== short test summary info ===",
        "FAILED tests/test_x.py::TestBits::test_bits[1] - AssertionError: ",
        "!!! stopping after 1 failures !!!", "1 failed, 12 passed in 1.0s", "",
    ])
    assert mutants._first_failure(numpy_output) == (
        "tests/test_x.py::TestBits::test_bits[1] - AssertionError: Arrays are not equal")


def test_each_entry_names_a_fast_loop_killer_or_an_equivalence():
    """Each stored killer is a test the fast loop collects, so it is run first, not skipped."""
    assert all(m.killer or m.equivalent for m in mutants.MUTANTS)
    killers = sorted({m.killer for m in mutants.MUTANTS if m.killer})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-m", "not gate", *killers],
        cwd=mutants.ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(killers) <= set(proc.stdout.splitlines())


def test_a_failure_reruns_its_own_test_or_else_the_fast_loop():
    """A collection error reruns its file; a failure with no test id, the whole fast loop."""
    node = "tests/test_cli.py::TestIdentities::test_x[3]"
    assert mutants._rerun(node + " - AssertionError: boom") == [node]
    assert mutants._rerun(node) == [node]
    assert mutants._rerun("tests/test_fields.py - ImportError: x") == ["tests/test_fields.py"]
    assert mutants._rerun(mutants.OUTSIDE) == mutants.FAST_LOOP
