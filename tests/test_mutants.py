"""The mutant list of tools/mutants.py stays applicable to the source it mutates."""

import importlib.util
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
    """The test id and the failure's first line; later lines of the message are left out."""
    first = "FAILED tests/test_cli.py::TestIdentities::test_x[3] - AssertionError: boom"
    for rest in ("", "\nassert 1 == 2\n +  where 1 = f()"):
        output = ("F\n=== short test summary info ===\n" + first + rest
                  + "\n!!! stopping after 1 failures !!!\n1 failed, 12 passed in 1.0s\n")
        assert mutants._first_failure(output) == (
            "tests/test_cli.py::TestIdentities::test_x[3] - AssertionError: boom")
