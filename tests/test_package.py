"""The package API: ``kdvtorus.__all__`` is the union of the library modules' lists."""

import pytest

import kdvtorus
from kdvtorus import errors, experiments, fields, integrator, normal_form, shallow_water

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
