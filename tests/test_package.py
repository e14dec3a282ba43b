"""The package's namespace: each library module's public names, declared once."""

import types

import pytest

import subord
from subord import comparison, diffops, errors, fourier_core, measures, summability, testkit

_MODULES = [errors, fourier_core, testkit, measures, comparison, summability, diffops]


@pytest.mark.parametrize("module", _MODULES, ids=lambda module: module.__name__)
def test_every_name_a_module_declares_public_is_the_same_object_on_the_package(module):
    for name in module.__all__:
        assert getattr(subord, name) is getattr(module, name), name


def test_the_package_exports_no_other_public_name_than_its_modules():
    declared = {name for module in _MODULES for name in module.__all__}
    others = {name for name in dir(subord) if not name.startswith("_")
              and not isinstance(getattr(subord, name), types.ModuleType)}
    assert others == declared
