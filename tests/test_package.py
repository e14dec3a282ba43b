"""The package's namespace: each library module's public names, declared once."""

import ast
import types
from pathlib import Path

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


def test_the_window_conventions_live_in_fourier_core_alone():
    # one refusal of non-finite values, one quiet-arithmetic policy and one outer band
    package = Path(subord.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem == "fourier_core":
            continue
        source = path.read_text()
        tree = ast.parse(source)
        assert "values contain non-finite entries" not in source, path.name
        assigned = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name)
                    and node.id == "_QUIET" and isinstance(node.ctx, ast.Store)]
        assert assigned == [], path.name
        band = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "_OUTER_BAND"
                or isinstance(node, ast.Attribute) and node.attr == "_OUTER_BAND"
                or isinstance(node, ast.alias) and node.name == "_OUTER_BAND"]
        assert band == [], path.name
