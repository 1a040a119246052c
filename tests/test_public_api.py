import ast
import importlib
import inspect
import pkgutil

import pytest

import kslab

MODULES = [
    importlib.import_module(f"kslab.{info.name}") for info in pkgutil.iter_modules(kslab.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_resolves_and_is_documented(module):
    # A listed function or class needs a docstring of its own in its source:
    # a dataclass's generated signature or an inherited docstring does not count.
    names = getattr(module, "__all__", [])
    assert [name for name in names if not hasattr(module, name)] == []
    undocumented = [
        name
        for name, obj in ((name, getattr(module, name)) for name in names)
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and not ast.get_docstring(ast.parse(inspect.getsource(obj)).body[0])
    ]
    assert undocumented == []
