"""The benchmark's layer seams must resolve, or ``--trace 1`` breaks silently.

``perfbench/tracing.py`` wraps kslab functions and methods by name from
outside the package; a refactor that renames or removes one of them would
only surface when the traced benchmark runs.  This loads the tracing module
by path (``perfbench`` is not a package) and resolves every name it wraps.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _tracing()
    for home, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(home), attr, None)), f"{home}.{attr}"


def test_traced_methods_resolve():
    tracing = _tracing()
    for home, cls_name, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(home), cls_name, None)
        assert callable(getattr(cls, attr, None)), f"{home}.{cls_name}.{attr}"


def test_traced_modules_import():
    for name in _tracing().MODULES:
        importlib.import_module(name)
