"""The benchmark's seams into kslab must hold, or its runs break silently.

``perfbench/tracing.py`` wraps kslab functions and methods by name from
outside the package, and ``perfbench/child.py`` writes the config file of
its CLI workloads; a refactor that renames or removes one of those names or
config keys would only surface when the benchmark runs.  This loads both
modules by path (``perfbench`` is not a package), resolves every name
tracing wraps and parses the config child writes.
"""

import importlib
import importlib.util
from pathlib import Path

from kslab.config import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _load("tracing")
    for home, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(home), attr, None)), f"{home}.{attr}"


def test_traced_methods_resolve():
    tracing = _load("tracing")
    for home, cls_name, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(home), cls_name, None)
        assert callable(getattr(cls, attr, None)), f"{home}.{cls_name}.{attr}"


def test_traced_modules_import():
    for name in _load("tracing").MODULES:
        importlib.import_module(name)


def test_workload_config_parses(tmp_path):
    child = _load("child")
    path = tmp_path / "workload.cfg"
    child._write_config(path, 20.0, child.T_END["sweep2d"][0])
    cfg = ExperimentConfig.from_file(path)
    assert (cfg.d, cfg.n_axis, cfg.amplitude, cfg.monitor_centers) == (2, 128, 20.0, "max+lattice")
