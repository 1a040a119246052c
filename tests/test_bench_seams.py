"""The benchmark's seams into kslab must hold, or its runs break silently.

``perfbench/tracing.py`` wraps kslab functions and methods by name from
outside the package, and ``perfbench/child.py`` writes the config file of
its CLI workloads; a refactor that renames or removes one of those names or
config keys would only surface when the benchmark runs.  This loads both
modules by path (``perfbench`` is not a package), resolves every name
tracing wraps and parses the config child writes.  It also counts the
transforms a traced step records when half of them run on the lane thread.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from kslab import solver
from kslab.config import ExperimentConfig
from kslab.fields import ScalarField, make_grid

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


@pytest.mark.parametrize("d,n_axis,ffts", [(3, 16, 17), (2, 32, 13)])
def test_lane_transforms_are_traced(d, n_axis, ffts, monkeypatch):
    # The lane thread calls the same _rfft/_irfft module globals, so the
    # tracer's wrappers see every transform of the step.
    tracing = _load("tracing")
    for name in tracing.MODULES:  # monkeypatch restores whatever install rebinds
        module = importlib.import_module(name)
        for _, attr, *_ in tracing.FUNCTIONS:
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, getattr(module, attr))
    for home, cls_name, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(home), cls_name)
        monkeypatch.setattr(cls, attr, getattr(cls, attr))
    monkeypatch.setattr(solver, "LANE_MIN_POINTS", 0)
    monkeypatch.setattr(solver, "_cpus", lambda: 2)
    tracer = tracing.Tracer()
    tracing.install(tracer)

    grid = make_grid(d, n_axis, 20.0)
    rng = np.random.default_rng(d)
    n = ScalarField(grid, 1.0 + 0.5 * rng.standard_normal(grid.shape))
    c = ScalarField(grid, rng.standard_normal(grid.shape))
    stepper = solver._Stepper(grid, solver.Params(chi=1.0, lam=0.5, mu=2.0, d=d), 0.01)
    assert stepper.ws.lanes
    stepper.advance(solver.State(0.0, n, c))
    counts = tracing.counts(tracer.spans)
    assert (counts["steps"], counts["fft_per_step"]) == (1, ffts)
