"""The benchmark's seams into kslab must hold, or its runs break silently.

``perfbench/tracing.py`` wraps kslab functions and methods by name from
outside the package, and ``perfbench/child.py`` writes the config file of
its CLI workloads, swaps the sweep's process pool and row worker, and reads
each sweep row's ``summary.json``; a refactor that renames or removes one
of those names, config keys or files would only surface when the benchmark
runs.  This loads both modules by path (``perfbench`` is not a package),
resolves every name tracing wraps, parses the config child writes and runs
the sweep through child's swaps and check.  It also counts the
transforms a traced step records when each transform splits its passes
across two threads, and those of the CLI sample and the one-state coupled
monitors.
"""

import importlib
import importlib.util
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kslab import cli, solver
from kslab.cli import _CliRecorder, _initial, _sweep_worker
from kslab.config import ExperimentConfig
from kslab.fields import ScalarField, make_grid
from kslab.monitors import CoupledRecorder, z_residual

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


def _tagged_row(job):
    """Like child's ``sweep_row``: the row's record plus an entry the pool removes."""
    return dict(_sweep_worker(job), _bench=Path(job[1]).name)


def test_sweep_seams(tmp_path, monkeypatch):
    # sweep2d rebinds cli.ProcessPoolExecutor and cli._sweep_worker, and
    # check_sweep2d reads sweep.csv and mu_<v:g>/summary.json.
    child = _load("child")
    rows = []

    class CollectingPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            for result in super().map(fn, *iterables, **kwargs):
                rows.append(result.pop("_bench"))
                yield result

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CollectingPool)
    monkeypatch.setattr(cli, "_sweep_worker", _tagged_row)
    path = tmp_path / "sweep2d.cfg"
    child._write_config(path, 20.0, child.T_END["sweep2d"][1])
    out = tmp_path / "out"
    values = ",".join(f"{v:g}" for v in child.SWEEP_VALUES)
    argv = ["sweep", "--config", str(path), "--out", str(out), "--seed", "1", "--param", "mu",
            "--values", values, "--workers", str(child.SWEEP_WORKERS)]
    code = cli.main(argv)
    names = [f"mu_{v:g}" for v in child.SWEEP_VALUES]
    assert rows == names
    assert all((out / name / "summary.json").is_file() for name in names)
    problems, _ = child.check_sweep2d((code, out), smoke=True)
    assert problems == []


def _install_tracer(monkeypatch):
    """perfbench's tracer on every seam, undone by ``monkeypatch`` at teardown."""
    tracing = _load("tracing")
    for name in tracing.MODULES:  # monkeypatch restores whatever install rebinds
        module = importlib.import_module(name)
        for _, attr, *_ in tracing.FUNCTIONS:
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, getattr(module, attr))
    for home, cls_name, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(home), cls_name)
        monkeypatch.setattr(cls, attr, getattr(cls, attr))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracing, tracer


@pytest.mark.parametrize("d,n_axis,ffts", [(3, 16, 15), (2, 32, 11)])
def test_lane_transforms_are_traced(d, n_axis, ffts, split_everywhere, monkeypatch):
    # A split transform runs raw numpy passes on the helper thread, never a
    # traced function, so every _rfft/_irfft span opens on the calling thread
    # with the step as its parent.  A carried step transforms no c: 3 + 4d.
    grid = make_grid(d, n_axis, 20.0)
    rng = np.random.default_rng(d)
    n = ScalarField(grid, 1.0 + 0.5 * rng.standard_normal(grid.shape))
    c = ScalarField(grid, rng.standard_normal(grid.shape))
    now = solver._carry(solver.State(0.0, n, c))
    del split_everywhere[:]
    tracing, tracer = _install_tracer(monkeypatch)
    callers = set()

    def on_thread(fn):
        def recorded(*args, **kwargs):
            callers.add(threading.get_ident())
            return fn(*args, **kwargs)

        return recorded

    for attr in ("_rfft", "_irfft"):
        tracing.rebind("kslab.fields", attr, on_thread)

    stepper = solver._Stepper(grid, solver.Params(chi=1.0, lam=0.5, mu=2.0, d=d), 0.01)
    stepper.advance(now)
    counts = tracing.counts(tracer.spans)
    assert (counts["steps"], counts["fft_per_step"]) == (1, ffts)
    assert len(split_everywhere) == 2 * ffts
    assert callers == {threading.get_ident()}
    spans = tracer.spans
    assert all(spans[s[3]][0] == "solver.step" for s in spans if s[0] in tracing.FFT)


def test_monitor_transforms_are_traced(tmp_path, monkeypatch):
    # The seeded 2D 128^2 state of the monitor2d workload.  The CLI sample
    # takes 10 transforms once |grad c| is cached on the state.  The coupled
    # monitors transform n and c once each and take every derivative from
    # those spectra and the tendency spectra: 35 transforms on a fresh state,
    # 3 fewer after a CLI sample has cached |grad c|, 17 for z_residual.
    path = tmp_path / "monitor2d.cfg"
    _load("child")._write_config(path, 5.0, 10.0)
    cfg = replace(ExperimentConfig.from_file(path), seed=1)
    initial = _initial(cfg)
    grid, params = initial.grid, cfg.params()

    def fresh():
        n, c = (ScalarField(grid, f.values) for f in (initial.n, initial.c))
        return solver.State(initial.t, n, c)

    cli = _CliRecorder(cfg)
    coupled = CoupledRecorder(params, grid, cfg.monitor_k, cfg.monitor_R)
    cli(fresh()), coupled(fresh())  # warm the weight-spectrum caches
    tracing, tracer = _install_tracer(monkeypatch)

    def ffts(call):
        tracer.reset()
        call()
        return sum(1 for span in tracer.spans if span[0] in tracing.FFT)

    assert ffts(lambda: cli(fresh())) == 13
    assert ffts(lambda: coupled(fresh())) == 35
    sampled = fresh()
    assert ffts(lambda: cli(sampled)) == 13
    assert ffts(lambda: cli(sampled)) == 10
    assert ffts(lambda: coupled(sampled)) == 32
    assert ffts(lambda: z_residual(fresh(), params)) == 17


def test_benchmark_output_checks_pass_at_smoke_horizons(tmp_path, monkeypatch):
    # headline3d and monitor2d at their smoke horizons through child's own
    # workload functions and output checks, so a change that moves headline3d
    # off its reference fails here before the benchmark runs.
    child = _load("child")
    kslab = importlib.import_module("kslab")
    monkeypatch.setattr(cli, "cmd_run", cli.cmd_run)  # child._timed_cli rebinds it for good
    for name in ("headline3d", "monitor2d"):
        work = tmp_path / name
        work.mkdir()
        _, outcome = child.WORKLOADS[name](kslab, 1, work, child.T_END[name][1])
        problems, _ = child.CHECKS[name](outcome, smoke=True)
        assert problems == [], name
