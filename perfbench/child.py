"""One execution of one benchmark workload, in a fresh process.

Usage (started by ``run.py``, one process per measured run)::

    python3 perfbench/child.py <workload> <seed> <mode> <spawn_stamp> <workdir> <smoke>

``mode`` is ``plain`` (only the probes that give run_s and setup_s),
``traced`` (spans at every layer boundary) or ``setup`` (stop at the first
entry into ``kslab.solver.run``).  ``spawn_stamp`` is the parent's
``time.monotonic()`` just before it started this process; on Linux the
monotonic clock is system wide, so setup_s is measured across the process
boundary.  The last line of standard output is a JSON record of the run.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import platform
import resource
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TRACE_COLUMNS = "t,mass,l1_uloc_n,l2_uloc_gradc,linf_n,w1inf_c,y,z_max,min_n,min_c"
SWEEP_VALUES = (0.0, 0.1, 1.0, 10.0)
SWEEP_WORKERS = 2

# Horizons: (full, smoke).  The 2D runs end at t=10, where monitor2d takes
# about 90 steps and 10 monitor samples; headline3d ends at t=0.5, 159 steps
# through the stiff transient of the damped 3D run.
T_END = {"headline3d": (0.5, 2e-5), "monitor2d": (10.0, 0.5), "sweep2d": (10.0, 0.5)}


class SetupReached(BaseException):
    """Raised at the first entry into solver.run in ``setup`` mode.

    A BaseException, so that the sweep worker's ``except Exception`` lets it
    through to the pool, which hands it back to this process.
    """


class Probe:
    """Monotonic stamps of every entry into solver.run in this process."""

    def __init__(self, stop_at_entry: bool):
        self.entries: list[float] = []
        self.stop_at_entry = stop_at_entry

    def wrap(self, fn):
        @functools.wraps(fn)
        def entered(*args, **kwargs):
            self.entries.append(time.monotonic())
            if self.stop_at_entry:
                raise SetupReached(self.entries[0])
            return fn(*args, **kwargs)

        return entered


class Run:
    """State of this process's run, reachable from forked sweep workers."""

    probe: Probe
    tracer = None
    sweep_worker = None
    rows: list[dict] = []


def sweep_row(job):
    """Replacement for cli._sweep_worker: runs one row, returns its record too."""
    Run.probe.entries.clear()
    if Run.tracer is not None:
        Run.tracer.reset()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = Run.sweep_worker(job)
    result["_bench"] = {
        "entries": list(Run.probe.entries),
        "warnings": [_where(w) for w in caught],
        "spans": Run.tracer.spans if Run.tracer is not None else [],
    }
    return result


class CollectingPool(ProcessPoolExecutor):
    """Process pool that keeps each row's record and passes the row on."""

    def map(self, fn, *iterables, **kwargs):
        for result in super().map(fn, *iterables, **kwargs):
            Run.rows.append(result.pop("_bench"))
            yield result


def _where(w) -> str:
    return f"{Path(w.filename).name}:{w.lineno}"


def _import_kslab():
    if not (SRC / "kslab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kslab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kslab

    if Path(kslab.__file__).resolve().parent != (SRC / "kslab").resolve():
        sys.exit(f"perfbench: imported kslab from {kslab.__file__}, not {SRC}")
    import kslab.cli  # imports every module the benchmark wraps

    return kslab


def _write_config(path: Path, amplitude: float, t_end: float) -> None:
    path.write_text(
        "grid.d=2\ngrid.n_axis=128\ngrid.box_len=40\n"
        "params.chi=1.0\nparams.tau=1.0\nparams.lambda=0.0\nparams.mu=1.0\n"
        f"init.preset=random_smooth\ninit.amplitude={amplitude}\n"
        f"run.dt=auto\nrun.t_end={t_end}\nrun.monitor_every=10\n"
        "monitor.k=3\nmonitor.centers=max+lattice\n"
    )


# ---------------------------------------------------------------------------
# Workloads.  Each calls its top function and returns (run_s, outcome).


def headline3d(kslab, seed: int, work: Path, t_end: float):
    """Criterion 10's damped 3D run through the library; ignores the seed."""
    from kslab.fields import make_grid
    from kslab.solver import Params, RunConfig

    grid = make_grid(3, 64, 20.0)
    base = Params(chi=1.0, tau=1.0, lam=1.0, mu=1.0, d=3)
    mu0 = kslab.monitors.mu_zero_estimate(4, base).mu0
    params = Params(chi=1.0, tau=1.0, lam=1.0, mu=mu0, d=3)
    initial = kslab.presets.build_initial(grid, "gaussian_bump", 1.0, 1.25, M=4.5)
    config = RunConfig(t_end=t_end, dt=None, monitor_every=10)
    start = time.monotonic()
    result = kslab.solver.run(initial, params, config)
    return time.monotonic() - start, result


def _timed_cli(kslab, top: str, argv: list[str]):
    stamps = []
    original = getattr(kslab.cli, top)

    def timed(*args, **kwargs):
        start = time.monotonic()
        try:
            return original(*args, **kwargs)
        finally:
            stamps.append(time.monotonic() - start)

    setattr(kslab.cli, top, timed)
    with contextlib.redirect_stdout(io.StringIO()):
        code = kslab.cli.main(argv)
    return stamps[0], code


def monitor2d(kslab, seed: int, work: Path, t_end: float):
    """``kslab run`` in calibrate mode on seeded random_smooth data."""
    cfg = work / "monitor2d.cfg"
    _write_config(cfg, 5.0, t_end)
    out = work / "out"
    run_s, code = _timed_cli(
        kslab, "cmd_run", ["run", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
    )
    return run_s, (code, out)


def sweep2d(kslab, seed: int, work: Path, t_end: float):
    """``kslab sweep --param mu --workers 2`` over four values, one undamped."""
    cfg = work / "sweep2d.cfg"
    _write_config(cfg, 20.0, t_end)
    out = work / "out"
    values = ",".join(f"{v:g}" for v in SWEEP_VALUES)
    argv = ["sweep", "--config", str(cfg), "--out", str(out), "--seed", str(seed),
            "--param", "mu", "--values", values, "--workers", str(SWEEP_WORKERS)]
    run_s, code = _timed_cli(kslab, "cmd_sweep", argv)
    return run_s, (code, out)


WORKLOADS = {"headline3d": headline3d, "monitor2d": monitor2d, "sweep2d": sweep2d}


# ---------------------------------------------------------------------------
# Output checks.  Each returns (problems, information).


def _reference(smoke: bool) -> dict:
    ref = json.loads((Path(__file__).parent / "baseline.json").read_text())["headline3d_reference"]
    return ref["smoke" if smoke else "full"]


def check_headline3d(result, smoke: bool):
    problems = []
    if result.status.value != "completed":
        problems.append(f"status {result.status.value}")
    for sample in result.trace:
        if not all(math.isfinite(v) for v in sample.values.values()):
            problems.append(f"non-finite trace values at t={sample.t}")
            break
    if not result.mass_ledger_rel_max <= 1e-10:
        problems.append(f"mass ledger {result.mass_ledger_rel_max:.3e} > 1e-10")
    # Criterion 10's bounded-trend test, on the second half of this horizon.
    t_hi = result.trace[-1].t
    pts = [(s.t, math.log(s.values["linf_n"] + s.values["w1inf_c"]))
           for s in result.trace if s.t >= 0.5 * t_hi]
    slope = _slope(pts)
    if not slope <= 1e-3:
        problems.append(f"log-gauge slope {slope:.3e} > 1e-3 over the second half")
    min_n = min(s.values["min_n"] for s in result.trace)
    ref = _reference(smoke)
    if not min_n >= -ref["min_n_floor"]:
        problems.append(f"min_n {min_n:.3e} below -{ref['min_n_floor']:g}")
    final = result.trace[-1].values
    for key, want in ref["final"].items():
        rel = abs(final[key] - want) / abs(want)
        if not rel <= ref["rel_tol"]:
            problems.append(f"final {key} {final[key]:.6e} off reference {want:.6e} by {rel:.2e}")
    info = {"slope": slope, "min_n": min_n, "final": {k: final[k] for k in ref["final"]}}
    return problems, info


def _slope(pts) -> float:
    if len(pts) < 2:
        return 0.0
    mt = sum(t for t, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    den = sum((t - mt) ** 2 for t, _ in pts)
    return sum((t - mt) * (y - my) for t, y in pts) / den if den else 0.0


def _read_trace(path: Path, problems: list[str]) -> bytes:
    blob = path.read_bytes()
    lines = blob.decode().splitlines()
    if lines[0] != TRACE_COLUMNS:
        problems.append(f"{path.name} header {lines[0]!r}")
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(TRACE_COLUMNS.split(",")) or not all(
            math.isfinite(float(x)) for x in fields
        ):
            problems.append(f"{path.name} row not finite: {line[:60]}")
            break
    return blob


def check_monitor2d(outcome, smoke: bool):
    code, out = outcome
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    summary = json.loads((out / "summary.json").read_text())
    if summary["status"] != "completed":
        problems.append(f"status {summary['status']}")
    if not summary["verdicts"].get("mass_ledger_per_step"):
        problems.append("mass_ledger_per_step verdict fails")
    blob = _read_trace(out / "trace.csv", problems)
    info = {
        "trace_sha256": hashlib.sha256(blob).hexdigest(),
        "verdicts_failed": {k: 1 for k, v in sorted(summary["verdicts"].items()) if not v},
    }
    return problems, info


def check_sweep2d(outcome, smoke: bool):
    code, out = outcome
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    if len(rows) != len(SWEEP_VALUES):
        problems.append(f"{len(rows)} sweep rows for {len(SWEEP_VALUES)} values")
    failed_verdicts: dict[str, int] = {}
    statuses = {}
    for line in rows:
        value, status = line.split(",")[:2]
        statuses[f"{float(value):g}"] = status
        if status == "error":
            problems.append(f"mu={value}: error row")
        elif float(value) >= 1.0 and status != "completed":
            problems.append(f"damped row mu={value}: {status}")
    for value in SWEEP_VALUES:
        summary_path = out / f"mu_{value:g}" / "summary.json"
        if summary_path.exists():
            for name, ok in json.loads(summary_path.read_text())["verdicts"].items():
                if not ok:
                    failed_verdicts[name] = failed_verdicts.get(name, 0) + 1
    return problems, {"statuses": statuses, "verdicts_failed": failed_verdicts}


CHECKS = {"headline3d": check_headline3d, "monitor2d": check_monitor2d, "sweep2d": check_sweep2d}


# ---------------------------------------------------------------------------


def _tree_bytes(out: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in out.rglob(pattern) if p.is_file())


def main(argv: list[str]) -> int:
    workload, seed, mode, spawn, work, smoke = argv
    seed, spawn, work, smoke = int(seed), float(spawn), Path(work), smoke == "1"
    kslab = _import_kslab()
    import numpy as np
    import tracing

    Run.probe = Probe(stop_at_entry=(mode == "setup"))
    tracing.rebind("kslab.solver", "run", Run.probe.wrap)
    if mode == "traced":
        Run.tracer = tracing.Tracer()
        tracing.install(Run.tracer)
        Run.sweep_worker = Run.tracer.wrap("cli.sweep_row", kslab.cli._sweep_worker)
    else:
        Run.sweep_worker = kslab.cli._sweep_worker
    kslab.cli._sweep_worker = sweep_row
    kslab.cli.ProcessPoolExecutor = CollectingPool

    work.mkdir(parents=True, exist_ok=True)
    t_end = T_END[workload][1 if smoke else 0]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            run_s, outcome = WORKLOADS[workload](kslab, seed, work, t_end)
    except SetupReached as reached:
        print(json.dumps({"setup_s": reached.args[0] - spawn}))
        return 0

    entries = list(Run.probe.entries) + [e for row in Run.rows for e in row["entries"]]
    problems, info = CHECKS[workload](outcome, smoke)
    where = [_where(w) for w in caught] + [w for row in Run.rows for w in row["warnings"]]
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "run_s": run_s,
        "setup_s": min(entries) - spawn,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "problems": problems,
        "info": info,
        "warnings": {w: where.count(w) for w in sorted(set(where))},
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
    }
    if mode == "traced":
        spans = list(Run.tracer.spans)
        for row in Run.rows:
            offset = len(spans)
            spans += [[n, s, e, p + offset if p >= 0 else -1, t] for n, s, e, p, t in row["spans"]]
        workers = SWEEP_WORKERS if workload == "sweep2d" else 1
        layers = tracing.layer_metrics(spans, run_s, workers)
        if workload != "headline3d":
            out = outcome[1]
            layers["cli.bytes_written"] = float(_tree_bytes(out))
            layers["checkpoint.bytes"] = float(_tree_bytes(out, "final.kslb"))
        layers["numpy.runtime_warnings"] = float(len(where))
        layers["cli.verdicts_failed"] = float(sum(info.get("verdicts_failed", {}).values()))
        record["layers"] = layers
        record["counts"] = tracing.counts(spans)
        record["self_s"] = tracing.self_times(spans)
        (work / "spans.json").write_text(json.dumps(spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main(sys.argv[1:]))
