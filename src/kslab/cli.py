"""Command line interface: single runs, parameter sweeps (a sweep over ``init.M``
is the truncation-convergence study), property suites, and report rendering.

Exit codes: 0 completed/pass, 2 blow-up suspected, 3 numerical failure
(including an arithmetic overflow anywhere in the computation), 4 a failed
verdict of ``run`` or a failed ``check``, 64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import atomic_open, load_checkpoint, save_checkpoint
from .config import CONFIG_KEYS, SWEEP_ALIASES, ConfigError, ExperimentConfig, SweepSpec, _to_float
from .fields import _cpus
from .monitors import ResidualReport, TraceRecorder, mu_zero_estimate, run_verdicts
from .presets import build_initial
from .solver import FunctionalSample, RunResult, RunStatus, State, run
from .suites import run_suite

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4
EXIT_USAGE = 64

TRACE_COLUMNS = (
    "t",
    "mass",
    "l1_uloc_n",
    "l2_uloc_gradc",
    "linf_n",
    "w1inf_c",
    "y",
    "z_max",
    "min_n",
    "min_c",
)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


class _CliRecorder(TraceRecorder):
    """Per-sample monitor of ``kslab run``: the ``TraceRecorder`` the config's monitor keys set."""

    def __init__(self, cfg: ExperimentConfig):
        super().__init__(cfg.params(), cfg.grid(), k=cfg.monitor_k, R=cfg.monitor_R)


def _write_trace_csv(path: Path, trace: list[FunctionalSample]) -> None:
    with atomic_open(path) as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for sample in trace:
            row = [sample.t] + [sample.values[c] for c in TRACE_COLUMNS[1:]]
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_residuals_csv(path: Path, reports: list[ResidualReport]) -> None:
    with atomic_open(path) as fh:
        fh.write("t,name,margin,calibration\n")
        for report in reports:
            const = "" if report.constant is None else _fmt(report.constant)
            for t, margin in zip(report.times, report.margins):
                fh.write(f"{_fmt(t)},{report.name},{_fmt(margin)},{const}\n")


def _residual_reports(
    recorder: TraceRecorder, result: RunResult
) -> tuple[list[ResidualReport], dict[str, bool]]:
    """The reports on the trace ``recorder`` fed, and the verdicts of those that
    are not measurements."""
    reports = recorder.check(result.trace)
    return reports, {r.name: r.passed for r in reports if r.tolerance is not None}


def _initial(cfg: ExperimentConfig) -> State:
    """The initial data of ``cfg``."""
    return build_initial(
        cfg.grid(), cfg.preset, cfg.amplitude, cfg.effective_width(), cfg.effective_M(), seed=cfg.seed
    )


def cmd_run(cfg: ExperimentConfig, out: Path) -> int:
    recorder = _CliRecorder(cfg)
    params = cfg.params()
    result = run(_initial(cfg), params, cfg.run_config(), monitors=recorder)

    out.mkdir(parents=True, exist_ok=True)
    _write_trace_csv(out / "trace.csv", result.trace)
    save_checkpoint(out / "final.kslb", result.final)

    reports, verdicts = _residual_reports(recorder, result)
    _write_residuals_csv(out / "residuals.csv", reports)

    run_level, slope = run_verdicts(result, params)
    verdicts.update(run_level)

    summary = {
        "status": result.status.value,
        "status_time": result.final.t,
        "sup_linf_n": max(s.values["linf_n"] for s in result.trace),
        "sup_w1inf_c": max(s.values["w1inf_c"] for s in result.trace),
        "mass_ledger_rel_max": result.mass_ledger_rel_max,
        "trend_slope_second_half": slope,
        "verdicts": verdicts,
    }
    with atomic_open(out / "summary.json") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=1))

    for name, ok in sorted(verdicts.items()):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"status: {result.status.value}")

    if result.status is RunStatus.BLOWUP_SUSPECTED:
        return EXIT_BLOWUP
    if result.status is RunStatus.NUMERICAL_FAILURE:
        return EXIT_NUMERICAL
    if not all(verdicts.values()):
        return EXIT_INVARIANT
    return EXIT_OK


def _sweep_worker(args: tuple[ExperimentConfig, str]) -> dict:
    cfg, out_dir = args
    out = Path(out_dir)
    printed = io.StringIO()  # the row's own lines, which cmd_sweep prints in row order
    try:
        with contextlib.redirect_stdout(printed):
            cmd_run(cfg, out)
        summary = json.loads((out / "summary.json").read_text())
        return {
            "ok": True,
            "status": summary["status"],
            "sup_linf_n": summary["sup_linf_n"],
            "bounded": summary["verdicts"].get("bounded_trend", False),
            "printed": printed.getvalue(),
        }
    except ArithmeticError as exc:  # a row's numerical failure is recorded, the sweep goes on
        printed.write(f"{type(exc).__name__}: {exc}\n")
        return {"ok": False, "printed": printed.getvalue()}


def _write_mconv_csv(out: Path, m_values: tuple[float, ...], rows: list[str]) -> None:
    """Sup differences of consecutive rows' final states on the ball of radius min M.

    A pair whose final states are at different times (a row that stopped
    early) is not a truncation difference: it gets nan.
    """
    finals = [load_checkpoint(out / row / "final.kslb") for row in rows]
    mask = finals[0].n.grid.radius() < min(m_values)
    with atomic_open(out / "mconv.csv") as fh:
        fh.write("M_a,M_b,sup_diff_n,sup_diff_c\n")
        for m_a, m_b, f_a, f_b in zip(m_values, m_values[1:], finals, finals[1:]):
            if f_a.t != f_b.t:
                fh.write(f"{_fmt(m_a)},{_fmt(m_b)},nan,nan\n")
                print(f"M {m_a:g} vs {m_b:g}: not compared, final t={f_a.t:g} vs t={f_b.t:g}")
                continue
            dn = float(np.max(np.abs(f_a.n.values[mask] - f_b.n.values[mask])))
            dc = float(np.max(np.abs(f_a.c.values[mask] - f_b.c.values[mask])))
            fh.write(f"{_fmt(m_a)},{_fmt(m_b)},{_fmt(dn)},{_fmt(dc)}\n")
            print(f"M {m_a:g} vs {m_b:g}: sup|dn|={dn:.3e} sup|dc|={dc:.3e}")
    if len(rows) == 1:
        print("single M given: nothing to compare")


def cmd_sweep(spec: SweepSpec, out: Path, workers: int) -> int:
    configs = spec.configs()
    rows = [f"{spec.parameter}_{value:g}" for value in spec.values]
    if len(set(rows)) < len(rows):
        raise ConfigError(f"sweep values must name distinct row directories, got {rows}")
    blocked = [row for row in rows if (out / row).exists() and not (out / row).is_dir()]
    if blocked:
        raise ConfigError(f"sweep rows {blocked} under {out} are files, not directories")
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(cfg, str(out / row)) for cfg, row in zip(configs, rows)]

    workers = min(workers, len(jobs), _cpus())  # the pool starts every worker at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(job) for job in jobs]

    with atomic_open(out / "sweep.csv") as fh:
        fh.write("value,status,sup_linf_n,bounded,mu_zero_reference\n")
        for value, cfg, res in zip(spec.values, configs, results):
            mu0 = _fmt(mu_zero_estimate(cfg.monitor_k, cfg.params()).mu0)
            if res["ok"]:
                fh.write(
                    f"{_fmt(value)},{res['status']},{_fmt(res['sup_linf_n'])},"
                    f"{int(res['bounded'])},{mu0}\n"
                )
            else:
                fh.write(f"{_fmt(value)},error,nan,0,{mu0}\n")
    for row, res in zip(rows, results):
        for line in res["printed"].splitlines():
            print(f"{row}: {line}")
    if spec.parameter == "init.M" and all(res["ok"] for res in results):
        _write_mconv_csv(out, spec.values, rows)
    return EXIT_OK


def cmd_check(suite: str) -> int:
    try:
        results = run_suite(suite)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_USAGE
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}" + (f" ({r.detail})" if r.detail else ""))
    return EXIT_OK if all(r.passed for r in results) else EXIT_INVARIANT


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header and rows of a CSV artifact; one with no header, or with a row not
    as wide as its header, is a usage error that names the file."""
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} cannot be read as text: {exc}") from None
    if not lines or not lines[0]:
        raise ConfigError(f"{path} has no header")
    header, *rows = (line.split(",") for line in lines)
    for number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ConfigError(f"{path} line {number} has {len(row)} fields, its header {len(header)}")
    return header, rows


def cmd_report(out: Path) -> int:
    """Re-render the run CSVs into one long-format table for plotting."""
    rows: list[tuple[str, ...]] = []
    for source in ("trace", "sweep", "residuals"):
        path = out / f"{source}.csv"
        if not path.exists():
            continue
        header, table = _read_table(path)
        if source == "residuals":
            rows.extend(("residual", *row[:3]) for row in table)
        else:
            for key, *values in table:
                rows.extend((source, key, name, value) for name, value in zip(header[1:], values))
    if not rows:
        print(f"no CSV artifacts found under {out}", file=sys.stderr)
        return EXIT_USAGE
    with atomic_open(out / "report_long.csv") as fh:
        fh.write("source,key,name,value\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    print(f"wrote {out / 'report_long.csv'} ({len(rows)} rows)")
    return EXIT_OK


def _load_config(args) -> ExperimentConfig:
    """The config the arguments name; an ``--out`` that a file blocks is a usage error too."""
    if any(p.exists() and not p.is_dir() for p in (args.out, *args.out.parents)):
        raise ConfigError(f"--out {args.out} is, or lies under, a file that is not a directory")
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
    else:
        cfg = ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 64 (usage error), not argparse's 2, which means blow-up here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="kslab",
        description="Chemotaxis-with-logistic-growth laboratory on periodic boxes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None, help="key=value config file")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed for random_smooth data")

    p_run = sub.add_parser("run", help="single trajectory with monitors")
    p_sweep = sub.add_parser("sweep", help="one run per parameter value")
    for p in (p_run, p_sweep):
        add_common(p)
    p_sweep.add_argument("--param", choices=(*SWEEP_ALIASES, *CONFIG_KEYS), required=True)
    p_sweep.add_argument("--values", type=str, required=True, help="comma-separated list")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel rows; at most one process per row and per CPU "
                              "this process may use, and one runs the rows in turn")

    p_check = sub.add_parser("check", help="run a property suite")
    p_check.add_argument("suite", help="fields|norms|dyadic|solver|monitors|all")

    p_report = sub.add_parser("report", help="long-format table from run CSVs")
    p_report.add_argument("--out", type=Path, default=Path("out"))

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return cmd_run(_load_config(args), args.out)
        if args.command == "sweep":
            if args.workers < 1:
                p_sweep.error("--workers must be at least 1")
            values = tuple(_to_float(v, "--values") for v in args.values.split(",") if v.strip())
            spec = SweepSpec(parameter=args.param, values=values, base=_load_config(args))
            return cmd_sweep(spec, args.out, args.workers)
        if args.command == "check":
            return cmd_check(args.suite)
        if args.command == "report":
            return cmd_report(args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # overflow or division by zero in the numerics
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
