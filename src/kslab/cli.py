"""Command line driver: single runs, parameter sweeps, truncation-convergence
studies, property suites, and report rendering.

Exit codes: 0 completed/pass, 2 blow-up suspected, 3 numerical failure
(including an arithmetic overflow anywhere in the computation), 4 invariant
failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import atomic_open, save_checkpoint
from .config import ConfigError, ExperimentConfig, SweepSpec
from .monitors import (
    TraceRecorder,
    mu_zero_estimate,
    prop22_check,
    prop22_recorder,
    z_comparison_level,
)
from .norms import UlocNormParams, uloc_norm
from .presets import build_initial
from .solver import NONNEG_TOL, FunctionalSample, RunResult, RunStatus, State, run
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

_BOUNDED_SLOPE_TOL = 1e-3


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


class _CliRecorder:
    """Combined per-sample monitor: canonical schema + ledger ingredients."""

    def __init__(self, cfg: ExperimentConfig):
        params = cfg.params()
        grid = cfg.grid()
        self.cfg = cfg
        self.params = params
        self.grid = grid
        self.trace_rec = TraceRecorder(
            params,
            grid,
            k=cfg.monitor_k,
            R=cfg.monitor_R,
            track_max_center=(cfg.monitor_centers == "max+lattice"),
        )
        self.prop22_rec = prop22_recorder()
        # Unit balls when the grid resolves them, else the smallest radius the
        # center scan can see.
        ball = max(1.0, 2.0 * grid.spacing)
        self.uloc_k_params = UlocNormParams.defaults_for(grid, float(cfg.monitor_k), ball)

    def __call__(self, state: State) -> dict[str, float]:
        values = dict(self.trace_rec(state))
        values.update(self.prop22_rec(state))
        values["linf_gradc"] = state.c.grad_abs.max_abs()
        values["lk_uloc_n"] = uloc_norm(state.n, self.uloc_k_params)
        return values


def _write_trace_csv(path: Path, trace: list[FunctionalSample]) -> None:
    with atomic_open(path) as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for sample in trace:
            row = [sample.t] + [sample.values[c] for c in TRACE_COLUMNS[1:]]
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_residuals_csv(path: Path, rows: list[tuple[float, str, float, float | None]]) -> None:
    with atomic_open(path) as fh:
        fh.write("t,name,margin,calibration\n")
        for t, name, margin, calibration in rows:
            cal = "" if calibration is None else _fmt(calibration)
            fh.write(f"{_fmt(t)},{name},{_fmt(margin)},{cal}\n")


def _trend_slope(trace: list[FunctionalSample], t_lo: float, t_hi: float) -> float:
    """Linear-fit slope of log(linf_n + w1inf_c) over [t_lo, t_hi]."""
    ts, ys = [], []
    for s in trace:
        if t_lo <= s.t <= t_hi:
            gauge = s.values["linf_n"] + s.values["w1inf_c"]
            if gauge > 0 and math.isfinite(gauge):
                ts.append(s.t)
                ys.append(math.log(gauge))
    if len(ts) < 2:
        return 0.0
    coeffs = np.polyfit(np.array(ts), np.array(ys), 1)
    return float(coeffs[0])


def _residual_reports(
    cfg: ExperimentConfig, result: RunResult, calibration: dict[str, float] | None
) -> tuple[list[tuple[float, str, float, float | None]], dict[str, float], dict[str, bool]]:
    """Margins along the trace, fitted or asserted constants, and verdicts."""
    params = cfg.params()
    trace = result.trace
    rows: list[tuple[float, str, float, float | None]] = []
    verdicts: dict[str, bool] = {}
    fitted: dict[str, float] = {}

    for report in prop22_check(trace, params):
        for t, margin in zip(report.times, report.margins):
            rows.append((t, report.name, float(margin), None))
        if report.name != "mass_ledger_printed":
            scale = max(1.0, max(abs(s.values["l1_n"]) for s in trace))
            verdicts[report.name] = bool(report.max_margin() <= 1e-6 * scale)

    # Combined uniformly local bound: sup_t F(t) <= base + fitted headroom.
    chi_tau = params.chi * params.tau
    f_series = [
        s.values["l1_uloc_n"] + 0.25 * chi_tau * s.values["l2_uloc_gradc"] ** 2
        for s in trace
    ]
    base = 4.0 * trace[0].values["l1_uloc_n"] + 2.0 * chi_tau * trace[0].values[
        "l2_uloc_gradc"
    ] ** 2
    if calibration is None:
        headroom = max(0.0, max(f_series) - base)
        fitted["uloc_combined"] = headroom
    else:
        headroom = calibration.get("uloc_combined", 0.0)
    margins = [f - base - headroom for f in f_series]
    for s, m in zip(trace, margins):
        rows.append((s.t, "uloc_combined", m, headroom))
    verdicts["uloc_combined"] = bool(max(margins) <= 1e-6 * max(1.0, base + headroom))

    # Gradient sup-norm reconstruction ratio against its three ingredients.
    rhs0 = trace[0].values["l2_uloc_gradc"] + trace[0].values["w1inf_c"]
    running = 0.0
    ratios = []
    for s in trace:
        running = max(running, s.values["lk_uloc_n"])
        denom = rhs0 + running
        ratios.append(s.values["linf_gradc"] / denom if denom > 0 else 0.0)
    if calibration is None:
        const = max(ratios) if ratios else 0.0
        fitted["linf_reconstruction"] = const
    else:
        const = calibration.get("linf_reconstruction", 0.0)
    for s, r in zip(trace, ratios):
        rows.append((s.t, "linf_reconstruction", r - const, const))
    verdicts["linf_reconstruction"] = bool(
        max(r - const for r in ratios) <= 1e-6 * max(1.0, const)
    )

    # Comparison-function cap in the tau=1 regime.
    if params.tau == 1.0 and params.chi > 0 and params.mu > params.d * params.chi / 4.0:
        level = z_comparison_level(params)
        cap = max(trace[0].values["z_max"], level)
        for s in trace:
            rows.append((s.t, "z_sup_cap", s.values["z_max"] - cap, level))
        verdicts["z_sup_cap"] = bool(
            max(s.values["z_max"] for s in trace) <= cap + 1e-3
        )

    return rows, fitted, verdicts


def cmd_run(cfg: ExperimentConfig, out: Path, mode: str) -> int:
    calibration = None
    if mode == "assert":
        cal_path = out / "calibration.json"
        if not cal_path.exists():
            print(f"assert mode needs {cal_path} from a prior calibrate run", file=sys.stderr)
            return EXIT_USAGE
        calibration = json.loads(cal_path.read_text())

    params = cfg.params()
    grid = cfg.grid()
    initial = build_initial(
        grid, cfg.preset, cfg.amplitude, cfg.effective_width(), cfg.effective_M(), seed=cfg.seed
    )
    recorder = _CliRecorder(cfg)
    result = run(initial, params, cfg.run_config(), monitors=recorder)

    out.mkdir(parents=True, exist_ok=True)
    _write_trace_csv(out / "trace.csv", result.trace)
    save_checkpoint(out / "final.kslb", result.final)

    rows, fitted, verdicts = _residual_reports(cfg, result, calibration)
    _write_residuals_csv(out / "residuals.csv", rows)
    if mode == "calibrate":
        with atomic_open(out / "calibration.json") as fh:
            fh.write(json.dumps(fitted, sort_keys=True, indent=1))

    verdicts["mass_ledger_per_step"] = bool(result.mass_ledger_rel_max <= 1e-10)
    min_n = min(s.values["min_n"] for s in result.trace)
    verdicts["nonnegativity_n"] = bool(min_n >= -NONNEG_TOL)
    c0_min = result.trace[0].values["min_c"]
    verdicts["nonnegativity_c"] = all(
        s.values["min_c"] >= math.exp(-(s.t - result.trace[0].t)) * c0_min - NONNEG_TOL
        for s in result.trace
    )
    t_hi = result.trace[-1].t
    t_lo = 0.5 * (result.trace[0].t + t_hi)
    slope = _trend_slope(result.trace, t_lo, t_hi)
    verdicts["bounded_trend"] = bool(
        result.status is RunStatus.COMPLETED and slope <= _BOUNDED_SLOPE_TOL
    )

    summary = {
        "status": result.status.value,
        "status_time": result.status_time,
        "sup_linf_n": max(s.values["linf_n"] for s in result.trace),
        "sup_w1inf_c": max(s.values["w1inf_c"] for s in result.trace),
        "mass_ledger_rel_max": result.mass_ledger_rel_max,
        "trend_slope_second_half": slope,
        "verdicts": verdicts,
        "mode": mode,
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
    if mode == "assert" and not all(verdicts.values()):
        return EXIT_INVARIANT
    return EXIT_OK


def _sweep_worker(args: tuple[ExperimentConfig, str, str]) -> dict:
    cfg, out_dir, mode = args
    out = Path(out_dir)
    try:
        code = cmd_run(cfg, out, mode)
        summary = json.loads((out / "summary.json").read_text())
        return {
            "ok": True,
            "exit": code,
            "status": summary["status"],
            "sup_linf_n": summary["sup_linf_n"],
            "bounded": summary["verdicts"].get("bounded_trend", False),
        }
    except Exception as exc:  # per-row failures recorded, sweep continues
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def cmd_sweep(spec: SweepSpec, out: Path, workers: int, mode: str) -> int:
    configs = spec.configs()
    out.mkdir(parents=True, exist_ok=True)
    jobs = []
    for value, cfg in zip(spec.values, configs):
        subdir = out / f"{spec.parameter}_{value:g}"
        jobs.append((cfg, str(subdir), mode))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(job) for job in jobs]

    mu0 = mu_zero_estimate(spec.base.monitor_k, spec.base.params()).mu0
    with atomic_open(out / "sweep.csv") as fh:
        fh.write("value,status,sup_linf_n,bounded,mu_zero_reference\n")
        for value, res in zip(spec.values, results):
            if res["ok"]:
                fh.write(
                    f"{_fmt(value)},{res['status']},{_fmt(res['sup_linf_n'])},"
                    f"{int(res['bounded'])},{_fmt(mu0)}\n"
                )
            else:
                fh.write(f"{_fmt(value)},error,nan,0,{_fmt(mu0)}\n")
    for value, res in zip(spec.values, results):
        line = res["status"] if res["ok"] else res["error"]
        print(f"{spec.parameter}={value:g}: {line}")
    return EXIT_OK


def cmd_mconv(cfg: ExperimentConfig, m_values: list[float], out: Path) -> int:
    grid = cfg.grid()
    for m in m_values:
        if not 2.0 * m < cfg.box_len / 2.0:
            print(f"M={m} exceeds the box: need 2M < box_len/2", file=sys.stderr)
            return EXIT_USAGE
    out.mkdir(parents=True, exist_ok=True)
    finals: list[State] = []
    for m in m_values:
        sub = replace(cfg, M=m).validate()
        initial = build_initial(
            grid, sub.preset, sub.amplitude, sub.effective_width(), m, seed=sub.seed
        )
        result = run(initial, sub.params(), sub.run_config())
        finals.append(result.final)
    m_min = min(m_values)
    mask = grid.radius() < m_min
    rows = []
    for (m_a, f_a), (m_b, f_b) in zip(
        zip(m_values, finals), list(zip(m_values, finals))[1:]
    ):
        diff_n = float(np.max(np.abs(f_a.n.values[mask] - f_b.n.values[mask])))
        diff_c = float(np.max(np.abs(f_a.c.values[mask] - f_b.c.values[mask])))
        rows.append((m_a, m_b, diff_n, diff_c))
    with atomic_open(out / "mconv.csv") as fh:
        fh.write("M_a,M_b,sup_diff_n,sup_diff_c\n")
        for m_a, m_b, dn, dc in rows:
            fh.write(f"{_fmt(m_a)},{_fmt(m_b)},{_fmt(dn)},{_fmt(dc)}\n")
    if not rows:
        print("single M given: nothing to compare")
    for m_a, m_b, dn, dc in rows:
        print(f"M {m_a:g} vs {m_b:g}: sup|dn|={dn:.3e} sup|dc|={dc:.3e}")
    return EXIT_OK


def cmd_check(suite: str) -> int:
    try:
        results = run_suite(suite)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_USAGE
    failed = 0
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}" + (f" ({r.detail})" if r.detail else ""))
        failed += 0 if r.passed else 1
    return EXIT_OK if failed == 0 else EXIT_INVARIANT


def cmd_report(out: Path) -> int:
    """Re-render the run CSVs into one long-format table for plotting."""
    rows: list[tuple[str, str, str, str]] = []
    trace = out / "trace.csv"
    if trace.exists():
        lines = trace.read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            parts = line.split(",")
            for name, value in zip(header[1:], parts[1:]):
                rows.append(("trace", parts[0], name, value))
    residuals = out / "residuals.csv"
    if residuals.exists():
        for line in residuals.read_text().splitlines()[1:]:
            t, name, margin, _cal = line.split(",")
            rows.append(("residual", t, name, margin))
    sweep = out / "sweep.csv"
    if sweep.exists():
        lines = sweep.read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            parts = line.split(",")
            for name, value in zip(header[1:], parts[1:]):
                rows.append(("sweep", parts[0], name, value))
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
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
    else:
        cfg = ExperimentConfig().validate()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed).validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kslab",
        description="Chemotaxis-with-logistic-growth laboratory on periodic boxes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None, help="key=value config file")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--mode", choices=("calibrate", "assert"), default="calibrate")
        p.add_argument("--seed", type=int, default=None, help="seed for random_smooth data")

    p_run = sub.add_parser("run", help="single trajectory with monitors")
    add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="one run per parameter value")
    add_common(p_sweep)
    p_sweep.add_argument("--param", choices=("mu", "chi"), required=True)
    p_sweep.add_argument("--values", type=str, required=True, help="comma-separated list")
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=int(os.environ.get("KSLB_WORKERS", "1")),
        help="parallel rows (falls back to KSLB_WORKERS)",
    )

    p_mconv = sub.add_parser("mconv", help="truncation-radius convergence study")
    add_common(p_mconv)
    p_mconv.add_argument("--M", type=str, required=True, help="comma-separated radii")

    p_check = sub.add_parser("check", help="run a property suite")
    p_check.add_argument("suite", help="fields|norms|dyadic|solver|monitors|all")

    p_report = sub.add_parser("report", help="long-format table from run CSVs")
    p_report.add_argument("--out", type=Path, default=Path("out"))

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return cmd_run(_load_config(args), args.out, args.mode)
        if args.command == "sweep":
            values = tuple(float(v) for v in args.values.split(",") if v.strip())
            spec = SweepSpec(parameter=args.param, values=values, base=_load_config(args))
            return cmd_sweep(spec, args.out, max(1, args.workers), args.mode)
        if args.command == "mconv":
            m_values = [float(v) for v in args.M.split(",") if v.strip()]
            if not m_values:
                print("mconv needs at least one M", file=sys.stderr)
                return EXIT_USAGE
            return cmd_mconv(_load_config(args), m_values, args.out)
        if args.command == "check":
            return cmd_check(args.suite)
        if args.command == "report":
            return cmd_report(args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # overflow or division by zero in the numerics
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
