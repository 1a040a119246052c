"""Acceptance gate: every headline requirement at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or check the summary)
and asserts the same condition, so the suite both reports and enforces.
"""

import math
import time

import numpy as np
import pytest

from kslab.dyadic import dyadic_block, reconstruct
from kslab.fields import ScalarField, magnitude, make_grid
from kslab.monitors import (
    COMPARISON_TOL,
    TraceRecorder,
    moment_coefficients,
    mu_zero_estimate,
    prop22_check,
    run_verdicts,
    z_field,
    z_residual,
    z_sup_cap_check,
)
from kslab.norms import cutoff_phi, cutoff_phi_gradient, cutoff_phi_hessian_norm, lp_norm
from kslab.presets import build_initial
from kslab.solver import (
    Params,
    PicardConfig,
    RunConfig,
    RunStatus,
    State,
    picard_local_solve,
    run,
)

from conftest import determinism_check, generalized_young_check


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {tag}{suffix}")
    assert ok, f"criterion {number} {name} failed: {detail}"


def test_criterion_01_heat_flow_oracle():
    started = time.monotonic()
    grid = make_grid(1, 256, 40.0)
    L = grid.box_len
    w = L / 16.0
    x = grid.mesh()[0]
    n0 = ScalarField(grid, np.exp(-(x**2) / (2 * w**2)))
    c0 = ScalarField(grid, np.zeros(grid.shape))
    p = Params(chi=0.0, tau=1.0, lam=0.0, mu=0.0, d=1)
    t_end = 0.1
    res = run(State(0.0, n0, c0), p, RunConfig(t_end=t_end, dt=0.01, monitor_every=10))

    # Independent oracle: the heat flow of a Gaussian stays Gaussian with
    # variance w^2 + 2t; periodize by summing box images.
    var = w**2 + 2 * t_end
    exact = np.zeros(grid.shape)
    for m in range(-3, 4):
        exact += (w / math.sqrt(var)) * np.exp(-((x + m * L) ** 2) / (2 * var))
    err = lp_norm(ScalarField(grid, res.final.n.values - exact), 2) / lp_norm(
        ScalarField(grid, exact), 2
    )
    elapsed = time.monotonic() - started
    _verdict(
        1,
        "heat_flow_oracle",
        err <= 1e-6 and elapsed < 5.0,
        f"rel L2 err {err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_mass_ledger():
    grid = make_grid(2, 64, 40.0)
    p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=2)
    initial = build_initial(grid, "gaussian_bump", 1.0, 2.5, M=9.0)
    res = run(initial, p, RunConfig(t_end=1.0, dt=5e-3, monitor_every=20))
    ok = res.status is RunStatus.COMPLETED and run_verdicts(res, p)[0]["mass_ledger_per_step"]
    _verdict(2, "mass_ledger", ok, f"max rel residual {res.mass_ledger_rel_max:.2e}")


def test_criterion_03_nonnegativity():
    ok, details = True, []
    for d, n_axis in ((1, 256), (2, 128)):
        grid = make_grid(d, n_axis, 40.0)
        p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=d)
        initial = build_initial(grid, "gaussian_bump", 1.0, 2.5, M=9.0)
        res = run(initial, p, RunConfig(t_end=2.0, dt=None, monitor_every=5))
        verdicts, _ = run_verdicts(res, p)
        ok = ok and verdicts["nonnegativity_n"] and verdicts["nonnegativity_c"]
        min_n = min(s.values["min_n"] for s in res.trace)
        min_c = min(s.values["min_c"] for s in res.trace)
        details.append(f"d={d}: min n {min_n:.2e}, min c {min_c:.2e}")
    _verdict(3, "nonnegativity", ok, "; ".join(details))


def test_criterion_04_comparison_inequality_regime():
    grid = make_grid(2, 128, 40.0)
    chi, d = 1.0, 2
    p = Params(chi=chi, tau=1.0, lam=0.0, mu=d * chi / 2.0, d=d)
    initial = build_initial(grid, "gaussian_bump", 1.0, 2.5, M=9.0)
    res = run(
        initial,
        p,
        RunConfig(t_end=0.15, dt=1e-3, monitor_every=1),
        monitors=lambda s: {
            "z_residual": z_residual(s, p)[1],
            "z_max": float(np.max(z_field(s, p).values)),
        },
    )
    worst = max(s.values["z_residual"] for s in res.trace)
    [cap] = z_sup_cap_check(res.trace, p)
    ok = worst <= COMPARISON_TOL and cap.passed
    _verdict(
        4,
        "comparison_inequality",
        ok,
        f"max residual {worst:.2e}, sup z margin {cap.max_margin():.2e}",
    )


def test_criterion_05_global_ledgers():
    presets = [
        (1, 256, "gaussian_bump", 0.0, 1.0),
        (2, 64, "gaussian_bump", 0.5, 2.0),
        (2, 64, "two_bumps", 0.0, 4.0),
    ]
    ok, worst = True, -math.inf
    for d, n_axis, preset, lam, mu in presets:
        grid = make_grid(d, n_axis, 40.0)
        p = Params(chi=1.0, tau=1.0, lam=lam, mu=mu, d=d)
        initial = build_initial(grid, preset, 1.0, 2.5, M=9.0)
        res = run(
            initial,
            p,
            RunConfig(t_end=0.5, dt=2e-3, monitor_every=5),
            monitors=TraceRecorder(p, grid),
        )
        for report in prop22_check(res.trace, p):
            ok &= report.passed
            worst = max(worst, report.max_margin() / report.tolerance)
    _verdict(5, "global_ledgers", ok, f"worst margin / tolerance {worst:.2e}")


def test_criterion_06_cutoff_suite():
    # Range and support of phi, and the constants of |grad phi| <= C/R,
    # |D^2 phi| <= C/R^2 and phi^{-1}|grad phi|^2 <= C/R^2 agreeing within 5%
    # across R = 1, 2, 4, 8 (R = 1 needs h/R ~ 0.04 for the grid maxima to
    # settle), plus the centre value.
    grid = make_grid(1, 2048, 80.0)
    i0 = int(np.argmin(np.abs(grid.axis_coords())))
    center_err = abs(cutoff_phi(grid, (0.0,), 4.0).values[i0] - math.exp(1.0 / 3.0))
    r = grid.radius((0.0,))
    rows = {"interior_range": True, "vanishes_outside": True}
    fits = {"grad": [], "hess": [], "grad_sq_over_phi": []}
    for R in (1.0, 2.0, 4.0, 8.0):
        phi = cutoff_phi(grid, (0.0,), R).values
        rows["interior_range"] &= bool(np.all((phi[r < R] >= 1.0 - 1e-12) & (phi[r < R] < 2.0)))
        rows["vanishes_outside"] &= bool(np.all(phi[r >= 2.0 * R] == 0.0))
        gmag = magnitude(cutoff_phi_gradient(grid, (0.0,), R)).values
        fits["grad"].append(np.max(gmag) * R)
        fits["hess"].append(cutoff_phi_hessian_norm(grid, (0.0,), R).max_abs() * R * R)
        ratio = np.where(phi > 0, gmag**2 / np.where(phi > 0, phi, 1.0), 0.0)
        fits["grad_sq_over_phi"].append(np.max(ratio) * R * R)
    for label, fitted in fits.items():
        rows[f"scaling_{label}"] = max(fitted) / min(fitted) - 1.0 <= 0.05
    failed = [name for name, passed in rows.items() if not passed]
    ok = center_err <= 1e-12 and not failed
    _verdict(6, "cutoff_suite", ok, f"center err {center_err:.1e}, failed rows {failed}")


def test_criterion_07_dyadic_suite():
    grid = make_grid(1, 512, 40.0)
    rng = np.random.default_rng(41)
    worst_rec = 0.0
    for _ in range(3):
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        worst_rec = max(worst_rec, np.max(np.abs(reconstruct(f).values - f.values)))

    x = grid.mesh()[0]
    noise = ScalarField(grid, rng.standard_normal(grid.shape))
    spike_vals = np.zeros(grid.shape)
    spike_vals[grid.n_axis // 2] = 1.0
    fields = [noise, ScalarField(grid, spike_vals)]
    for jw in range(0, 5):
        fields.append(ScalarField(grid, np.exp(-(x**2) / (2 * 4.0**-jw))))
        bp = dyadic_block(noise, jw)
        if bp.max_abs() > 1e-12:
            fields.append(bp)
    spreads = []
    for p_exp in (1.0, 2.0):
        c_j = [
            max(generalized_young_check(f, p_exp, j) for f in fields)
            for j in range(0, 5)
        ]
        spreads.append(max(c_j) / min(c_j))
    ok = worst_rec <= 1e-10 and max(spreads) <= 2.0
    _verdict(
        7,
        "dyadic_suite",
        ok,
        f"reconstruction {worst_rec:.1e}, constant spread {max(spreads):.2f}x",
    )


def test_criterion_08_coefficient_arithmetic():
    ok = True
    details = []
    for k in (3, 4, 5):
        p = Params(chi=1.0, tau=1.0, lam=1.0, mu=1.0, d=3)
        rep = mu_zero_estimate(k, p)
        ok &= rep.holds
        b = moment_coefficients(k, tau=1.0, C0=rep.C0)
        ratio_err = max(
            abs(b[j - 1] / b[j] - k**-2) for j in range(2, k + 1)
        )
        ok &= ratio_err <= 1e-12
        details.append(f"k={k} mu0={rep.mu0:.3g}")
    _verdict(8, "coefficient_arithmetic", ok, "; ".join(details))


def test_criterion_09_picard_stepper_cross_validation():
    grid = make_grid(1, 256, 40.0)
    x = grid.mesh()[0]
    initial = State(
        0.0,
        ScalarField(grid, np.exp(-(x**2) / 8.0)),
        ScalarField(grid, 0.5 * np.exp(-(x**2) / 8.0)),
    )
    p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)
    T = 0.1

    def gap(dt, nodes):
        res_run = run(initial, p, RunConfig(t_end=T, dt=dt, monitor_every=10**6))
        res_pic = picard_local_solve(
            initial, p, PicardConfig(horizon=T, iterations=8, quadrature_nodes=nodes)
        )
        assert all(r < 1.0 for r in res_pic.ratios)  # contraction regime
        return max(
            np.max(np.abs(res_run.final.n.values - res_pic.final.n.values)),
            np.max(np.abs(res_run.final.c.values - res_pic.final.c.values)),
        )

    coarse = gap(T / 8, 8)
    fine = gap(T / 16, 16)
    order = math.log2(coarse / fine)
    _verdict(
        9,
        "picard_cross_validation",
        order >= 1.9,  # both routes are second order; it reads 2.00
        f"gap {coarse:.2e} -> {fine:.2e}, observed order {order:.2f}",
    )


def test_criterion_10_global_boundedness_headline():
    started = time.monotonic()
    grid = make_grid(3, 64, 20.0)
    base = Params(chi=1.0, tau=1.0, lam=1.0, mu=1.0, d=3)
    mu0 = mu_zero_estimate(4, base).mu0
    p = Params(chi=1.0, tau=1.0, lam=1.0, mu=mu0, d=3)
    initial = build_initial(grid, "gaussian_bump", 1.0, 1.25, M=4.5)
    res = run(initial, p, RunConfig(t_end=20.0, dt=None, monitor_every=10))
    verdicts, slope = run_verdicts(res, p)  # bounded_trend: completed, slope over [10, 20]
    damped_ok = verdicts["bounded_trend"]

    p0 = Params(chi=1.0, tau=1.0, lam=1.0, mu=0.0, d=3)
    peaked = build_initial(grid, "gaussian_bump", 20.0, 0.8, M=4.5)
    res0 = run(peaked, p0, RunConfig(t_end=6.0, dt=None, monitor_every=10))
    amplification = (
        max(s.values["linf_n"] for s in res0.trace) / res0.trace[0].values["linf_n"]
    )
    contrast_ok = res0.status is RunStatus.BLOWUP_SUSPECTED or amplification >= 10.0

    elapsed = time.monotonic() - started
    ok = damped_ok and contrast_ok and elapsed <= 600.0
    _verdict(
        10,
        "global_boundedness_headline",
        ok,
        f"slope {slope:.2e}, contrast {res0.status.value}/x{amplification:.0f}, {elapsed:.0f}s",
    )


def test_criterion_11_low_dimension_boundedness():
    ok = True
    details = []
    for d, n_axis in ((1, 256), (2, 64)):
        for mu in (0.01, 0.1, 1.0):
            grid = make_grid(d, n_axis, 40.0)
            p = Params(chi=1.0, tau=1.0, lam=0.0, mu=mu, d=d)
            initial = build_initial(grid, "gaussian_bump", 1.0, 2.5, M=9.0)
            res = run(initial, p, RunConfig(t_end=4.0, dt=None, monitor_every=5))
            verdicts, slope = run_verdicts(res, p)  # completed, slope over [2, 4]
            run_ok = verdicts["bounded_trend"]
            ok &= run_ok
            if not run_ok:
                details.append(f"d={d} mu={mu}: {res.status.value} slope {slope:.2e}")
    _verdict(11, "low_dimension_boundedness", ok, "; ".join(details) or "all bounded")


def test_criterion_12_determinism(tmp_path):
    from kslab.cli import main

    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "grid.d=1\ngrid.n_axis=128\ngrid.box_len=40\n"
        "params.chi=1.0\nparams.tau=1.0\nparams.lambda=0.3\nparams.mu=1.0\n"
        "init.preset=random_smooth\ninit.amplitude=1.0\ninit.width=2.5\ninit.M=8.0\n"
        "init.seed=7\nrun.dt=0.005\nrun.t_end=0.4\nrun.monitor_every=10\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg), "--out", str(out_a)])
    main(["run", "--config", str(cfg), "--out", str(out_b)])
    identical = (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    grid = make_grid(1, 128, 40.0)
    initial = build_initial(grid, "gaussian_bump", 1.0, 2.5, M=8.0)
    p = Params(chi=1.0, tau=1.0, lam=0.3, mu=1.0, d=1)
    api_ok = determinism_check(initial, p, RunConfig(t_end=0.2, dt=5e-3, monitor_every=8))
    _verdict(12, "determinism", identical and api_ok, "byte-identical traces")
