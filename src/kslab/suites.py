"""Machine-checkable property suites, one per module, behind the check command.

Each suite exercises the invariants its module promises, on small fixed
deterministic problems, and returns pass/fail rows.  The pytest suite covers
the same ground (and more) at finer granularity; these are the quick
self-contained versions an installed artifact can run anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dyadic as dy
from .fields import (
    ScalarField,
    dealias,
    _irfft,
    _rfft,
    divergence,
    gradient,
    heat_propagate,
    hessian_sq,
    integrate,
    laplacian,
    magnitude,
    make_grid,
)
from .monitors import (
    COMPARISON_TOL,
    argmax_center,
    combined_y,
    moment,
    mu_zero_estimate,
    run_verdicts,
    z_residual,
)
from .norms import (
    cutoff_phi,
    cutoff_phi_gradient,
    cutoff_phi_hessian_norm,
    lp_norm,
    uloc_norm,
)
from .presets import build_initial
from .solver import Params, RunConfig, State, run, step

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    """One named check of a suite: its verdict and a line of detail."""

    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _random_field(grid, rng, band_limit=None) -> ScalarField:
    vals = rng.standard_normal(grid.shape)
    f = ScalarField(grid, vals)
    if band_limit is not None:
        fhat = np.fft.fftn(f.values)
        idx = np.abs(np.fft.fftfreq(grid.n_axis, d=1.0 / grid.n_axis))
        keep = idx <= band_limit
        mask = np.ones(grid.shape, dtype=bool)
        for ax in range(grid.d):
            shape = [1] * grid.d
            shape[ax] = grid.n_axis
            mask &= keep.reshape(shape)
        fhat[~mask] = 0.0
        f = ScalarField(grid, np.fft.ifftn(fhat).real)
    return f


def suite_fields() -> list[CheckResult]:
    rng = np.random.default_rng(7)
    out = []
    for d, n in ((1, 256), (2, 64), (3, 16)):
        grid = make_grid(d, n, 40.0)
        f = _random_field(grid, rng)
        back = _irfft(_rfft(f.values), grid)
        err = np.max(np.abs(back - f.values)) / max(f.max_abs(), 1e-30)
        out.append(_result(f"fields.roundtrip_d{d}", err <= 1e-12, f"rel err {err:.2e}"))

    grid = make_grid(2, 64, 40.0)
    f = dealias(_random_field(grid, rng))
    gap = np.max(np.abs(divergence(gradient(f)).values - laplacian(f).values))
    out.append(_result("fields.div_grad_is_laplacian", gap <= 1e-10, f"gap {gap:.2e}"))

    fb = dealias(_random_field(grid, rng))
    gb = dealias(_random_field(grid, rng))
    lhs = dealias(gradient(fb * gb).components[0])
    rhs = dealias(
        ScalarField(
            grid,
            fb.values * gradient(gb).components[0].values
            + gb.values * gradient(fb).components[0].values,
        )
    )
    gap = np.max(np.abs(lhs.values - rhs.values))
    out.append(_result("fields.product_rule_dealiased", gap <= 1e-8, f"gap {gap:.2e}"))

    f = _random_field(grid, rng)
    two_step = heat_propagate(heat_propagate(f, 0.07), 0.05)
    one_step = heat_propagate(f, 0.12)
    gap = np.max(np.abs(two_step.values - one_step.values))
    out.append(_result("fields.semigroup_law", gap <= 1e-12, f"gap {gap:.2e}"))

    # Band-limit below N/4 so quadratic products stay clear of the Nyquist mode.
    c = _random_field(grid, rng, band_limit=grid.n_axis // 8)
    lap_sq = laplacian(c).values ** 2
    hess = hessian_sq(c).values
    gap1 = np.max(lap_sq - grid.d * hess)
    gc = c.grad_abs.values
    gsq = gradient(ScalarField(grid, gc * gc))
    lhs2 = sum(comp.values**2 for comp in gsq.components)
    gap2 = np.max(lhs2 - 4.0 * hess * gc * gc)
    out.append(
        _result(
            "fields.pointwise_hessian_bounds",
            gap1 <= 1e-9 and gap2 <= 1e-9,
            f"gaps {gap1:.2e}, {gap2:.2e}",
        )
    )
    return out


def suite_norms() -> list[CheckResult]:
    rng = np.random.default_rng(11)
    out = []
    # R=1 features need h/R ~ 0.04 for the grid maxima to stabilize across R.
    grid = make_grid(1, 2048, 80.0)
    radii = (1.0, 2.0, 4.0, 8.0)

    fits_grad, fits_hess, fits_ratio = [], [], []
    interior_ok = True
    edge_ok = True
    for R in radii:
        phi = cutoff_phi(grid, (0.0,), R)
        r = grid.radius((0.0,))
        ball = r < R
        interior_ok &= bool(np.all(phi.values[ball] >= 1.0 - 1e-12))
        interior_ok &= bool(np.all(phi.values[ball] < 2.0))
        edge_ok &= bool(np.all(phi.values[r >= 2.0 * R] == 0.0))
        gmag = magnitude(cutoff_phi_gradient(grid, (0.0,), R))
        hmax = cutoff_phi_hessian_norm(grid, (0.0,), R).max_abs()
        fits_grad.append(gmag.max_abs() * R)
        fits_hess.append(hmax * R * R)
        grad_sq = gmag.values**2
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(phi.values > 0, grad_sq / np.where(phi.values > 0, phi.values, 1.0), 0.0)
        fits_ratio.append(float(np.max(ratio)) * R * R)
    out.append(_result("norms.cutoff_interior_range", interior_ok, "1 <= phi < 2 on B_R"))
    out.append(_result("norms.cutoff_vanishes_outside", edge_ok, "phi == 0 for r >= 2R"))
    for label, fits in (("grad", fits_grad), ("hess", fits_hess), ("grad_sq_over_phi", fits_ratio)):
        spread = max(fits) / min(fits) - 1.0
        out.append(
            _result(
                f"norms.cutoff_scaling_{label}",
                spread <= 0.05,
                f"fitted constants {['%.4g' % f for f in fits]}, spread {spread:.2%}",
            )
        )

    grid2 = make_grid(2, 64, 40.0)
    f = _random_field(grid2, rng)
    g = _random_field(grid2, rng)
    nf, ng = uloc_norm(f, 2.0, 2.0), uloc_norm(g, 2.0, 2.0)
    nsum = uloc_norm(f + g, 2.0, 2.0)
    alpha = 1.7
    homog = abs(uloc_norm(alpha * f, 2.0, 2.0) - alpha * nf)
    out.append(
        _result(
            "norms.uloc_is_a_norm",
            nsum <= nf + ng + 1e-10 and homog <= 1e-10,
            f"triangle slack {nf + ng - nsum:.2e}, homogeneity gap {homog:.2e}",
        )
    )

    p = 3.0
    bound = lp_norm(f, math.inf) * grid2.box_len ** (grid2.d / p)
    out.append(
        _result(
            "norms.lp_dominated_by_linf",
            lp_norm(f, p) <= bound + 1e-12,
            f"{lp_norm(f, p):.4g} <= {bound:.4g}",
        )
    )
    return out


def suite_dyadic() -> list[CheckResult]:
    rng = np.random.default_rng(13)
    out = []
    grid = make_grid(1, 256, 40.0)
    blocks = dy.block_range(grid)
    f = _random_field(grid, rng)
    rec = dy.reconstruct(f)
    gap = np.max(np.abs(rec.values - f.values))
    out.append(_result("dyadic.partition_of_unity", gap <= 1e-10, f"gap {gap:.2e}"))

    worst = 0.0
    for j in blocks:
        for jp in blocks:
            if abs(j - jp) >= 2:
                worst = max(worst, dy.dyadic_block(dy.dyadic_block(f, jp), j).max_abs())
    out.append(_result("dyadic.block_near_orthogonality", worst <= 1e-12, f"max {worst:.2e}"))

    consts = []
    for j in range(0, min(blocks.stop, 5)):
        bj = dy.dyadic_block(f, j)
        denom = bj.max_abs()
        if denom > 1e-12:
            consts.append(bj.grad_abs.max_abs() / denom / 2.0**j)
    spread = max(consts) / min(consts)
    out.append(
        _result(
            "dyadic.bernstein_scaling",
            spread <= 4.0,
            f"fitted gradient constants spread {spread:.2f}x over j",
        )
    )
    return out


def suite_solver() -> list[CheckResult]:
    out = []
    grid = make_grid(1, 256, 40.0)
    x = grid.mesh()[0]
    n0 = ScalarField(grid, np.exp(-(x**2) / 8.0))
    c0 = ScalarField(grid, 0.5 * np.exp(-(x**2) / 8.0))
    state = State(0.0, n0, c0)

    p_lin = Params(chi=0.0, tau=1.0, lam=0.0, mu=0.0, d=1)
    res = run(state, p_lin, RunConfig(t_end=0.25, dt=0.0125, monitor_every=5))
    exact = heat_propagate(n0, 0.25)
    gap = np.max(np.abs(res.final.n.values - exact.values))
    out.append(_result("solver.pure_heat_match", gap <= 1e-10, f"gap {gap:.2e}"))

    p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)
    a = p.lam / p.mu
    eq = State(0.0, ScalarField(grid, np.full(grid.shape, a)), ScalarField(grid, np.full(grid.shape, a)))
    drift = step(eq, p, 0.01)
    gap = max(np.max(np.abs(drift.n.values - a)), np.max(np.abs(drift.c.values - a)))
    out.append(_result("solver.equilibrium_fixed_point", gap <= 1e-12, f"gap {gap:.2e}"))

    zero_n = ScalarField(grid, np.zeros(grid.shape))
    st = State(0.0, zero_n, c0)
    res = run(st, p, RunConfig(t_end=0.3, dt=0.01, monitor_every=10))
    exact_c = heat_propagate(c0, 0.3, tau=p.tau, damping=1.0)
    gap = np.max(np.abs(res.final.c.values - exact_c.values))
    out.append(_result("solver.damped_chemical_flow", gap <= 1e-12, f"gap {gap:.2e}"))

    res = run(state, p, RunConfig(t_end=0.2, dt=0.005, monitor_every=10))
    out.append(
        _result(
            "solver.mass_ledger",
            run_verdicts(res, p)[0]["mass_ledger_per_step"],
            f"relative residual {res.mass_ledger_rel_max:.2e}",
        )
    )
    return out


def suite_monitors() -> list[CheckResult]:
    out = []
    for k in (3, 4, 5):
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=3)
        rep = mu_zero_estimate(k, p)
        out.append(_result(f"monitors.threshold_conditions_k{k}", rep.holds, f"mu0 {rep.mu0:.4g}"))

    grid = make_grid(1, 256, 40.0)
    initial = build_initial(grid, "gaussian_bump", 1.0, 2.5, M=9.0)
    p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=1)
    res = run(
        initial,
        p,
        RunConfig(t_end=0.2, dt=1e-3, monitor_every=20),
        monitors=lambda s: {"z_residual": z_residual(s, p)[1]},
    )
    worst = max(s.values["z_residual"] for s in res.trace)
    out.append(
        _result(
            "monitors.comparison_residual",
            worst <= COMPARISON_TOL,
            f"max residual {worst:.2e}",
        )
    )

    state = res.final
    # At the peak of n every moment is genuinely positive.  Far from it the
    # integrand vanishes and the FFT sliding integral reads roundoff, of
    # order eps * int |integrand|, of either sign.
    peak = argmax_center(state.n)
    least = min(moment(state, j, 3, peak, 2.0) for j in range(0, 4))
    out.append(
        _result("monitors.moments_nonnegative", least > 0, f"min {least:.3g} at the peak of n")
    )
    y = combined_y(state, p, 3, 2.0)
    out.append(_result("monitors.combined_functional_finite", math.isfinite(y), f"y {y:.4g}"))
    return out


SUITES = {
    "fields": suite_fields,
    "norms": suite_norms,
    "dyadic": suite_dyadic,
    "solver": suite_solver,
    "monitors": suite_monitors,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them."""
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise KeyError(f"unknown suite '{name}' (choose from {sorted(SUITES)} or 'all')")
    return SUITES[name]()
