import importlib
import inspect
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kslab import monitors
from kslab.cli import TRACE_COLUMNS
from kslab.config import ConfigError, ExperimentConfig
from kslab.dyadic import block_range, dyadic_block, low_freq
from kslab.fields import (
    ScalarField,
    gradient,
    hessian_sq,
    integrate,
    laplacian,
    magnitude,
    make_grid,
)
from kslab.monitors import (
    CoupledRecorder,
    ResidualReport,
    TraceRecorder,
    _moment_rate,
    combined_y,
    linf_reconstruction_check,
    moment,
    moment_coefficients,
    mu_zero_estimate,
    prop22_check,
    run_verdicts,
    uloc_combined_check,
    uloc_combined_series,
    z_comparison_level,
    z_field,
    z_residual,
    z_sup_cap_check,
)
from kslab.norms import _cutoff_integral, _weight_hat, cutoff_phi, cutoff_phi_gradient, lp_norm
from kslab.presets import build_initial
from kslab.solver import (
    FunctionalSample,
    Params,
    RunConfig,
    RunResult,
    RunStatus,
    State,
    rhs,
    run,
)

from conftest import random_field


def zero_state(grid):
    zero = ScalarField(grid, np.zeros(grid.shape))
    return State(0.0, zero, zero)


def recorded_run(initial, params, config, **recorder):
    """Run with a ``TraceRecorder`` as the monitor; returns the ``RunResult``."""
    return run(initial, params, config, monitors=TraceRecorder(params, initial.grid, **recorder))


class TestComparisonFunction:
    def test_zero_state_residual_is_minus_level(self, grid1d):
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)
        r, rmax = z_residual(zero_state(grid1d), p)
        level = z_comparison_level(p)
        assert abs(rmax + level) <= 1e-12
        assert np.max(np.abs(r.values + level)) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pointwise_against_public_operators(self, d, rng):
        # z_t - Lap z + z - level with z_t = grad c . grad c_t + n_t / chi,
        # every piece from the public tendencies and spectral operators.
        state = undershooting_state(d, rng)
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=d)
        n_t, c_t = rhs(state, p)
        g_dot = sum(
            a.values * b.values
            for a, b in zip(gradient(state.c).components, gradient(c_t).components)
        )
        z = z_field(state, p)
        want = g_dot + n_t.values / p.chi - laplacian(z).values + z.values - z_comparison_level(p)
        got, top = z_residual(state, p)
        assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))
        assert top == np.max(got.values)

    @pytest.mark.parametrize("monitor", ["rhs", "CoupledRecorder", "z_residual"])
    def test_non_finite_tendency_raises(self, grid1d, monitor):
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)
        x = grid1d.mesh()[0]
        huge = ScalarField(grid1d, 1e200 * np.exp(-(x**2)))  # n^2 overflows
        state = State(0.0, huge, huge)
        call = {
            "rhs": lambda: rhs(state, p),
            "CoupledRecorder": lambda: CoupledRecorder(p, grid1d, 3, 2.0)(state),
            "z_residual": lambda: z_residual(state, p),
        }[monitor]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite tendency"):
                call()

    def test_rejects_wrong_relaxation_scale(self, grid1d):
        p = Params(chi=1.0, tau=2.0, lam=0.0, mu=1.0, d=1)
        with pytest.raises(ValueError):
            z_residual(zero_state(grid1d), p)

    def test_rejects_weak_damping(self, grid1d):
        p = Params(chi=1.0, tau=1.0, lam=0.0, mu=0.1, d=1)  # mu <= d chi/4
        with pytest.raises(ValueError):
            z_residual(zero_state(grid1d), p)

    def test_rejects_no_chemotaxis(self, grid1d):
        p = Params(chi=0.0, tau=1.0, lam=0.0, mu=1.0, d=1)
        with pytest.raises(ValueError, match="requires chi > 0"):
            z_field(zero_state(grid1d), p)

    def test_tiny_coefficients_keep_the_cap(self):
        # mu > d chi / 4 holds, but 4 mu chi - d chi^2 underflows to 0: the
        # level (about 6e428) is past the largest float and reads inf, and
        # the cap still holds instead of the check refusing its own regime.
        p = Params(chi=2.3101005535402942e-215, tau=1.0, lam=0.0, mu=2.3101005535402942e-215, d=1)
        assert z_comparison_level(p) == math.inf
        trace = [FunctionalSample(t, {"z_max": 1.0}) for t in (0.0, 0.1)]
        [report] = z_sup_cap_check(trace, p)
        assert report.passed

    @pytest.mark.parametrize("d,n_axis", [(1, 256), (2, 64)])
    def test_residual_small_along_smooth_run(self, d, n_axis):
        # mu = 1 is the regime's edge d chi / 2 in 2D and inside it in 1D.
        grid = make_grid(d, n_axis, 40.0)
        p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=d)
        initial = build_initial(grid, "gaussian_bump", 1.0, 2.5, M=9.0)
        res = run(
            initial,
            p,
            RunConfig(t_end=0.2, dt=1e-3, monitor_every=20),
            monitors=lambda s: {"z_residual": z_residual(s, p)[1]},
        )
        assert max(s.values["z_residual"] for s in res.trace) <= 1e-4

    def test_sup_z_respects_comparison_cap(self):
        grid = make_grid(2, 64, 40.0)
        p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=2)
        initial = build_initial(grid, "gaussian_bump", 1.0, 2.5, M=9.0)
        res = run(
            initial,
            p,
            RunConfig(t_end=0.5, dt=2e-3, monitor_every=25),
            monitors=lambda s: {"z_max": float(np.max(z_field(s, p).values))},
        )
        [report] = z_sup_cap_check(res.trace, p)
        assert report.passed


class TestReportVerdict:
    def report(self, margin, tolerance):
        return ResidualReport("r", np.array([0.0, 1.0]), np.array([-1.0, margin]), tolerance=tolerance)

    def test_tolerance_is_required(self):
        # Every report states its tolerance, None for a measurement: one built
        # without it is refused.
        with pytest.raises(TypeError, match="tolerance"):
            ResidualReport("r", np.array([0.0]), np.array([1.0]))

    def test_a_measurement_has_no_verdict(self):
        with pytest.raises(ValueError, match="'r' is a measurement: it has no verdict"):
            self.report(0.0, None).passed

    def test_passes_at_the_tolerance_and_fails_just_above(self):
        assert self.report(1e-6, 1e-6).passed is True
        assert self.report(np.nextafter(1e-6, 1.0), 1e-6).passed is False


class TestGlobalLedgers:
    def test_zero_data_margins_nonpositive(self, grid1d):
        p = Params(chi=1.0, tau=1.0, lam=0.3, mu=1.0, d=1)
        res = recorded_run(zero_state(grid1d), p, RunConfig(t_end=0.2, dt=5e-3, monitor_every=10))
        for report in prop22_check(res.trace, p):
            assert report.max_margin() <= 1e-12

    def test_mass_nonincreasing_without_growth(self, grid1d):
        initial = build_initial(grid1d, "gaussian_bump", 1.0, 2.5, M=9.0)
        p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=1)
        res = run(initial, p, RunConfig(t_end=0.5, dt=2e-3, monitor_every=10))
        masses = [s.values["mass"] for s in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(masses[:-1], masses[1:]))

    def test_bump_margins_within_relative_tolerance(self):
        grid = make_grid(2, 64, 40.0)
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=2.0, d=2)
        initial = build_initial(grid, "gaussian_bump", 1.0, 2.5, M=9.0)
        res = recorded_run(initial, p, RunConfig(t_end=0.5, dt=2e-3, monitor_every=5))
        reports = {r.name: r for r in prop22_check(res.trace, p)}
        scale = res.trace[0].values["l1_n"]
        for name in ("mass_ledger", "chem_energy", "chem_gradient_energy"):
            assert reports[name].max_margin() <= 1e-6 * scale

    def test_chemical_energies_are_bounded_by_int_n_squared_not_the_mass(self):
        # A tall bump: int ||n||^2 far exceeds the mass, and the chemical
        # energy follows it past tau ||c_0||^2 + e^(lambda t) ||n_0||_1, a
        # bound that no estimate gives, but not past the derived
        # tau ||c_0||^2 + int ||n||^2 (equality at t_0).
        grid = make_grid(2, 32, 20.0)
        p = Params(chi=1.0, tau=1.0, lam=0.0, mu=0.1, d=2)
        initial = build_initial(grid, "gaussian_bump", 20.0, 1.25, M=4.5)
        res = recorded_run(initial, p, RunConfig(t_end=1.0, dt=None, monitor_every=5))
        assert res.status is RunStatus.COMPLETED
        reports = {r.name: r for r in prop22_check(res.trace, p)}
        for name in ("chem_energy", "chem_gradient_energy"):
            assert reports[name].passed and reports[name].max_margin() == 0.0
        t = np.array([s.t for s in res.trace])
        l2sq_c, l2sq_gradc = (
            np.array([s.values[k] for s in res.trace]) for k in ("l2sq_c", "l2sq_gradc")
        )
        by_mass = p.tau * l2sq_c + monitors._cumtrapz(t, l2sq_c + l2sq_gradc) - (
            p.tau * l2sq_c[0] + res.trace[0].values["l1_n"]
        )
        assert np.max(by_mass) > 1e3 * reports["chem_energy"].tolerance

    def test_ledger_needs_the_accumulated_dissipation(self, grid1d):
        # The mass ledger reads the run loop's exact int_l2sq_n only; samples
        # recorded outside ``run`` lack it and have no ledger.
        p = Params(chi=1.0, tau=1.0, d=1)
        values = TraceRecorder(p, grid1d)(zero_state(grid1d))
        trace = [FunctionalSample(t, values) for t in (0.0, 0.1)]
        with pytest.raises(ValueError, match="int_l2sq_n"):
            prop22_check(trace, p)

    def test_missing_functionals_rejected(self, grid1d):
        p = Params(chi=1.0, tau=1.0, d=1)
        res = run(zero_state(grid1d), p, RunConfig(t_end=0.1, dt=5e-3))
        with pytest.raises(ValueError):
            prop22_check(res.trace, p)


class TestUlocCombined:
    def test_zero_state(self, grid1d):
        p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=1)
        res = recorded_run(zero_state(grid1d), p, RunConfig(t_end=0.02, dt=0.01), R=2.0)
        assert np.all(uloc_combined_series(res.trace, p) == 0.0)
        [report] = uloc_combined_check(res.trace, p)
        assert report.constant == 0.0
        assert np.all(report.margins == 0.0)

    def test_equilibrium_constant_in_time(self, grid1d):
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)
        a = p.lam / p.mu
        state = State(
            0.0,
            ScalarField(grid1d, np.full(grid1d.shape, a)),
            ScalarField(grid1d, np.full(grid1d.shape, a)),
        )
        res = recorded_run(state, p, RunConfig(t_end=0.5, dt=0.01, monitor_every=10), R=2.0)
        values = uloc_combined_series(res.trace, p)
        assert len(values) == 6
        assert max(values) - min(values) <= 1e-10

    def test_flat_after_transient_2d(self):
        grid = make_grid(2, 64, 40.0)
        p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=2)
        initial = build_initial(grid, "gaussian_bump", 1.0, 2.5, M=9.0)
        res = recorded_run(initial, p, RunConfig(t_end=1.0, dt=5e-3, monitor_every=40), R=2.0)
        values = uloc_combined_series(res.trace, p)
        base = 4 * values[0]  # crude headroom: the bound's data part
        assert max(values) <= base + 1.0
        # The fitted headroom closes the trace, so the report is a measurement.
        [report] = uloc_combined_check(res.trace, p)
        assert report.tolerance is None and report.constant >= 0.0
        assert report.max_margin() <= 0.0


class TestMoments:
    def test_vanish_without_density(self, grid1d):
        state = zero_state(grid1d)
        center, R = (0.0,), 2.0
        for j in (1, 2, 3):
            assert moment(state, j, 3, center, R) == 0.0

    def test_top_moment_of_constant_state(self, grid1d):
        # j=k: the gradient factor drops out and the integral is a^k int(phi).
        a = 0.8
        state = State(
            0.0,
            ScalarField(grid1d, np.full(grid1d.shape, a)),
            ScalarField(grid1d, np.full(grid1d.shape, 0.3)),
        )
        center, R = (0.0,), 2.0
        phi_mass = integrate(cutoff_phi(grid1d, center, R))
        assert abs(moment(state, 3, 3, center, R) - a**3 * phi_mass) <= 1e-12

    def test_gradient_moment_against_refined_quadrature(self):
        # j=0 single-mode oracle: evaluate int |grad c|^{2k} phi on a 4x finer
        # grid; the coarse value must agree to the quadrature tolerance.
        k = 3
        vals = {}
        for n_axis in (256, 1024):
            grid = make_grid(1, n_axis, 40.0)
            x = grid.mesh()[0]
            c = ScalarField(grid, np.sin(2 * np.pi * x / grid.box_len))
            state = State(0.0, ScalarField(grid, np.zeros(grid.shape)), c)
            vals[n_axis] = moment(state, 0, k, (0.0,), 4.0)
        assert abs(vals[256] - vals[1024]) <= 1e-8 * abs(vals[1024])

    def test_positive_at_the_peak_of_a_run(self, grid1d):
        # At the peak of n every moment is genuinely positive.  Far from it the
        # integrand vanishes and the FFT sliding integral reads roundoff, of
        # order eps * int |integrand|, of either sign.
        p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=1)
        initial = build_initial(grid1d, "gaussian_bump", 1.0, 2.5, M=9.0)
        state = run(initial, p, RunConfig(t_end=0.2, dt=1e-3, monitor_every=20)).final
        peak = argmax_center(state.n)
        assert min(moment(state, j, 3, peak, 2.0) for j in range(0, 4)) > 0
        assert math.isfinite(combined_y(state, p, 3, 2.0))

    def test_moment_order_bounds(self, grid1d):
        state = zero_state(grid1d)
        with pytest.raises(ValueError):
            moment(state, 4, 3, (0.0,), 2.0)


class TestCombinedFunctional:
    def test_zero_state(self, grid1d):
        p = Params(chi=1.0, tau=1.0, d=1)
        assert combined_y(zero_state(grid1d), p, 3, 2.0) == 0.0

    def test_coefficient_ratio(self):
        for k in (3, 4, 5):
            b = moment_coefficients(k, tau=1.3, C0=0.7)
            for j in range(2, k + 1):
                assert abs(b[j - 1] / b[j] - k**-2) <= 1e-12 * k**-2

    def test_k3_coefficients_explicit(self):
        # Direct arithmetic: with tau=1, C0=1 the leading factor is
        # 3^(2-15) * 2 / 16, so b_j = 2 * 3^(2j-13) / 16.
        b = moment_coefficients(3, tau=1.0, C0=1.0)
        for j in (1, 2, 3):
            assert abs(b[j] - 2.0 * 3.0 ** (2 * j - 13) / 16.0) <= 1e-18

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            moment_coefficients(2, 1.0, 1.0)


def undershooting_state(d, rng):
    """A bump in n over a band-limited wiggle that dips below zero, and a smooth c.

    The 1D and 2D grids are small enough for a dense weight matrix over
    every grid-point center.
    """
    grid = make_grid(d, {1: 256, 2: 32, 3: 32}[d], {1: 40.0, 2: 20.0, 3: 20.0}[d])
    r2 = sum(x**2 for x in grid.mesh())
    wiggle = random_field(grid, rng, grid.n_axis // 8).values
    n = ScalarField(grid, 2.0 * np.exp(-r2 / 4.0) + 0.2 * wiggle)
    assert n.values.min() < 0.0
    c = ScalarField(grid, 1.0 + random_field(grid, rng, grid.n_axis // 8).values)
    return State(0.0, n, c)


def argmax_center(f):
    """Grid coordinates of the largest sample."""
    idx = np.unravel_index(int(np.argmax(f.values)), f.grid.shape)
    coords = f.grid.axis_coords()
    return tuple(float(coords[i]) for i in idx)


def oracle_centers(state):
    """The 2^d lattice points at +-L/4 on each axis, the argmax of n and the
    off-grid point (3, ..., 3)."""
    q = state.grid.box_len / 4.0
    lattice = tuple(itertools.product((-q, q), repeat=state.grid.d))
    return lattice + (argmax_center(state.n), (3.0,) * state.grid.d)


def grid_points(grid):
    """Every grid point, in the order of the flattened field."""
    return tuple(itertools.product(grid.axis_coords().tolist(), repeat=grid.d))


def direct(grid, R, integrands, centers):
    """Direct cutoff-weighted quadrature of each integrand at each center: a
    dense weight matrix with one ``cutoff_phi`` row per center."""
    weights = np.array([cutoff_phi(grid, center, R).values.ravel() for center in centers])
    weights *= grid.spacing**grid.d
    return {name: weights @ f.ravel() for name, f in integrands.items()}


def assert_per_center(got, direct):
    direct = np.asarray(direct)
    scale = np.max(np.abs(direct))
    assert np.all(np.abs(np.asarray(got) - direct) <= 1e-12 * scale)


def y_integrand(state, params, k):
    """|grad c|^(2k) + sum_j b_j n^j |grad c|^(2k-2j), from the public operators."""
    b = mu_zero_estimate(k, params).b
    n, gc = state.n.values, magnitude(gradient(state.c)).values
    return gc ** (2 * k) + sum(b[j] * n**j * gc ** (2 * k - 2 * j) for j in range(1, k + 1))


class TestSlidingCutoffOracle:
    """The one-convolution moments against direct cutoff-weighted quadrature,
    and each sup against the largest direct value over every grid-point center."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_moments_and_combined_functional(self, d, rng):
        state = undershooting_state(d, rng)
        grid, k, R = state.grid, 3, 2.0
        centers = oracle_centers(state)
        n = state.n.values
        gc = magnitude(gradient(state.c)).values
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=d)
        moments = direct(grid, R, {j: n**j * gc ** (2 * k - 2 * j) for j in range(k + 1)}, centers)
        for j in range(k + 1):
            assert_per_center([moment(state, j, k, center, R) for center in centers], moments[j])
        y = combined_y(state, p, k, R)
        integrand = {"y": y_integrand(state, p, k)}
        if d < 3:
            want = direct(grid, R, integrand, grid_points(grid))["y"]
            assert abs(y - np.max(want)) <= 1e-12 * np.max(np.abs(want))
        else:
            want = direct(grid, R, integrand, centers)["y"]
            assert np.all(y >= want - 1e-12 * np.max(np.abs(want)))

    def test_sup_away_from_the_lattice_and_the_argmax(self, grid1d):
        # n peaks on a lattice point and |grad c| is steep between two others:
        # the largest y is at neither, and the sup over every grid point finds it.
        x = grid1d.mesh()[0]
        n = ScalarField(grid1d, np.exp(-((x + 10.0) ** 2)))
        state = State(0.0, n, ScalarField(grid1d, 3.0 * np.exp(-((x - 7.5) ** 2) / 2.0)))
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)
        k, R = 3, 2.0
        integrand = {"y": y_integrand(state, p, k)}
        want = np.max(direct(grid1d, R, integrand, grid_points(grid1d))["y"])
        L = grid1d.box_len
        lattice = tuple((-L / 2 + i * L / 8,) for i in range(8))
        seen = direct(grid1d, R, integrand, lattice + (argmax_center(n),))["y"]
        assert np.max(seen) < 0.6 * want
        assert abs(combined_y(state, p, k, R) - want) <= 1e-12 * want
        assert abs(TraceRecorder(p, grid1d, k, R)(state)["y"] - want) <= 1e-12 * want

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ode_ingredients(self, d, rng):
        # Each family's explicit margin against the sum of its terms, every
        # term a direct cutoff-weighted quadrature: the recorded value is the
        # largest over every grid-point center (in 3D, at least the value at
        # each oracle center).
        state = undershooting_state(d, rng)
        grid, k, R = state.grid, 4, 2.0
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=d)
        c_j = mu_zero_estimate(k, p).c_j
        n = state.n.values
        n_t, c_t = rhs(state, p)
        grad_c = gradient(state.c).components
        g_dot = sum(a.values * b.values for a, b in zip(grad_c, gradient(c_t).components))
        gn2 = sum(comp.values**2 for comp in gradient(state.n).components)
        gc = magnitude(gradient(state.c)).values
        ggc2_sq = sum(
            comp.values**2 for comp in gradient(ScalarField(grid, gc * gc)).components
        )
        hess = hessian_sq(state.c).values

        def rate(j):
            out = np.zeros(grid.shape)
            if j > 0:
                out += j * n ** (j - 1) * n_t.values * gc ** (2 * k - 2 * j)
            if j < k:
                out += (2 * k - 2 * j) * n**j * gc ** (2 * k - 2 * j - 2) * g_dot
            return out

        integrands = {f"m_{j}": n**j * gc ** (2 * k - 2 * j) for j in range(k + 1)}
        integrands.update({f"dm_{j}": rate(j) for j in range(k + 1)})
        integrands["m2_top"] = n**2 * gc ** (2 * k - 2)
        integrands["m_kp1"] = n ** (k + 1)
        integrands["gradc_2km2"] = gc ** (2 * k - 2)
        integrands["diss_n_k"] = gn2 * n ** (k - 2)
        integrands["diss_c"] = ggc2_sq * gc ** (2 * k - 4)
        integrands["hess_c"] = hess * gc ** (2 * k - 2)
        integrands["mixed_diss_a"] = ggc2_sq * n * gc ** (2 * k - 6)
        integrands["mixed_diss_b"] = hess * n * gc ** (2 * k - 4)
        integrands["mixed_cross"] = gn2 * gc ** (2 * k - 4)
        for j in range(2, k):
            integrands[f"diss35_{j}"] = gn2 * n ** (j - 2) * gc ** (2 * k - 2 * j)
            integrands[f"cross35_{j}"] = gn2 * n ** (j - 1) * gc ** (2 * k - 2 * j - 2)
            integrands[f"m35_next_{j}"] = n ** (j + 1) * gc ** (2 * k - 2 * j)

        m = direct(grid, R, integrands, grid_points(grid) if d < 3 else oracle_centers(state))
        want = {
            "density_power": m[f"dm_{k}"]
            + k * (k - 1) / 4.0 * m["diss_n_k"]
            - (k * m["m2_top"] + (c_j[k] - p.mu * k) * m["m_kp1"]),
            "gradient_power": m["dm_0"]
            + k * (k - 1) / 4.0 * m["diss_c"]
            + k * m["hess_c"]
            + 2.0 * k * m["m_0"]
            - (d + 1.0 + 2.0 * (k - 1.0)) * k * m["m2_top"],
            "mixed_first": m["dm_1"]
            + (k - 1.0) * (k - 2.0) / 2.0 * m["mixed_diss_a"]
            + (2.0 * k - 2.0) * m["mixed_diss_b"]
            - (
                c_j[1] * m["diss_c"]
                + p.lam / 2.0 * m["gradc_2km2"]
                + (c_j[1] - p.mu) * m["m2_top"]
                + m["mixed_cross"]
            ),
        }
        for j in range(2, k):
            want[f"mixed_order_{j}"] = (
                m[f"dm_{j}"]
                + j * (j - 1) / 4.0 * m[f"diss35_{j}"]
                - (
                    m[f"cross35_{j}"]
                    + c_j[j] * m["diss_c"]
                    + (c_j[j] - p.mu * j) * m[f"m35_next_{j}"]
                    + p.lam * j * m["gradc_2km2"]
                    + c_j[j] * m["m2_top"]
                )
            )
        got = CoupledRecorder(p, grid, k, R)(state)
        assert set(got) == {f"{name}_{part}" for name in want for part in ("explicit", "generic")}
        # Roundoff relative to the largest weighted term.
        scale = max(c_j.values()) * max(np.max(np.abs(v)) for v in m.values())
        for name, values in want.items():
            if d < 3:
                assert abs(got[f"{name}_explicit"] - np.max(values)) <= 1e-12 * scale
            else:
                assert np.all(got[f"{name}_explicit"] >= values - 1e-12 * scale)


class TestMuZero:
    def test_order_damping_condition(self):
        for k in (3, 4, 5):
            p = Params(chi=2.0, tau=0.7, lam=1.5, mu=1.0, d=3)
            rep = mu_zero_estimate(k, p)
            for j in range(2, k + 1):
                assert rep.c_j[j] - rep.mu0 * j <= 0

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_all_sign_conditions(self, lam):
        for k in (3, 4, 5):
            p = Params(chi=1.0, tau=1.0, lam=lam, mu=1.0, d=3)
            assert mu_zero_estimate(k, p).holds

    # Each margin at the first value past its bound: 0 for the four strict
    # conditions, the least positive number for order_damping.
    @pytest.mark.parametrize(
        "name,crossing",
        [
            ("sum_bjcj_vs_k(k-1)/8tau", 0.0),
            ("dissipation_sign", 0.0),
            ("gradient_chain_sign", 0.0),
            ("order_damping", 5e-324),
            ("coupling_damping", 0.0),
        ],
    )
    def test_any_crossed_condition_breaks_holds(self, name, crossing):
        rep = mu_zero_estimate(3, Params(chi=1.0, tau=1.0, lam=1.0, mu=1.0, d=3))
        assert sorted(rep.margins) == sorted(
            ["sum_bjcj_vs_k(k-1)/8tau", "dissipation_sign", "gradient_chain_sign",
             "order_damping", "coupling_damping"]
        )
        assert not replace(rep, margins={**rep.margins, name: crossing}).holds

    def test_order_damping_at_zero_holds(self):
        rep = mu_zero_estimate(3, Params(chi=1.0, tau=1.0, lam=1.0, mu=1.0, d=3))
        assert replace(rep, margins={**rep.margins, "order_damping": 0.0}).holds

    def test_monotone_in_chi_and_lambda(self):
        base = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=3)
        mu_base = mu_zero_estimate(4, base).mu0
        assert mu_zero_estimate(4, Params(chi=2.0, tau=1.0, lam=0.0, mu=1.0, d=3)).mu0 >= mu_base
        assert mu_zero_estimate(4, Params(chi=1.0, tau=1.0, lam=1.0, mu=1.0, d=3)).mu0 >= mu_base

    def test_independent_reevaluation_oracle(self):
        # Literal re-transcription of the constant assembly for k=3, tau=1,
        # chi=1, lambda=0, d=3, kept deliberately separate from the library.
        k, tau, chi, lam, d = 3, 1.0, 1.0, 0.0, 3
        c1 = max(
            (k - 1) ** 2 * (1 + 2 * tau**2) / (2 * tau**2),
            (lam + lam**2 * (1 + tau**2)) / 2 + (2 * k - 2) ** 2 / tau**2,
        )
        c2 = chi**2 * 2 * (8 * tau * 2 * (k - 2) + 2 / 2) + 4 * (k - 2) ** 2 / tau**2 + lam * 2
        c3 = lam + chi ** ((k + 1) / k) + chi ** (2 * (k - 1) / (k - 2)) * (k - 1) ** (
            (k - 1) / (k - 2)
        )
        c0 = max(c1, c2) / k ** (3 * k + 1)
        lead = k ** (2 - 5 * k) * (k - 1) / (16 * tau * c0)
        b = {j: lead * k ** (2 * j) for j in (1, 2, 3)}
        bracket = (d + 1) * k / tau + b[2] * c2 + k * b[3]
        mu0_expected = max(max(c1, c2, c3), max(c2 / 2, c3 / 3), c1 + bracket / b[1]) * (
            1 + 1e-9
        )
        rep = mu_zero_estimate(3, Params(chi=chi, tau=tau, lam=lam, mu=1.0, d=d))
        assert abs(rep.mu0 - mu0_expected) <= 1e-9 * mu0_expected
        assert rep.c_j == {1: c1, 2: c2, 3: c3}

    def test_rejects_degenerate_order(self):
        with pytest.raises(ValueError):
            mu_zero_estimate(2, Params(chi=1.0, tau=1.0, d=2))

    # Unchecked, a float order raises TypeError deep in the assembly, and True reads as 1.
    @pytest.mark.parametrize("k", [3.5, 3.0, True, math.nan])
    def test_rejects_a_non_integer_order(self, k, grid1d):
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)
        for assemble in (
            lambda: mu_zero_estimate(k, p),
            lambda: combined_y(zero_state(grid1d), p, k, 2.0),
            lambda: moment_coefficients(k, 1.0, 1.0),
        ):
            with pytest.raises(ValueError, match="k must be an integer"):
                assemble()


def integration_by_parts_gap(n_field, center, R, k):
    """Gap between -int(Lap n * n^(k-1) phi) and its integrated-by-parts form."""
    grid = n_field.grid
    phi = cutoff_phi(grid, center, R).values
    grad_phi = cutoff_phi_gradient(grid, center, R)
    n = n_field.values
    grad_n = gradient(n_field)
    lhs = -integrate(ScalarField(grid, laplacian(n_field).values * n ** (k - 1) * phi))
    gn2 = sum(comp.values**2 for comp in grad_n.components)
    dot = sum(a.values * b.values for a, b in zip(grad_n.components, grad_phi.components))
    by_parts = integrate(
        ScalarField(grid, (k - 1) * gn2 * n ** (k - 2) * phi + n ** (k - 1) * dot)
    )
    return abs(lhs - by_parts)


class TestOdeResiduals:
    FAMILIES = {"density_power", "gradient_power", "mixed_first", "mixed_order_2"}

    @pytest.fixture
    def short_run(self, grid1d):
        initial = build_initial(grid1d, "gaussian_bump", 1.0, 2.5, M=9.0)
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)
        recorder = CoupledRecorder(p, grid1d, 3, 2.0)
        res = run(initial, p, RunConfig(t_end=0.1, dt=1e-3, monitor_every=5), monitors=recorder)
        return res.trace, recorder

    def test_zero_state_margins_nonpositive(self, grid1d):
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)
        recorder = CoupledRecorder(p, grid1d, 3, 2.0)
        res = run(zero_state(grid1d), p, RunConfig(t_end=0.004, dt=1e-3, monitor_every=1), monitors=recorder)
        reports = recorder.check(res.trace)
        assert {r.name for r in reports} == self.FAMILIES
        for r in reports:
            assert len(r.margins) == 5
            assert r.max_margin() <= 0.0

    def test_every_family_is_a_measurement(self, short_run):
        # Each constant is fitted to the trace it closes, so no family can fail.
        trace, recorder = short_run
        reports = recorder.check(trace)
        assert {r.name for r in reports} == self.FAMILIES
        for r in reports:
            assert r.tolerance is None and r.constant >= 0.0
            assert r.max_margin() <= 1e-9

    def test_fit_picks_largest_ratio(self, grid1d):
        # Synthetic trace with positive explicit margins: the fit is the
        # largest explicit/generic ratio over samples with a usable generic
        # series.
        rows = [(0.5, 1.0), (3.0, 2.0), (1.0, 4.0), (0.0, 0.0)]
        trace = [
            FunctionalSample(
                float(i),
                {f"{name}_{part}": value for name in self.FAMILIES for part, value in
                 zip(("explicit", "generic"), row)},
            )
            for i, row in enumerate(rows)
        ]
        recorder = CoupledRecorder(Params(chi=1.0, d=1), grid1d)
        reports = recorder.check(trace)
        assert {r.name: r.constant for r in reports} == dict.fromkeys(self.FAMILIES, 1.5)
        for r in reports:
            assert np.array_equal(r.margins, [-1.0, 0.0, -5.0, 0.0])

    def test_sampling_rate_independent(self, grid1d):
        # Margins are quantities of one state: sampling every step or every
        # 20th step records the same values at shared times, and a gap of 0.2
        # is as good as any.
        initial = build_initial(grid1d, "gaussian_bump", 1.0, 2.5, M=9.0)
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)
        recorder = CoupledRecorder(p, grid1d)
        dense, sparse = (
            run(initial, p, RunConfig(t_end=0.4, dt=0.01, monitor_every=every), monitors=recorder)
            for every in (1, 20)
        )
        assert [s.t for s in sparse.trace] == [s.t for s in dense.trace[::20]]
        for a, b in zip(sparse.trace, dense.trace[::20]):
            assert a.values == b.values
        reports = recorder.check(sparse.trace)
        assert {r.name for r in reports} == self.FAMILIES
        for r in reports:
            assert len(r.margins) == 3
            assert np.all(np.isfinite(r.margins))

    def test_moment_rate_matches_centred_differences(self, grid1d):
        # d/dt int phi n^j |grad c|^(2k-2j) from the tendencies, against
        # centred differences of ``moment`` on a dense run: the error falls
        # about 4x each time the gap halves.
        initial = build_initial(grid1d, "gaussian_bump", 1.0, 2.5, M=9.0)
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)
        k, center, R = 3, (0.0,), 2.0

        def record(state):
            n_t, c_t = rhs(state, p)
            g_dot = sum(
                a.values * b.values
                for a, b in zip(gradient(state.c).components, gradient(c_t).components)
            )
            values = {}
            for j in range(k + 1):
                values[f"m_{j}"] = moment(state, j, k, center, R)
                integrand = _moment_rate(
                    state.n.values, n_t.values, state.c.grad_abs.values, g_dot, j, k
                )
                values[f"dm_{j}"] = _cutoff_integral(integrand, state.grid, R, center)
            return values

        res = run(initial, p, RunConfig(t_end=0.016, dt=1e-4, monitor_every=1), monitors=record)
        mid = 80
        for j in range(k + 1):
            at = lambda i: res.trace[i].values[f"m_{j}"]
            rate = res.trace[mid].values[f"dm_{j}"]
            errors = [
                abs((at(mid + h) - at(mid - h)) / (res.trace[mid + h].t - res.trace[mid - h].t) - rate)
                for h in (80, 40, 20)
            ]
            for coarse, fine in zip(errors, errors[1:]):
                assert 3.0 <= coarse / fine <= 5.0, (j, errors)

    def test_integration_by_parts_identity(self, grid1d):
        x = grid1d.mesh()[0]
        n = ScalarField(grid1d, 1.0 + np.exp(-(x**2) / 8.0))
        center, R = (0.0,), 4.0
        for k in (2, 3, 4):
            assert integration_by_parts_gap(n, center, R, k) <= 1e-8

    def test_gradient_laplacian_identity(self, grid2d, rng):
        # grad(Lap c) . grad c = 1/2 Lap |grad c|^2 - |D^2 c|^2 pointwise.
        c = random_field(grid2d, rng, grid2d.n_axis // 8)
        gc = gradient(c)
        lhs = sum(
            a.values * b.values
            for a, b in zip(gradient(laplacian(c)).components, gc.components)
        )
        gc2 = magnitude(gc).values ** 2
        rhs = 0.5 * laplacian(ScalarField(grid2d, gc2)).values - hessian_sq(c).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def interpolation_check(u, k):
    """Smallest C with ||u||_2^2 <= C ||grad u||_2^2 + C^k (int |u|^(2/k))^k."""
    if k < 2:
        raise ValueError("interpolation check requires k >= 2")
    target = lp_norm(u, 2) ** 2
    if target == 0.0:
        return 0.0
    a = integrate(ScalarField(u.grid, u.grad_abs.values ** 2))
    b = integrate(ScalarField(u.grid, np.abs(u.values) ** (2.0 / k))) ** k

    def shortfall(c):
        return c * a + c**k * b - target

    hi = 1.0
    while shortfall(hi) < 0:
        hi *= 2.0
        if hi > 1e30:
            raise FloatingPointError("interpolation constant does not close")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if shortfall(mid) < 0:
            lo = mid
        else:
            hi = mid
    return hi


class TestInterpolation:
    def test_zero_field(self, grid1d):
        assert interpolation_check(ScalarField(grid1d, np.zeros(grid1d.shape)), 2) == 0.0

    def test_bump_constant_closes_inequality(self, grid1d):
        u = ScalarField(grid1d, np.exp(-(grid1d.mesh()[0] ** 2) / 2.0))
        k = 2
        C = interpolation_check(u, k)
        assert C > 0
        a = integrate(ScalarField(grid1d, magnitude(gradient(u)).values ** 2))
        b = integrate(ScalarField(grid1d, np.abs(u.values) ** (2.0 / k))) ** k
        assert C * a + C**k * b >= lp_norm(u, 2) ** 2 - 1e-12

    def test_family_sweep_stable(self, grid1d):
        u = ScalarField(grid1d, np.exp(-(grid1d.mesh()[0] ** 2) / 2.0))
        consts = [interpolation_check(u, k) for k in (2, 3, 4)]
        assert max(consts) / min(consts) <= 4.0

    def test_rejects_low_order(self, grid1d):
        with pytest.raises(ValueError):
            interpolation_check(ScalarField(grid1d, np.ones(grid1d.shape)), 1)

    def test_constant_above_one_is_bracketed_by_doubling(self):
        # u = 1 on a box of length 1/2: no gradient, so C^2 (1/2)^2 = 1/2
        # gives C = sqrt(2), past the first bracket C = 1.
        grid = make_grid(1, 8, 0.5)
        C = interpolation_check(ScalarField(grid, np.ones(grid.shape)), 2)
        assert abs(C - math.sqrt(2.0)) <= 1e-12


def low_high_split_error(c):
    """Max error of grad c = S_0 grad c + sum_{j>=0} block_j grad c."""
    blocks = range(0, block_range(c.grid).stop)
    worst = 0.0
    for comp in gradient(c).components:
        total = low_freq(comp, 0)
        for j in blocks:
            total = total + dyadic_block(comp, j)
        worst = max(worst, float(np.max(np.abs(total.values - comp.values))))
    return worst


class TestReconstruction:
    def test_zero_chemical_gives_zero_ratios(self, grid1d):
        p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=1)
        res = recorded_run(zero_state(grid1d), p, RunConfig(t_end=0.02, dt=0.01))
        [report] = linf_reconstruction_check(res.trace, p, 3)
        assert report.constant == 0.0
        assert np.all(report.margins == 0.0)
        assert low_high_split_error(res.final.c) <= 1e-10

    def test_split_exact_on_any_state(self, grid2d, rng):
        c = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
        assert low_high_split_error(c) <= 1e-10

    def test_no_report_unless_order_exceeds_dimension(self):
        # Ratio 3 / (1 + 1 + 1): the check runs for k > d and only then.
        keys = ("l2_uloc_gradc", "w1inf_c", "lk_uloc_n")
        trace = [FunctionalSample(0.0, {"linf_gradc": 3.0, **{key: 1.0 for key in keys}})]
        for d, k in ((2, 2), (3, 3), (3, 2)):
            assert linf_reconstruction_check(trace, Params(chi=1.0, d=d), k) == []
        [report] = linf_reconstruction_check(trace, Params(chi=1.0, d=2), 3)
        assert report.name == "linf_reconstruction"
        assert report.constant == 1.0 and report.tolerance is None

    def test_ratio_bounded_along_3d_run(self):
        grid = make_grid(3, 64, 20.0)
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=2.0, d=3)
        initial = build_initial(grid, "gaussian_bump", 1.0, 1.25, M=4.5)
        # R = 1: the weight of radius 1 for the initial gradient and the density.
        res = recorded_run(
            initial, p, RunConfig(t_end=0.2, dt=5e-3, monitor_every=10), k=4, R=1.0
        )
        assert res.status is RunStatus.COMPLETED
        [report] = linf_reconstruction_check(res.trace, p, 4)
        assert low_high_split_error(res.final.c) <= 1e-10
        assert np.all(np.isfinite(report.margins))
        assert report.constant <= 10.0


def synthetic_run(
    status=RunStatus.COMPLETED, ledger=0.0, min_n=0.0, min_c=lambda t: 0.0, gauge=lambda t: 1.0
):
    """A ``RunResult`` over t = 0, 0.5, ..., 10 with the keys ``run_verdicts`` reads."""
    times = [0.5 * i for i in range(21)]
    trace = [
        FunctionalSample(t, {"linf_n": gauge(t), "w1inf_c": 0.0, "min_n": min_n, "min_c": min_c(t)})
        for t in times
    ]
    return RunResult(status, trace, zero_state(make_grid(1, 16, 16.0)), ledger)


class TestRunVerdicts:
    P = Params(chi=1.0, d=1)

    def verdict(self, name, params=P, **run):
        return run_verdicts(synthetic_run(**run), params)[0][name]

    def test_clean_run_passes_every_verdict(self):
        verdicts, slope = run_verdicts(synthetic_run(), self.P)
        assert sorted(verdicts) == [
            "bounded_trend", "mass_ledger_per_step", "nonnegativity_c", "nonnegativity_n"
        ]
        assert all(verdicts.values())
        assert slope == 0.0

    def test_mass_ledger_bound(self):
        assert self.verdict("mass_ledger_per_step", ledger=1e-10)
        assert not self.verdict("mass_ledger_per_step", ledger=2e-10)

    def test_density_undershoot_bound(self):
        assert self.verdict("nonnegativity_n", min_n=-1e-8)
        assert not self.verdict("nonnegativity_n", min_n=-2e-8)

    def test_blowup_status_fails_a_flat_gauge(self):
        assert not self.verdict("bounded_trend", status=RunStatus.BLOWUP_SUSPECTED)

    def test_gauge_growth_bound(self):
        # Over the second half [5, 10] the log-gauge slope is the exponent.
        verdicts, slope = run_verdicts(synthetic_run(gauge=lambda t: math.exp(0.002 * t)), self.P)
        assert not verdicts["bounded_trend"] and slope == pytest.approx(0.002, rel=1e-9)
        assert self.verdict("bounded_trend", gauge=lambda t: math.exp(0.0005 * t))

    def test_chemical_lower_bound_decays_at_rate_one_over_tau(self):
        # With n = 0, tau c_t = Lap c - c keeps min c at e^(-t/tau) min c(0).
        p = replace(self.P, tau=0.5)
        decay = lambda t: math.exp(-2.0 * t)
        assert self.verdict("nonnegativity_c", params=p, min_c=decay)
        assert not self.verdict("nonnegativity_c", params=replace(p, tau=1.0), min_c=decay)
        assert not self.verdict("nonnegativity_c", params=p, min_c=lambda t: decay(t) - 2e-8)

    def test_chemical_lower_bound_on_a_run_with_tau_one_half(self):
        grid = make_grid(1, 64, 40.0)
        p = Params(chi=1.0, tau=0.5, lam=0.0, mu=1.0, d=1)
        initial = State(0.0, zero_state(grid).n, ScalarField(grid, np.ones(grid.shape)))
        res = run(initial, p, RunConfig(t_end=1.0, dt=0.01, monitor_every=10))
        assert res.status is RunStatus.COMPLETED and len(res.trace) == 11
        for s in res.trace:
            assert s.values["min_c"] == pytest.approx(math.exp(-2.0 * s.t), abs=1e-14)
        assert run_verdicts(res, p)[0]["nonnegativity_c"]
        # The tau-blind bound e^(-t) min c(0) would call this exact decay a failure.
        assert not run_verdicts(res, replace(p, tau=1.0))[0]["nonnegativity_c"]


class TestMonitorSettings:
    # Each rule on k and R broken once; with n_axis = 16 the spacing is 2.5,
    # so 2h rather than 1 bounds R from below.
    BROKEN = [
        ({"monitor_k": 2}, "k must be >= 3"),
        ({"monitor_k": 3.5}, "k must be an integer"),
        ({"monitor_k": True}, "k must be an integer"),
        ({"monitor_R": 0.5}, "R must be >= max(1, 2h) = 1"),
        ({"n_axis": 16, "monitor_R": 4.0}, "R must be >= max(1, 2h) = 5"),
        ({"monitor_R": 10.0}, "R too large: need 2R < box_len/2"),
    ]

    @pytest.mark.parametrize("recorder", [TraceRecorder, CoupledRecorder])
    @pytest.mark.parametrize("change,message", BROKEN)
    def test_recorder_raises_when_built_with_the_config_message(self, recorder, change, message):
        base = ExperimentConfig(d=1, n_axis=128, box_len=40.0)
        s = {"n_axis": 128, "monitor_k": base.monitor_k, "monitor_R": base.monitor_R, **change}
        grid = make_grid(1, s["n_axis"], 40.0)
        with pytest.raises(ValueError) as built:
            recorder(base.params(), grid, k=s["monitor_k"], R=s["monitor_R"])
        assert str(built.value) == message
        with pytest.raises(ConfigError) as validated:
            replace(base, **change)
        assert str(validated.value) == f"monitor.{message}"

    def test_rules_are_written_only_in_validate_settings(self):
        src = Path(monitors.__file__).parent
        for path in sorted(src.glob("*.py")):
            text = path.read_text()
            assert text.count("max(1, 2h)") == (path.name == "monitors.py"), path.name


def test_support_rule_is_written_only_in_norms():
    # "2X < box_len/2" for R (monitors, cutoffs) and M (presets) is one rule.
    src = Path(monitors.__file__).parent
    for path in sorted(src.glob("*.py")):
        assert path.read_text().count("box_len/2") == (path.name == "norms.py"), path.name


@pytest.mark.parametrize("center", [(0.0, 1.0), (math.nan,)])
def test_moment_checks_its_center(grid1d, center):
    with pytest.raises(ValueError, match="center must be 1 finite coordinates"):
        moment(zero_state(grid1d), 0, 3, center, 2.0)


def test_one_recorder_feeds_every_trace_check(grid1d):
    # k = 3 > d and tau = 1, mu > d chi / 4: every residuals.csv family applies,
    # and a TraceRecorder alone records every key they read.
    p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=1)
    initial = build_initial(grid1d, "gaussian_bump", 1.0, 2.5, M=9.0)
    recorder = TraceRecorder(p, grid1d, k=3)
    res = run(initial, p, RunConfig(t_end=0.1, dt=5e-3, monitor_every=10), monitors=recorder)
    reports = recorder.check(res.trace)
    assert [r.name for r in reports] == [
        "mass_ledger", "chem_energy", "chem_gradient_energy",
        "uloc_combined", "linf_reconstruction", "z_sup_cap",
    ]
    # The two families with a fitted constant are the measurements.
    measured = [r.name for r in reports if r.tolerance is None]
    assert measured == ["uloc_combined", "linf_reconstruction"]


def test_every_recorded_key_is_read_or_written(grid1d):
    # In the regime of test_one_recorder_feeds_every_trace_check, each key
    # the recorder stores outside trace.csv's columns is one its check needs:
    # a stored value that nothing reads fails here.
    p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=1)
    initial = build_initial(grid1d, "gaussian_bump", 1.0, 2.5, M=9.0)
    recorder = TraceRecorder(p, grid1d, k=3)
    res = run(initial, p, RunConfig(t_end=0.1, dt=5e-3, monitor_every=10), monitors=recorder)
    unwritten = sorted(set(recorder(initial)) - set(TRACE_COLUMNS))
    assert unwritten  # the guard guards something
    for key in unwritten:
        trace = [
            FunctionalSample(s.t, {k: v for k, v in s.values.items() if k != key})
            for s in res.trace
        ]
        with pytest.raises(ValueError, match=f"trace lacks required functional '{key}'"):
            recorder.check(trace)


def test_verdict_conditions_are_written_only_in_monitors():
    # The mu_0 sign conditions and the report verdict have one home in the
    # library; a copy elsewhere would drift from it when a bound changes.
    src = Path(monitors.__file__).parent
    keys = mu_zero_estimate(3, Params(chi=1.0, tau=1.0, d=3)).margins
    needles = (*keys, "max_margin() <=")
    home = (src / "monitors.py").read_text()
    assert len(keys) == 5 and all(needle in home for needle in needles)
    for path in sorted(src.glob("*.py")):
        if path.name != "monitors.py":
            text = path.read_text()
            assert [n for n in needles if n in text] == [], path.name


def test_every_measurement_comes_from_one_fit():
    # A constant fitted to its own trace makes a report a measurement, and one
    # helper fits it: no other line of the package builds a report with no
    # tolerance, and the old per-family fit is gone.
    src = Path(monitors.__file__).parent
    fit = inspect.getsource(monitors._measurement)
    assert "tolerance=None" in fit and not hasattr(monitors, "_constant")
    for path in sorted(src.glob("*.py")):
        text = path.read_text().replace(fit, "")
        assert [n for n in ("tolerance=None", "_constant(") if n in text] == [], path.name


def test_every_sup_over_centers_is_over_every_grid_point():
    # The cutoff functionals, like the uniformly local norms, take the sup over
    # every grid-point center: no list of centers is kept, checked or taken.
    src = Path(monitors.__file__).parent
    gone = ("default_centers", "_check_centers", "_cutoff_integrals")
    for path in sorted(src.glob("*.py")):
        assert [name for name in gone if name in path.read_text()] == [], path.name
        module = importlib.import_module("kslab" if path.stem == "__init__" else f"kslab.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else (obj,)
            for fn in filter(inspect.isfunction, members):
                assert "centers" not in inspect.signature(fn).parameters, fn.__qualname__


def test_one_sample_builds_one_weight_kernel():
    # Every local functional of a sample (the uniformly local norms and y)
    # slides the one cutoff weight at the recorder's radius: one spectrum.
    grid = make_grid(2, 128, 40.0)
    p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=2)
    state = build_initial(grid, "gaussian_bump", 1.0, 2.5, M=9.0)
    recorder = TraceRecorder(p, grid, k=3)
    _weight_hat.cache_clear()
    recorder(state)
    assert _weight_hat.cache_info().misses == 1


def test_every_key_of_a_bare_run_is_read_or_written(grid1d):
    # A run with no monitors records only keys that trace.csv writes, that
    # TraceRecorder.check or run_verdicts reads, or that the benchmark's
    # headline3d check compares with its reference: a stored value that
    # nothing reads fails here.
    p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=1)
    initial = build_initial(grid1d, "gaussian_bump", 1.0, 2.5, M=9.0)
    recorder = TraceRecorder(p, grid1d, k=3)
    res = run(initial, p, RunConfig(t_end=0.1, dt=5e-3, monitor_every=10), monitors=recorder)
    bare = run(initial, p, RunConfig(t_end=5e-3, dt=5e-3))
    baseline = Path(__file__).resolve().parents[1] / "perfbench" / "baseline.json"
    reference = json.loads(baseline.read_text())["headline3d_reference"]
    compared = {key for horizon in reference.values() if isinstance(horizon, dict)
                for key in horizon["final"]}
    unread = sorted(set(bare.trace[0].values) - set(TRACE_COLUMNS) - compared)
    assert unread  # the guard guards something

    def read(key):
        trace = [
            FunctionalSample(s.t, {k: v for k, v in s.values.items() if k != key})
            for s in res.trace
        ]
        for judge in (lambda: recorder.check(trace), lambda: run_verdicts(replace(res, trace=trace), p)):
            try:
                judge()
            except (KeyError, ValueError) as exc:
                if key in str(exc):
                    return True
        return False

    assert [key for key in unread if not read(key)] == []
