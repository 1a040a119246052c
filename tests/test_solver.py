import gc
import math
import tracemalloc

import numpy as np
import pytest

from kslab.checkpoint import load_checkpoint, save_checkpoint, state_from_bytes, state_to_bytes
from kslab.fields import (
    ScalarField,
    _dealias_mask_r,
    _k_axes_odd_r,
    _k_squared_r,
    heat_propagate,
    integrate,
    make_grid,
)
from kslab.presets import build_initial
from kslab.solver import (
    Params,
    PicardConfig,
    RunConfig,
    RunStatus,
    State,
    _Stepper,
    _Workspace,
    _phi1,
    _phi2,
    approx_initial,
    data_bound,
    default_picard_horizon,
    determinism_check,
    nonnegativity_report,
    picard_local_solve,
    rhs,
    run,
    step,
    suggest_dt,
)

from conftest import run_states


@pytest.fixture
def gauss_state(grid1d):
    x = grid1d.mesh()[0]
    n0 = ScalarField(grid1d, np.exp(-(x**2) / 8.0))
    c0 = ScalarField(grid1d, 0.5 * np.exp(-(x**2) / 8.0))
    return State(0.0, n0, c0)


PARAMS_1D = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)


class TestParamsAndState:
    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            Params(chi=-1.0, tau=1.0, d=1)
        with pytest.raises(ValueError):
            Params(chi=1.0, tau=0.0, d=1)
        with pytest.raises(ValueError):
            Params(chi=1.0, tau=1.0, lam=-0.1, d=1)

    @pytest.mark.parametrize("name", ["chi", "tau", "lam", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_coefficients(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            Params(**{"chi": 1.0, "d": 1, name: value})

    def test_state_requires_shared_grid(self, grid1d):
        other = make_grid(1, 128, 40.0)
        with pytest.raises(ValueError):
            State(
                0.0,
                ScalarField(grid1d, np.zeros(grid1d.shape)),
                ScalarField(other, np.zeros(other.shape)),
            )

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(t_end=1.0, dt=-0.1)
        with pytest.raises(ValueError):
            RunConfig(t_end=0.0)
        with pytest.raises(ValueError):
            RunConfig(t_end=1.0, monitor_every=0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"t_end": math.inf}, {"t_end": math.nan}, {"dt": math.inf}, {"blowup_cap": math.nan}],
    )
    def test_run_config_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(**{"t_end": 1.0, **kwargs})


class TestRhs:
    def test_zero_state(self, grid1d):
        zero = ScalarField(grid1d, np.zeros(grid1d.shape))
        dn, dc = rhs(State(0.0, zero, zero), PARAMS_1D)
        assert dn.max_abs() == 0.0
        assert dc.max_abs() == 0.0

    def test_homogeneous_equilibrium(self, grid1d):
        # n = c = lam/mu kills both the logistic source and the coupling.
        a = PARAMS_1D.lam / PARAMS_1D.mu
        state = State(
            0.0,
            ScalarField(grid1d, np.full(grid1d.shape, a)),
            ScalarField(grid1d, np.full(grid1d.shape, a)),
        )
        dn, dc = rhs(state, PARAMS_1D)
        assert dn.max_abs() <= 1e-12
        assert dc.max_abs() <= 1e-12

    def test_decoupled_logistic_oracle(self, grid1d):
        # With chi=0 and constant data the density solves the logistic ODE
        # exactly: n(t) = lam n0 e^{lam t} / (lam + mu n0 (e^{lam t} - 1)).
        p = Params(chi=0.0, tau=1.0, lam=0.8, mu=0.5, d=1)
        n0 = 2.0
        state = State(
            0.0,
            ScalarField(grid1d, np.full(grid1d.shape, n0)),
            ScalarField(grid1d, np.zeros(grid1d.shape)),
        )
        t_end = 1.0
        res = run(state, p, RunConfig(t_end=t_end, dt=1e-3, monitor_every=100))
        exact = (
            p.lam * n0 * math.exp(p.lam * t_end)
            / (p.lam + p.mu * n0 * (math.exp(p.lam * t_end) - 1.0))
        )
        assert abs(res.final.n.values[0] - exact) <= 1e-6 * exact


class TestStep:
    def test_pure_linear_flow_is_exact(self, gauss_state):
        p = Params(chi=0.0, tau=1.0, lam=0.0, mu=0.0, d=1)
        out = step(gauss_state, p, 0.05)
        exact = heat_propagate(gauss_state.n, 0.05)
        assert np.max(np.abs(out.n.values - exact.values)) <= 1e-12

    def test_one_step_richardson_order(self, gauss_state):
        # Third-order local error: halving dt divides the one-step error by ~8.
        p = PARAMS_1D

        def err(dt):
            ref = gauss_state
            for _ in range(256):
                ref = step(ref, p, dt / 256)
            one = step(gauss_state, p, dt)
            return np.max(np.abs(one.n.values - ref.n.values))

        ratio = err(0.04) / err(0.02)
        assert 8.0 * 0.8 <= ratio <= 8.0 * 1.2

    def test_equilibrium_is_fixed_point(self, grid1d):
        a = PARAMS_1D.lam / PARAMS_1D.mu
        state = State(
            0.0,
            ScalarField(grid1d, np.full(grid1d.shape, a)),
            ScalarField(grid1d, np.full(grid1d.shape, a)),
        )
        out = step(state, PARAMS_1D, 0.01)
        assert np.max(np.abs(out.n.values - a)) <= 1e-12
        assert np.max(np.abs(out.c.values - a)) <= 1e-12

    def test_rejects_nonpositive_dt(self, gauss_state):
        with pytest.raises(ValueError):
            step(gauss_state, PARAMS_1D, 0.0)


def _allocating_etd_rk2(state, p, dt, dealias):
    """The ETD-RK2 step written with fresh arrays for every operation.

    Returns (n, c, ledger, d_int_n, d_int_n2); the workspace stepper must
    reproduce every value bit for bit.
    """
    g = state.grid

    def irfft(coeffs):
        return np.fft.irfftn(coeffs, s=g.shape, axes=tuple(range(g.d)))

    ksq = _k_squared_r(g)
    z_n, z_c = -dt * ksq, dt * (-1.0 - ksq) / p.tau
    mask = _dealias_mask_r(g) if dealias else None
    zero, hd = (0,) * g.d, g.spacing**g.d

    def nonlinear(nhat, chat, n_phys):
        flux = np.zeros(g.rshape, dtype=np.complex128)
        for ka in _k_axes_odd_r(g):
            prod = np.fft.rfftn(n_phys * irfft(1j * ka * chat))
            if mask is not None:
                prod[~mask] = 0.0
            flux += 1j * ka * prod
        n2 = np.fft.rfftn(n_phys * n_phys)
        if mask is not None:
            n2[~mask] = 0.0
        nn = -p.chi * flux + p.lam * nhat - p.mu * n2
        return nn, nhat / p.tau, hd * nhat[zero].real, hd * n2[zero].real

    n_phys = state.n.values
    nhat, chat = np.fft.rfftn(n_phys), np.fft.rfftn(state.c.values)
    nn_u, nc_u, i_u, i2_u = nonlinear(nhat, chat, n_phys)
    a_n_hat = np.exp(z_n) * nhat + dt * _phi1(z_n) * nn_u
    a_c_hat = np.exp(z_c) * chat + dt * _phi1(z_c) * nc_u
    nn_a, nc_a, i_a, i2_a = nonlinear(a_n_hat, a_c_hat, irfft(a_n_hat))
    new_n = irfft(a_n_hat + dt * _phi2(z_n) * (nn_a - nn_u))
    new_c = irfft(a_c_hat + dt * _phi2(z_c) * (nc_a - nc_u))
    d_int_n = dt * 0.5 * (i_u + i_a)
    d_int_n2 = dt * 0.5 * (i2_u + i2_a)
    mass_delta = hd * (np.sum(new_n) - np.sum(n_phys))
    ledger = abs(mass_delta - (p.lam * d_int_n - p.mu * d_int_n2))
    return new_n, new_c, ledger, d_int_n, d_int_n2


def _random_state(grid, seed):
    rng = np.random.default_rng(seed)
    n = 1.0 + 0.5 * rng.standard_normal(grid.shape)
    return State(0.0, ScalarField(grid, n), ScalarField(grid, rng.standard_normal(grid.shape)))


class TestWorkspaceStep:
    P = dict(chi=1.3, tau=0.7, lam=0.4, mu=2.1)

    @pytest.mark.parametrize("d,n_axis", [(1, 64), (2, 32), (3, 16)])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_bitwise_equal_to_allocating_formula(self, d, n_axis, dealias):
        grid = make_grid(d, n_axis, 20.0)
        p = Params(d=d, **self.P)
        stepper = _Stepper(grid, p, 0.01, dealias)
        state = _random_state(grid, d)
        for _ in range(3):
            new, ledger, d_int_n, d_int_n2 = stepper.advance(state)
            n, c, *scalars = _allocating_etd_rk2(state, p, 0.01, dealias)
            assert new.n.values.tobytes() == n.tobytes()
            assert new.c.values.tobytes() == c.tobytes()
            assert [ledger, d_int_n, d_int_n2] == scalars
            state = new

    def test_states_do_not_alias_the_workspace(self):
        grid = make_grid(2, 32, 20.0)
        stepper = _Stepper(grid, Params(d=2, **self.P), 0.01, True)
        start = _random_state(grid, 7)
        kept = stepper.advance(start)[0]
        kept_bytes = kept.n.values.tobytes() + kept.c.values.tobytes()
        later = kept
        for _ in range(3):
            later = stepper.advance(later)[0]
        assert kept.n.values.tobytes() + kept.c.values.tobytes() == kept_bytes
        again = stepper.advance(start)[0]
        assert again.n.values.tobytes() + again.c.values.tobytes() == kept_bytes
        buffers = [b for b in vars(stepper.ws).values() if isinstance(b, np.ndarray)]
        for field in (kept.n, kept.c, later.n, later.c, again.n, again.c):
            assert not any(np.shares_memory(field.values, b) for b in buffers)

    def test_warm_step_allocates_only_the_new_state(self):
        grid = make_grid(3, 32, 20.0)
        stepper = _Stepper(grid, Params(d=3, **self.P), 1e-3, True)
        state = _random_state(grid, 3)
        stepper.advance(stepper.advance(state)[0])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = stepper.advance(state)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out[0].t > state.t
        assert peak <= 2.1 * 8 * grid.npoints

    def test_run_reuses_one_workspace_across_rebuilds(self, gauss_state):
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)
        seen = []

        def record(state):
            spaces = [o for o in gc.get_objects() if isinstance(o, _Workspace)]
            seen.append({id(w) for w in spaces if w.grid is gauss_state.grid})
            return {}

        res = run(gauss_state, p, RunConfig(t_end=0.5, dt=None, monitor_every=1), monitors=record)
        assert len(set(np.diff([s.t for s in res.trace]))) >= 5  # >= 5 stepper builds
        assert len(set().union(*seen[1:])) == 1


class TestRun:
    def test_zero_data_completes_at_zero(self, grid1d):
        zero = ScalarField(grid1d, np.zeros(grid1d.shape))
        res = run(State(0.0, zero, zero), PARAMS_1D, RunConfig(t_end=0.5, dt=0.01))
        assert res.status is RunStatus.COMPLETED
        assert res.final.n.max_abs() == 0.0

    def test_1d_logistic_run_stays_bounded(self, grid1d):
        initial = build_initial(grid1d, "gaussian_bump", 1.0, 2.5, M=9.0)
        p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=1)
        res = run(initial, p, RunConfig(t_end=2.0, dt=5e-3, monitor_every=40))
        assert res.status is RunStatus.COMPLETED
        assert max(s.values["linf_n"] for s in res.trace) <= 2.0

    def test_3d_undamped_aggregation_flags_blowup(self):
        grid = make_grid(3, 32, 10.0)
        p = Params(chi=5.0, tau=1.0, lam=1.0, mu=0.0, d=3)
        initial = build_initial(grid, "gaussian_bump", 20.0, 0.5, M=2.2)
        res = run(
            initial,
            p,
            RunConfig(t_end=4.0, dt=None, monitor_every=5, blowup_cap=50 * 21.0),
        )
        assert res.status is RunStatus.BLOWUP_SUSPECTED
        last = res.trace[-1]
        assert last.values["linf_n"] + last.values["w1inf_c"] > 50 * 21.0

    def test_mass_ledger_tight_along_run(self, gauss_state):
        res = run(gauss_state, PARAMS_1D, RunConfig(t_end=0.5, dt=2e-3, monitor_every=50))
        assert res.mass_ledger_rel_max <= 1e-10

    def test_pure_heat_trajectory_matches_propagator(self, gauss_state):
        p = Params(chi=0.0, tau=1.0, lam=0.0, mu=0.0, d=1)
        _, states = run_states(gauss_state, p, RunConfig(t_end=0.4, dt=0.02, monitor_every=4))
        for st in states:
            exact = heat_propagate(gauss_state.n, st.t)
            assert np.max(np.abs(st.n.values - exact.values)) <= 1e-10

    def test_chemical_equation_exact_when_density_zero(self, grid1d):
        c0_vals = np.exp(-(grid1d.mesh()[0] ** 2) / 6.0)
        zero = ScalarField(grid1d, np.zeros(grid1d.shape))
        c0 = ScalarField(grid1d, c0_vals)
        p = Params(chi=1.0, tau=1.7, lam=0.3, mu=0.4, d=1)
        res = run(State(0.0, zero, c0), p, RunConfig(t_end=0.32, dt=0.02, monitor_every=4))
        exact = heat_propagate(c0, 0.32, tau=p.tau, damping=1.0)
        assert np.max(np.abs(res.final.c.values - exact.values)) <= 1e-12

    def test_blowup_cap_must_exceed_initial_gauge(self, gauss_state):
        with pytest.raises(ValueError):
            run(gauss_state, PARAMS_1D, RunConfig(t_end=0.1, dt=0.01, blowup_cap=0.5))

    def test_adaptive_dt_heuristic_positive_and_capped(self, gauss_state):
        dt = suggest_dt(gauss_state, PARAMS_1D)
        assert 0 < dt <= 0.25

    def test_one_live_stepper_across_auto_dt_intervals(self, gauss_state):
        p = Params(chi=1.0, tau=1.0, lam=0.5, mu=1.0, d=1)
        alive = []

        def count_steppers(state):
            steppers = [o for o in gc.get_objects() if isinstance(o, _Stepper)]
            alive.append(sum(1 for s in steppers if s.params is p))
            return {}

        config = RunConfig(t_end=0.5, dt=None, monitor_every=1)
        res = run(gauss_state, p, config, monitors=count_steppers)
        # One step per interval, so each trace gap is that interval's dt.
        dts = np.diff([s.t for s in res.trace])
        assert len(dts) >= 5 and len(set(dts)) >= 5
        assert max(alive) == 1

    def test_vanishing_auto_dt_is_numerical_failure(self, gauss_state):
        # The heuristic's rate is ~1e307, so its dt is below any usable step.
        p = Params(chi=0.0, tau=1.0, lam=0.0, mu=1e308, d=1)
        res = run(gauss_state, p, RunConfig(t_end=0.05, dt=None))
        assert res.status is RunStatus.NUMERICAL_FAILURE
        assert res.status_time == 0.0 and len(res.trace) == 1

    def test_trace_times_strictly_increasing(self, gauss_state):
        res = run(gauss_state, PARAMS_1D, RunConfig(t_end=0.3, dt=None, monitor_every=7))
        times = [s.t for s in res.trace]
        assert all(b > a for a, b in zip(times[:-1], times[1:]))
        assert res.trace[-1].t == pytest.approx(0.3)


class TestApproxInitial:
    def test_plateau_keeps_values(self, grid1d):
        state = approx_initial(
            lambda x: np.ones_like(x), lambda x: 0.5 * np.ones_like(x), 5.0, grid1d
        )
        inside = grid1d.radius() <= 5.0
        assert np.all(state.n.values[inside] == 1.0)
        assert np.all(state.c.values[inside] == 0.5)

    def test_vanishes_outside_double_radius(self, grid1d):
        state = approx_initial(
            lambda x: np.ones_like(x), lambda x: np.ones_like(x), 5.0, grid1d
        )
        outside = grid1d.radius() >= 10.0
        assert np.all(state.n.values[outside] == 0.0)

    def test_nested_truncations_agree_on_inner_ball(self, grid1d):
        fn = lambda x: 1.0 + 0.1 * np.cos(2 * np.pi * x / grid1d.box_len)
        small = approx_initial(fn, fn, 4.0, grid1d)
        large = approx_initial(fn, fn, 8.0, grid1d)
        inner = grid1d.radius() <= 4.0
        assert np.max(np.abs(small.n.values[inner] - large.n.values[inner])) == 0.0

    def test_rejects_negative_density(self, grid1d):
        with pytest.raises(ValueError):
            approx_initial(
                lambda x: -np.ones_like(x), lambda x: np.ones_like(x), 5.0, grid1d
            )


class TestPicard:
    def test_linear_case_fixed_in_one_iteration(self, gauss_state):
        # Without coupling or sources the density map is the pure heat flow.
        p = Params(chi=0.0, tau=1.0, lam=0.0, mu=0.0, d=1)
        res = picard_local_solve(
            gauss_state, p, PicardConfig(horizon=0.2, iterations=3, quadrature_nodes=8)
        )
        exact = heat_propagate(gauss_state.n, 0.2)
        assert np.max(np.abs(res.final.n.values - exact.values)) <= 1e-12

    def test_contracts_on_short_horizon(self, gauss_state):
        res = picard_local_solve(
            gauss_state,
            PARAMS_1D,
            PicardConfig(horizon=0.1, iterations=6, quadrature_nodes=16),
        )
        assert not res.diverged
        assert all(r < 1.0 for r in res.ratios)

    def test_default_horizon_is_contractive(self, gauss_state):
        M = data_bound(gauss_state)
        T = default_picard_horizon(PARAMS_1D, M)
        assert 0 < T <= 1.0
        res = picard_local_solve(
            gauss_state, PARAMS_1D, PicardConfig(horizon=T, iterations=4, quadrature_nodes=8)
        )
        assert all(r < 1.0 for r in res.ratios)

    def test_divergence_is_reported(self, grid1d):
        # A horizon far outside the contraction regime with strong coupling:
        # growing successive differences must be flagged, not swallowed.
        x = grid1d.mesh()[0]
        big = State(
            0.0,
            ScalarField(grid1d, 30.0 * np.exp(-(x**2) / 0.5)),
            ScalarField(grid1d, 30.0 * np.exp(-(x**2) / 0.5)),
        )
        p = Params(chi=8.0, tau=1.0, lam=0.0, mu=0.0, d=1)
        res = picard_local_solve(
            big, p, PicardConfig(horizon=2.0, iterations=5, quadrature_nodes=8)
        )
        assert res.diverged

    def test_contractive_horizon_probe(self, gauss_state):
        from kslab.solver import contractive_picard_horizon

        T = contractive_picard_horizon(gauss_state, PARAMS_1D)
        res = picard_local_solve(
            gauss_state, PARAMS_1D, PicardConfig(horizon=T, iterations=4, quadrature_nodes=8)
        )
        assert all(r < 1.0 for r in res.ratios)

    def test_agrees_with_stepper_under_refinement(self, gauss_state):
        # Two independent discretizations of the same mild solution: the gap
        # must shrink by at least 2x when both resolutions are doubled.
        T = 0.1

        def gap(dt, nodes):
            res_run = run(gauss_state, PARAMS_1D, RunConfig(t_end=T, dt=dt, monitor_every=10**6))
            res_pic = picard_local_solve(
                gauss_state,
                PARAMS_1D,
                PicardConfig(horizon=T, iterations=8, quadrature_nodes=nodes),
            )
            return max(
                np.max(np.abs(res_run.final.n.values - res_pic.final.n.values)),
                np.max(np.abs(res_run.final.c.values - res_pic.final.c.values)),
            )

        coarse = gap(T / 8, 8)
        fine = gap(T / 16, 16)
        assert coarse / fine >= 2.0


class TestNonnegativity:
    def test_zero_data(self, grid1d):
        zero = ScalarField(grid1d, np.zeros(grid1d.shape))
        assert nonnegativity_report(State(0.0, zero, zero)) == (0.0, 0.0)

    def test_homogeneous_flow_stays_nonnegative(self, grid1d):
        state = State(
            0.0,
            ScalarField(grid1d, np.full(grid1d.shape, 0.7)),
            ScalarField(grid1d, np.full(grid1d.shape, 0.7)),
        )
        res = run(state, PARAMS_1D, RunConfig(t_end=1.0, dt=0.01, monitor_every=20))
        min_n, min_c = nonnegativity_report(res.final)
        assert min_n >= -1e-10
        assert min_c >= -1e-10

    def test_bump_run_2d(self, rng):
        grid = make_grid(2, 64, 40.0)
        initial = build_initial(grid, "gaussian_bump", 1.0, 2.5, M=9.0)
        p = Params(chi=1.0, tau=1.0, lam=0.0, mu=1.0, d=2)
        res = run(initial, p, RunConfig(t_end=1.0, dt=5e-3, monitor_every=20))
        min_n = min(s.values["min_n"] for s in res.trace)
        assert min_n >= -1e-8


class TestDeterminism:
    def test_identical_runs(self, gauss_state):
        cfg = RunConfig(t_end=0.2, dt=5e-3, monitor_every=8)
        assert determinism_check(gauss_state, PARAMS_1D, cfg)

    def test_monitor_stride_does_not_change_dynamics(self, gauss_state):
        a = run(gauss_state, PARAMS_1D, RunConfig(t_end=0.2, dt=5e-3, monitor_every=4))
        b = run(gauss_state, PARAMS_1D, RunConfig(t_end=0.2, dt=5e-3, monitor_every=10))
        assert np.array_equal(a.final.n.values, b.final.n.values)
        assert np.array_equal(a.final.c.values, b.final.c.values)

    def test_tiny_perturbation_grows_slowly(self, gauss_state, grid1d):
        eps = 1e-12
        bumped = State(
            0.0,
            ScalarField(grid1d, gauss_state.n.values + eps),
            gauss_state.c,
        )
        cfg = RunConfig(t_end=0.1, dt=2e-3, monitor_every=50)
        a = run(gauss_state, PARAMS_1D, cfg)
        b = run(bumped, PARAMS_1D, cfg)
        gap = np.max(np.abs(a.final.n.values - b.final.n.values))
        assert gap <= 1e-9


class TestCheckpoint:
    def test_round_trip(self, gauss_state, tmp_path):
        path = tmp_path / "state.kslb"
        save_checkpoint(path, gauss_state)
        loaded = load_checkpoint(path)
        assert loaded.t == gauss_state.t
        assert np.array_equal(loaded.n.values, gauss_state.n.values)
        assert np.array_equal(loaded.c.values, gauss_state.c.values)

    def test_binary_layout(self, grid1d):
        # Golden header: magic, u32 d, u32 n_axis, f64 box_len, f64 t, then
        # the two sample blocks, all little-endian.
        import struct

        zero = ScalarField(grid1d, np.zeros(grid1d.shape))
        state = State(1.5, zero, zero)
        blob = state_to_bytes(state)
        assert blob[:5] == b"KSLB1"
        d, n_axis = struct.unpack_from("<II", blob, 5)
        box_len, t = struct.unpack_from("<dd", blob, 13)
        assert (d, n_axis, box_len, t) == (1, 256, 40.0, 1.5)
        assert len(blob) == 5 + 8 + 16 + 2 * 256 * 8

    def test_rejects_bad_magic(self, gauss_state):
        blob = bytearray(state_to_bytes(gauss_state))
        blob[0] = ord("X")
        with pytest.raises(ValueError):
            state_from_bytes(bytes(blob))

    def test_rejects_truncation(self, gauss_state):
        blob = state_to_bytes(gauss_state)
        with pytest.raises(ValueError):
            state_from_bytes(blob[:-8])
