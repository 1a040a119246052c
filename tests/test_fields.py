import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from kslab import fields
from kslab.fields import (
    ScalarField,
    VectorField,
    _apply_multiplier,
    _band,
    _grad_abs_hat,
    _grad_hat,
    _hessian_sq_hat,
    _irfft,
    _k_axes_odd_r,
    _k_axes_r,
    _rfft,
    dealias,
    divergence,
    gradient,
    heat_propagate,
    hessian_sq,
    integrate,
    laplacian,
    magnitude,
    make_grid,
)
from kslab.presets import build_initial
from kslab.suites import _random_field

from conftest import dealias_mask


class TestMakeGrid:
    def test_basic_spacing(self):
        grid = make_grid(1, 256, 40.0)
        assert grid.spacing == 0.15625
        assert grid.spacing * grid.n_axis == grid.box_len

    def test_point_count_3d(self):
        grid = make_grid(3, 64, 20.0)
        assert grid.npoints == 262144

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            make_grid(2, 100, 10.0)

    def test_rejects_small_and_bad_dim(self):
        with pytest.raises(ValueError):
            make_grid(2, 4, 10.0)
        with pytest.raises(ValueError):
            make_grid(4, 64, 10.0)
        with pytest.raises(ValueError):
            make_grid(1, 64, -1.0)

    @pytest.mark.parametrize(
        "d,n_axis,name", [(True, 64, "d"), (2.0, 64, "d"), (2, 64.0, "n_axis"), (2, True, "n_axis")]
    )
    def test_rejects_a_non_integer_size(self, d, n_axis, name):
        # True would stand for d = 1; a float would fail later, as a TypeError.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make_grid(d, n_axis, 40.0)
        assert make_grid(np.int64(2), np.int64(64), 40.0).shape == (64, 64)

    def test_rejects_infinite_box(self):
        with pytest.raises(ValueError, match="box_len must be finite"):
            make_grid(1, 64, math.inf)

    def test_coords_centered(self):
        grid = make_grid(1, 256, 40.0)
        x = grid.axis_coords()
        assert x[0] == -20.0
        assert x[-1] == 20.0 - grid.spacing
        assert 0.0 in x

    @pytest.mark.parametrize("center", [(1.0,), (1.0, 2.0, 3.0), (math.nan, 0.0), (0.0, math.inf)])
    def test_radius_needs_d_finite_coordinates(self, center):
        # Unchecked, a short center broadcasts to a (32, 1) array and a long
        # one loses its third coordinate.
        grid = make_grid(2, 32, 20.0)
        with pytest.raises(ValueError, match="center must be 2 finite coordinates"):
            grid.radius(center)
        with pytest.raises(ValueError, match="center must be 2 finite coordinates"):
            grid.wrapped_delta(center)


class TestSpectralTransform:
    def test_constant_is_pure_dc(self, grid1d):
        coeffs = _rfft(np.ones(grid1d.shape))
        assert coeffs.shape == grid1d.rshape
        assert abs(coeffs[0] - grid1d.n_axis) < 1e-9
        coeffs[0] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-12

    def test_single_cosine_two_modes(self, grid1d):
        # The half spectrum stores mode +1 only; its conjugate partner -1 is
        # implied, so each carries half the cosine: N/2.
        x = grid1d.mesh()[0]
        coeffs = _rfft(np.cos(2 * np.pi * x / grid1d.box_len))
        big = np.abs(coeffs) > 1e-8
        assert big.sum() == 1
        assert big[1]
        assert abs(abs(coeffs[1]) - grid1d.n_axis / 2) < 1e-9

    def test_round_trip(self, grid2d, rng):
        f = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
        back = _irfft(_rfft(f.values), grid2d)
        assert np.max(np.abs(back - f.values)) <= 1e-12 * f.max_abs()

    def test_values_frozen(self, grid1d):
        f = ScalarField(grid1d, np.zeros(grid1d.shape))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


def _assert_numpy_bytes(grid, values):
    """``_rfft``/``_irfft`` give numpy's bytes with buffers absent, given, and
    with the spent coefficients as ``work``."""
    want = np.fft.rfftn(values)
    back = np.fft.irfftn(want, grid.shape, axes=range(grid.d))
    assert _rfft(values).tobytes() == want.tobytes()
    out = np.empty(grid.rshape, np.complex128)
    assert _rfft(values, out=out) is out and out.tobytes() == want.tobytes()
    assert _irfft(want, grid).tobytes() == back.tobytes()
    real, work = np.empty(grid.shape), np.empty(grid.rshape, np.complex128)
    assert _irfft(want, grid, out=real, work=work) is real and real.tobytes() == back.tobytes()
    spent = want.copy()
    assert _irfft(spent, grid, out=real, work=spent).tobytes() == back.tobytes()


class TestSplitTransforms:
    TRANSFORMS = 5  # per _assert_numpy_bytes call

    @pytest.mark.parametrize("d,n_axis", [(1, 64), (2, 32), (3, 16)])
    def test_forced_split_gives_numpy_bytes(self, d, n_axis, split_everywhere, rng):
        grid = make_grid(d, n_axis, 20.0)
        _assert_numpy_bytes(grid, rng.standard_normal(grid.shape))
        # 1D is never split; otherwise the helper runs one half of each pass.
        assert len(split_everywhere) == (0 if d == 1 else 2 * self.TRANSFORMS)

    @pytest.mark.parametrize("d,n_axis", [(2, 512), (3, 64)])
    def test_split_at_threshold_gives_numpy_bytes(self, d, n_axis, monkeypatch, helper_halves):
        monkeypatch.setattr(fields, "_cpus", lambda: 2)
        grid = make_grid(d, n_axis, 20.0)
        assert grid.npoints == fields.SPLIT_MIN_POINTS
        _assert_numpy_bytes(grid, np.random.default_rng(d).standard_normal(grid.shape))
        assert len(helper_halves) == 2 * self.TRANSFORMS

    def test_small_fields_and_one_cpu_stay_on_one_thread(self, monkeypatch, helper_halves, rng):
        big = make_grid(2, 512, 20.0)
        _assert_numpy_bytes(make_grid(2, 256, 20.0), rng.standard_normal((256, 256)))
        monkeypatch.setattr(fields, "_cpus", lambda: 1)
        _assert_numpy_bytes(big, rng.standard_normal(big.shape))
        assert helper_halves == []

    def test_concurrent_callers_get_numpy_bytes(self, split_everywhere, rng):
        # More callers than cores share the one helper, with frequent thread
        # switches; each waits only for its own halves.
        callers, rounds = 4, 10
        grid = make_grid(3, 32, 20.0)
        values = [rng.standard_normal(grid.shape) for _ in range(callers)]
        want = [np.fft.rfftn(v) for v in values]
        backs = [np.fft.irfftn(w, grid.shape, axes=range(3)).tobytes() for w in want]
        got = [[] for _ in range(callers)]
        start = threading.Barrier(callers)

        def transform(i):
            start.wait()
            for _ in range(rounds):
                got[i].append((_rfft(values[i]).tobytes(), _irfft(want[i], grid).tobytes()))

        threads = [threading.Thread(target=transform, args=(i,)) for i in range(callers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in range(callers):
            assert got[i] == [(want[i].tobytes(), backs[i])] * rounds
        assert len(split_everywhere) == callers * rounds * 2 * 2


def _assert_band_bytes(grid, values):
    """``_rfft`` with ``band`` gives numpy's transform with the 2/3 rule applied
    after it, +0.0 at every dropped mode, into a fresh array or over ``out``."""
    keep = dealias_mask(grid)
    want = np.fft.rfftn(values)
    want[~keep] = 0.0
    assert _rfft(values, band=True).tobytes() == want.tobytes()
    out = np.full(grid.rshape, np.nan, np.complex128)  # every entry must be written
    assert _rfft(values, out=out, band=True) is out and out.tobytes() == want.tobytes()
    assert not (np.signbit(out[~keep].real).any() or np.signbit(out[~keep].imag).any())


class TestBandTransform:
    TRANSFORMS = 2  # per _assert_band_bytes call

    @pytest.mark.parametrize("d,n_axis", [(1, 64), (1, 8), (2, 32), (2, 8), (3, 16), (3, 64)])
    def test_band_blocks_tile_the_half_spectrum(self, d, n_axis):
        grid = make_grid(d, n_axis, 20.0)
        shape, blocks = _band(grid)
        k = n_axis // 3
        assert shape == (2 * k + 1,) * (d - 1) + (k + 1,)
        full, compact = np.zeros(grid.rshape, int), np.zeros(shape, int)
        for at_full, at_compact in blocks:
            full[at_full] += 1
            compact[at_compact] += 1
        keep = dealias_mask(grid)
        assert (full[keep] == 1).all() and (full[~keep] == 0).all()
        assert (compact == 1).all() and len(blocks) == 2 ** (d - 1)

    @pytest.mark.parametrize("d,n_axis", [(1, 64), (1, 8), (2, 32), (2, 8), (3, 16), (3, 8)])
    def test_unsplit_gives_masked_numpy_bytes(self, d, n_axis, helper_halves, rng):
        grid = make_grid(d, n_axis, 20.0)
        _assert_band_bytes(grid, rng.standard_normal(grid.shape))
        assert helper_halves == []

    @pytest.mark.parametrize("d,n_axis", [(1, 64), (2, 32), (2, 8), (3, 16), (3, 8)])
    def test_forced_split_gives_masked_numpy_bytes(self, d, n_axis, split_everywhere, rng):
        grid = make_grid(d, n_axis, 20.0)
        _assert_band_bytes(grid, rng.standard_normal(grid.shape))
        # 1D is never split; otherwise the helper runs one half of each pass.
        assert len(split_everywhere) == (0 if d == 1 else 2 * self.TRANSFORMS)

    def test_split_64_cubed_gives_masked_numpy_bytes(self, monkeypatch, helper_halves):
        monkeypatch.setattr(fields, "_cpus", lambda: 2)
        grid = make_grid(3, 64, 20.0)
        assert grid.npoints >= fields.SPLIT_MIN_POINTS
        _assert_band_bytes(grid, np.random.default_rng(3).standard_normal(grid.shape))
        assert len(helper_halves) == 2 * self.TRANSFORMS


class TestDerivatives:
    def test_gradient_of_constant(self, grid2d):
        g = gradient(ScalarField(grid2d, np.full(grid2d.shape, 3.5)))
        assert magnitude(g).max_abs() == 0.0

    def test_gradient_of_sine_analytic(self, grid1d):
        L = grid1d.box_len
        x = grid1d.mesh()[0]
        f = ScalarField(grid1d, np.sin(2 * np.pi * x / L))
        expected = (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
        got = gradient(f).components[0].values
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_laplacian_of_sine_analytic(self, grid1d):
        L = grid1d.box_len
        x = grid1d.mesh()[0]
        f = ScalarField(grid1d, np.sin(2 * np.pi * x / L))
        expected = -((2 * np.pi / L) ** 2) * np.sin(2 * np.pi * x / L)
        assert np.max(np.abs(laplacian(f).values - expected)) <= 1e-12

    def test_laplacian_of_constant(self, grid2d):
        assert laplacian(ScalarField(grid2d, np.ones(grid2d.shape))).max_abs() == 0.0

    def test_div_grad_equals_laplacian(self, grid2d, rng):
        f = dealias(ScalarField(grid2d, rng.standard_normal(grid2d.shape)))
        gap = np.max(np.abs(divergence(gradient(f)).values - laplacian(f).values))
        assert gap <= 1e-10

    def test_product_rule_on_dealiased_fields(self, grid2d, rng):
        f = dealias(ScalarField(grid2d, rng.standard_normal(grid2d.shape)))
        g = dealias(ScalarField(grid2d, rng.standard_normal(grid2d.shape)))
        lhs = dealias(gradient(f * g).components[0])
        rhs = dealias(
            ScalarField(
                grid2d,
                f.values * gradient(g).components[0].values
                + g.values * gradient(f).components[0].values,
            )
        )
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-8


class TestHessian:
    def test_constant_field(self, grid2d):
        assert hessian_sq(ScalarField(grid2d, np.ones(grid2d.shape))).max_abs() == 0.0

    def test_laplacian_bound(self, grid2d, rng):
        c = _random_field(grid2d, rng, grid2d.n_axis // 8)
        lap_sq = laplacian(c).values ** 2
        assert np.max(lap_sq - grid2d.d * hessian_sq(c).values) <= 1e-9

    def test_gradient_square_bound(self, grid2d, rng):
        c = _random_field(grid2d, rng, grid2d.n_axis // 8)
        gc = magnitude(gradient(c)).values
        lhs = sum(
            comp.values**2
            for comp in gradient(ScalarField(grid2d, gc * gc)).components
        )
        assert np.max(lhs - 4.0 * hessian_sq(c).values * gc * gc) <= 1e-9

    @pytest.mark.parametrize("d,n_axis", [(2, 64), (3, 16)])
    def test_integral_is_that_of_the_laplacian_squared(self, d, n_axis, rng):
        # On the torus int |D^2 c|^2 = int (Lap c)^2, which lets the monitors
        # read ||Lap c||^2 and take no Hessian.  Exact for dealiased fields.
        grid = make_grid(d, n_axis, 20.0)
        c = dealias(ScalarField(grid, rng.standard_normal(grid.shape)))
        want = integrate(ScalarField(grid, laplacian(c).values ** 2))
        assert abs(integrate(hessian_sq(c)) - want) <= 1e-12 * want

    def test_integral_gap_on_data_with_nyquist_modes(self):
        # The monitor2d initial state (seed 1) carries Nyquist modes, whose
        # mixed partials the Hessian zeroes and the Laplacian does not.
        grid = make_grid(2, 128, 40.0)
        c = build_initial(grid, "random_smooth", 5.0, 2.5, 9.6, seed=1).c
        want = integrate(ScalarField(grid, laplacian(c).values ** 2))
        assert abs(integrate(hessian_sq(c)) - want) <= 1e-8 * want


class TestSpectralCores:
    @pytest.mark.parametrize("d,n_axis", [(1, 64), (2, 32), (3, 16)])
    def test_read_only_spectrum(self, d, n_axis, rng):
        # Callers share one spectrum among several cores: none may write it.
        grid = make_grid(d, n_axis, 20.0)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        fhat = _rfft(f.values)
        fhat.setflags(write=False)
        for got, want in zip(_grad_hat(fhat, grid), gradient(f).components):
            assert np.array_equal(got, want.values)
        assert np.array_equal(_hessian_sq_hat(fhat, grid), hessian_sq(f).values)
        assert _grad_abs_hat(fhat, grid).tobytes() == f.grad_abs.values.tobytes()
        assert np.array_equal(fhat, _rfft(f.values))

    @pytest.mark.parametrize("d,n_axis", [(1, 64), (2, 32), (3, 16)])
    def test_scratch_reuse_keeps_the_allocating_bytes(self, d, n_axis, rng):
        # The helpers reuse their spent products; the bytes are those of one
        # fresh array per operation.
        grid = make_grid(d, n_axis, 20.0)
        f = ScalarField(grid, rng.standard_normal(grid.shape))

        def irfft(coeffs):
            return np.fft.irfftn(coeffs, s=grid.shape, axes=tuple(range(d)))

        fhat = np.fft.rfftn(f.values)
        comps = [irfft(1j * ka * fhat) for ka in _k_axes_odd_r(grid)]
        assert [c.tobytes() for c in _grad_hat(fhat, grid)] == [c.tobytes() for c in comps]
        assert f.grad_abs.values.tobytes() == np.sqrt(sum(c**2 for c in comps)).tobytes()
        k_even, k_odd = _k_axes_r(grid), _k_axes_odd_r(grid)
        total = np.zeros(grid.shape)
        for i in range(d):
            for j in range(i, d):
                mult, w = (-k_even[i] * k_even[i], 1.0) if i == j else (-k_odd[i] * k_odd[j], 2.0)
                dij = irfft(mult * fhat)
                total = total + w * dij * dij
        assert _hessian_sq_hat(fhat, grid).tobytes() == total.tobytes()
        mult = np.exp(-_k_axes_r(grid)[0] ** 2)
        assert _apply_multiplier(f, mult).values.tobytes() == irfft(fhat * mult).tobytes()


class TestHeatPropagate:
    def test_zero_time_is_identity(self, grid2d, rng):
        f = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
        assert np.array_equal(heat_propagate(f, 0.0).values, f.values)

    def test_constant_with_damping(self, grid1d):
        f = ScalarField(grid1d, np.full(grid1d.shape, 2.0))
        out = heat_propagate(f, 0.7, tau=2.0, damping=1.0)
        assert np.max(np.abs(out.values - 2.0 * math.exp(-0.7 / 2.0))) <= 1e-12

    def test_single_mode_multiplier(self, grid1d):
        L = grid1d.box_len
        x = grid1d.mesh()[0]
        k = 3
        f = ScalarField(grid1d, np.cos(2 * np.pi * k * x / L))
        t, tau = 0.3, 1.5
        factor = math.exp(-(t / tau) * (1.0 + (2 * np.pi * k / L) ** 2))
        out = heat_propagate(f, t, tau=tau, damping=1.0)
        assert np.max(np.abs(out.values - factor * f.values)) <= 1e-12

    def test_semigroup_law(self, grid2d, rng):
        f = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
        a = heat_propagate(heat_propagate(f, 0.07), 0.05)
        b = heat_propagate(f, 0.12)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_negative_time_rejected(self, grid1d):
        f = ScalarField(grid1d, np.zeros(grid1d.shape))
        with pytest.raises(ValueError):
            heat_propagate(f, -0.1)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_nonpositive_tau_rejected(self, grid1d, tau):
        f = ScalarField(grid1d, np.ones(grid1d.shape))
        with pytest.raises(ValueError, match="tau must be positive"):
            heat_propagate(f, 0.1, tau=tau)

    @pytest.mark.parametrize(
        "t,tau,damping",
        [(math.inf, 1.0, 0.0), (math.nan, 1.0, 0.0), (0.1, 1.0, math.nan), (0.1, math.inf, 0.0)],
    )
    def test_non_finite_arguments_rejected(self, grid1d, t, tau, damping):
        f = ScalarField(grid1d, np.ones(grid1d.shape))
        with pytest.raises(ValueError, match="must be finite"):
            heat_propagate(f, t, tau=tau, damping=damping)


class TestVectorField:
    def test_wrong_component_count_rejected(self, grid2d):
        f = ScalarField(grid2d, np.zeros(grid2d.shape))
        with pytest.raises(ValueError, match="component count must equal grid dimension"):
            VectorField(grid2d, (f,))

    def test_components_on_another_grid_rejected(self, grid2d):
        other = make_grid(2, 32, grid2d.box_len)
        f = ScalarField(grid2d, np.zeros(grid2d.shape))
        g = ScalarField(other, np.zeros(other.shape))
        with pytest.raises(ValueError, match="all components must share the grid"):
            VectorField(grid2d, (f, g))


class TestScalarArithmetic:
    def test_sub_and_pow_match_numpy(self, grid2d, rng):
        a = rng.standard_normal(grid2d.shape)
        b = rng.standard_normal(grid2d.shape)
        f, g = ScalarField(grid2d, a), ScalarField(grid2d, b)
        for got, want in [(f - g, a - b), (f - 0.5, a - 0.5), (f**2, a**2), (g**3, b**3)]:
            assert got.grid == grid2d
            assert np.array_equal(got.values, want)


class TestMaxAbs:
    @pytest.mark.parametrize(
        "values",
        [
            [-0.0] * 8,
            [0.0, -0.0] * 4,
            [-3.0, 1.0, 2.0, -0.5, 0.0, 2.5, -1.0, 1.5],  # the extreme is negative
            [3.0, -1.0, 2.0, -0.5, 0.0, 2.5, -1.0, 1.5],
            [-2.0] * 8,
            [1.0, -np.inf, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0],
        ],
    )
    def test_bitwise_the_max_of_abs(self, values):
        v = np.array(values)
        got = ScalarField(make_grid(1, 8, 8.0), v).max_abs()
        assert type(got) is float
        assert np.float64(got).tobytes() == np.max(np.abs(v)).tobytes()

    def test_random_3d_field(self, rng):
        f = ScalarField(make_grid(3, 16, 8.0), rng.standard_normal((16,) * 3))
        assert f.max_abs() == float(np.max(np.abs(f.values)))

    def test_allocates_no_field(self, rng):
        grid = make_grid(3, 32, 8.0)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        f.max_abs()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            f.max_abs()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * 8 * grid.npoints


class TestIntegrate:
    def test_constant(self, grid2d):
        val = integrate(ScalarField(grid2d, np.ones(grid2d.shape)))
        assert abs(val - grid2d.box_len**grid2d.d) <= 1e-9

    def test_sine_mode_is_mean_zero(self, grid1d):
        x = grid1d.mesh()[0]
        f = ScalarField(grid1d, np.sin(2 * np.pi * x / grid1d.box_len))
        assert abs(integrate(f)) <= 1e-12

    def test_gaussian_analytic_mass(self):
        # Oracle: integral of a*exp(-|x|^2/(2 w^2)) over R^d is a*(sqrt(2 pi) w)^d;
        # the periodization error is far below 1e-8 for w = L/16.
        grid = make_grid(2, 128, 40.0)
        a, w = 1.7, 2.5
        r2 = grid.radius() ** 2
        f = ScalarField(grid, a * np.exp(-r2 / (2 * w**2)))
        exact = a * (math.sqrt(2 * math.pi) * w) ** grid.d
        assert abs(integrate(f) - exact) <= 1e-8 * exact


class TestDealias:
    def test_removes_high_modes_only(self, grid1d, rng):
        f = ScalarField(grid1d, rng.standard_normal(grid1d.shape))
        low = _random_field(grid1d, rng, grid1d.n_axis // 4)
        assert np.max(np.abs(dealias(low).values - low.values)) <= 1e-12
        fd = dealias(f)
        coeffs = np.fft.fft(fd.values)
        n = grid1d.n_axis
        assert np.max(np.abs(coeffs[n // 3 + 1 : n - n // 3])) <= 1e-9

    @pytest.mark.parametrize("d,n_axis", [(1, 64), (2, 32), (3, 16)])
    def test_bytes_are_numpy_round_trip_with_the_mask(self, d, n_axis, rng):
        grid = make_grid(d, n_axis, 20.0)
        keep = dealias_mask(grid)
        for values in (rng.standard_normal(grid.shape), np.full(grid.shape, -0.0)):
            want = np.fft.irfftn(np.fft.rfftn(values) * keep, grid.shape, tuple(range(d)))
            assert dealias(ScalarField(grid, values)).values.tobytes() == want.tobytes()

