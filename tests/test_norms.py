import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab.fields import ScalarField, gradient, integrate, magnitude, make_grid
from kslab.norms import (
    cutoff_phi,
    cutoff_phi_gradient,
    cutoff_phi_hessian_norm,
    cutoff_phi_laplacian,
    cutoff_psi,
    lp_norm,
    uloc_norm,
    w1inf_norm,
)


def uloc_brute_force(f, p, R):
    """Ball oracle: the sum of |f|^p over the lattice offsets strictly inside
    B_R, at every grid point, by periodic shifts.

    The ball norm of radius R bounds ``uloc_norm`` from below and e^{-1/(3p)}
    times ``uloc_norm`` is at most the ball norm of radius 2R.
    """
    g = f.grid
    h = g.spacing
    f_pow = np.abs(f.values) ** p
    reach = int(R / h) + 1
    sums = np.zeros(g.shape)
    for offset in itertools.product(range(-reach, reach + 1), repeat=g.d):
        if sum((i * h) ** 2 for i in offset) < R * R:
            sums += np.roll(f_pow, offset, axis=tuple(range(g.d)))
    return float(h**g.d * np.max(sums)) ** (1.0 / p)


def uloc_phi_brute_force(f, p, R):
    """Independent oracle: the cutoff-weighted integral of |f|^p at every grid point."""
    g = f.grid
    coords = g.axis_coords()
    f_pow = ScalarField(g, np.abs(f.values) ** p)
    best = 0.0
    for center_idx in itertools.product(range(g.n_axis), repeat=g.d):
        center = tuple(float(coords[i]) for i in center_idx)
        best = max(best, integrate(f_pow * cutoff_phi(g, center, R)))
    return best ** (1.0 / p)


def phi_mass(d, R, g=lambda r: 1.0):
    """Integral of cutoff_phi(., 0, R) times a radial g over R^d, by radial
    Gauss-Legendre quadrature on [0, 2R]."""
    x, w = np.polynomial.legendre.leggauss(200)
    r = R * (x + 1.0)
    phi = np.exp(4.0 / 3.0 + 4.0 * R * R / (r * r - 4.0 * R * R))
    sphere = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[d]
    return sphere * R * float(np.sum(w * phi * g(r) * r ** (d - 1)))


class TestLpNorm:
    def test_constant_l2(self):
        grid = make_grid(1, 256, 10.0)
        f = ScalarField(grid, np.ones(grid.shape))
        assert abs(lp_norm(f, 2) - math.sqrt(10.0)) <= 1e-12

    def test_bump_sup_norm(self, grid1d):
        vals = np.zeros(grid1d.shape)
        vals[10:20] = 3.25
        assert lp_norm(ScalarField(grid1d, vals), math.inf) == 3.25

    def test_rejects_p_below_one(self, grid1d):
        with pytest.raises(ValueError):
            lp_norm(ScalarField(grid1d, np.ones(grid1d.shape)), 0.5)

    def test_dominated_by_the_sup_norm(self, grid2d, rng):
        # ||f||_p <= ||f||_inf |box|^(1/p) on the box of side L.
        f = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
        p = 3.0
        assert lp_norm(f, p) <= lp_norm(f, math.inf) * grid2d.box_len ** (grid2d.d / p) + 1e-12

    @given(alpha=st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, alpha):
        grid = make_grid(1, 64, 10.0)
        rng = np.random.default_rng(99)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        for p in (1, 2, math.inf):
            scaled = lp_norm(ScalarField(grid, alpha * f.values), p)
            assert abs(scaled - abs(alpha) * lp_norm(f, p)) <= 1e-9 * (1 + abs(alpha))


class TestW1Inf:
    def test_constant(self, grid1d):
        f = ScalarField(grid1d, np.full(grid1d.shape, -2.5))
        assert abs(w1inf_norm(f) - 2.5) <= 1e-12

    def test_sine_analytic(self, grid1d):
        # Sup of the value is 1, sup of the slope is 2 pi / L.
        L = grid1d.box_len
        x = grid1d.mesh()[0]
        f = ScalarField(grid1d, np.sin(2 * np.pi * x / L))
        assert abs(w1inf_norm(f) - (1.0 + 2 * np.pi / L)) <= 1e-10

    def test_triangle_inequality(self, grid2d, rng):
        f = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
        g = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
        assert w1inf_norm(f + g) <= w1inf_norm(f) + w1inf_norm(g) + 1e-10


class TestCutoffPhi:
    def test_center_value_exact(self):
        grid = make_grid(1, 256, 40.0)
        center, R = (0.0,), 4.0
        phi = cutoff_phi(grid, center, R)
        i0 = int(np.argmin(np.abs(grid.axis_coords())))
        assert abs(phi.values[i0] - math.exp(1.0 / 3.0)) <= 1e-12

    def test_value_one_at_radius(self):
        # Choose R on the grid so a sample sits exactly at distance R.
        grid = make_grid(1, 256, 40.0)
        R = 25 * grid.spacing
        phi = cutoff_phi(grid, (0.0,), R)
        x = grid.axis_coords()
        iR = int(np.argmin(np.abs(x - R)))
        assert x[iR] == R
        assert phi.values[iR] == 1.0

    def test_zero_outside_support(self):
        grid = make_grid(2, 64, 40.0)
        center, R = (1.0, -2.0), 3.0
        phi = cutoff_phi(grid, center, R)
        outside = grid.radius(center) >= 2 * R
        assert np.all(phi.values[outside] == 0.0)

    def test_range_on_inner_ball(self):
        grid = make_grid(1, 1024, 40.0)
        center, R = (0.0,), 4.0
        phi = cutoff_phi(grid, center, R)
        ball = grid.radius(center) < R
        assert np.all(phi.values[ball] >= 1.0)
        assert np.all(phi.values[ball] < 2.0)

    def test_support_must_fit_box(self):
        grid = make_grid(1, 256, 40.0)
        with pytest.raises(ValueError):
            cutoff_phi(grid, (0.0,), 10.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_center_must_be_finite(self, x):
        # Unchecked, a nan center gives an all-zero weight with no error.
        grid = make_grid(2, 32, 20.0)
        with pytest.raises(ValueError, match="center must be 2 finite coordinates"):
            cutoff_phi(grid, (x, 0.0), 1.0)

    @pytest.mark.parametrize("R", [1.0, 2.0, 4.0, 8.0])
    def test_gradient_matches_finite_differences(self, R):
        grid = make_grid(1, 2048, 80.0)
        center = (0.0,)
        phi = cutoff_phi(grid, center, R).values
        gp = cutoff_phi_gradient(grid, center, R).components[0].values
        h = grid.spacing
        fd = (phi[2:] - phi[:-2]) / (2 * h)
        # Central differences are O(h^2 phi'''); compare away from the edge.
        x = grid.axis_coords()[1:-1]
        interior = np.abs(x) < 1.7 * R
        assert np.max(np.abs(gp[1:-1][interior] - fd[interior])) <= 50 * h**2 / R

    def test_laplacian_matches_finite_differences(self):
        grid = make_grid(1, 2048, 80.0)
        center, R = (0.0,), 4.0
        phi = cutoff_phi(grid, center, R).values
        lap = cutoff_phi_laplacian(grid, center, R).values
        h = grid.spacing
        fd = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / h**2
        x = grid.axis_coords()[1:-1]
        interior = np.abs(x) < 1.7 * R
        assert np.max(np.abs(lap[1:-1][interior] - fd[interior])) <= 100 * h**2

    def test_scaling_constants_stable(self):
        # The fitted constants of |grad phi| <= C/R, |D2 phi| <= C/R^2 and
        # phi^{-1}|grad phi|^2 <= C/R^2 must agree within 5% across radii.
        grid = make_grid(1, 2048, 80.0)
        grad_c, hess_c, ratio_c = [], [], []
        for R in (1.0, 2.0, 4.0, 8.0):
            center = (0.0,)
            phi = cutoff_phi(grid, center, R).values
            gmag = magnitude(cutoff_phi_gradient(grid, center, R)).values
            grad_c.append(np.max(gmag) * R)
            hess_c.append(cutoff_phi_hessian_norm(grid, center, R).max_abs() * R * R)
            ratio = np.where(phi > 0, gmag**2 / np.where(phi > 0, phi, 1.0), 0.0)
            ratio_c.append(np.max(ratio) * R * R)
        for fits in (grad_c, hess_c, ratio_c):
            assert max(fits) / min(fits) - 1.0 <= 0.05

    def test_boundary_values_vanish(self):
        # Both phi and its normal derivative vanish at the support edge.
        grid = make_grid(1, 2048, 80.0)
        center, R = (0.0,), 4.0
        phi = cutoff_phi(grid, center, R).values
        gp = cutoff_phi_gradient(grid, center, R).components[0].values
        r = grid.radius(center)
        at_edge = np.abs(r - 2 * R) <= grid.spacing
        assert np.max(np.abs(phi[at_edge])) <= 1e-3
        assert np.max(np.abs(gp[at_edge])) <= 1e-2

    def test_weight_peaks_at_three_full_arrays(self):
        # Only the radius and the result are full arrays; the weight and its
        # derivative pieces live on the support.
        grid = make_grid(3, 32, 20.0)
        center, R = (0.0, 0.0, 0.0), 2.0
        tracemalloc.start()
        try:
            cutoff_phi(grid, center, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * grid.npoints


class TestCutoffPsi:
    def test_plateau_value(self):
        grid = make_grid(1, 256, 40.0)
        psi = cutoff_psi(grid, 5.0)
        inside = grid.radius() <= 5.0
        assert np.all(psi.values[inside] == 1.0)

    def test_outside_value(self):
        grid = make_grid(2, 64, 40.0)
        psi = cutoff_psi(grid, 4.0)
        outside = grid.radius() >= 8.0
        assert np.all(psi.values[outside] == 0.0)

    def test_transition_band(self):
        grid = make_grid(1, 256, 40.0)
        M = 5.0
        psi = cutoff_psi(grid, M)
        x = grid.axis_coords()
        i = int(np.argmin(np.abs(x - 1.5 * M)))
        assert 0.0 < psi.values[i] < 1.0

    def test_monotone_radial(self):
        grid = make_grid(1, 512, 40.0)
        psi = cutoff_psi(grid, 4.0).values
        x = grid.axis_coords()
        right = x >= 0
        diffs = np.diff(psi[right])
        assert np.all(diffs <= 1e-12)

    def test_rejects_oversized_truncation(self):
        grid = make_grid(1, 256, 40.0)
        with pytest.raises(ValueError):
            cutoff_psi(grid, 10.0)


class TestUlocNorm:
    def test_constant_matches_weight_integral(self):
        # The norm of 1 is the integral of the weight, to the quadrature error
        # of h = 40/256 against R = 1.
        grid = make_grid(1, 256, 40.0)
        f = ScalarField(grid, np.ones(grid.shape))
        got = uloc_norm(f, 1, 1.0)
        assert abs(got / phi_mass(1, 1.0) - 1.0) <= 1e-4

    def test_bump_peaks_at_its_center(self, grid1d):
        # A bump symmetric about the grid point 0 reads its weighted norm there.
        vals = np.zeros(grid1d.shape)
        sel = np.abs(grid1d.axis_coords()) < 0.4
        vals[sel] = 2.0
        f = ScalarField(grid1d, vals)
        got = uloc_norm(f, 2, 1.0)
        want = math.sqrt(integrate(f * f * cutoff_phi(grid1d, (0.0,), 1.0)))
        assert abs(got - want) <= 1e-12 * want

    def test_monotone_in_radius(self, grid1d, rng):
        f = ScalarField(grid1d, rng.standard_normal(grid1d.shape))
        base = uloc_norm(f, 2, 1.0)
        for R in (2.0, 4.0, 8.0):
            assert base <= uloc_norm(f, 2, R) + 1e-12

    @pytest.mark.parametrize("p,R", [(1, 1.0), (2, 2.0), (3, 1.5)])
    def test_matches_brute_force_1d(self, p, R, rng):
        grid = make_grid(1, 64, 20.0)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        want = uloc_phi_brute_force(f, p, R)
        assert abs(uloc_norm(f, p, R) - want) <= 1e-12 * want

    def test_matches_brute_force_2d(self, rng):
        grid = make_grid(2, 32, 12.0)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        want = uloc_phi_brute_force(f, 2, 1.5)
        assert abs(uloc_norm(f, 2, 1.5) - want) <= 1e-12 * want

    def test_matches_brute_force_3d(self, rng):
        # Every grid point is a center, in 3D as in 1D and 2D.
        grid = make_grid(3, 16, 8.0)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        want = uloc_phi_brute_force(f, 1, 1.0)
        assert abs(uloc_norm(f, 1, 1.0) - want) <= 1e-12 * want

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("d,n,L,R", [(1, 64, 20.0, 1.5), (2, 32, 12.0, 1.5), (3, 16, 8.0, 1.0)])
    def test_between_the_ball_norms(self, d, n, L, R, p, rng):
        # 1 <= phi_R on B_R, phi_R <= e^{1/3}, and phi_R vanishes off B_2R, so
        # at every center the weighted sum lies between the two ball sums.
        grid = make_grid(d, n, L)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        got = uloc_norm(f, p, R)
        assert uloc_brute_force(f, p, R) <= got * (1.0 + 1e-12)
        assert got <= math.exp(1.0 / (3.0 * p)) * uloc_brute_force(f, p, 2.0 * R) * (1.0 + 1e-12)

    @pytest.mark.parametrize("d,sizes", [(2, (64, 128, 256)), (3, (32, 64))])
    def test_converges_under_refinement(self, d, sizes):
        # A constant and a width-1.25 Gaussian at R = 1 in a box of 20: each
        # halving of h cuts the relative error at least tenfold (the ball
        # quadrature's error did not settle), and 2D 256^2 is within 1e-6.
        def gauss(r):
            return np.exp(-r * r / (2.0 * 1.25**2))

        for g in (lambda r: np.ones_like(r), gauss):
            errors = []
            for n in sizes:
                grid = make_grid(d, n, 20.0)
                got = uloc_norm(ScalarField(grid, g(grid.radius())), 1, 1.0)
                errors.append(abs(got / phi_mass(d, 1.0, g) - 1.0))
            for coarse, fine in zip(errors, errors[1:]):
                assert fine <= 0.1 * coarse
            if d == 2:
                assert errors[-1] <= 1e-6

    def test_norm_axioms(self, grid2d, rng):
        f = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
        g = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
        assert uloc_norm(f + g, 2.0, 2.0) <= uloc_norm(f, 2.0, 2.0) + uloc_norm(g, 2.0, 2.0) + 1e-10
        assert abs(uloc_norm(2.5 * f, 2.0, 2.0) - 2.5 * uloc_norm(f, 2.0, 2.0)) <= 1e-10

    def test_support_rule_enforced(self, grid1d):
        # The radius obeys the cutoffs' support rule: B_2R fits in half the
        # box of 40, so R = 10 is refused and R just below it is taken.
        ones = ScalarField(grid1d, np.ones(grid1d.shape))
        with pytest.raises(ValueError, match=r"R too large: need 2R < box_len/2"):
            uloc_norm(ones, 1, 10.0)
        with pytest.raises(ValueError, match="R must be positive"):
            uloc_norm(ones, 1, 0.0)
        assert uloc_norm(ones, 1, 9.99) > 0

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0])
    def test_exponent_below_one_rejected(self, grid1d, p):
        ones = ScalarField(grid1d, np.ones(grid1d.shape))
        with pytest.raises(ValueError, match="exponent p must be >= 1"):
            uloc_norm(ones, p, 1.0)

    # Checked before the support rule, R = nan would be reported as not positive.
    @pytest.mark.parametrize("p,R", [(math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_settings_rejected(self, grid1d, p, R):
        five = ScalarField(grid1d, np.full(grid1d.shape, 5.0))
        with pytest.raises(ValueError, match="must be finite"):
            uloc_norm(five, p, R)


def uloc_covering_check(f, p, R):
    """Ratio ||f||_{p,R}^p / (R^d ||f||_{p,1}^p); bounded uniformly by covering."""
    if not R >= 1:
        raise ValueError("covering check requires R >= 1")
    base = uloc_norm(f, p, 1.0)
    if base == 0.0:
        return 0.0
    wide = uloc_norm(f, p, R)
    return float(wide**p / (R**f.grid.d * base**p))


class TestCoveringCheck:
    def test_constant_ratio_stable_in_radius(self):
        grid = make_grid(1, 512, 80.0)
        f = ScalarField(grid, np.ones(grid.shape))
        ratios = [uloc_covering_check(f, 1, R) for R in (1.0, 2.0, 4.0, 8.0)]
        assert max(ratios) / min(ratios) <= 1.1

    def test_zero_field(self, grid1d):
        f = ScalarField(grid1d, np.zeros(grid1d.shape))
        assert uloc_covering_check(f, 2, 4.0) == 0.0

    def test_radius_below_one_rejected(self, grid1d):
        f = ScalarField(grid1d, np.ones(grid1d.shape))
        with pytest.raises(ValueError, match="covering check requires R >= 1"):
            uloc_covering_check(f, 1, 0.5)

    def test_single_bump_at_most_one(self, grid1d):
        vals = np.zeros(grid1d.shape)
        vals[np.abs(grid1d.axis_coords()) < 0.3] = 1.0
        f = ScalarField(grid1d, vals)
        for R in (1.0, 2.0, 4.0):
            assert uloc_covering_check(f, 1, R) <= 1.0 + 1e-12

    def test_random_field_spread_bounded_by_covering(self, rng):
        grid = make_grid(2, 128, 40.0)
        spreads = []
        for _ in range(3):
            f = ScalarField(grid, rng.standard_normal(grid.shape))
            ratios = [uloc_covering_check(f, 2, R) for R in (1.0, 2.0, 4.0, 8.0)]
            spreads.append(max(ratios) / min(ratios))
        assert max(spreads) <= 3.0**grid.d
