"""Lebesgue and uniformly local norms, plus the explicit smooth cutoffs.

Two cutoff families are provided:

* ``cutoff_phi`` -- the compactly supported radial weight
  exp(4/3 + 4R^2/(r^2 - 4R^2)) on r < 2R, zero outside, used to localize
  all moment functionals.  Its gradient, Laplacian and Hessian are
  evaluated analytically from the closed form: the field is smooth but
  compactly supported, and spectral differentiation of it rings.
* ``cutoff_psi`` -- a smooth plateau equal to 1 on B_M(0) and 0 outside
  B_{2M}(0), used to truncate initial data to compact support.

Every localized functional is one sliding-weight integral int f(y) w(y - x) dy
with w = ``cutoff_phi``: the moments, and the uniformly local norms
sup_x (int phi_R(y - x) |f(y)|^p dy)^(1/p), which lie between the ball norms
of radius R and 2R.  ``_sliding_integrals`` evaluates it for all grid-point
centers at once as an FFT convolution with a cached weight spectrum; an
off-grid center is served by a weight shifted by its sub-grid offset.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    VectorField,
    _irfft,
    _rfft,
    integrate,
)

__all__ = [
    "lp_norm",
    "w1inf_norm",
    "cutoff_phi",
    "cutoff_phi_gradient",
    "cutoff_phi_laplacian",
    "cutoff_phi_hessian_norm",
    "cutoff_psi",
    "uloc_norm",
]

# Exponent underflows exp() far before this; the cutoff weight and its
# derivatives are evaluated only where the exponent is above it.
_EXP_FLOOR = -700.0


def _check_support(grid: Grid, name: str, X: float) -> None:
    """The rule on a cutoff radius ``X`` named ``name``: X > 0, and the support
    B_2X fits in half the box."""
    if not X > 0:
        raise ValueError(f"{name} must be positive")
    if not 2.0 * X < grid.box_len / 2.0:
        raise ValueError(f"{name} too large: need 2{name} < box_len/2")


def lp_norm(f: ScalarField, p: float) -> float:
    """(integral of |f|^p)^(1/p); p = inf gives the max sample magnitude."""
    if p == math.inf or p == np.inf:
        return f.max_abs()
    if not p >= 1:
        raise ValueError(f"exponent must be >= 1 or inf, got {p}")
    return float(integrate(ScalarField(f.grid, np.abs(f.values) ** p)) ** (1.0 / p))


def w1inf_norm(c: ScalarField) -> float:
    """Sup norm of the field plus the sup of the Euclidean gradient norm."""
    return c.max_abs() + c.grad_abs.max_abs()


def _phi_radial_parts(grid: Grid, center: tuple[float, ...], R: float):
    """The live support of the weight and, on it only, phi, g'(r), g''(r) and g'(r)/r.

    The support is r < 2R where the exponent g(r) is above ``_EXP_FLOOR``;
    the weight and all its derivatives vanish off it.  Returns the mask and
    the four values at its points, in mask order.  Checks R and the center.
    """
    _check_support(grid, "R", R)
    r = grid.radius(center)
    live = r < 2.0 * R
    r = r[live]
    denom = r * r - 4.0 * R * R
    g = 4.0 / 3.0 + 4.0 * R * R / denom
    keep = g > _EXP_FLOOR
    live[live] = keep
    r, denom, g = r[keep], denom[keep], g[keep]
    gp = -8.0 * R * R * r / denom**2
    gpp = -8.0 * R * R / denom**2 + 32.0 * R * R * r * r / denom**3
    # g'(r)/r has a finite limit -1/(2R^2) at the center.
    gp_over_r = np.full_like(r, -1.0 / (2.0 * R * R))
    np.divide(gp, r, out=gp_over_r, where=r > 0)
    return live, np.exp(g), gp, gpp, gp_over_r


def _on_support(grid: Grid, live: np.ndarray, values: np.ndarray) -> ScalarField:
    """The field equal to ``values`` on the mask ``live`` and 0 off it."""
    out = np.zeros(grid.shape)
    out[live] = values
    return ScalarField(grid, out)


def cutoff_phi(grid: Grid, center: tuple[float, ...], R: float) -> ScalarField:
    """The compact radial weight, equal to e^{1/3} at the center and 1 at r=R."""
    live, phi, *_ = _phi_radial_parts(grid, center, R)
    return _on_support(grid, live, phi)


def cutoff_phi_gradient(grid: Grid, center: tuple[float, ...], R: float) -> VectorField:
    """Analytic gradient of the compact weight (phi * g'(r) * x/r)."""
    live, phi, _, _, gp_over_r = _phi_radial_parts(grid, center, R)
    radial = phi * gp_over_r
    comps = []
    for dx in grid.wrapped_delta(center):
        # Off the support the component is 0 * dx, a zero with the sign of dx.
        comp = np.zeros(grid.shape)
        comp *= dx
        comp[live] = radial * np.broadcast_to(dx, grid.shape)[live]
        comps.append(ScalarField(grid, comp))
    return VectorField(grid, tuple(comps))


def cutoff_phi_laplacian(grid: Grid, center: tuple[float, ...], R: float) -> ScalarField:
    """Analytic Laplacian: phi * (g'' + g'^2 + (d-1) g'/r)."""
    d = grid.d
    live, phi, gp, gpp, gp_over_r = _phi_radial_parts(grid, center, R)
    return _on_support(grid, live, phi * (gpp + gp * gp + (d - 1) * gp_over_r))


def cutoff_phi_hessian_norm(grid: Grid, center: tuple[float, ...], R: float) -> ScalarField:
    """Pointwise Frobenius norm of the analytic Hessian of the compact weight.

    For a radial e^{g(r)} the Hessian splits into the radial direction with
    eigenvalue phi*(g'' + g'^2) and d-1 tangential directions with phi*g'/r.
    """
    d = grid.d
    live, phi, gp, gpp, gp_over_r = _phi_radial_parts(grid, center, R)
    radial = phi * (gpp + gp * gp)
    tangential = phi * gp_over_r
    return _on_support(grid, live, np.sqrt(radial**2 + (d - 1) * tangential**2))


def _smoothstep_down(t: np.ndarray) -> np.ndarray:
    """C-infinity transition from 1 (t <= 0) to 0 (t >= 1).

    The partition ratio g(1 - t) / (g(1 - t) + g(t)) of the smooth ramp
    g(s) = exp(-1/s) on s > 0.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.where(t <= 0.0, 1.0, 0.0)  # 0 for t >= 1 and for NaN
    band = (t > 0.0) & (t < 1.0)
    s = t[band]
    # One of s and 1 - s is at least 1/2, so the sum is at least e^-2.
    a = np.exp(-1.0 / (1.0 - s))
    out[band] = a / (a + np.exp(-1.0 / s))
    return out


def cutoff_psi(grid: Grid, M: float) -> ScalarField:
    """Smooth plateau: 1 on B_M(0), 0 outside B_{2M}(0), monotone radial between."""
    _check_support(grid, "M", M)
    return ScalarField(grid, _smoothstep_down(grid.radius() / M - 1.0))


@lru_cache(maxsize=16)
def _weight_hat(grid: Grid, radius: float, shift: tuple[float, ...]) -> np.ndarray:
    """Half spectrum of ``cutoff_phi`` at offsets o*h + shift (offset 0 at index 0)."""
    # Centered at the first sample minus the shift, sample o is at o*h + shift.
    corner = tuple(-0.5 * grid.box_len - s for s in shift)
    weight = cutoff_phi(grid, corner, radius).values
    hat = _rfft(weight)
    hat.setflags(write=False)
    return hat


def _sliding_integrals(f: np.ndarray, grid: Grid, radius: float, shift: tuple[float, ...]) -> np.ndarray:
    """Integral of f(y) w(y - x) over y for every center x = grid point + shift.

    Equals the direct sample sum of each center up to FFT roundoff relative
    to the largest value; signed wherever ``f`` is.
    """
    fhat = _rfft(f)
    np.multiply(fhat, _weight_hat(grid, radius, shift), out=fhat)
    conv = _irfft(fhat, grid, work=fhat)
    conv *= grid.spacing**grid.d
    return conv


def _cutoff_integral(f: np.ndarray, grid: Grid, radius: float, center: tuple[float, ...]) -> float:
    """Integral of f against the cutoff weight at ``center``.

    The center splits into its nearest grid point and the sub-grid shift from it.
    """
    _check_support(grid, "R", radius)
    center = grid.check_center(center)
    L, h, n = grid.box_len, grid.spacing, grid.n_axis
    idx = [round((c + 0.5 * L) / h) for c in center]
    # Same expression as Grid.axis_coords, so grid centers get shift 0.
    shift = tuple(c - (-0.5 * L + h * i) for c, i in zip(center, idx))
    conv = _sliding_integrals(f, grid, radius, shift)
    return float(conv[tuple(i % n for i in idx)])


def _cutoff_sup(f: np.ndarray, grid: Grid, radius: float) -> float:
    """Sup over every grid-point center of the integral of f against the cutoff weight."""
    _check_support(grid, "R", radius)
    zero = (0.0,) * grid.d
    return float(np.max(_sliding_integrals(f, grid, radius, zero)))


def uloc_norm(f: ScalarField, p: float, R: float) -> float:
    """Sup over every grid-point center x of (int phi_R(y - x) |f(y)|^p dy)^(1/p)."""
    if not (math.isfinite(p) and math.isfinite(R)):
        raise ValueError("exponent p and radius R must be finite")
    if not p >= 1:
        raise ValueError("exponent p must be >= 1")
    # Integrals of |f|^p are nonnegative: clamp the FFT roundoff.
    return max(_cutoff_sup(np.abs(f.values) ** p, f.grid, R), 0.0) ** (1.0 / p)
