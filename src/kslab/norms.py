"""Lebesgue and uniformly local norms, plus the explicit smooth cutoffs.

Two cutoff families are provided:

* ``cutoff_phi`` -- the compactly supported radial weight
  exp(4/3 + 4R^2/(r^2 - 4R^2)) on r < 2R, zero outside, used to localize
  all moment functionals.  Its gradient, Laplacian and Hessian are
  evaluated analytically from the closed form: the field is smooth but
  compactly supported, and spectral differentiation of it rings.
* ``cutoff_psi`` -- a smooth plateau equal to 1 on B_M(0) and 0 outside
  B_{2M}(0), used to truncate initial data to compact support.

Every localized functional is one sliding-weight integral int f(y) w(y - x) dy,
with w the ball indicator for sup_x ||f||_{L^p(B_R(x))} and ``cutoff_phi``
for the moments.  ``_sliding_integrals`` evaluates it for all grid-point
centers at once as an FFT convolution with a cached weight spectrum; an
off-grid center is served by a weight shifted by its sub-grid offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "CutoffSpec",
    "UlocNormParams",
    "lp_norm",
    "w1inf_norm",
    "cutoff_phi",
    "cutoff_phi_gradient",
    "cutoff_phi_laplacian",
    "cutoff_phi_hessian_norm",
    "cutoff_psi",
    "uloc_norm",
    "uloc_covering_check",
]

# Exponent underflows exp() far before this; used to silence 0*inf in the
# rational prefactors of the cutoff derivatives near the support edge.
_EXP_FLOOR = -700.0


@dataclass(frozen=True)
class CutoffSpec:
    """Center and radius of the compactly supported weight (support B_{2R})."""

    center: tuple[float, ...]
    radius: float

    def validate(self, grid: Grid) -> "CutoffSpec":
        if len(self.center) != grid.d:
            raise ValueError("cutoff center dimension mismatch")
        if not self.radius > 0:
            raise ValueError("cutoff radius must be positive")
        if not 2.0 * self.radius < grid.box_len / 2.0:
            raise ValueError(
                "cutoff support must fit in the box: need 2R < box_len/2"
            )
        return self


@dataclass(frozen=True)
class UlocNormParams:
    """Exponent and ball radius of the sliding-sup scan over every grid point."""

    p: float
    ball_radius: float = 1.0

    def validate(self, grid: Grid) -> "UlocNormParams":
        if not self.p >= 1:
            raise ValueError("exponent p must be >= 1")
        if not self.ball_radius >= 2.0 * grid.spacing:
            raise ValueError(
                "ball radius must be at least 2h so the scan resolves the ball scale"
            )
        return self


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


def _phi_radial_parts(grid: Grid, spec: CutoffSpec):
    """The weight and the pieces of its analytic derivatives: r, phi, g'(r), g''(r), mask."""
    R = spec.radius
    r = grid.radius(spec.center)
    inside = r < 2.0 * R
    denom = np.where(inside, r * r - 4.0 * R * R, -1.0)
    g = 4.0 / 3.0 + 4.0 * R * R / denom
    live = inside & (g > _EXP_FLOOR)
    denom = np.where(live, denom, -1.0)
    phi = np.where(live, np.exp(np.where(live, g, 0.0)), 0.0)
    gp = np.where(live, -8.0 * R * R * r / denom**2, 0.0)
    gpp = np.where(
        live,
        -8.0 * R * R / denom**2 + 32.0 * R * R * r * r / denom**3,
        0.0,
    )
    # g'(r)/r has a finite limit -1/(2R^2) at the center.
    gp_over_r = np.where(
        live & (r > 0), gp / np.where(r > 0, r, 1.0), -1.0 / (2.0 * R * R)
    )
    gp_over_r = np.where(live, gp_over_r, 0.0)
    return r, phi, gp, gpp, gp_over_r, live


def cutoff_phi(grid: Grid, spec: CutoffSpec) -> ScalarField:
    """The compact radial weight, equal to e^{1/3} at the center and 1 at r=R."""
    spec.validate(grid)
    return ScalarField(grid, _phi_radial_parts(grid, spec)[1])


def cutoff_phi_gradient(grid: Grid, spec: CutoffSpec) -> VectorField:
    """Analytic gradient of the compact weight (phi * g'(r) * x/r)."""
    spec.validate(grid)
    _, phi, _, _, gp_over_r, _ = _phi_radial_parts(grid, spec)
    deltas = grid.wrapped_delta(spec.center)
    comps = tuple(ScalarField(grid, phi * gp_over_r * dx) for dx in deltas)
    return VectorField(grid, comps)


def cutoff_phi_laplacian(grid: Grid, spec: CutoffSpec) -> ScalarField:
    """Analytic Laplacian: phi * (g'' + g'^2 + (d-1) g'/r)."""
    spec.validate(grid)
    d = grid.d
    _, phi, gp, gpp, gp_over_r, _ = _phi_radial_parts(grid, spec)
    return ScalarField(grid, phi * (gpp + gp * gp + (d - 1) * gp_over_r))


def cutoff_phi_hessian_norm(grid: Grid, spec: CutoffSpec) -> ScalarField:
    """Pointwise Frobenius norm of the analytic Hessian of the compact weight.

    For a radial e^{g(r)} the Hessian splits into the radial direction with
    eigenvalue phi*(g'' + g'^2) and d-1 tangential directions with phi*g'/r.
    """
    spec.validate(grid)
    d = grid.d
    _, phi, gp, gpp, gp_over_r, live = _phi_radial_parts(grid, spec)
    radial = phi * (gpp + gp * gp)
    tangential = phi * gp_over_r
    frob = np.sqrt(radial**2 + (d - 1) * tangential**2)
    return ScalarField(grid, np.where(live, frob, 0.0))


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
    if not M > 0:
        raise ValueError("truncation radius M must be positive")
    if not 2.0 * M < grid.box_len / 2.0:
        raise ValueError("truncation support must fit in the box: need 2M < box_len/2")
    return ScalarField(grid, _smoothstep_down(grid.radius() / M - 1.0))


@lru_cache(maxsize=16)
def _weight_hat(grid: Grid, kind: str, radius: float, shift: tuple[float, ...]) -> np.ndarray:
    """Half spectrum of the weight at offsets o*h + shift (offset 0 at index 0).

    ``kind`` is "ball" (strict dist^2 < radius^2) or "phi" (``cutoff_phi``).
    """
    if kind == "ball":
        n, h = grid.n_axis, grid.spacing
        offsets = ((np.arange(n) + n // 2) % n - n // 2) * h
        dist_sq = np.zeros(grid.shape)
        for ax, s in enumerate(shift):
            shape = [1] * grid.d
            shape[ax] = n
            dist_sq = dist_sq + (offsets + s).reshape(shape) ** 2
        weight = (dist_sq < radius * radius).astype(np.float64)
    else:
        # Centered at the first sample minus the shift, sample o is at o*h + shift.
        corner = tuple(-0.5 * grid.box_len - s for s in shift)
        weight = cutoff_phi(grid, CutoffSpec(center=corner, radius=radius)).values
    hat = _rfft(weight)
    hat.setflags(write=False)
    return hat


def _sliding_integrals(
    f: np.ndarray, grid: Grid, kind: str, radius: float, shift: tuple[float, ...]
) -> np.ndarray:
    """Integral of f(y) w(y - x) over y for every center x = grid point + shift.

    Equals the direct sample sum of each center up to FFT roundoff relative
    to the largest value; signed wherever ``f`` is.
    """
    conv = _irfft(_rfft(f) * _weight_hat(grid, kind, radius, shift), grid)
    return conv * grid.spacing**grid.d


def _cutoff_integrals(
    f: np.ndarray, grid: Grid, radius: float, centers: tuple[tuple[float, ...], ...]
) -> np.ndarray:
    """Integral of f against the cutoff weight at each center, in order.

    A center splits into its nearest grid point and the sub-grid shift from
    it; centers sharing a shift read one convolution.
    """
    L, h, n = grid.box_len, grid.spacing, grid.n_axis
    convs: dict[tuple[float, ...], np.ndarray] = {}
    out = []
    for center in centers:
        CutoffSpec(center=center, radius=radius).validate(grid)
        idx = [round((c + 0.5 * L) / h) for c in center]
        # Same expression as Grid.axis_coords, so grid centers get shift 0.
        shift = tuple(c - (-0.5 * L + h * i) for c, i in zip(center, idx))
        if shift not in convs:
            convs[shift] = _sliding_integrals(f, grid, "phi", radius, shift)
        out.append(convs[shift][tuple(i % n for i in idx)])
    return np.array(out)


def uloc_norm(f: ScalarField, params: UlocNormParams) -> float:
    """Sup over every grid-point center of the local L^p norm on wrapped balls."""
    params.validate(f.grid)
    f_pow = np.abs(f.values) ** params.p
    zero = (0.0,) * f.grid.d
    integrals = _sliding_integrals(f_pow, f.grid, "ball", params.ball_radius, zero)
    # Ball integrals of |f|^p are nonnegative: clamp the FFT roundoff.
    return float(np.max(np.maximum(integrals, 0.0)) ** (1.0 / params.p))


def uloc_covering_check(f: ScalarField, p: float, R: float) -> float:
    """Ratio ||f||_{p,R}^p / (R^d ||f||_{p,1}^p); bounded uniformly by covering."""
    if not R >= 1:
        raise ValueError("covering check requires R >= 1")
    base = uloc_norm(f, UlocNormParams(p, 1.0))
    if base == 0.0:
        return 0.0
    wide = uloc_norm(f, UlocNormParams(p, R))
    return float(wide**p / (R**f.grid.d * base**p))
