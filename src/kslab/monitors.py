"""Functional and differential-inequality monitors evaluated along runs.

Every estimate that controls global boundedness is turned into a runtime
check: the comparison-function inequality in the tau=1 regime, the global
mass/energy ledgers, the combined uniformly-local bound, the cutoff-weighted
moment functionals with their coupled differential inequalities, the
explicit damping-threshold assembly, and the low/high frequency sup-norm
reconstruction.

A family whose bound carries a generic absolute constant that the analysis
never pins down fits it on the very trace it reads, so it could not fail: it
is a measurement, a report with no tolerance and no verdict.  Margins follow
the convention LHS - RHS, so negative means satisfied; each report carries
the constant it was taken against.

A recorder puts quantities of one state in the trace of ``run``, and its
``check`` turns the trace it recorded into reports, each with its own pass
tolerance or none; it checks its exponent k and cutoff radius R once, when
it is built (``validate_settings``).  The time derivatives in
``CoupledRecorder`` and ``z_residual`` are taken from the tendencies of
``solver.rhs`` in spectral form, so no margin depends on the sampling rate,
and each transforms n and c once.  Every pass/fail of ``kslab run`` comes
from ``TraceRecorder.check`` (its ``residuals.csv`` families that are not
measurements) and ``run_verdicts`` (the verdicts on the run as a whole), and
the acceptance gate judges through the same functions:
``ResidualReport.passed``, ``MuZeroReport.holds``, ``COMPARISON_TOL`` and
``run_verdicts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    _grad_hat,
    _hessian_sq_hat,
    _irfft,
    _is_integer,
    _rfft,
    integrate,
    laplacian,
)
from .norms import (
    _check_support,
    _cutoff_sup,
    cutoff_phi,
    lp_norm,
    uloc_norm,
)
from .solver import (
    FunctionalSample,
    Params,
    RunResult,
    RunStatus,
    State,
    _Scratch,
    _tendency_hat,
    continuation_gauge,
)

__all__ = [
    "ResidualReport",
    "MuZeroReport",
    "FunctionalSample",
    "z_field",
    "z_residual",
    "z_sup_cap_check",
    "prop22_check",
    "uloc_combined_series",
    "uloc_combined_check",
    "moment",
    "moment_coefficients",
    "combined_y",
    "CoupledRecorder",
    "mu_zero_estimate",
    "linf_reconstruction_check",
    "validate_settings",
    "TraceRecorder",
    "trend_slope",
    "run_verdicts",
]

# Largest undershoot below a nonnegativity bound that still passes.
NONNEG_TOL = 1e-8
# Largest excess of the tau = 1 comparison inequality (the residual of z, or
# sup z over its cap max(sup z(0), level)) that still passes.
COMPARISON_TOL = 1e-3


@dataclass(frozen=True)
class ResidualReport:
    """Signed margins LHS - RHS of one inequality along a trace.

    ``tolerance`` is the largest margin that still passes; a report whose
    constant is fitted to its own margins has none (``None``): it is a
    measurement and carries no verdict.  ``constant`` is the constant the
    margins were taken against, if any.
    """

    name: str
    times: np.ndarray
    margins: np.ndarray
    tolerance: float | None
    constant: float | None = None

    def max_margin(self) -> float:
        return float(np.max(self.margins)) if len(self.margins) else -math.inf

    @property
    def passed(self) -> bool:
        """The report's verdict: whether every margin is within the tolerance."""
        if self.tolerance is None:
            raise ValueError(f"'{self.name}' is a measurement: it has no verdict")
        return bool(self.max_margin() <= self.tolerance)


def _times(trace: list[FunctionalSample]) -> np.ndarray:
    return np.array([s.t for s in trace])


def _column(trace: list[FunctionalSample], key: str) -> np.ndarray:
    """One recorded functional along a trace."""
    if key not in trace[0].values:
        raise ValueError(f"trace lacks required functional '{key}'")
    return np.array([s.values[key] for s in trace])


def _measurement(name: str, times: np.ndarray, explicit: np.ndarray, generic=1.0) -> ResidualReport:
    """The one fit of a family's generic constant C to its own trace: a measurement.

    C is the least value >= 0 with ``explicit - C generic <= 0`` on every sample
    whose ``generic`` exceeds 1e-300; the margins are ``explicit - C generic``.
    """
    generic = np.broadcast_to(generic, explicit.shape)
    usable = generic > 1e-300
    need = explicit[usable] / generic[usable]
    C = max(0.0, float(np.max(need))) if len(need) else 0.0
    return ResidualReport(name, times, explicit - C * generic, tolerance=None, constant=C)


def validate_settings(grid: Grid, k: int, R: float) -> None:
    """A recorder's rules on k and R: the moment cutoff needs R >= 1, its weight is
    resolved by the grid when R >= 2h, and the cutoff's support B_2R must fit in
    half the box (the support rule of ``norms``)."""
    if not _is_integer(k):
        raise ValueError("k must be an integer")
    if k < 3:
        raise ValueError("k must be >= 3")
    min_R = max(1.0, 2.0 * grid.spacing)
    if not R >= min_R:
        raise ValueError(f"R must be >= max(1, 2h) = {min_R:g}")
    _check_support(grid, "R", R)


# ---------------------------------------------------------------------------
# Comparison function z in the tau = 1 regime


def z_field(state: State, params: Params) -> ScalarField:
    """z = (tau/2)|grad c|^2 + n/chi, the scalar comparison function."""
    if not params.chi > 0:
        raise ValueError("the comparison function requires chi > 0")
    gc2 = state.c.grad_abs.values ** 2
    return ScalarField(state.grid, 0.5 * params.tau * gc2 + state.n.values / params.chi)


def z_comparison_level(params: Params) -> float:
    """The constant (lambda+1)^2 / (4 mu chi - d chi^2) bounding z from above.

    It is formed as a quotient of positive factors, so a tiny chi gives a large
    (at worst infinite) level rather than a product that underflows to 0.
    """
    if not (params.chi > 0 and params.mu > params.d * params.chi / 4.0):
        raise ValueError("comparison level requires chi > 0 and mu > d chi / 4")
    return (params.lam + 1.0) ** 2 / params.chi / (4.0 * params.mu - params.d * params.chi)


def z_sup_cap_check(trace: list[FunctionalSample], params: Params) -> list[ResidualReport]:
    """Margins of sup_x z(t) <= max(sup_x z(0), level) along a trace (key ``z_max``).

    For z = (tau/2)|grad c|^2 + n/chi the inequality is claimed only for
    tau = 1, chi > 0 and mu > d chi / 4; outside that regime there is no
    report.  The report's constant is the level; it passes within ``COMPARISON_TOL``.
    """
    p = params
    if not (p.tau == 1.0 and p.chi > 0 and p.mu > p.d * p.chi / 4.0):
        return []
    level = z_comparison_level(p)
    z_max = _column(trace, "z_max")
    cap = max(float(z_max[0]), level)
    return [
        ResidualReport(
            "z_sup_cap", _times(trace), z_max - cap, constant=level, tolerance=COMPARISON_TOL
        )
    ]


def z_residual(state: State, params: Params) -> tuple[ScalarField, float]:
    """Residual z_t - Delta z + z - level of the comparison inequality at one state.

    z_t = tau grad c . grad c_t + n_t / chi from the tendencies of ``rhs``;
    valid only in the tau = 1, mu > d chi / 4 regime where the comparison
    inequality is claimed.
    """
    if params.tau != 1.0:
        raise ValueError("the comparison inequality is claimed only for tau = 1")
    level = z_comparison_level(params)
    z = z_field(state, params)
    _, _, _, n_t, g_dot = _rates(state, params)
    z_t = params.tau * g_dot + n_t / params.chi
    resid = z_t - laplacian(z).values + z.values - level
    return ScalarField(state.grid, resid), float(np.max(resid))


# ---------------------------------------------------------------------------
# Global L^1 / H^1 ledgers


def _cumtrapz(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    if len(values) > 1:
        increments = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
        out[1:] = np.cumsum(increments)
    return out


def prop22_check(trace: list[FunctionalSample], params: Params) -> list[ResidualReport]:
    """Margins of the time-dependent L^1/L^2/H^1 upper bounds along a trace.

    Reads the ledger keys of ``TraceRecorder``, with the run's exact
    ``int ||n||^2`` (``int_l2sq_n``) from the first sample.  ``mass_ledger``:
    ``||n||_1 + mu int ||n||^2 <= e^{lam (t - t_0)} ||n_0||_1``, from
    ``d/dt int n = lam int n - mu int n^2`` where n >= 0 (``||n||_1 = int n``)
    and lam >= 0.  Testing ``tau c_t = Delta c - c + n`` against ``c`` and
    ``-Delta c``, with ``int n f <= (||n||^2 + ||f||^2) / 2``, gives for any n
    ``tau ||c||^2 + int (2 ||grad c||^2 + ||c||^2) <= tau ||c_0||^2 + int ||n||^2``
    and ``tau ||grad c||^2 + int (||Delta c||^2 + 2 ||grad c||^2)
    <= tau ||grad c_0||^2 + int ||n||^2``, whose left sides ``chem_energy``
    and ``chem_gradient_energy`` check as the no larger
    ``int (||c||^2 + ||grad c||^2)`` and ``int (||grad c||^2 + ||Delta c||^2)``
    (trapezoid rule over the samples).  All pass within
    1e-6 max(1, sup_t ||n||_1).
    """
    t = _times(trace)
    get = lambda key: _column(trace, key)
    l1_n = get("l1_n")
    growth = np.exp(params.lam * (t - t[0])) * l1_n[0]
    int_l2sq_n = get("int_l2sq_n") - trace[0].values["int_l2sq_n"]
    l2sq_c, l2sq_gradc = get("l2sq_c"), get("l2sq_gradc")

    def chem(x: np.ndarray, dissipation: np.ndarray) -> np.ndarray:
        """``tau X + int D`` less its bound ``tau X(t_0) + int ||n||^2``."""
        x = params.tau * x
        return x + _cumtrapz(t, dissipation) - (x[0] + int_l2sq_n)

    tol = 1e-6 * max(1.0, float(np.max(np.abs(l1_n))))
    return [
        ResidualReport("mass_ledger", t, l1_n + params.mu * int_l2sq_n - growth, tolerance=tol),
        ResidualReport("chem_energy", t, chem(l2sq_c, l2sq_c + l2sq_gradc), tolerance=tol),
        ResidualReport(
            "chem_gradient_energy", t, chem(l2sq_gradc, l2sq_gradc + get("l2sq_lapc")), tolerance=tol
        ),
    ]


# ---------------------------------------------------------------------------
# Combined uniformly local bound


def uloc_combined_series(trace: list[FunctionalSample], params: Params) -> np.ndarray:
    """F(t) = ||n||_{L^1_uloc(R)} + (chi tau / 4) ||grad c||^2_{L^2_uloc(R)} along a trace.

    Reads ``l1_uloc_n`` and ``l2_uloc_gradc``, so R is the recorder's radius.
    """
    chi_tau = params.chi * params.tau
    return _column(trace, "l1_uloc_n") + 0.25 * chi_tau * _column(trace, "l2_uloc_gradc") ** 2


def uloc_combined_check(trace: list[FunctionalSample], params: Params) -> list[ResidualReport]:
    """Margins of F(t) <= base + headroom along a trace: a measurement.

    base = 4 ||n_0||_{L^1_uloc} + 2 chi tau ||grad c_0||^2_{L^2_uloc} is the
    data part of the bound, read from the first sample.  The headroom is a
    generic constant the analysis leaves open, the ``_measurement`` of ``F - base``.
    """
    f = uloc_combined_series(trace, params)
    chi_tau = params.chi * params.tau
    first = trace[0].values
    base = 4.0 * first["l1_uloc_n"] + 2.0 * chi_tau * first["l2_uloc_gradc"] ** 2
    return [_measurement("uloc_combined", _times(trace), f - base)]


# ---------------------------------------------------------------------------
# Cutoff-weighted moment functionals


def moment(state: State, j: int, k: int, center: tuple[float, ...], R: float) -> float:
    """Weighted moment integral of n^j |grad c|^(2k-2j) over the cutoff at ``center``, radius R.

    The direct quadrature of the integrand against ``cutoff_phi`` at ``center``,
    which may lie on the grid or off it; nonnegative when n is.
    """
    if not (_is_integer(j) and _is_integer(k)):
        raise ValueError("moment orders j and k must be integers")
    if not 0 <= j <= k:
        raise ValueError("moment order j must satisfy 0 <= j <= k")
    integrand = state.n.values**j
    if j < k:
        integrand = integrand * state.c.grad_abs.values ** (2 * k - 2 * j)
    return integrate(cutoff_phi(state.grid, center, R) * integrand)


def moment_coefficients(k: int, tau: float, C0: float) -> dict[int, float]:
    """Coefficients b_j = (k^(2-5k)(k-1) / (16 tau C0)) k^(2j), j = 1..k."""
    if not _is_integer(k):
        raise ValueError("k must be an integer")
    if k < 3:
        raise ValueError("coefficient assembly requires k >= 3")
    lead = float(k) ** (2 - 5 * k) * (k - 1) / (16.0 * tau * C0)
    return {j: lead * float(k) ** (2 * j) for j in range(1, k + 1)}


def combined_y(state: State, params: Params, k: int, R: float) -> float:
    """Sup over every grid-point center of y = m_0 + sum_j b_j m_j, the coupled functional.

    The b_j are those of ``mu_zero_estimate(k, params)`` and R is the cutoff
    radius.  y is linear in the moment integrands, so their weighted sum
    |grad c|^(2k) + sum_j b_j n^j |grad c|^(2k-2j) is formed once and every
    center is read from one sliding cutoff integral.
    """
    b = mu_zero_estimate(k, params).b
    n = state.n.values
    gc = state.c.grad_abs.values
    integrand = gc ** (2 * k)
    for j in range(1, k + 1):
        integrand = integrand + b[j] * n**j * gc ** (2 * k - 2 * j)
    return _cutoff_sup(integrand, state.grid, R)


# ---------------------------------------------------------------------------
# Explicit damping-threshold assembly


@dataclass(frozen=True)
class MuZeroReport:
    """Assembled constants and the damping threshold they certify.

    The generic pieces of the analysis enter through explicit lower bounds on
    the per-order constants; the result is an estimate of the threshold, not
    a sharp value.
    """

    k: int
    c_j: dict[int, float]
    C0: float
    b: dict[int, float]
    mu0: float
    margins: dict[str, float] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        """Whether the five sign conditions hold: ``order_damping <= 0``, every other margin < 0."""
        m = self.margins
        return m["order_damping"] <= 0 and all(
            m[name] < 0
            for name in (
                "sum_bjcj_vs_k(k-1)/8tau",
                "dissipation_sign",
                "gradient_chain_sign",
                "coupling_damping",
            )
        )


def _assemble_cj(k: int, params: Params) -> dict[int, float]:
    chi, tau, lam = params.chi, params.tau, params.lam
    c: dict[int, float] = {}
    c[1] = max(
        (k - 1) ** 2 * (1.0 + 2.0 * tau**2) / (2.0 * tau**2),
        (lam + lam**2 * (1.0 + tau**2)) / 2.0 + (2.0 * k - 2.0) ** 2 / tau**2,
    )
    for j in range(2, k):
        c[j] = (
            chi**2 * j * (8.0 * tau * j * (k - j) + j / 2.0)
            + 4.0 * (k - j) ** 2 / tau**2
            + lam * j
        )
    c[k] = (
        lam
        + chi ** ((k + 1.0) / k)
        + chi ** (2.0 * (k - 1.0) / (k - 2.0)) * (k - 1.0) ** ((k - 1.0) / (k - 2.0))
    )
    return c


def mu_zero_estimate(k: int, params: Params) -> MuZeroReport:
    """Smallest damping threshold satisfying the sign conditions of the assembly.

    Rejects a k that is not an integer, and k < 3 (an exponent in the
    top-order constant degenerates at k=2).  All intermediate constants and
    the condition margins are recorded.
    """
    if not _is_integer(k):
        raise ValueError("k must be an integer")
    if k < 3:
        raise ValueError("threshold assembly requires k >= 3")
    tau, d = params.tau, params.d
    c = _assemble_cj(k, params)
    C0 = max(c[j] for j in range(1, k)) / float(k) ** (3 * k + 1)
    b = moment_coefficients(k, tau, C0)

    sum_bc = sum(b[j] * c[j] for j in range(1, k))
    bracket = (d + 1.0) * k / tau + sum(b[j] * c[j] for j in range(2, k)) + k * b[k]
    mu0 = max(
        max(c.values()),
        max(c[j] / j for j in range(2, k + 1)),
        c[1] + bracket / b[1],
    ) * (1.0 + 1e-9)

    margins = {
        "sum_bjcj_vs_k(k-1)/8tau": sum_bc - k * (k - 1) / (8.0 * tau),
        "dissipation_sign": -k * (k - 1) / (4.0 * tau) + sum_bc + k * (k - 1) / (16.0 * tau),
        "gradient_chain_sign": sum(
            b[j - 1] - j * (j - 1) * b[j] / 4.0 for j in range(2, k + 1)
        )
        + b[k] / 8.0,
        "order_damping": max(c[j] - mu0 * j for j in range(2, k + 1)),
        "coupling_damping": (d + 1.0) * k / tau
        + (c[1] - mu0) * b[1]
        + sum(b[j] * c[j] for j in range(2, k))
        + k * b[k],
    }
    return MuZeroReport(k=k, c_j=c, C0=C0, b=b, mu0=float(mu0), margins=margins)


# ---------------------------------------------------------------------------
# Coupled differential inequalities at one state


def _dot(u: tuple[np.ndarray, ...], v: tuple[np.ndarray, ...]) -> np.ndarray:
    """Pointwise u . v of two vectors given as component arrays."""
    return sum(a * b for a, b in zip(u, v))


def _rates(state: State, params: Params):
    """The spectra of n and c (each transformed once), the scratch, n_t (in its
    ``phys``; its ``prod`` is free) and grad c . grad c_t at one state."""
    grid = state.grid
    nhat, chat = _rfft(state.n.values), _rfft(state.c.values)
    ws = _Scratch(grid)
    dn_hat, dc_hat = _tendency_hat(state, params, nhat, chat, ws)
    n_t = _irfft(dn_hat, grid, out=ws.phys, work=ws.prod)
    g_dot = _dot(_grad_hat(chat, grid), _grad_hat(dc_hat, grid))
    return nhat, chat, ws, n_t, g_dot


def _moment_rate(
    n: np.ndarray, n_t: np.ndarray, g: np.ndarray, g_dot: np.ndarray, j: int, k: int
) -> np.ndarray:
    """Pointwise time derivative of n^j g^(2k-2j), g = |grad c|, g_dot = grad c . grad c_t.

    j n^(j-1) n_t g^(2k-2j) + (2k-2j) n^j g^(2k-2j-2) g_dot; a term whose
    coefficient vanishes is left out, so no negative power is formed.
    """
    m = k - j
    rate = np.zeros_like(n)
    if j > 0:
        rate += j * n ** (j - 1) * n_t * g ** (2 * m)
    if m > 0:
        rate += 2 * m * n**j * g ** (2 * m - 2) * g_dot
    return rate


class CoupledRecorder:
    """Records the coupled moment inequalities at each state, and judges the trace.

    The families are ``density_power``, ``gradient_power``, ``mixed_first`` and
    ``mixed_order_j`` for 2 <= j < k, on the moments int phi n^j |grad c|^(2k-2j)
    with cutoff radius R.  Each time derivative comes from the tendencies of
    ``rhs``, so every margin is a quantity of one state.  Per family the
    record holds ``<family>_explicit``, the largest explicit margin LHS - RHS
    over every grid-point center (one combined integrand, one sliding cutoff
    integral), and ``<family>_generic``, the uniformly local series that the
    fitted constant of ``check`` multiplies, so every family is a measurement.
    """

    def __init__(self, params: Params, grid: Grid, k: int = 3, R: float = 2.0):
        validate_settings(grid, k, R)
        self.params = params
        self.k = k
        self.R = R
        self.c_j = mu_zero_estimate(k, params).c_j

    def __call__(self, state: State) -> dict[str, float]:
        params, k, R, c_j = self.params, self.k, self.R, self.c_j
        tau, mu, lam, d = params.tau, params.mu, params.lam, params.d
        three_d = 3.0**d
        grid = state.grid
        nhat, chat, ws, n_t, g_dot = _rates(state, params)
        n = state.n.values
        gc = state.c.grad_abs.values
        grad_n = _grad_hat(nhat, grid)
        gn2 = _dot(grad_n, grad_n)
        grad_gc2 = _grad_hat(_rfft(gc * gc, out=ws.prod), grid)
        ggc2_sq = _dot(grad_gc2, grad_gc2)
        hess_sq = _hessian_sq_hat(chat, grid)
        rate = lambda j: _moment_rate(n, n_t, gc, g_dot, j, k)
        m2_top = n**2 * gc ** (2 * k - 2)
        diss_c = ggc2_sq * gc ** (2 * k - 4)
        gradc_2km2 = gc ** (2 * k - 2)
        explicit = {
            "density_power": rate(k)
            + k * (k - 1) / 4.0 * gn2 * n ** (k - 2)
            - (k * m2_top + (c_j[k] - mu * k) * n ** (k + 1)),
            "gradient_power": rate(0)
            + k * (k - 1) / (4.0 * tau) * diss_c
            + k / tau * hess_sq * gc ** (2 * k - 2)
            + 2.0 * k / tau * gc ** (2 * k)
            - (d + 1.0 + 2.0 * (k - 1.0)) * k / tau * m2_top,
            "mixed_first": rate(1)
            + (k - 1.0) * (k - 2.0) / (2.0 * tau) * ggc2_sq * n * gc ** (2 * k - 6)
            + (2.0 * k - 2.0) / tau * hess_sq * n * gc ** (2 * k - 4)
            - (
                c_j[1] * diss_c
                + lam / 2.0 * gradc_2km2
                + (c_j[1] - mu) * m2_top
                + gn2 * gc ** (2 * k - 4)
            ),
        }
        nk = uloc_norm(state.n, float(k), R) ** k
        gc2k = uloc_norm(state.c.grad_abs, 2.0 * k, R) ** (2 * k)
        generic = {
            "density_power": three_d * k / (2.0 * (k - 1) * R**2) * nk
            + three_d * k / R ** (2 * k) * gc2k
            + (lam + 1.0) * R**d * k,
            "gradient_power": three_d * k / (tau * R**2) * gc2k,
            "mixed_first": three_d * (1.0 + 1.0 / tau) / R**2 * gc2k
            + three_d / (tau * R**2) * nk,
        }
        for j in range(2, k):
            explicit[f"mixed_order_{j}"] = (
                rate(j)
                + j * (j - 1) / 4.0 * gn2 * n ** (j - 2) * gc ** (2 * k - 2 * j)
                - (
                    gn2 * n ** (j - 1) * gc ** (2 * k - 2 * j - 2)
                    + c_j[j] * diss_c
                    + (c_j[j] - mu * j) * n ** (j + 1) * gc ** (2 * k - 2 * j)
                    + lam * j * gradc_2km2
                    + c_j[j] * m2_top
                )
            )
            generic[f"mixed_order_{j}"] = lam * j * R**d + c_j[j] / R**2 * (nk + gc2k)
        out: dict[str, float] = {}
        for name, integrand in explicit.items():
            out[f"{name}_explicit"] = _cutoff_sup(integrand, grid, R)
            out[f"{name}_generic"] = float(generic[name])
        return out

    def check(self, trace: list[FunctionalSample]) -> list[ResidualReport]:
        """The ``_measurement`` of each family's explicit and generic columns
        along a trace this recorder fed."""
        t = _times(trace)
        families = ["density_power", "gradient_power", "mixed_first"]
        return [
            _measurement(name, t, _column(trace, f"{name}_explicit"), _column(trace, f"{name}_generic"))
            for name in families + [f"mixed_order_{j}" for j in range(2, self.k)]
        ]


# ---------------------------------------------------------------------------
# Sup-norm reconstruction


def linf_reconstruction_check(
    trace: list[FunctionalSample], params: Params, k: int
) -> list[ResidualReport]:
    """Ratio of ||grad c||_inf to its three-ingredient reconstruction bound: a measurement.

    Checks ``||grad c(t)||_inf <= K (||grad c_0||_{L^2_uloc} + ||c_0||_{W^{1,inf}}
    + sup_{s<=t} ||n(s)||_{L^k_uloc})`` (keys ``linf_gradc``,
    ``l2_uloc_gradc``, ``w1inf_c``, ``lk_uloc_n``) with a generic ``K``.
    The high-frequency tail is summable only for k > d; outside that regime
    there is no report.  ``K`` is the ``_measurement`` of the ratios.
    """
    if not k > params.d:
        return []
    running = np.maximum.accumulate(_column(trace, "lk_uloc_n"))
    denom = _column(trace, "l2_uloc_gradc")[0] + _column(trace, "w1inf_c")[0] + running
    linf = _column(trace, "linf_gradc")
    ratios = np.divide(linf, denom, out=np.zeros_like(linf), where=denom > 0)
    return [_measurement("linf_reconstruction", _times(trace), ratios)]


# ---------------------------------------------------------------------------
# Trace recorder for the canonical CSV schema


class TraceRecorder:
    """Computes every key of a sampled state that its ``check`` reads.

    Produces l1_uloc_n, l2_uloc_gradc, y, z_max, linf_gradc and lk_uloc_n,
    and the ledger ingredients l1_n, l2sq_c, l2sq_gradc and l2sq_lapc; the
    run loop itself records mass, linf_n, w1inf_c, min_n, min_c and the
    ledger's int_l2sq_n.  Every uniformly local norm and ``y`` take the
    recorder's radius ``R`` and are sups over every grid-point center.
    """

    def __init__(self, params: Params, grid: Grid, k: int = 3, R: float = 2.0):
        validate_settings(grid, k, R)
        self.params = params
        self.k = k
        self.R = R

    def __call__(self, state: State) -> dict[str, float]:
        p = self.params
        n, c = state.n, state.c
        grad_c = c.grad_abs
        if p.chi > 0:
            z_max = float(np.max(z_field(state, p).values))
        else:
            # With no chemotaxis the density term of z is undefined; track the
            # gradient part so the trace stays finite.
            z_max = float(np.max(0.5 * p.tau * grad_c.values**2))
        return {
            "l1_uloc_n": uloc_norm(n, 1.0, self.R),
            "l2_uloc_gradc": uloc_norm(grad_c, 2.0, self.R),
            "y": combined_y(state, p, self.k, self.R),
            "z_max": z_max,
            "linf_gradc": grad_c.max_abs(),
            "lk_uloc_n": uloc_norm(n, float(self.k), self.R),
            "l1_n": integrate(ScalarField(n.grid, np.abs(n.values))),
            "l2sq_c": lp_norm(c, 2) ** 2,
            "l2sq_gradc": lp_norm(grad_c, 2) ** 2,
            "l2sq_lapc": lp_norm(laplacian(c), 2) ** 2,
        }

    def check(self, trace: list[FunctionalSample]) -> list[ResidualReport]:
        """The ``residuals.csv`` families of a trace this recorder fed, in file order."""
        p = self.params
        reports = prop22_check(trace, p) + uloc_combined_check(trace, p)
        return reports + linf_reconstruction_check(trace, p, self.k) + z_sup_cap_check(trace, p)


# ---------------------------------------------------------------------------
# Verdicts of a run


def trend_slope(trace: list[FunctionalSample], t_lo: float, t_hi: float) -> float:
    """Linear-fit slope of the log ``continuation_gauge`` over [t_lo, t_hi]."""
    ts, ys = [], []
    for s in trace:
        if t_lo <= s.t <= t_hi:
            gauge = continuation_gauge(s.values)
            if gauge > 0 and math.isfinite(gauge):
                ts.append(s.t)
                ys.append(math.log(gauge))
    if len(ts) < 2:
        return 0.0
    # The least-squares slope in closed form, with no LAPACK call (np.polyfit's
    # first one costs a process about 1.3 MB of resident memory).
    t, y = np.array(ts), np.array(ys)
    dt = t - t.mean()
    den = float(np.sum(dt * dt))
    return float(np.sum(dt * (y - y.mean()))) / den if den else 0.0


def run_verdicts(result: RunResult, params: Params) -> tuple[dict[str, bool], float]:
    """The verdicts on a whole run, and the gauge's ``trend_slope`` over its second half.

    Hypotheses: none for ``mass_ledger_per_step`` (closed forms); n_0 >= 0 for
    ``nonnegativity_n``; n >= 0 for ``nonnegativity_c``, the bound of tau c_t =
    Lap c - c + n; a bounded solution for ``bounded_trend``.  Tolerances inline.
    """
    trace = result.trace
    t0, t_end = trace[0].t, trace[-1].t
    slope = trend_slope(trace, 0.5 * (t0 + t_end), t_end)
    c0_min = trace[0].values["min_c"]
    return {
        "mass_ledger_per_step": bool(result.mass_ledger_rel_max <= 1e-10),
        "nonnegativity_n": bool(min(s.values["min_n"] for s in trace) >= -NONNEG_TOL),
        "nonnegativity_c": all(
            s.values["min_c"] >= math.exp(-(s.t - t0) / params.tau) * c0_min - NONNEG_TOL
            for s in trace
        ),
        "bounded_trend": bool(result.status is RunStatus.COMPLETED and slope <= 1e-3),
    }, slope
