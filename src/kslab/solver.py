"""Time integration of the chemotaxis-with-logistic-growth system.

Two independent routes to the same dynamics are provided:

* ``run``  -- marches the coupled system with a two-stage exponential
  time-differencing Runge-Kutta step (ETD-RK2).  The linear parts (heat
  flow for the cell density, damped heat flow for the chemical) are applied
  exactly in spectral space, so the step size is limited by the nonlinear
  terms only.
* ``picard_local_solve`` -- iterates the mild-solution fixed-point map built
  from the semigroup propagators and midpoint quadrature of the Duhamel
  integrals.  It serves as an independent short-horizon oracle for the
  stepper and reports the empirical contraction factor.

Positivity is never enforced: undershoots are recorded by
``nonnegativity_report`` and judged by the test suite, not clipped away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    _dealias_mask_r,
    _irfft,
    _k_axes_odd_r,
    _k_squared_r,
    _rfft,
    integrate,
)
from .norms import cutoff_psi, lp_norm, w1inf_norm

__all__ = [
    "Params",
    "State",
    "RunConfig",
    "RunStatus",
    "RunResult",
    "PicardConfig",
    "PicardResult",
    "FunctionalSample",
    "rhs",
    "step",
    "run",
    "approx_initial",
    "picard_local_solve",
    "default_picard_horizon",
    "contractive_picard_horizon",
    "data_bound",
    "nonnegativity_report",
    "determinism_check",
    "suggest_dt",
]

NONNEG_TOL = 1e-8


@dataclass(frozen=True)
class Params:
    """PDE coefficients: chemotactic strength, relaxation scale, growth, damping."""

    chi: float
    tau: float = 1.0
    lam: float = 0.0
    mu: float = 0.0
    d: int = 2

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.chi, self.tau, self.lam, self.mu)):
            raise ValueError("chi, tau, lambda and mu must be finite")
        # chi = 0 is admitted so decoupled heat-flow oracles can run.
        if self.chi < 0:
            raise ValueError("chi must be nonnegative")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.lam < 0 or self.mu < 0:
            raise ValueError("lambda and mu must be nonnegative")


@dataclass(frozen=True)
class State:
    """Cell density n and chemical concentration c at one time instant."""

    t: float
    n: ScalarField
    c: ScalarField

    def __post_init__(self):
        if self.n.grid != self.c.grid:
            raise ValueError("n and c must share a grid")

    @property
    def grid(self) -> Grid:
        return self.n.grid

    def is_finite(self) -> bool:
        return self.n.is_finite() and self.c.is_finite()


@dataclass(frozen=True)
class FunctionalSample:
    """One monitor reading: named scalar functionals at a trace time."""

    t: float
    values: dict[str, float]


class RunStatus(Enum):
    COMPLETED = "completed"
    BLOWUP_SUSPECTED = "blowup_suspected"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class RunConfig:
    """Stepping and surveillance knobs for a trajectory run.

    ``dt=None`` re-evaluates the explicit-nonlinearity step-size heuristic at
    every monitor interval (fixed step within an interval, for determinism).
    """

    t_end: float
    dt: float | None = None
    monitor_every: int = 10
    blowup_cap: float | None = None
    dealias: bool = True

    def __post_init__(self):
        for name in ("t_end", "dt", "blowup_cap"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if self.monitor_every < 1:
            raise ValueError("monitor_every must be >= 1")

    def cap_for(self, initial: State) -> float:
        """The blow-up cap for a run from ``initial``: ``blowup_cap``, else
        1000x the initial continuation gauge ||n||_inf + ||c||_{W^{1,inf}}."""
        gauge = initial.n.max_abs() + w1inf_norm(initial.c)
        cap = self.blowup_cap if self.blowup_cap is not None else 1e3 * max(gauge, 1.0)
        if not cap > gauge:
            raise ValueError("blowup_cap must exceed the initial continuation gauge")
        return cap


@dataclass(frozen=True)
class RunResult:
    """Trajectory trace plus termination status and the final state."""

    status: RunStatus
    status_time: float
    trace: list[FunctionalSample]
    final: State
    mass_ledger_rel_max: float


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with the z=0 limit handled."""
    out = np.ones_like(z)
    nz = z != 0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - z - 1)/z^2, series below |z|=0.5 to dodge cancellation."""
    out = np.empty_like(z)
    small = np.abs(z) < 0.5
    zb = z[~small]
    out[~small] = (np.expm1(zb) - zb) / (zb * zb)
    zs = z[small]
    acc = np.zeros_like(zs)
    for m in range(12, -1, -1):
        acc = acc * zs + 1.0 / math.factorial(m + 2)
    out[small] = acc
    return out


class _Workspace:
    """Half-spectrum and physical buffers for the nonlinear tendencies and ETD-RK2.

    ``run`` allocates one per run and hands it to every ``_Stepper`` it
    builds, so a step allocates only the two arrays of the new State.
    The buffers are overwritten by every call: a workspace, and a
    ``_Stepper`` holding one, must not be used by two threads at once.
    """

    def __init__(self, grid: Grid, dealias: bool):
        self.grid = grid
        # Modes the 2/3 rule zeroes after each product, and i*k per axis.
        self.drop = ~_dealias_mask_r(grid) if dealias else None
        self.ik_odd = tuple(1j * ka for ka in _k_axes_odd_r(grid))
        half = lambda: np.empty(grid.rshape, dtype=np.complex128)
        self.nhat, self.chat = half(), half()  # state transforms, then stage a
        self.nn_u, self.nc_u = half(), half()
        self.nn_a, self.nc_a = half(), half()
        self.prod = half()  # transform scratch
        self.phys = np.empty(grid.shape)  # product scratch
        self.a_n = np.empty(grid.shape)  # stage-a density


def _nonlinear_hat(params: Params, ws: _Workspace, nhat, chat, n_phys, nn, nc):
    """Spectral nonlinear tendencies into ``nn`` and ``nc``; returns
    ``(nn, nc, int n, int n^2)``.

    Operates in the half-spectrum layout with ``ws.prod``/``ws.phys`` as
    scratch; ``nn`` and ``nc`` must be other buffers than the inputs.  The
    integrals are read off the zero modes; the transport divergence
    contributes nothing there by construction, which is what makes the mass
    ledger exact.  Every product is formed in place, one operation at a
    time, in the order of ``-chi div(n grad c) + lam n - mu n^2``.
    """
    p, grid, prod, phys = params, ws.grid, ws.prod, ws.phys
    flux = nn
    flux.fill(0.0)
    for ik in ws.ik_odd:
        _irfft(np.multiply(ik, chat, out=prod), grid, out=phys, work=prod)
        _rfft(np.multiply(n_phys, phys, out=phys), out=prod)
        if ws.drop is not None:
            prod[ws.drop] = 0.0
        flux += np.multiply(ik, prod, out=prod)
    n2_hat = _rfft(np.multiply(n_phys, n_phys, out=phys), out=prod)
    if ws.drop is not None:
        n2_hat[ws.drop] = 0.0
    zero = (0,) * grid.d
    hd = grid.spacing**grid.d
    int_n = hd * nhat[zero].real
    int_n2 = hd * n2_hat[zero].real
    np.multiply(-p.chi, flux, out=nn)
    nn += np.multiply(p.lam, nhat, out=nc)
    nn -= np.multiply(p.mu, n2_hat, out=n2_hat)
    np.divide(nhat, p.tau, out=nc)
    return nn, nc, int_n, int_n2


class _Stepper:
    """ETD-RK2 stepper with precomputed multipliers for one (grid, params, dt).

    ``workspace`` is a ``_Workspace`` to reuse (same grid and dealiasing),
    such as the one ``run`` hands to every stepper it builds; by default the
    stepper allocates its own.
    """

    def __init__(
        self,
        grid: Grid,
        params: Params,
        dt: float,
        dealias: bool,
        workspace: _Workspace | None = None,
    ):
        self.grid = grid
        self.params = params
        self.dt = dt
        ksq = _k_squared_r(grid)
        z_n = -dt * ksq
        z_c = dt * (-1.0 - ksq) / params.tau
        self.exp_n = np.exp(z_n)
        self.exp_c = np.exp(z_c)
        self.p1_n = dt * _phi1(z_n)
        self.p1_c = dt * _phi1(z_c)
        self.p2_n = dt * _phi2(z_n)
        self.p2_c = dt * _phi2(z_c)
        self.ws = workspace if workspace is not None else _Workspace(grid, dealias)

    def advance(self, state: State) -> tuple[State, float, float, float]:
        """One step; returns (state, ledger residual, d int(n) dt, d int(n^2) dt).

        The two trailing values are the step's contribution to the running
        time integrals of int(n) and int(n^2), in the same stage quadrature
        the zero mode actually evolves by.  Everything but the new state's
        two arrays lives in the workspace.
        """
        ws, grid, p = self.ws, self.grid, self.params
        n_phys = state.n.values
        nhat = _rfft(n_phys, out=ws.nhat)
        chat = _rfft(state.c.values, out=ws.chat)
        nn_u, nc_u, int_n_u, int_n2_u = _nonlinear_hat(
            p, ws, nhat, chat, n_phys, ws.nn_u, ws.nc_u
        )

        # Stage a: exp * hat + p1 * N_u, over the spent state transforms.
        a_n_hat = np.multiply(self.exp_n, nhat, out=nhat)
        a_n_hat += np.multiply(self.p1_n, nn_u, out=ws.prod)
        a_c_hat = np.multiply(self.exp_c, chat, out=chat)
        a_c_hat += np.multiply(self.p1_c, nc_u, out=ws.prod)
        a_n = _irfft(a_n_hat, grid, out=ws.a_n, work=ws.prod)
        nn_a, nc_a, int_n_a, int_n2_a = _nonlinear_hat(
            p, ws, a_n_hat, a_c_hat, a_n, ws.nn_a, ws.nc_a
        )

        # New state: a_hat + p2 * (N_a - N_u), transformed out of place.
        nn_a -= nn_u
        a_n_hat += np.multiply(self.p2_n, nn_a, out=nn_a)
        nc_a -= nc_u
        a_c_hat += np.multiply(self.p2_c, nc_a, out=nc_a)
        new_n = _irfft(a_n_hat, grid, out=np.empty(grid.shape), work=a_n_hat)
        new_c = _irfft(a_c_hat, grid, out=np.empty(grid.shape), work=a_c_hat)

        hd = grid.spacing**grid.d
        mass_delta = hd * (np.sum(new_n) - np.sum(n_phys))
        d_int_n = self.dt * 0.5 * (int_n_u + int_n_a)
        d_int_n2 = self.dt * 0.5 * (int_n2_u + int_n2_a)
        ledger = abs(mass_delta - (p.lam * d_int_n - p.mu * d_int_n2))
        new_state = State(
            t=state.t + self.dt,
            n=ScalarField(grid, new_n),
            c=ScalarField(grid, new_c),
        )
        return new_state, ledger, d_int_n, d_int_n2


def rhs(state: State, params: Params, dealias: bool = True) -> tuple[ScalarField, ScalarField]:
    """Instantaneous tendencies (dn/dt, dc/dt) with dealiased products."""
    grid = state.grid
    ws = _Workspace(grid, dealias)
    nhat = _rfft(state.n.values, out=ws.nhat)
    chat = _rfft(state.c.values, out=ws.chat)
    nn_hat, nc_hat, _, _ = _nonlinear_hat(
        params, ws, nhat, chat, state.n.values, ws.nn_u, ws.nc_u
    )
    ksq = _k_squared_r(grid)
    dn_hat = -ksq * nhat + nn_hat
    dc_hat = ((-1.0 - ksq) * chat) / params.tau + nc_hat
    dn = ScalarField(grid, _irfft(dn_hat, grid))
    dc = ScalarField(grid, _irfft(dc_hat, grid))
    if not (dn.is_finite() and dc.is_finite()):
        raise FloatingPointError("non-finite tendency encountered")
    return dn, dc


def step(state: State, params: Params, dt: float, dealias: bool = True) -> State:
    """One deterministic ETD-RK2 step of size dt."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    new_state, _, _, _ = _Stepper(state.grid, params, dt, dealias).advance(state)
    return new_state


def suggest_dt(state: State, params: Params) -> float:
    """Explicit-nonlinearity step-size heuristic, re-evaluated between samples."""
    grad_c_max = state.c.grad_abs.max_abs()
    n_max = state.n.max_abs()
    rate = params.chi * grad_c_max + params.lam + 2.0 * params.mu * n_max + 1.0
    return 0.25 * min(1.0, 1.0 / rate)


def _builtin_sample(state: State, params: Params) -> dict[str, float]:
    return {
        "mass": integrate(state.n),
        "linf_n": state.n.max_abs(),
        "w1inf_c": w1inf_norm(state.c),
        "min_n": float(np.min(state.n.values)),
        "min_c": float(np.min(state.c.values)),
    }


def run(
    initial: State,
    params: Params,
    config: RunConfig,
    monitors: Callable[[State], Mapping[str, float]] | None = None,
) -> RunResult:
    """Advance until t_end, blow-up suspicion, or numerical failure.

    Monitor samples are taken at t=0, every ``monitor_every`` steps, and at the
    end.  Blow-up is surveilled through the continuation quantity
    ||n||_inf + ||c||_{W^{1,inf}} against ``blowup_cap`` (default: 1000x its
    initial value).
    """
    grid = initial.grid
    cap = config.cap_for(initial)

    int_n = 0.0
    int_n2 = 0.0

    def sample(state: State) -> FunctionalSample:
        values = _builtin_sample(state, params)
        # Running time integrals of int(n) and int(n^2), accumulated with the
        # stepper's own stage quadrature so the mass ledgers close exactly.
        values["int_l1_n"] = int_n
        values["int_l2sq_n"] = int_n2
        if monitors is not None:
            values.update({k: float(v) for k, v in monitors(state).items()})
        return FunctionalSample(t=state.t, values=values)

    state = initial
    trace = [sample(state)]
    ledger_rel_max = 0.0
    status = RunStatus.COMPLETED
    status_time = initial.t + config.t_end
    t_end = initial.t + config.t_end
    # One workspace for the whole run; each rebuilt stepper takes it over.
    workspace = _Workspace(grid, config.dealias)
    stepper: _Stepper | None = None
    eps = 1e-12 * max(1.0, abs(t_end))

    while state.t < t_end - eps:
        dt = config.dt if config.dt is not None else suggest_dt(state, params)
        if not dt > eps:
            # A step this small (an underflowed heuristic) cannot advance the
            # run: report it as a numerical failure instead of looping on.
            status = RunStatus.NUMERICAL_FAILURE
            status_time = state.t
            break
        failed = False
        for _ in range(config.monitor_every):
            dt_step = min(dt, t_end - state.t)
            if dt_step <= eps:
                break
            if stepper is None or stepper.dt != dt_step:
                stepper = _Stepper(grid, params, dt_step, config.dealias, workspace)
            state, ledger, d_int_n, d_int_n2 = stepper.advance(state)
            if not state.is_finite():
                status = RunStatus.NUMERICAL_FAILURE
                status_time = state.t
                failed = True
                break
            int_n += d_int_n
            int_n2 += d_int_n2
            n_l1 = grid.spacing**grid.d * float(np.sum(np.abs(state.n.values)))
            ledger_rel_max = max(ledger_rel_max, ledger / max(n_l1, 1e-300))
        if failed:
            break
        trace.append(sample(state))
        gauge = trace[-1].values["linf_n"] + trace[-1].values["w1inf_c"]
        if gauge > cap:
            status = RunStatus.BLOWUP_SUSPECTED
            status_time = state.t
            break

    if status is RunStatus.COMPLETED:
        status_time = state.t
    return RunResult(
        status=status,
        status_time=status_time,
        trace=trace,
        final=state,
        mass_ledger_rel_max=ledger_rel_max,
    )


def approx_initial(
    n0_fn: Callable[..., np.ndarray],
    c0_fn: Callable[..., np.ndarray],
    M: float,
    grid: Grid,
) -> State:
    """Sample (n0, c0) on the grid and truncate both by the smooth plateau at M.

    The sampled cell density must be nonnegative; the truncated data are
    compactly supported in B_{2M}(0).
    """
    mesh = grid.mesh()
    n0 = np.asarray(n0_fn(*mesh), dtype=np.float64)
    c0 = np.asarray(c0_fn(*mesh), dtype=np.float64)
    n0 = np.broadcast_to(n0, grid.shape)
    c0 = np.broadcast_to(c0, grid.shape)
    if np.min(n0) < 0:
        raise ValueError("initial cell density must be nonnegative")
    psi = cutoff_psi(grid, M).values
    return State(t=0.0, n=ScalarField(grid, psi * n0), c=ScalarField(grid, psi * c0))


@dataclass(frozen=True)
class PicardConfig:
    """Horizon, iteration count, Duhamel quadrature resolution and data bound."""

    horizon: float
    iterations: int = 8
    quadrature_nodes: int = 16
    data_bound: float | None = None

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.quadrature_nodes < 1:
            raise ValueError("need at least one quadrature node")


@dataclass(frozen=True)
class PicardResult:
    """Fixed-point iteration record: final iterate and contraction diagnostics."""

    final: State
    times: np.ndarray
    diff_norms: list[float]
    ratios: list[float]
    diverged: bool


def data_bound(initial: State) -> float:
    """Size gauge of the initial data used by the horizon formulas."""
    n, c = initial.n, initial.c
    m_n = lp_norm(n, 1) + lp_norm(n, math.inf)
    grad_c = c.grad_abs
    m_c = (
        math.sqrt(lp_norm(c, 2) ** 2 + lp_norm(grad_c, 2) ** 2)
        + c.max_abs()
        + grad_c.max_abs()
    )
    return max(m_n, m_c)


def default_picard_horizon(params: Params, M: float) -> float:
    """Horizon in the contraction regime, built from semigroup-constant estimates.

    The gradient constant of the heat semigroup is estimated as d/sqrt(pi)
    (exact in one dimension); the quadratic exponent follows from the
    T^(1/2)-scaling of the smoothing estimate.
    """
    c1 = params.d / math.sqrt(math.pi)
    cands = [1.0]
    if params.lam > 0:
        cands.append(1.0 / (4.0 * params.lam))
    denom = 8.0 * M * (2.0 * c1 * params.chi + params.mu)
    if denom > 0:
        cands.append(denom**-2.0)
    cands.append((params.tau / (4.0 * (1.0 + c1 * math.sqrt(params.tau)))) ** 2)
    return min(cands)


def contractive_picard_horizon(
    initial: State, params: Params, max_halvings: int = 8
) -> float:
    """Formula horizon, halved until a cheap probe shows contraction factor < 1."""
    T = default_picard_horizon(params, data_bound(initial))
    for _ in range(max_halvings + 1):
        probe = picard_local_solve(
            initial, params, PicardConfig(horizon=T, iterations=3, quadrature_nodes=4)
        )
        if not probe.diverged and all(r < 1.0 for r in probe.ratios):
            return T
        T *= 0.5
    raise FloatingPointError("no contractive horizon found after repeated halving")


def picard_local_solve(
    initial: State, params: Params, config: PicardConfig, dealias: bool = True
) -> PicardResult:
    """Iterate the mild-solution map on [0, T] and report contraction behaviour.

    Iterates live on a uniform grid of quadrature_nodes sub-intervals; the
    Duhamel integrals use the composite midpoint rule with the semigroup
    factor evaluated exactly at the midpoints and the integrand averaged from
    the adjacent nodes.  Divergence (growing successive differences) is
    reported, never silently accepted.
    """
    grid = initial.grid
    p = params
    Q = config.quadrature_nodes
    T = config.horizon
    dt = T / Q
    ksq = _k_squared_r(grid)
    k_odd = _k_axes_odd_r(grid)
    ws = _Workspace(grid, dealias)

    # Propagator multipliers at node and midpoint offsets.
    prop_n_node = [np.exp(-(i * dt) * ksq) for i in range(Q + 1)]
    prop_c_node = [np.exp(-(i * dt) / p.tau * (1.0 + ksq)) for i in range(Q + 1)]
    prop_n_mid = [np.exp(-((q + 0.5) * dt) * ksq) for q in range(Q)]
    prop_c_mid = [np.exp(-((q + 0.5) * dt) / p.tau * (1.0 + ksq)) for q in range(Q)]

    n0_hat = _rfft(initial.n.values)
    c0_hat = _rfft(initial.c.values)

    def seed() -> tuple[list[np.ndarray], list[np.ndarray]]:
        ns = [prop_n_node[i] * n0_hat for i in range(Q + 1)]
        cs = [prop_c_node[i] * c0_hat for i in range(Q + 1)]
        return ns, cs

    def source_n_hat(n_hat: np.ndarray, c_hat: np.ndarray) -> np.ndarray:
        n_phys = _irfft(n_hat, grid)
        nn_hat = np.empty(grid.rshape, dtype=np.complex128)
        _nonlinear_hat(p, ws, n_hat, c_hat, n_phys, nn_hat, ws.nc_u)
        return nn_hat

    def apply_map(ns, cs):
        mid_src_n = []
        mid_src_c = []
        for q in range(Q):
            n_mid = 0.5 * (ns[q] + ns[q + 1])
            c_mid = 0.5 * (cs[q] + cs[q + 1])
            mid_src_n.append(source_n_hat(n_mid, c_mid))
            mid_src_c.append(n_mid / p.tau)
        new_ns = [n0_hat.copy()]
        new_cs = [c0_hat.copy()]
        for i in range(1, Q + 1):
            acc_n = prop_n_node[i] * n0_hat
            acc_c = prop_c_node[i] * c0_hat
            for q in range(i):
                acc_n = acc_n + dt * prop_n_mid[i - 1 - q] * mid_src_n[q]
                acc_c = acc_c + dt * prop_c_mid[i - 1 - q] * mid_src_c[q]
            new_ns.append(acc_n)
            new_cs.append(acc_c)
        return new_ns, new_cs

    def diff_norm(ns_a, cs_a, ns_b, cs_b) -> float:
        worst = 0.0
        for i in range(Q + 1):
            dn = _irfft(ns_a[i] - ns_b[i], grid)
            dc_hat = cs_a[i] - cs_b[i]
            dc = _irfft(dc_hat, grid)
            grad_sq = np.zeros(grid.shape)
            for ka in k_odd:
                comp = _irfft(1j * ka * dc_hat, grid)
                grad_sq += comp * comp
            worst = max(
                worst,
                float(np.max(np.abs(dn)))
                + float(np.max(np.abs(dc)))
                + float(np.max(np.sqrt(grad_sq))),
            )
        return worst

    ns, cs = seed()
    diff_norms: list[float] = []
    for _ in range(config.iterations):
        new_ns, new_cs = apply_map(ns, cs)
        diff_norms.append(diff_norm(new_ns, new_cs, ns, cs))
        ns, cs = new_ns, new_cs

    ratios = [
        diff_norms[i] / diff_norms[i - 1]
        for i in range(1, len(diff_norms))
        if diff_norms[i - 1] > 0
    ]
    diverged = len(diff_norms) >= 2 and diff_norms[-1] > diff_norms[0]
    final = State(
        t=initial.t + T,
        n=ScalarField(grid, _irfft(ns[Q], grid)),
        c=ScalarField(grid, _irfft(cs[Q], grid)),
    )
    return PicardResult(
        final=final,
        times=initial.t + dt * np.arange(Q + 1),
        diff_norms=diff_norms,
        ratios=ratios,
        diverged=diverged,
    )


def nonnegativity_report(state: State) -> tuple[float, float]:
    """Grid minima of (n, c); undershoots are reported, never clipped."""
    return float(np.min(state.n.values)), float(np.min(state.c.values))


def determinism_check(initial: State, params: Params, config: RunConfig) -> bool:
    """Two runs from identical inputs must produce identical traces and finals."""
    r1 = run(initial, params, config)
    r2 = run(initial, params, config)
    if len(r1.trace) != len(r2.trace):
        return False
    for s1, s2 in zip(r1.trace, r2.trace):
        if s1.t != s2.t or s1.values != s2.values:
            return False
    return bool(
        np.array_equal(r1.final.n.values, r2.final.n.values)
        and np.array_equal(r1.final.c.values, r2.final.c.values)
    )
