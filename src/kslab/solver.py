"""Time integration of the chemotaxis-with-logistic-growth system.

Two independent routes to the same dynamics are provided:

* ``run``  -- marches the coupled system with a Strang splitting
  ``L(dt/2) T(dt) L(dt/2)``.  ``L`` is the exact pointwise flow of the
  logistic ODE ``n' = lam n - mu n^2``, which maps ``n >= 0`` to ``n >= 0``
  for any ``mu``.  ``T`` is a two-stage exponential time-differencing
  Runge-Kutta step (ETD-RK2) of the rest: the linear parts (heat flow for
  the cell density, damped heat flow for the chemical) are applied exactly
  in spectral space and the transport term ``-chi div(n grad c)`` is
  explicit.  The automatic step size comes from a step-doubling error
  estimate, capped by the transport term; the damping ``mu`` sets no limit.
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
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    _dealias_mask_r,
    _grad_hat,
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
    "continuation_gauge",
]

# Tolerance of the automatic step's probe on the gap between one step of 2h
# and two of h (the larger of its L^1- and sup-relative norms in n).  On the
# damped 64^3 headline run to t = 0.5, before the probe reused its halved
# trials and regrew the step, it took 31 step evaluations and ended 2.4e-3
# off the benchmark's reference mass; 3e-2 ended 1.2e-2 off, past that
# reference's 1e-2 tolerance, and 3e-3 took 42 evaluations for 1.6e-3
# (table in CHANGES.md).  It now takes 23 evaluations and ends 2.7e-3 off.
PROBE_TOL = 1e-2

# A run suspects blow-up once ``continuation_gauge`` exceeds this many times
# its value at the run's first sample (or this many, below a gauge of 1).
BLOWUP_FACTOR = 1e3

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
        for name, value in (("lambda", self.lam), ("mu", self.mu)):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")


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
    """Stepping and sampling knobs for a trajectory run.  The blow-up cap is
    none of them: ``run`` derives it from its first sample.

    ``dt=None`` sizes the step ``h`` by error control.  Each monitor
    interval opens with a step-doubling probe from its first state: one step
    of ``2h`` against two of ``h``.  The probe shrinks ``h`` while their gap
    exceeds ``PROBE_TOL`` or a trial's logistic substep has no flow, and
    keeps the two steps of ``h``.  The gap then proposes the next ``h``
    (safety 0.9, exponent 1/3, growth at most 5x), and the transport cap
    ``suggest_dt`` and half the time left bound it.  When that bound is at
    least ``2h`` and the interval has room for two more steps, the run
    probes again from there (regrow); otherwise it takes the rest of the
    interval with the stepper of ``h``, and the proposal opens the next
    interval.  The step is a function of the state alone, so reruns are
    bitwise identical.
    """

    t_end: float
    dt: float | None = None
    monitor_every: int = 10

    def __post_init__(self):
        for name in ("t_end", "dt"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if self.monitor_every < 1:
            raise ValueError("monitor_every must be >= 1")


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


@lru_cache(maxsize=64)
def _k_squared_levels(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of |k|^2 on the half spectrum, and the index of
    each entry's value (4,541 values for 135,168 entries at 64^3)."""
    levels, where = np.unique(_k_squared_r(grid), return_inverse=True)
    return levels, where.reshape(grid.rshape)


class _Scratch:
    """Buffers and masks for one evaluation of the dealiased transport term.

    ``rhs`` and the Picard route build one of these; the stepper's
    ``_Workspace`` extends it with the buffers of a whole step.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        # Modes the 2/3 rule zeroes after each product, and i*k per axis.
        self.drop = ~_dealias_mask_r(grid)
        self.ik_odd = tuple(1j * ka for ka in _k_axes_odd_r(grid))
        self.prod = np.empty(grid.rshape, dtype=np.complex128)  # transform scratch
        self.phys = np.empty(grid.shape)  # product scratch


class _Workspace(_Scratch):
    """Half-spectrum and physical buffers for one split step.

    ``run`` allocates one per run and hands it to every ``_Stepper`` it
    builds, so a step allocates only the two arrays of the new State.  The
    buffers are overwritten by every call: a workspace, and a ``_Stepper``
    holding one, must not be used by two threads at once.
    """

    def __init__(self, grid: Grid):
        super().__init__(grid)
        half = lambda: np.empty(grid.rshape, dtype=np.complex128)
        self.nhat, self.chat = half(), half()  # state transforms, then stage a
        self.nn_u, self.nc_u = half(), half()
        self.nn_a, self.nc_a = half(), half()
        self.a_n = np.empty(grid.shape)  # stage-a density, logistic scratch


def _transport_hat(params: Params, ws: _Scratch, chat, n_phys, out):
    """Spectral transport term ``-chi div(n grad c)`` into ``out``.

    Operates in the half-spectrum layout with ``ws.prod``/``ws.phys`` as
    scratch; ``out`` must be another buffer than ``chat``.  Each axis adds
    its flux ``i k_a (n d_a c)^``, with the product dealiased; the
    divergence has no zero mode, so the term moves no mass.
    """
    grid, prod, phys = ws.grid, ws.prod, ws.phys
    out.fill(0.0)
    for ik in ws.ik_odd:
        _irfft(np.multiply(ik, chat, out=prod), grid, out=phys, work=prod)
        _rfft(np.multiply(n_phys, phys, out=phys), out=prod)
        prod[ws.drop] = 0.0
        out += np.multiply(ik, prod, out=prod)
    return np.multiply(-params.chi, out, out=out)


def _source_hat(params: Params, ws: _Scratch, nhat, chat, n_phys, out):
    """Whole spectral density source ``-chi div(n grad c) + lam n - mu n^2``.

    The stepper treats the logistic part exactly and never calls this;
    ``rhs`` and the Picard route do.  ``n^2`` is dealiased like the
    transport product.
    """
    nn = _transport_hat(params, ws, chat, n_phys, out)
    nn += np.multiply(params.lam, nhat, out=ws.prod)
    n2_hat = _rfft(np.multiply(n_phys, n_phys, out=ws.phys), out=ws.prod)
    n2_hat[ws.drop] = 0.0
    nn -= np.multiply(params.mu, n2_hat, out=n2_hat)
    return nn


class _Stepper:
    """Strang-split step ``L(dt/2) T(dt) L(dt/2)`` for one (grid, params, dt).

    ``L`` is the exact logistic flow, ``T`` the ETD-RK2 step of the heat
    flows and the transport term, with multipliers precomputed here.
    ``workspace`` is a ``_Workspace`` to reuse (same grid),
    such as the one ``run`` hands to every stepper it builds; by default the
    stepper allocates its own.
    """

    def __init__(
        self,
        grid: Grid,
        params: Params,
        dt: float,
        workspace: _Workspace | None = None,
    ):
        self.grid = grid
        self.params = params
        self.dt = dt
        # Each multiplier is evaluated once per distinct |k|^2, then gathered.
        ksq, where = _k_squared_levels(grid)
        z_n = -dt * ksq
        z_c = dt * (-1.0 - ksq) / params.tau
        self.exp_n = np.exp(z_n)[where]
        self.exp_c = np.exp(z_c)[where]
        self.p1_n = (dt * _phi1(z_n))[where]
        self.p1_c = (dt * _phi1(z_c))[where]
        self.p2_n = (dt * _phi2(z_n))[where]
        self.p2_c = (dt * _phi2(z_c))[where]
        # Logistic substep of length s = dt/2: e^{lam s} and q = expm1(lam s)/lam.
        s = 0.5 * dt
        self.growth = math.exp(params.lam * s)
        self.q = math.expm1(params.lam * s) / params.lam if params.lam > 0 else s
        self.ws = workspace if workspace is not None else _Workspace(grid)

    def _logistic(self, n: np.ndarray, out: np.ndarray) -> tuple[float, float, float]:
        """Exact flow of ``n' = lam n - mu n^2`` over dt/2, from ``n`` into ``out``.

        ``n(s) = n e^{lam s} / (1 + mu q n)``; ``out`` may be ``n``.  Returns
        the grid sums of ``int n ds``, ``int n^2 ds`` and ``mu int n^2 ds``
        over the substep, from ``int n ds = log1p(mu q n) / mu`` and
        ``mu int n^2 ds = lam int n ds - (n(s) - n)``, or their limits
        ``q n`` and ``q (1 + lam q / 2) n^2`` at ``mu = 0``.  The mass ledger
        reads the third sum, so a huge ``mu`` costs it no precision.  A
        denominator ``1 + mu q n <= 0``, which only a negative ``n`` can
        give, has no flow to follow and raises FloatingPointError.
        """
        p, ws, q = self.params, self.ws, self.q
        n_sum = float(np.sum(n))
        if p.mu == 0.0:
            n2_sum = float(np.sum(np.multiply(n, n, out=ws.phys)))
            np.multiply(n, self.growth, out=out)
            return q * n_sum, q * (1.0 + 0.5 * p.lam * q) * n2_sum, 0.0
        x = np.multiply(n, p.mu * q, out=ws.phys)
        if not float(np.min(x)) > -1.0:
            raise FloatingPointError(
                "logistic substep: 1 + mu q n <= 0 at a negative density"
            )
        int_n = float(np.sum(np.log1p(x, out=ws.a_n))) / p.mu
        x += 1.0
        np.divide(n, x, out=out)
        out *= self.growth
        damped = p.lam * int_n - (float(np.sum(out)) - n_sum)
        return int_n, damped / p.mu, damped

    def advance(self, state: State) -> tuple[State, float, float, float]:
        """One step; returns (state, relative ledger, d int(n) dt, d int(n^2) dt).

        The two trailing values are the step's contribution to the running
        time integrals of int(n) and int(n^2), in the closed forms of the
        logistic substeps, which are the only ones to change the mass.  The
        ledger is the step's mass imbalance relative to the larger L^1 mass
        before and after it.  Everything but the new state's two arrays
        lives in the workspace.
        """
        ws, grid, p = self.ws, self.grid, self.params
        n_phys = state.n.values
        new_n = np.empty(grid.shape)
        int_n_a, int_n2_a, damped_a = self._logistic(n_phys, new_n)

        # T(dt) from (new_n, c): the state transforms, then stage a over them.
        nhat, chat = _rfft(new_n, ws.nhat), _rfft(state.c.values, ws.chat)
        nn_u = _transport_hat(p, ws, chat, new_n, ws.nn_u)
        nc_u = np.divide(nhat, p.tau, out=ws.nc_u)
        a_n_hat = np.multiply(self.exp_n, nhat, out=nhat)
        a_n_hat += np.multiply(self.p1_n, nn_u, out=ws.prod)
        a_c_hat = np.multiply(self.exp_c, chat, out=chat)
        a_c_hat += np.multiply(self.p1_c, nc_u, out=ws.prod)
        a_n = _irfft(a_n_hat, grid, out=ws.a_n, work=ws.prod)
        nn_a = _transport_hat(p, ws, a_c_hat, a_n, ws.nn_a)
        nc_a = np.divide(a_n_hat, p.tau, out=ws.nc_a)

        # a_hat + p2 * (N_a - N_u), transformed into the new state's arrays.
        nn_a -= nn_u
        a_n_hat += np.multiply(self.p2_n, nn_a, out=nn_a)
        nc_a -= nc_u
        a_c_hat += np.multiply(self.p2_c, nc_a, out=nc_a)
        _irfft(a_n_hat, grid, out=new_n, work=a_n_hat)
        new_c = _irfft(a_c_hat, grid, out=np.empty(grid.shape), work=a_c_hat)
        int_n_b, int_n2_b, damped_b = self._logistic(new_n, new_n)

        hd = grid.spacing**grid.d
        d_int_n = hd * (int_n_a + int_n_b)
        mass_delta = hd * (np.sum(new_n) - np.sum(n_phys))
        ledger = abs(mass_delta - (p.lam * d_int_n - hd * (damped_a + damped_b)))
        l1 = hd * max(np.sum(np.abs(n_phys, out=ws.phys)), np.sum(np.abs(new_n, out=ws.phys)))
        new_state = State(
            t=state.t + self.dt,
            n=ScalarField(grid, new_n),
            c=ScalarField(grid, new_c),
        )
        return new_state, float(ledger / max(l1, 1e-300)), d_int_n, hd * (int_n2_a + int_n2_b)


def _tendency_hat(
    state: State, params: Params, nhat: np.ndarray, chat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Half spectra of the tendencies (dn/dt, dc/dt), given those of n and c.

    Products are dealiased; ``nhat`` and ``chat`` are only read.  A
    non-finite tendency raises ``FloatingPointError``.
    """
    ws = _Scratch(state.grid)
    dn_hat = _source_hat(params, ws, nhat, chat, state.n.values, np.empty_like(nhat))
    ksq = _k_squared_r(state.grid)
    dn_hat -= np.multiply(ksq, nhat, out=ws.prod)
    dc_hat = (-1.0 - ksq) * chat / params.tau + nhat / params.tau
    if not (np.isfinite(dn_hat).all() and np.isfinite(dc_hat).all()):
        raise FloatingPointError("non-finite tendency encountered")
    return dn_hat, dc_hat


def rhs(state: State, params: Params) -> tuple[ScalarField, ScalarField]:
    """Instantaneous tendencies (dn/dt, dc/dt) with dealiased products."""
    grid = state.grid
    dn_hat, dc_hat = _tendency_hat(state, params, _rfft(state.n.values), _rfft(state.c.values))
    return tuple(ScalarField(grid, _irfft(h, grid, work=h)) for h in (dn_hat, dc_hat))


def step(state: State, params: Params, dt: float) -> State:
    """One deterministic split step of size dt."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    new_state, _, _, _ = _Stepper(state.grid, params, dt).advance(state)
    return new_state


def suggest_dt(state: State, params: Params) -> float:
    """Transport cap on the automatic step, ``0.25 min(1, 1/(1 + chi ||grad c||_inf))``.

    The exact logistic substep sets no limit; ``run`` shrinks the step
    below this cap wherever its step-doubling probe asks.
    """
    rate = 1.0 + params.chi * state.c.grad_abs.max_abs()
    return 0.25 * min(1.0, 1.0 / rate)


def _doubling_error(coarse: np.ndarray, fine: np.ndarray, scratch: np.ndarray) -> float:
    """Larger of the L^1- and sup-relative gaps of ``coarse`` from ``fine``.

    A non-finite gap, or a gap from an all-zero ``fine``, is infinite.
    """
    size = np.abs(fine, out=scratch)
    l1, sup = float(np.sum(size)), float(np.max(size))
    gap = np.abs(np.subtract(coarse, fine, out=scratch), out=scratch)
    l1_gap, sup_gap = float(np.sum(gap)), float(np.max(gap))
    if sup_gap == 0.0:
        return 0.0
    if not (sup > 0.0 and math.isfinite(l1_gap)):
        return math.inf
    return max(l1_gap / l1, sup_gap / sup)


def _probe(state: State, params: Params, h: float, eps: float, workspace: _Workspace):
    """Step-doubling probe of the automatic step ``h`` from ``state``.

    Compares one step of ``2h`` with two of ``h`` by ``_doubling_error`` and
    shrinks ``h`` while the gap exceeds ``PROBE_TOL``.  A trial whose
    logistic substep has no flow to follow counts as an infinite gap: the
    step was too large, not the run beyond repair.  A rejection that halves
    ``h`` exactly (every finite gap up to 5.8 ``PROBE_TOL``) keeps the
    trial's first step of ``h`` as the next trial's step of ``2h``, which it
    is bit for bit: r such halvings cost 3 + 2r step evaluations and r + 2
    stepper builds.  Returns the stepper of the accepted ``h``, its two
    steps merged into one ``advance`` result, and the gap.  Once ``h`` falls
    to ``eps`` it cannot advance the run, which raises FloatingPointError
    instead of looping on.  At most one stepper, the coarse density and two
    states besides ``state`` are alive at a time.
    """
    grid = state.grid
    coarse = None  # the density one step of 2h reaches, once a trial has it
    while h > eps:
        stepper = mid = end = None  # the last trial's, before this one allocates
        try:
            if coarse is None:
                coarse = _Stepper(grid, params, 2.0 * h, workspace).advance(state)[0].n
            stepper = _Stepper(grid, params, h, workspace)
            mid, *first = stepper.advance(state)
            end, *second = stepper.advance(mid)
            err = _doubling_error(coarse.values, end.n.values, workspace.phys)
        except FloatingPointError:
            err = math.inf
        if err <= PROBE_TOL:
            merged = (end, max(first[0], second[0]), first[1] + second[1], first[2] + second[2])
            return stepper, merged, err
        factor = _step_factor(err, 0.5)
        h *= factor
        # 2.0 * (0.5 * h) == h: the next step of 2h is the step of h just taken.
        coarse = mid.n if factor == 0.5 else None
    raise FloatingPointError("automatic dt underflowed")


def _step_factor(err: float, most: float) -> float:
    """Controller factor ``0.9 (PROBE_TOL / err)^(1/3)``, clamped to [0.2, most]."""
    if err == 0.0:
        return most
    return min(most, max(0.2, 0.9 * (PROBE_TOL / err) ** (1.0 / 3.0)))


def continuation_gauge(values: Mapping[str, float]) -> float:
    """||n||_inf + ||c||_{W^{1,inf}}, the blow-up criterion's gauge, from a sample's values."""
    return values["linf_n"] + values["w1inf_c"]


def _builtin_sample(state: State) -> dict[str, float]:
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
    end.  With ``config.dt=None`` each monitor interval opens with a
    step-doubling probe (see ``RunConfig``), and may probe again; each
    probe's two half steps count as two of its steps.  Blow-up is suspected
    once ``continuation_gauge`` exceeds ``BLOWUP_FACTOR`` times its value at
    the first sample (at least ``BLOWUP_FACTOR``); a first sample with a
    non-finite gauge raises ``FloatingPointError``.  A
    step with a non-finite result, a logistic substep with no flow to follow
    (outside the probe's trials, which reject it), or a step too small to
    advance the clock ends the run as a numerical failure.
    ``params.d`` must be the grid's dimension, which the monitors read from it.
    """
    grid = initial.grid
    if params.d != grid.d:
        raise ValueError(f"params.d = {params.d} differs from the grid dimension {grid.d}")

    int_n = 0.0
    int_n2 = 0.0

    def sample(state: State, values: dict[str, float]) -> FunctionalSample:
        """The trace entry of ``state`` from its ``_builtin_sample`` ``values``."""
        # Running time integrals of int(n) and int(n^2), accumulated from the
        # logistic substeps' closed forms so the mass ledgers close exactly.
        values["int_l1_n"] = int_n
        values["int_l2sq_n"] = int_n2
        if monitors is not None:
            values.update({k: float(v) for k, v in monitors(state).items()})
        return FunctionalSample(t=state.t, values=values)

    state = initial
    not_finite = "the initial continuation gauge is not finite"
    try:
        # Data that overflow the sample raise here, not as numpy warnings.
        with np.errstate(over="raise", invalid="raise"):
            values = _builtin_sample(state)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{not_finite} ({exc})") from None
    gauge = continuation_gauge(values)
    if not math.isfinite(gauge):  # before the monitors see the state
        raise FloatingPointError(not_finite)
    cap = BLOWUP_FACTOR * max(gauge, 1.0)
    trace = [sample(state, values)]
    ledger_rel_max = 0.0
    status = RunStatus.COMPLETED
    t_end = initial.t + config.t_end
    # One workspace for the whole run; each rebuilt stepper takes it over.
    workspace = _Workspace(grid)
    stepper: _Stepper | None = None
    eps = 1e-12 * max(1.0, abs(t_end))
    h_next = math.inf  # the controller's proposal for the next interval's step

    def take(result: tuple[State, float, float, float]) -> None:
        nonlocal state, int_n, int_n2, ledger_rel_max
        state, ledger_rel, d_int_n, d_int_n2 = result
        if not (state.is_finite() and all(map(math.isfinite, result[1:]))):
            raise FloatingPointError("non-finite step result")
        int_n += d_int_n
        int_n2 += d_int_n2
        ledger_rel_max = max(ledger_rel_max, ledger_rel)

    while state.t < t_end - eps:
        try:
            steps = 0
            h = config.dt
            if h is None:
                h = min(h_next, suggest_dt(state, params), 0.5 * (t_end - state.t))
                while True:
                    stepper = None  # one stepper alive at a time: the probe builds its own
                    stepper, merged, err = _probe(state, params, h, eps, workspace)
                    take(merged)
                    del merged  # its state is `state` now: hold no older one
                    h, steps = stepper.dt, steps + 2
                    h_next = h * _step_factor(err, 5.0)
                    # Regrow: with room for two more steps and at least 2x
                    # headroom, probe again from here instead of going on at
                    # h.  The transport cap costs a gradient, so it comes last.
                    grown = min(h_next, 0.5 * (t_end - state.t))
                    if steps + 2 > config.monitor_every or grown < 2.0 * h:
                        break
                    grown = min(grown, suggest_dt(state, params))
                    if grown < 2.0 * h:
                        break
                    h = grown
            elif not h > eps:
                raise FloatingPointError("dt underflowed")
            while steps < config.monitor_every:
                dt_step = min(h, t_end - state.t)
                if dt_step <= eps:
                    break
                if stepper is None or stepper.dt != dt_step:
                    stepper = _Stepper(grid, params, dt_step, workspace)
                take(stepper.advance(state))
                steps += 1
        except FloatingPointError:
            status = RunStatus.NUMERICAL_FAILURE
            break
        trace.append(sample(state, _builtin_sample(state)))
        if continuation_gauge(trace[-1].values) > cap:
            status = RunStatus.BLOWUP_SUSPECTED
            break

    return RunResult(
        status=status,
        status_time=state.t,
        trace=trace,
        final=state,
        mass_ledger_rel_max=ledger_rel_max,
    )


def approx_initial(n0: np.ndarray, c0: np.ndarray, M: float, grid: Grid) -> State:
    """Truncate sampled data (n0, c0) by the smooth plateau at M.

    ``n0`` and ``c0`` are arrays (or scalars) that broadcast to the grid's
    shape, such as fields evaluated on open-mesh coordinates.  The cell
    density must be nonnegative; the truncated data are compactly
    supported in B_{2M}(0).
    """
    n0 = np.broadcast_to(np.asarray(n0, dtype=np.float64), grid.shape)
    c0 = np.broadcast_to(np.asarray(c0, dtype=np.float64), grid.shape)
    if np.min(n0) < 0:
        raise ValueError("initial cell density must be nonnegative")
    psi = cutoff_psi(grid, M).values
    return State(t=0.0, n=ScalarField(grid, psi * n0), c=ScalarField(grid, psi * c0))


@dataclass(frozen=True)
class PicardConfig:
    """Horizon, iteration count and Duhamel quadrature resolution."""

    horizon: float
    iterations: int = 8
    quadrature_nodes: int = 16

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


def contractive_picard_horizon(initial: State, params: Params) -> float:
    """Formula horizon, halved up to 8 times until a cheap probe shows
    contraction factor < 1."""
    T = default_picard_horizon(params, data_bound(initial))
    for _ in range(9):
        probe = picard_local_solve(
            initial, params, PicardConfig(horizon=T, iterations=3, quadrature_nodes=4)
        )
        if not probe.diverged and all(r < 1.0 for r in probe.ratios):
            return T
        T *= 0.5
    raise FloatingPointError("no contractive horizon found after repeated halving")


def picard_local_solve(initial: State, params: Params, config: PicardConfig) -> PicardResult:
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
    ws = _Scratch(grid)

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
        return _source_hat(p, ws, n_hat, c_hat, n_phys, np.empty_like(n_hat))

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
            grad_sq = sum(comp * comp for comp in _grad_hat(dc_hat, grid))
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
