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

Positivity is never enforced: undershoots are recorded in every trace sample
(``min_n``, ``min_c``) and judged by ``monitors.run_verdicts``, not clipped away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    _band,
    _grad_abs_hat,
    _irfft,
    _is_integer,
    _k_axes_odd_r,
    _k_squared_r,
    _real_view,
    _rfft,
    _with_grad_abs,
    integrate,
)
from .norms import cutoff_psi, w1inf_norm

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

# The automatic step probes every this many steps it has taken.  8 took the
# headline run to 21 evaluations but the undamped sweep row from 81 to 114.
PROBE_EVERY = 10

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
        if not _is_integer(self.d):
            raise ValueError("d must be an integer")
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")


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


class _Carried(NamedTuple):
    """A run's whole state between steps: the time, the density, the
    concentration's half spectrum, the steps taken, the running time
    integrals of int(n) and int(n^2) (in closed form, so the mass ledgers
    close exactly) and the largest relative mass ledger of a step so far.
    Only ``run``, the helpers it steps and samples through (``_steps``,
    ``_probe``, ``_Stepper.advance``, ``_view``) and ``step`` see one, and
    a physical ``c`` is formed from it only where something reads one: a
    ``_view``, ``run``'s final state and ``step``'s result."""

    t: float
    n: np.ndarray
    chat: np.ndarray
    steps: int = 0
    int_n: float = 0.0
    int_n2: float = 0.0
    ledger: float = 0.0

    def is_finite(self) -> bool:
        scalars = all(map(math.isfinite, (self.int_n, self.int_n2, self.ledger)))
        return scalars and np.isfinite(self.n).all() and np.isfinite(self.chat).all()


def _carry(state: State) -> _Carried:
    """``state`` as a record of no steps, by one forward transform of its ``c``."""
    return _Carried(state.t, state.n.values, _rfft(state.c.values))


@dataclass(frozen=True)
class FunctionalSample:
    """One monitor reading: named scalar functionals at a trace time."""

    t: float
    values: dict[str, float]


class RunStatus(Enum):
    """How a run ended: at ``t_end``, on suspected blow-up, or when a step failed numerically."""

    COMPLETED = "completed"
    BLOWUP_SUSPECTED = "blowup_suspected"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class RunConfig:
    """Stepping and sampling knobs for a trajectory run.  The blow-up cap is
    none of them: ``run`` derives it from its first sample.

    ``dt=None`` sizes the step by error control (``_steps``), which probes
    on its own cadence of ``PROBE_EVERY`` steps.  ``monitor_every`` chooses
    only which records are sampled, never a step, so runs that sample
    differently compute the same trajectory byte for byte.
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
        if not _is_integer(self.monitor_every):
            raise ValueError("monitor_every must be an integer")
        if self.monitor_every < 1:
            raise ValueError("monitor_every must be >= 1")


@dataclass(frozen=True)
class RunResult:
    """Trajectory trace plus termination status and the final state."""

    status: RunStatus
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
    """Buffers for one evaluation of the dealiased transport term: ``ik_odd``,
    i*k per axis (broadcast vectors), the half spectrum ``prod`` and the real
    field ``phys``, each spent by the next product.

    ``rhs`` and the Picard route build one of these; the stepper's
    ``_Workspace`` extends it with the buffers of a whole step.
    """

    def __init__(self, grid: Grid, prod=None, phys=None):
        self.grid = grid
        self.ik_odd = tuple(1j * ka for ka in _k_axes_odd_r(grid))
        # Transform and product scratch, fresh unless given.
        self.prod = np.empty(grid.rshape, dtype=np.complex128) if prod is None else prod
        self.phys = np.empty(grid.shape) if phys is None else phys


class _Workspace(_Scratch):
    """The buffers of one split step: three half spectra, two band-compact
    spectra and one real field (about 4.7 real fields at 64^3).

    Besides ``prod`` and ``phys``: ``nhat``, the density's transform and
    then stage a's; ``nc_u``, stage u's ``nhat / tau`` and then the
    concentration's correction; and ``nn_u`` and ``nn_a``, the two stages'
    transport terms in the band-compact layout of ``fields._band``.  Spent
    buffers serve the rest: ``prod`` takes each product that is transformed
    or added at once, ``mult`` (``phys`` read as a half-spectrum real array)
    each stepper multiplier while it is used, and ``log1p`` (``nc_u`` read
    as a real field) the logistic substep's logarithms, taken before
    ``nc_u`` holds stage u's term and after the correction has gone into
    the new concentration.  Stage a's density goes into the new density's
    array, and its concentration into the new concentration's.

    All of it is one allocation, which glibc's malloc maps apart from its
    heap in a process's first ``run`` (freeing it raises the mmap threshold,
    so later runs place it in the heap); there it leaves no hole among the
    run's arrays (six separate buffers left a 1.4 MB hole at 64^3).

    ``run`` allocates one per run and hands it to every ``_Stepper`` it
    builds, so a step allocates only the two arrays of its new record.  The
    buffers are overwritten by every call: a workspace, and a ``_Stepper``
    holding one, must not be used by two threads at once.
    """

    def __init__(self, grid: Grid):
        band = _band(grid)[0]
        n_half, n_band = math.prod(grid.rshape), math.prod(band)
        bands = 3 * n_half + 2 * n_band
        block = np.empty(bands + grid.npoints // 2, dtype=np.complex128)
        spectra = block[: 3 * n_half].reshape((3,) + grid.rshape)
        super().__init__(grid, spectra[0], _real_view(block[bands:], grid.shape))
        self.nhat, self.nc_u = spectra[1:]
        self.nn_u, self.nn_a = block[3 * n_half : bands].reshape((2,) + band)
        self.mult = _real_view(self.phys, grid.rshape)
        self.log1p = _real_view(self.nc_u, grid.shape)


def _transport_hat(params: Params, ws: _Scratch, chat, n_phys, out):
    """Spectral transport term ``-chi div(n grad c)`` into ``out``.

    Operates in the half-spectrum layout with ``ws.prod``/``ws.phys`` as
    scratch; ``out`` must be another buffer than ``chat``.  Each axis adds
    its flux ``i k_a (n d_a c)^``, with the product's transform confined to
    the 2/3 band; the divergence has no zero mode, so the term moves no mass.

    ``out`` is a half spectrum, or holds the band alone in the compact
    layout of ``fields._band``.  The fluxes are added on the band's blocks
    only.  In a half spectrum every dropped mode keeps the ``+0`` of the
    fill, which is what adding the flux's ``i k_a (+0)`` would leave there,
    and then reads ``-chi (+0) = -0 + 0j``.
    """
    grid, prod, phys = ws.grid, ws.prod, ws.phys
    band, blocks = _band(grid)
    at = 1 if out.shape == band else 0  # which index of a block addresses out
    out.fill(0.0)
    for ik in ws.ik_odd:
        _irfft(np.multiply(ik, chat, out=prod), grid, out=phys, work=prod)
        _rfft(np.multiply(n_phys, phys, out=phys), out=prod, band=True)
        ik = np.broadcast_to(ik, prod.shape)
        for block in blocks:
            flux = prod[block[0]]
            out[block[at]] += np.multiply(ik[block[0]], flux, out=flux)
    return np.multiply(-params.chi, out, out=out)


def _source_hat(params: Params, ws: _Scratch, nhat, chat, n_phys, out):
    """Whole spectral density source ``-chi div(n grad c) + lam n - mu n^2``.

    The stepper treats the logistic part exactly and never calls this;
    ``rhs`` and the Picard route do.  ``n^2`` is dealiased like the
    transport product.
    """
    nn = _transport_hat(params, ws, chat, n_phys, out)
    nn += np.multiply(params.lam, nhat, out=ws.prod)
    n2_hat = _rfft(np.multiply(n_phys, n_phys, out=ws.phys), out=ws.prod, band=True)
    nn -= np.multiply(params.mu, n2_hat, out=n2_hat)
    return nn


class _Stepper:
    """Strang-split step ``L(dt/2) T(dt) L(dt/2)`` for one (grid, params, dt).

    ``L`` is the exact logistic flow, ``T`` the ETD-RK2 step of the heat
    flows and the transport term.  The stepper holds its six ETD
    multipliers per distinct ``|k|^2`` (``exp_*``, ``p1_*``, ``p2_*`` for n
    and c; 4,541 values each at 64^3), the index ``where`` of each
    half-spectrum entry's value, the logistic constants and its workspace.
    ``advance`` gathers each multiplier into ``ws.mult`` where it is used.
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
        # Each multiplier is evaluated once per distinct |k|^2.
        ksq, self.where = _k_squared_levels(grid)
        z_n = -dt * ksq
        z_c = dt * (-1.0 - ksq) / params.tau
        self.exp_n = np.exp(z_n)
        self.exp_c = np.exp(z_c)
        self.p1_n = dt * _phi1(z_n)
        self.p1_c = dt * _phi1(z_c)
        self.p2_n = dt * _phi2(z_n)
        self.p2_c = dt * _phi2(z_c)
        # Logistic substep of length s = dt/2: e^{lam s} and q = expm1(lam s)/lam.
        s = 0.5 * dt
        self.growth = math.exp(params.lam * s)
        self.q = math.expm1(params.lam * s) / params.lam if params.lam > 0 else s
        self.ws = workspace if workspace is not None else _Workspace(grid)

    def _gather(self, levels: np.ndarray) -> np.ndarray:
        """The multiplier with per-``|k|^2`` values ``levels``, in ``ws.mult``."""
        return np.take(levels, self.where, out=self.ws.mult, mode="clip")

    def _logistic(
        self, n: np.ndarray, out: np.ndarray
    ) -> tuple[float, float, float, float, float]:
        """Exact flow of ``n' = lam n - mu n^2`` over dt/2, from ``n`` into ``out``.

        ``n(s) = n e^{lam s} / (1 + mu q n)``; ``out`` may be ``n``.  Returns
        the grid sums of ``int n ds``, ``int n^2 ds`` and ``mu int n^2 ds``
        over the substep, from ``int n ds = log1p(mu q n) / mu`` and
        ``mu int n^2 ds = lam int n ds - (n(s) - n)``, or their limits
        ``q n`` and ``q (1 + lam q / 2) n^2`` at ``mu = 0``, then the grid
        sums of ``n`` and ``n(s)``.  The mass ledger reads the third sum, so
        a huge ``mu`` costs it no precision.  A denominator
        ``1 + mu q n <= 0``, which only a negative ``n`` can give, has no flow
        to follow and raises FloatingPointError.
        """
        p, ws, q = self.params, self.ws, self.q
        n_sum = float(np.sum(n))
        if p.mu == 0.0:
            n2_sum = float(np.sum(np.multiply(n, n, out=ws.phys)))
            np.multiply(n, self.growth, out=out)
            int_n2 = q * (1.0 + 0.5 * p.lam * q) * n2_sum
            return q * n_sum, int_n2, 0.0, n_sum, float(np.sum(out))
        x = np.multiply(n, p.mu * q, out=ws.phys)
        if not float(np.min(x)) > -1.0:
            raise FloatingPointError(
                "logistic substep: 1 + mu q n <= 0 at a negative density"
            )
        int_n = float(np.sum(np.log1p(x, out=ws.log1p))) / p.mu
        x += 1.0
        np.divide(n, x, out=out)
        out *= self.growth
        out_sum = float(np.sum(out))
        damped = p.lam * int_n - (out_sum - n_sum)
        return int_n, damped / p.mu, damped, n_sum, out_sum

    def advance(self, now: _Carried, chat_out: np.ndarray | None = None) -> _Carried:
        """One step from the record ``now``; returns the next record.

        It reads ``now.chat`` as the concentration's spectrum and returns the
        new one, with no transform of ``c`` at either end.  The new record
        counts one more step, adds the step's contributions to the running
        time integrals of int(n) and int(n^2), in the closed forms of the
        logistic substeps (the only ones to change the mass), and keeps the
        larger of ``now.ledger`` and the step's mass imbalance relative to
        the larger L^1 mass before and after it.
        Everything but the new record's two arrays lives in the workspace.

        The new record's ``chat`` array holds stage a's ``a_c_hat`` and then
        the new spectrum; ``chat_out``, when given, is that array instead of
        a fresh one.  It may be ``now.chat`` itself, which stage u's
        transport term has read by then, so only a caller that owns it and
        hands ``now`` to no one else may pass it.  The concentration's
        correction ``p2_c (a_n_hat / tau - nhat / tau)`` is linear in the
        densities' spectra, so it is formed over ``nc_u`` right after stage
        u and added once stage a's transport term has read ``a_c_hat``.

        Both transport terms are band-compact, so only the band's blocks of
        ``a_n_hat`` take them.
        """
        ws, grid, p = self.ws, self.grid, self.params
        blocks = _band(grid)[1]
        new_n = np.empty(grid.shape)
        int_n_a, int_n2_a, damped_a, mass_before, _ = self._logistic(now.n, new_n)

        # T(dt) from (new_n, now.chat): the density's transform, then stage u.
        nhat = _rfft(new_n, ws.nhat)
        nn_u = _transport_hat(p, ws, now.chat, new_n, ws.nn_u)
        nc_u = np.divide(nhat, p.tau, out=ws.nc_u)
        a_n_hat = np.multiply(self._gather(self.exp_n), nhat, out=nhat)
        p1_n = self._gather(self.p1_n)
        for full, band in blocks:
            a_n_hat[full] += np.multiply(p1_n[full], nn_u[band], out=ws.prod[full])
        if chat_out is None:
            chat_out = np.empty(grid.rshape, dtype=np.complex128)
        a_c_hat = np.multiply(self._gather(self.exp_c), now.chat, out=chat_out)
        a_c_hat += np.multiply(self._gather(self.p1_c), nc_u, out=ws.prod)

        # The c correction p2_c * (a_n_hat / tau - nc_u), over nc_u.
        c_fix = np.subtract(np.divide(a_n_hat, p.tau, out=ws.prod), nc_u, out=nc_u)
        np.multiply(self._gather(self.p2_c), c_fix, out=c_fix)

        # Stage a: new_n is spent (nhat holds it) until the final transform.
        a_n = _irfft(a_n_hat, grid, out=new_n, work=ws.prod)
        nn_a = _transport_hat(p, ws, a_c_hat, a_n, ws.nn_a)
        new_chat = np.add(a_c_hat, c_fix, out=a_c_hat)
        # a_n_hat + p2_n * (nn_a - nn_u), transformed into the new density.
        nn_a -= nn_u
        p2_n = self._gather(self.p2_n)
        for full, band in blocks:
            a_n_hat[full] += np.multiply(p2_n[full], nn_a[band], out=nn_a[band])
        _irfft(a_n_hat, grid, out=new_n, work=a_n_hat)
        int_n_b, int_n2_b, damped_b, _, mass_after = self._logistic(new_n, new_n)

        hd = grid.spacing**grid.d
        d_int_n = hd * (int_n_a + int_n_b)
        mass_delta = hd * (mass_after - mass_before)
        ledger = abs(mass_delta - (p.lam * d_int_n - hd * (damped_a + damped_b)))
        l1 = hd * max(np.sum(np.abs(now.n, out=ws.phys)), np.sum(np.abs(new_n, out=ws.phys)))
        ledger = max(float(ledger / max(l1, 1e-300)), now.ledger)  # a NaN step's wins
        ints = now.int_n + d_int_n, now.int_n2 + hd * (int_n2_a + int_n2_b)
        return _Carried(now.t + self.dt, new_n, new_chat, now.steps + 1, *ints, ledger)


def _tendency_hat(
    state: State, params: Params, nhat: np.ndarray, chat: np.ndarray, ws: _Scratch
) -> tuple[np.ndarray, np.ndarray]:
    """Half spectra of the tendencies (dn/dt, dc/dt), given those of n and c.

    Products are dealiased; ``nhat`` and ``chat`` are only read.  The
    caller lends its ``_Scratch`` ``ws``, whose ``prod`` and ``phys`` are
    spent on return and free for the caller's own use.  A non-finite
    tendency raises ``FloatingPointError``.
    """
    dn_hat = _source_hat(params, ws, nhat, chat, state.n.values, np.empty_like(nhat))
    ksq = _k_squared_r(state.grid)
    dn_hat -= np.multiply(ksq, nhat, out=ws.prod)
    # (-1 - |k|^2) chat / tau + nhat / tau, one operation at a time.
    dc_hat = np.multiply(np.subtract(-1.0, ksq, out=ksq), chat, out=np.empty_like(chat))
    dc_hat /= params.tau
    dc_hat += np.divide(nhat, params.tau, out=ws.prod)
    if not (np.isfinite(dn_hat).all() and np.isfinite(dc_hat).all()):
        raise FloatingPointError("non-finite tendency encountered")
    return dn_hat, dc_hat


def rhs(state: State, params: Params) -> tuple[ScalarField, ScalarField]:
    """Instantaneous tendencies (dn/dt, dc/dt) with dealiased products."""
    grid = state.grid
    ws = _Scratch(grid)
    dn_hat, dc_hat = _tendency_hat(state, params, _rfft(state.n.values), _rfft(state.c.values), ws)
    dn = _irfft(dn_hat, grid, out=ws.phys, work=dn_hat)  # the spent scratch holds dn/dt
    return ScalarField(grid, dn), ScalarField(grid, _irfft(dc_hat, grid, work=dc_hat))


def step(state: State, params: Params, dt: float) -> State:
    """One deterministic split step of size dt."""
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    if not dt > 0:
        raise ValueError("dt must be positive")
    grid = state.grid
    new = _Stepper(grid, params, dt).advance(_carry(state))
    c = _irfft(new.chat, grid, work=new.chat)
    return State(new.t, ScalarField(grid, new.n), ScalarField(grid, c))


def suggest_dt(state: State, params: Params) -> float:
    """Transport cap on the automatic step, ``0.25 min(1, 1/(1 + chi ||grad c||_inf))``.

    The exact logistic substep sets no limit; the automatic step shrinks
    below this cap wherever its step-doubling probe asks.  It reads the
    cached ``state.c.grad_abs``, forming it if need be.
    """
    return _transport_cap(state.c.grad_abs, params)


def _transport_cap(grad_abs: ScalarField, params: Params) -> float:
    """``suggest_dt``'s formula, from the field ``|grad c|``."""
    rate = 1.0 + params.chi * grad_abs.max_abs()
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


def _probe(now: _Carried, params: Params, h: float, eps: float, workspace: _Workspace):
    """Step-doubling probe of the automatic step ``h`` from the record ``now``.

    Compares one step of ``2h`` with two of ``h`` by ``_doubling_error`` and
    shrinks ``h`` while the gap exceeds ``PROBE_TOL``.  A trial whose
    logistic substep has no flow to follow counts as an infinite gap: the
    step was too large, not the run beyond repair.  A rejection that halves
    ``h`` exactly (every finite gap up to 5.8 ``PROBE_TOL``) keeps the
    trial's first step of ``h`` as the next trial's step of ``2h``, which it
    is bit for bit: r such halvings cost 3 + 2r step evaluations and r + 2
    stepper builds.  Returns the stepper of the accepted ``h``, the record
    its two steps reach, and the gap.  Once ``h`` falls to ``eps`` it
    cannot advance the run, which raises FloatingPointError
    instead of looping on.  At most one stepper, the coarse density and two
    records besides ``now`` are alive at a time, and those two records
    share one spectrum array: the second step of ``h`` writes its ``chat``
    over the first's.  Only the probe holds that array, and of the first
    step's record it keeps ``mid.n`` alone.
    """
    grid = workspace.grid
    coarse = None  # the density one step of 2h reaches, once a trial has it
    while h > eps:
        stepper = mid = end = None  # the last trial's, before this one allocates
        try:
            if coarse is None:
                coarse = _Stepper(grid, params, 2.0 * h, workspace).advance(now).n
            stepper = _Stepper(grid, params, h, workspace)
            mid = stepper.advance(now)
            end = stepper.advance(mid, mid.chat)
            err = _doubling_error(coarse, end.n, workspace.phys)
        except FloatingPointError:
            err = math.inf
        if err <= PROBE_TOL:
            return stepper, end, err
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


def _grad_abs_of(now: _Carried, ws: _Workspace) -> ScalarField:
    """``|grad c|`` of the record ``now`` in the idle buffers of ``ws``."""
    return ScalarField(ws.grid, _grad_abs_hat(now.chat, ws.grid, ws.prod, ws.phys))


def _view(now: _Carried, ws: _Workspace, c=None, grad_abs=None) -> State:
    """A State over the record ``now``, with ``c`` (by default ``now.chat``'s
    inverse transform) and ``c.grad_abs`` (by default ``_grad_abs_of(now)``).
    ``run`` samples a record through one of these; its ``c`` and ``|grad c|``
    go with it instead of staying with the record the next probe steps from.
    """
    grid = ws.grid
    if c is None:
        c = _irfft(now.chat, grid, work=ws.prod)
    grad_abs = _grad_abs_of(now, ws) if grad_abs is None else grad_abs
    return State(now.t, ScalarField(grid, now.n), _with_grad_abs(ScalarField(grid, c), grad_abs))


def _steps(now: _Carried, grad_abs, params: Params, dt, t_end: float, eps: float, ws: _Workspace):
    """A run's records from the record ``now`` (whose ``|grad c|`` is
    ``grad_abs``) to ``t_end``: yields each next record (a probe's, two
    steps on) and its ``|grad c|`` where a cap was read from it (else None),
    for a sample of that record to reuse.  A record that is not finite
    raises FloatingPointError before anything is read from it.

    A fixed ``dt`` steps at ``dt``.  The automatic step (``dt=None``) probes
    first and again once ``PROBE_EVERY`` steps have passed since its last
    probe that was not a regrow, from ``min(proposal, cap, half the time
    left)``, the cap being ``_transport_cap``; right after a probe it probes
    again at once where that bound is at least ``2h`` (regrow, the costly
    cap last), and between probes it steps at ``h``.  It reads no sample.
    Its state besides the record is ``h``, the proposal, the step count at
    its last probe that was not a regrow, and the regrow flag.
    """
    if dt is not None and not dt > eps:
        raise FloatingPointError("dt underflowed")
    h, h_next, stepper, probed, regrow = dt, math.inf, None, now.steps - PROBE_EVERY, False
    while now.t < t_end - eps:
        probing = dt is None and (regrow or now.steps - probed >= PROBE_EVERY)
        if probing:
            h = min(h_next, _transport_cap(grad_abs, params), 0.5 * (t_end - now.t))
            grad_abs = stepper = None  # neither is held through the probe, which builds its own
            probed = probed if regrow else now.steps
            stepper, now, err = _probe(now, params, h, eps, ws)
            h, h_next = stepper.dt, stepper.dt * _step_factor(err, 5.0)
        else:
            grad_abs, dt_step = None, min(h, t_end - now.t)
            if stepper is None or stepper.dt != dt_step:
                stepper = None  # the last step's goes before the build
                stepper = _Stepper(ws.grid, params, dt_step, ws)
            now = stepper.advance(now)
        if not now.is_finite():
            raise FloatingPointError("non-finite step result")
        regrow = probing and min(h_next, 0.5 * (t_end - now.t)) >= 2.0 * h
        if (regrow or dt is None and now.steps - probed >= PROBE_EVERY) and now.t < t_end - eps:
            grad_abs = _grad_abs_of(now, ws)
            regrow = regrow and _transport_cap(grad_abs, params) >= 2.0 * h
        yield now, grad_abs


def run(
    initial: State,
    params: Params,
    config: RunConfig,
    monitors: Callable[[State], Mapping[str, float]] | None = None,
) -> RunResult:
    """Advance until t_end, blow-up suspicion, or numerical failure.

    ``_steps`` makes the records, and ``run`` samples them: at t=0, at the
    end, and at each record ``monitor_every`` or more steps past the last
    sampled one (a probe's record is two steps on).  Blow-up is suspected once
    ``continuation_gauge`` exceeds ``BLOWUP_FACTOR`` times its value at the
    first sample (at least ``BLOWUP_FACTOR``); a first sample with a
    non-finite gauge raises ``FloatingPointError``.  A step to a non-finite
    record, a logistic substep with no flow to follow (outside the probe's
    trials, which reject it), or a step too small to advance the clock ends
    the run as a numerical failure at the last finite record, which is
    ``final``.  ``params.d`` must be the grid's dimension, which the monitors
    read from it.

    The run's state is one ``_Carried`` record, whose concentration is a
    half spectrum: ``initial.c`` is transformed once, and a physical ``c``
    is formed by one inverse transform for each sample (``_view``) and for
    the final state, which shares the last sample's when the run ends
    there.  Each sample reads the record's ``int_n`` and ``int_n2``, and the
    result the final record's ledger.  The monitors are handed a fresh
    ``State`` of each sampled record: what they cache on its fields
    (``ScalarField.grad_abs``) is dropped after the sample.  No array that
    ``initial``, a monitor's state or the result holds is ever written.
    """
    grid = initial.grid
    if params.d != grid.d:
        raise ValueError(f"params.d = {params.d} differs from the grid dimension {grid.d}")

    t_end = initial.t + config.t_end
    eps = 1e-12 * max(1.0, abs(t_end))
    trace: list[FunctionalSample] = []

    def sample(view: State, now: _Carried, values: dict[str, float] | None = None) -> None:
        """Append the trace entry of ``view``, a ``_view`` of the record
        ``now``, from its ``_builtin_sample`` ``values`` (taken here by
        default) and the record's running integrals."""
        if values is None:
            values = _builtin_sample(view)
        values["int_l1_n"] = now.int_n
        values["int_l2sq_n"] = now.int_n2
        if monitors is not None:
            values.update({k: float(v) for k, v in monitors(view).items()})
        trace.append(FunctionalSample(t=view.t, values=values))

    # The |k|^2 levels first: their sort's temporaries are freed before the
    # run's arrays are placed, and leave no gaps among them.
    _k_squared_levels(grid)
    # One workspace for the whole run; each rebuilt stepper takes it over.
    workspace = _Workspace(grid)
    not_finite = "the initial continuation gauge is not finite"
    try:
        # Data that overflow the sample raise here, not as numpy warnings.
        with np.errstate(over="raise", invalid="raise"):
            now = _carry(initial)
            view = _view(now, workspace, initial.c.values)
            values = _builtin_sample(view)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{not_finite} ({exc})") from None
    gauge = continuation_gauge(values)
    if not math.isfinite(gauge):  # before the monitors see the state
        raise FloatingPointError(not_finite)
    cap = BLOWUP_FACTOR * max(gauge, 1.0)
    sample(view, now, values)
    records = _steps(now, view.c.grad_abs, params, config.dt, t_end, eps, workspace)
    status, sampled = RunStatus.COMPLETED, now.steps
    while now.t < t_end - eps:
        view = grad_abs = None  # the last sample's c and |grad c| go before the steps
        try:
            now, grad_abs = next(records)
        except FloatingPointError:
            status = RunStatus.NUMERICAL_FAILURE
            break
        if now.steps - sampled >= config.monitor_every or not now.t < t_end - eps:
            view, sampled = _view(now, workspace, grad_abs=grad_abs), now.steps
            sample(view, now)
            if continuation_gauge(trace[-1].values) > cap:
                status = RunStatus.BLOWUP_SUSPECTED
                break

    # The final c is the last sample's when the run stopped at that sample.
    c = view.c.values if view is not None else _irfft(now.chat, grid, work=workspace.prod)
    return RunResult(
        status=status,
        trace=trace,
        final=State(now.t, ScalarField(grid, now.n), ScalarField(grid, c)),
        mass_ledger_rel_max=now.ledger,
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
        if not math.isfinite(self.horizon):
            raise ValueError("horizon must be finite")
        for name, value in (
            ("iterations", self.iterations),
            ("quadrature_nodes", self.quadrature_nodes),
        ):
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class PicardResult:
    """Fixed-point iteration record: final iterate and contraction diagnostics."""

    final: State
    diff_norms: list[float]
    ratios: list[float]
    diverged: bool


def picard_local_solve(initial: State, params: Params, config: PicardConfig) -> PicardResult:
    """Iterate the mild-solution map on [0, T] and report contraction behaviour.

    Iterates live on the nodes i dt of Q = quadrature_nodes sub-intervals,
    each as one stacked half spectrum (n^, c^); the Duhamel integrals use the
    composite midpoint rule with the integrand averaged from the adjacent
    nodes.  One stacked table holds the semigroup of both fields at the half
    nodes m dt/2, m = 0..2Q: node i is m = 2i and midpoint q is m = 2q + 1.
    The free flow S(t_i) u0 seeds the iteration and starts every iterate.
    Divergence (growing successive differences, or a non-finite one) is
    reported, never silently accepted.
    """
    grid = initial.grid
    p = params
    Q = config.quadrature_nodes
    T = config.horizon
    dt = T / Q
    ksq = _k_squared_r(grid)
    ws = _Scratch(grid)

    # m (dt/2) is the real number i dt or (q + 1/2) dt, and so rounds alike.
    half_dt = 0.5 * dt
    prop = [
        np.stack((np.exp(-(m * half_dt) * ksq), np.exp(-(m * half_dt) / p.tau * (1.0 + ksq))))
        for m in range(2 * Q + 1)
    ]
    u0 = np.stack((_rfft(initial.n.values), _rfft(initial.c.values)))
    free = [prop[2 * i] * u0 for i in range(Q + 1)]

    def apply_map(us):
        mid_src = []
        for q in range(Q):
            n_mid, c_mid = 0.5 * (us[q] + us[q + 1])
            src = np.empty_like(u0)
            _source_hat(p, ws, n_mid, c_mid, _irfft(n_mid, grid), src[0])
            np.divide(n_mid, p.tau, out=src[1])
            mid_src.append(src)
        new_us = [u0]
        for i in range(1, Q + 1):
            acc = free[i]
            for q in range(i):
                acc = acc + dt * prop[2 * (i - q) - 1] * mid_src[q]
            new_us.append(acc)
        return new_us

    def sup(values: np.ndarray) -> float:
        return ScalarField(grid, values).max_abs()

    def diff_norm(us_a, us_b) -> float:
        worst = 0.0
        for u_a, u_b in zip(us_a, us_b):
            dn_hat, dc_hat = u_a - u_b
            dn, dc = _irfft(dn_hat, grid), _irfft(dc_hat, grid)
            # np.maximum keeps a NaN gap, which max() would drop.
            worst = np.maximum(worst, sup(dn) + sup(dc) + sup(_grad_abs_hat(dc_hat, grid)))
        return float(worst)

    us = free
    diff_norms: list[float] = []
    for _ in range(config.iterations):
        new_us = apply_map(us)
        diff_norms.append(diff_norm(new_us, us))
        us = new_us

    ratios = [
        diff_norms[i] / diff_norms[i - 1]
        for i in range(1, len(diff_norms))
        if diff_norms[i - 1] > 0
    ]
    diverged = not all(map(math.isfinite, diff_norms)) or (
        len(diff_norms) >= 2 and diff_norms[-1] > diff_norms[0]
    )
    n_hat, c_hat = us[Q]
    final = State(
        t=initial.t + T,
        n=ScalarField(grid, _irfft(n_hat, grid)),
        c=ScalarField(grid, _irfft(c_hat, grid)),
    )
    return PicardResult(final=final, diff_norms=diff_norms, ratios=ratios, diverged=diverged)
