"""Periodic grids, scalar/vector fields and spectral calculus.

The computational domain is a periodic box [-L/2, L/2)^d standing in for
the whole space.  All derivatives are Fourier multipliers, quadrature is
the periodic midpoint rule (spectrally accurate on the torus), and
nonlinear products are formed in physical space with 2/3-rule dealiasing.

Real fields travel through the half-spectrum (rfft) layout.  Its two
transforms are the only code that runs work on a second thread.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "make_grid",
    "gradient",
    "laplacian",
    "divergence",
    "hessian_sq",
    "heat_propagate",
    "integrate",
    "dealias",
    "magnitude",
]


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer setting: any integral type (numpy's too) but bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^d with N points per axis."""

    d: int
    n_axis: int
    box_len: float

    @property
    def spacing(self) -> float:
        return self.box_len / self.n_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_axis,) * self.d

    @property
    def rshape(self) -> tuple[int, ...]:
        """Shape of the half-spectrum layout (last axis truncated)."""
        return (self.n_axis,) * (self.d - 1) + (self.n_axis // 2 + 1,)

    @property
    def npoints(self) -> int:
        return self.n_axis**self.d

    def axis_coords(self) -> np.ndarray:
        """Sample coordinates along one axis, origin at the box center."""
        return -0.5 * self.box_len + self.spacing * np.arange(self.n_axis)

    def mesh(self) -> tuple[np.ndarray, ...]:
        x = self.axis_coords()
        return tuple(np.meshgrid(*([x] * self.d), indexing="ij"))

    def check_center(self, center: tuple[float, ...]) -> tuple[float, ...]:
        """``center`` as a tuple; raises ValueError unless it is ``d`` finite coordinates."""
        center = tuple(center)
        if len(center) != self.d or not all(math.isfinite(x) for x in center):
            raise ValueError(f"center must be {self.d} finite coordinates, got {center}")
        return center

    def wrapped_delta(self, center: tuple[float, ...]) -> tuple[np.ndarray, ...]:
        """Per-axis signed displacement from ``center``, wrapped into [-L/2, L/2).

        Each is laid out on an open mesh (length N along its own axis, 1
        along the others), so together they broadcast to ``shape``.
        """
        L, center = self.box_len, self.check_center(center)
        axes = np.ix_(*[self.axis_coords()] * self.d)
        return tuple((axis - c + 0.5 * L) % L - 0.5 * L for axis, c in zip(axes, center))

    def radius(self, center: tuple[float, ...] | None = None) -> np.ndarray:
        """Wrapped Euclidean distance from ``center`` (default: the origin)."""
        if center is None:
            center = (0.0,) * self.d
        deltas = self.wrapped_delta(center)
        return np.sqrt(sum(dx * dx for dx in deltas))


def make_grid(d: int, n_axis: int, box_len: float) -> Grid:
    """Build a periodic grid; rejects non power-of-two sizes and d outside 1..3."""
    for name, value in (("d", d), ("n_axis", n_axis)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer")
    if d not in (1, 2, 3):
        raise ValueError(f"d must be 1, 2 or 3, got {d}")
    if not (_is_power_of_two(n_axis) and n_axis >= 8):
        raise ValueError(f"n_axis must be a power of two >= 8, got {n_axis}")
    if not box_len > 0:
        raise ValueError(f"box_len must be positive, got {box_len}")
    if not math.isfinite(box_len):
        raise ValueError(f"box_len must be finite, got {box_len}")
    return Grid(d=d, n_axis=int(n_axis), box_len=float(box_len))


@dataclass(frozen=True)
class ScalarField:
    """Real samples on a grid, row-major.  Values are frozen after construction.

    The stored array is read-only, but the array passed in may stay writable
    and share its memory.  Only its owner may write through that alias, and
    only while it hands the field to no one, since a write leaves the cached
    ``grad_abs`` stale.  A new field over another's ``values`` shares the
    array but not the cache, which is how ``solver.run``'s final state drops
    the ``grad_abs`` of the last sample (``_with_grad_abs``).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64).reshape(self.grid.shape)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())

    def max_abs(self) -> float:
        """``max |f|``, from the two extremes: no temporary of the field's size."""
        v = self.values
        return float(abs(max(v.max(), -v.min())))

    @cached_property
    def grad_abs(self) -> "ScalarField":
        """|grad f|, formed once per field and shared by every consumer."""
        return ScalarField(self.grid, _grad_abs_hat(_rfft(self.values), self.grid))

    def __add__(self, other):
        return ScalarField(self.grid, self.values + _vals(other))

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - _vals(other))

    def __mul__(self, other):
        return ScalarField(self.grid, self.values * _vals(other))

    __rmul__ = __mul__

    def __pow__(self, p):
        return ScalarField(self.grid, self.values**p)


def _vals(x):
    return x.values if isinstance(x, ScalarField) else x


@dataclass(frozen=True)
class VectorField:
    """d scalar components on a common grid (e.g. a gradient)."""

    grid: Grid
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        if len(self.components) != self.grid.d:
            raise ValueError("component count must equal grid dimension")
        for comp in self.components:
            if comp.grid != self.grid:
                raise ValueError("all components must share the grid")


def magnitude(v: VectorField) -> ScalarField:
    """Pointwise Euclidean norm of a vector field."""
    sq = sum(c.values**2 for c in v.components)
    return ScalarField(v.grid, np.sqrt(sq))


# ---------------------------------------------------------------------------
# Half-spectrum plumbing shared by every operator


# Real fields of at least this many points split each transform pass across
# two threads.  Median ms per rfft / irfft, one thread against two, on a
# shared 2-core Xeon (BENCH_14.json): 128^2 0.067/0.078 against 0.117/0.128;
# 32^3 0.20/0.24 against 0.26/0.29; 256^2 0.26/0.35 against 0.31/0.40; 512^2
# 1.20/1.86 against 0.79/0.94; 64^3 1.52/2.28 against 0.92/1.22; 128^3
# 17.5/26.5 against 8.5/13.7.
SPLIT_MIN_POINTS = 2**18
_helper_thread: tuple[int, ThreadPoolExecutor] | None = None  # (owning pid, executor)


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper() -> ThreadPoolExecutor:
    """The process's one helper thread, made on first use.

    A forked child inherits the executor but not its thread, and work
    submitted there would never run, so each process makes its own.  Two
    threads that race at the first use may each make one; either serves.
    """
    global _helper_thread
    if _helper_thread is None or _helper_thread[0] != os.getpid():
        _helper_thread = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="kslab-fft"))
    return _helper_thread[1]


def _halves(shape: tuple[int, ...], run: Callable[[slice], object], n: int) -> None:
    """``run(s)`` with ``s`` the whole of an axis of length ``n``, or, when a
    field of ``shape`` splits its transforms, the lower half here while the
    helper thread runs the upper one in a copy of the caller's context (and
    so its numpy error state).  The halves must write disjoint memory."""
    if math.prod(shape) < SPLIT_MIN_POINTS or _cpus() < 2:
        run(slice(None))
        return
    pending = _helper().submit(contextvars.copy_context().run, run, slice(n // 2, None))
    try:
        run(slice(0, n // 2))
    finally:
        pending.exception()  # wait: the upper half writes the caller's arrays until it ends
    pending.result()


def _rfft(values: np.ndarray, out: np.ndarray | None = None, band: bool = False) -> np.ndarray:
    """Half-spectrum transform into ``out`` (default: one fresh array).

    The passes, their order and so the bytes are those of ``np.fft.rfftn``:
    ``rfft`` over the last axis into ``out``, then ``fft`` in place there
    over axes d-2 ... 0.  Each pass runs by ``_halves``: all but the last on
    halves of axis 0, the last, over axis 0, on halves of axis 1.

    With ``band`` the result is the transform with the 2/3 rule applied,
    +0.0 at every mode it drops, and only the kept band is transformed:
    after the pass over an axis its dropped modes are zeroed, and the later
    passes skip the lines through them.  Each kept mode comes from the same
    passes on the same lines as without ``band``, and so has its bytes.
    """
    if out is None:
        out = np.empty(values.shape[:-1] + (values.shape[-1] // 2 + 1,), np.complex128)
    n = values.shape[-1]
    k = n // 3  # the 2/3 rule keeps |mode index| <= n/3 on every axis
    if values.ndim == 1:
        np.fft.rfft(values, out=out)
        if band:
            out[k + 1 :] = 0.0
        return out
    # The last axis's modes that the later passes transform, a full axis's
    # dropped modes, and the axis-1 modes that the pass over axis 0 takes.
    last = slice(0, k + 1) if band else slice(None)
    dropped = slice(k + 1, n - k)
    if not band:
        cols = (slice(0, out.shape[1]),)
    elif values.ndim == 2:
        cols = (last,)
    else:
        cols = (slice(0, k + 1), slice(n - k, n))

    def leading(s):  # the passes before the one over axis 0, on rows s of axis 0
        np.fft.rfft(values[s], axis=-1, out=out[s])
        if band:
            out[s, ..., k + 1 :] = 0.0
        for axis in range(values.ndim - 2, 0, -1):
            lines = out[s][..., last]
            np.fft.fft(lines, axis=axis, out=lines)
            if band:
                lines[(slice(None),) * axis + (dropped,)] = 0.0

    def first(s):  # the pass over axis 0, on the lines of ``cols`` in columns s of axis 1
        lo, hi, _ = s.indices(cols[-1].stop)
        for col in cols:
            start, stop = max(lo, col.start), min(hi, col.stop)
            if start < stop:
                lines = out[(slice(None), slice(start, stop)) + (last,) * (values.ndim - 2)]
                np.fft.fft(lines, axis=0, out=lines)
                if band:
                    lines[dropped] = 0.0

    _halves(values.shape, leading, out.shape[0])
    _halves(values.shape, first, cols[-1].stop)
    return out


def _irfft(
    coeffs: np.ndarray,
    grid: Grid,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Inverse of ``_rfft`` into ``out`` (default: a fresh array).

    ``ifft`` runs over the leading axes into the complex half-spectrum
    buffer ``work`` (default: one fresh array) and in place there, then
    ``irfft`` writes the last axis into ``out``.  The passes and their order
    are those of ``np.fft.irfftn``, and so are the bytes; with both buffers
    given nothing is allocated.  ``work`` may be ``coeffs`` itself when the
    coefficients are spent.  The first pass, over axis 0, runs on halves of
    axis 1, the rest on halves of axis 0.
    """
    if grid.d == 1:
        return np.fft.irfft(coeffs, grid.n_axis, out=out)
    if out is None:
        out = np.empty(grid.shape)
    if work is None:
        work = np.empty(grid.rshape, np.complex128)
    _halves(grid.shape, lambda s: np.fft.ifft(coeffs[:, s], axis=0, out=work[:, s]), work.shape[1])

    def trailing(s):  # the passes after the one over axis 0, on rows s of axis 0
        for axis in range(1, grid.d - 1):
            np.fft.ifft(work[s], axis=axis, out=work[s])
        np.fft.irfft(work[s], grid.n_axis, axis=-1, out=out[s])

    _halves(grid.shape, trailing, grid.n_axis)
    return out


@lru_cache(maxsize=64)
def _k_axes_r(grid: Grid) -> tuple[np.ndarray, ...]:
    """Wavenumber arrays broadcastable over the half-spectrum, one per axis."""
    n, h = grid.n_axis, grid.spacing
    full = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    half = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
    out = []
    for ax in range(grid.d):
        k = half if ax == grid.d - 1 else full
        shape = [1] * grid.d
        shape[ax] = len(k)
        out.append(k.reshape(shape))
    return tuple(out)


@lru_cache(maxsize=64)
def _k_axes_odd_r(grid: Grid) -> tuple[np.ndarray, ...]:
    """Wavenumbers for odd derivatives: the sign-ambiguous Nyquist mode is zeroed."""
    n = grid.n_axis
    out = []
    for ax, k in enumerate(_k_axes_r(grid)):
        k = k.copy()
        nyq = n // 2  # index of the Nyquist entry in both layouts
        sl = [slice(None)] * grid.d
        sl[ax] = nyq
        k[tuple(sl)] = 0.0
        out.append(k)
    return tuple(out)


def _k_squared_r(grid: Grid) -> np.ndarray:
    """|k|^2 on the half spectrum; not cached, so no full array outlives its caller."""
    ksq = np.zeros(grid.rshape)
    for ka in _k_axes_r(grid):
        ksq = ksq + ka**2
    return ksq


@lru_cache(maxsize=64)
def _band(grid: Grid) -> tuple[tuple[int, ...], tuple]:
    """The modes the 2/3 rule keeps as blocks of the half spectrum.  With
    ``k = N // 3`` a full axis keeps ``0..k`` and ``N-k..N-1`` and the last
    axis ``0..k``.

    Returns the band-compact shape, which holds those modes alone in that
    order (``(2k+1)^(d-1) (k+1)`` entries), and the pairs (half-spectrum
    index, compact index) of the band's ``2^(d-1)`` blocks.
    """
    n, k = grid.n_axis, grid.n_axis // 3
    full = ((slice(0, k + 1), slice(0, k + 1)), (slice(n - k, n), slice(k + 1, 2 * k + 1)))
    kept = [full] * (grid.d - 1) + [((slice(0, k + 1), slice(0, k + 1)),)]
    shape = (2 * k + 1,) * (grid.d - 1) + (k + 1,)
    blocks = tuple(
        (tuple(r[0] for r in rs), tuple(r[1] for r in rs)) for rs in itertools.product(*kept)
    )
    return shape, blocks


def _real_view(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of ``shape`` over the start of ``buf``'s memory, for
    a value that lives only while ``buf`` is spent."""
    return buf.view(np.float64).reshape(-1)[: math.prod(shape)].reshape(shape)


def _grad_abs_hat(fhat, grid, prod=None, comp=None) -> np.ndarray:
    """|grad f| of the field with half spectrum ``fhat``, in a fresh array.

    The bytes are those of ``magnitude(gradient(f))``, but each squared
    component is added as it is formed, so one component is alive at a time.
    ``prod`` (a half spectrum) and ``comp`` (a real field) are scratch,
    fresh by default.
    """
    prod = np.empty_like(fhat) if prod is None else prod
    comp = np.empty(grid.shape) if comp is None else comp
    total = np.zeros(grid.shape)
    for ka in _k_axes_odd_r(grid):
        _irfft(np.multiply(1j * ka, fhat, out=prod), grid, out=comp, work=prod)
        total += np.square(comp, out=comp)
    return np.sqrt(total, out=total)


def _with_grad_abs(f: ScalarField, grad_abs: ScalarField) -> ScalarField:
    """``f``, with ``grad_abs`` put where ``cached_property`` keeps it."""
    vars(f)["grad_abs"] = grad_abs
    return f


def _apply_multiplier(f: ScalarField, mult: np.ndarray) -> ScalarField:
    fhat = _rfft(f.values)
    return ScalarField(f.grid, _irfft(np.multiply(fhat, mult, out=fhat), f.grid, work=fhat))


def _grad_hat(fhat: np.ndarray, grid: Grid) -> tuple[np.ndarray, ...]:
    """Gradient components of the field with half spectrum ``fhat``."""
    prod = np.empty(grid.rshape, np.complex128)  # each product, spent by its transform
    return tuple(
        _irfft(np.multiply(1j * ka, fhat, out=prod), grid, work=prod) for ka in _k_axes_odd_r(grid)
    )


def _hessian_sq_hat(fhat: np.ndarray, grid: Grid) -> np.ndarray:
    """Pointwise squared Frobenius norm of the Hessian from the half spectrum ``fhat``."""
    k_even = _k_axes_r(grid)
    k_odd = _k_axes_odd_r(grid)
    total = np.zeros(grid.shape)
    dij = np.empty(grid.shape)
    prod = np.empty(grid.rshape, np.complex128)
    term = _real_view(prod, grid.shape)  # each weighted square, once the transform spent prod
    for i in range(grid.d):
        for j in range(i, grid.d):
            if i == j:
                mult = -k_even[i] * k_even[i]
                weight = 1.0
            else:
                mult = -k_odd[i] * k_odd[j]
                weight = 2.0  # off-diagonal pairs appear twice in the sum
            _irfft(np.multiply(mult, fhat, out=prod), grid, out=dij, work=prod)
            total += np.multiply(np.multiply(weight, dij, out=term), dij, out=term)
    return total


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient; exact for band-limited fields."""
    comps = _grad_hat(_rfft(f.values), f.grid)
    return VectorField(f.grid, tuple(ScalarField(f.grid, comp) for comp in comps))


def laplacian(f: ScalarField) -> ScalarField:
    """Spectral Laplacian, the multiplier -|k|^2."""
    return _apply_multiplier(f, -_k_squared_r(f.grid))


def divergence(v: VectorField) -> ScalarField:
    """Spectral divergence: the sum of each component's derivative along its axis."""
    parts = zip(v.components, _k_axes_odd_r(v.grid))
    return ScalarField(v.grid, sum(_apply_multiplier(comp, 1j * ka).values for comp, ka in parts))


def hessian_sq(f: ScalarField) -> ScalarField:
    """Pointwise squared Frobenius norm of the Hessian, all partials spectral."""
    return ScalarField(f.grid, _hessian_sq_hat(_rfft(f.values), f.grid))


def heat_propagate(
    f: ScalarField, t: float, tau: float = 1.0, damping: float = 0.0
) -> ScalarField:
    """Apply the Fourier multiplier exp(-(t/tau)(damping + |k|^2)).

    With damping=0 and tau=1 this is the heat semigroup; with damping=1 it is
    the damped semigroup driving the chemical concentration.
    """
    if t < 0:
        raise ValueError(f"propagation time must be nonnegative, got {t}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not all(math.isfinite(v) for v in (t, tau, damping)):
        raise ValueError(f"t, tau and damping must be finite, got {t}, {tau}, {damping}")
    if t == 0:
        return f
    mult = np.exp(-(t / tau) * (damping + _k_squared_r(f.grid)))
    return _apply_multiplier(f, mult)


def integrate(f: ScalarField) -> float:
    """Box quadrature: h^d times the sample sum (midpoint rule on the torus)."""
    return float(f.grid.spacing**f.grid.d * np.sum(f.values))


def dealias(f: ScalarField) -> ScalarField:
    """Zero all modes above the 2/3 cutoff: the band transform's round trip."""
    fhat = _rfft(f.values, band=True)
    return ScalarField(f.grid, _irfft(fhat, f.grid, work=fhat))
