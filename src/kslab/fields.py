"""Periodic grids, scalar/vector fields and spectral calculus.

The computational domain is a periodic box [-L/2, L/2)^d standing in for
the whole space.  All derivatives are Fourier multipliers, quadrature is
the periodic midpoint rule (spectrally accurate on the torus), and
nonlinear products are formed in physical space with 2/3-rule dealiasing.

Real fields travel through the half-spectrum (rfft) layout; its two
transforms run numpy's passes on the calling thread.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

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

    def wrapped_delta(self, center: tuple[float, ...]) -> tuple[np.ndarray, ...]:
        """Per-axis signed displacement from ``center``, wrapped into [-L/2, L/2).

        Each is laid out on an open mesh (length N along its own axis, 1
        along the others), so together they broadcast to ``shape``.  Raises
        ValueError unless ``center`` is ``d`` finite coordinates.
        """
        L, center = self.box_len, tuple(center)
        if len(center) != self.d or not all(math.isfinite(x) for x in center):
            raise ValueError(f"center must be {self.d} finite coordinates, got {center}")
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


def _rfft(values: np.ndarray, out: np.ndarray | None = None, band: bool = False) -> np.ndarray:
    """Half-spectrum transform into ``out`` (default: one fresh array).

    The passes, their order and so the bytes are those of ``np.fft.rfftn``:
    ``rfft`` over the last axis into ``out``, then ``fft`` in place there
    over axes d-2 ... 0, each on the calling thread.

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
    np.fft.rfft(values, axis=-1, out=out)
    if band:
        out[..., k + 1 :] = 0.0
    if values.ndim == 1:
        return out
    # The last axis's modes that the later passes transform, a full axis's
    # dropped modes, and the axis-1 modes that the pass over axis 0 takes.
    last = slice(0, k + 1) if band else slice(None)
    dropped = slice(k + 1, n - k)
    cols = [slice(None)]
    if band:
        cols = [last] if values.ndim == 2 else [slice(0, k + 1), slice(n - k, n)]
    for axis in range(values.ndim - 2, 0, -1):
        lines = out[..., last]
        np.fft.fft(lines, axis=axis, out=lines)
        if band:
            lines[(slice(None),) * axis + (dropped,)] = 0.0
    for col in cols:
        lines = out[(slice(None), col) + (last,) * (values.ndim - 2)]
        np.fft.fft(lines, axis=0, out=lines)
        if band:
            lines[dropped] = 0.0
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
    coefficients are spent.
    """
    if grid.d == 1:
        return np.fft.irfft(coeffs, grid.n_axis, out=out)
    if out is None:
        out = np.empty(grid.shape)
    if work is None:
        work = np.empty(grid.rshape, np.complex128)
    np.fft.ifft(coeffs, axis=0, out=work)
    for axis in range(1, grid.d - 1):
        np.fft.ifft(work, axis=axis, out=work)
    return np.fft.irfft(work, grid.n_axis, axis=-1, out=out)


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
