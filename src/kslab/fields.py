"""Periodic grids, scalar/vector fields and spectral calculus.

The computational domain is a periodic box [-L/2, L/2)^d standing in for
the whole space.  All derivatives are Fourier multipliers, quadrature is
the periodic midpoint rule (spectrally accurate on the torus), and
nonlinear products are formed in physical space with 2/3-rule dealiasing.

Real fields travel through the half-spectrum (rfft) layout internally;
the public SpectralField type carries the full complex layout, where the
conjugate symmetry of a real field's transform is an explicit invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "SpectralField",
    "make_grid",
    "to_spectral",
    "from_spectral",
    "gradient",
    "laplacian",
    "divergence",
    "hessian_sq",
    "heat_propagate",
    "integrate",
    "dealias",
    "magnitude",
]


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
        """Per-axis signed displacement from ``center``, wrapped into [-L/2, L/2)."""
        L = self.box_len
        out = []
        for axis, c in zip(self.mesh(), center):
            out.append((axis - c + 0.5 * L) % L - 0.5 * L)
        return tuple(out)

    def radius(self, center: tuple[float, ...] | None = None) -> np.ndarray:
        """Wrapped Euclidean distance from ``center`` (default: the origin)."""
        if center is None:
            center = (0.0,) * self.d
        deltas = self.wrapped_delta(tuple(center))
        return np.sqrt(sum(dx * dx for dx in deltas))


def make_grid(d: int, n_axis: int, box_len: float) -> Grid:
    """Build a periodic grid; rejects non power-of-two sizes and d outside 1..3."""
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    if not (_is_power_of_two(n_axis) and n_axis >= 8):
        raise ValueError(f"n_axis must be a power of two >= 8, got {n_axis}")
    if not box_len > 0:
        raise ValueError(f"box_len must be positive, got {box_len}")
    return Grid(d=d, n_axis=int(n_axis), box_len=float(box_len))


@dataclass(frozen=True)
class ScalarField:
    """Real samples on a grid, row-major.  Values are frozen after construction.

    The stored array is read-only, but the array passed in may stay writable
    and share its memory: it must not be changed through that alias, or the
    cached ``grad_abs`` goes stale.
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

    def require_finite(self) -> "ScalarField":
        if not self.is_finite():
            raise ValueError("field contains non-finite samples")
        return self

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    @cached_property
    def grad_abs(self) -> "ScalarField":
        """|grad f|, formed once per field and shared by every consumer."""
        return magnitude(gradient(self))

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


@dataclass(frozen=True)
class SpectralField:
    """Complex DFT coefficients in the standard full fftn layout."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128).reshape(self.grid.shape)
        object.__setattr__(self, "coeffs", np.ascontiguousarray(arr))

    def hermitian_defect(self) -> float:
        """Max deviation from the conjugate symmetry of a real field's transform."""
        flipped = self.coeffs
        for ax in range(self.grid.d):
            flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
        return float(np.max(np.abs(self.coeffs - np.conj(flipped))))


# ---------------------------------------------------------------------------
# Half-spectrum plumbing shared by every operator


def _rfft(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half-spectrum transform into ``out`` (default: one fresh array).

    Every axis pass of ``np.fft.rfftn`` writes into ``out``, so the passes
    after the first run in place; the bytes match ``np.fft.rfftn(values)``.
    """
    if out is None:
        out = np.empty(values.shape[:-1] + (values.shape[-1] // 2 + 1,), np.complex128)
    return np.fft.rfftn(values, out=out)


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
    if work is None:
        work = np.empty(grid.rshape, np.complex128)
    for axis in range(grid.d - 1):
        coeffs = np.fft.ifft(coeffs, axis=axis, out=work)
    return np.fft.irfft(coeffs, grid.n_axis, axis=grid.d - 1, out=out)


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


@lru_cache(maxsize=64)
def _k_squared_r(grid: Grid) -> np.ndarray:
    ksq = np.zeros(grid.rshape)
    for ka in _k_axes_r(grid):
        ksq = ksq + ka**2
    return ksq


@lru_cache(maxsize=64)
def _dealias_mask_r(grid: Grid) -> np.ndarray:
    """2/3-rule mask in the half-spectrum: keep |mode index| <= N/3 per axis."""
    n = grid.n_axis
    full_idx = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    half_idx = np.fft.rfftfreq(n, d=1.0 / n)
    mask = np.ones(grid.rshape, dtype=bool)
    for ax in range(grid.d):
        idx = half_idx if ax == grid.d - 1 else full_idx
        keep = idx <= n / 3.0
        shape = [1] * grid.d
        shape[ax] = len(keep)
        mask = mask & keep.reshape(shape)
    return mask


def to_spectral(f: ScalarField) -> SpectralField:
    f.require_finite()
    return SpectralField(f.grid, np.fft.fftn(f.values))


def from_spectral(F: SpectralField) -> ScalarField:
    return ScalarField(F.grid, np.fft.ifftn(F.coeffs).real)


def _apply_multiplier(f: ScalarField, mult: np.ndarray) -> ScalarField:
    return ScalarField(f.grid, _irfft(_rfft(f.values) * mult, f.grid))


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient; exact for band-limited fields."""
    fhat = _rfft(f.values)
    comps = tuple(
        ScalarField(f.grid, _irfft(1j * ka * fhat, f.grid))
        for ka in _k_axes_odd_r(f.grid)
    )
    return VectorField(f.grid, comps)


def laplacian(f: ScalarField) -> ScalarField:
    return _apply_multiplier(f, -_k_squared_r(f.grid))


def divergence(v: VectorField) -> ScalarField:
    out = np.zeros(v.grid.shape)
    for comp, ka in zip(v.components, _k_axes_odd_r(v.grid)):
        out = out + _irfft(1j * ka * _rfft(comp.values), v.grid)
    return ScalarField(v.grid, out)


def hessian_sq(f: ScalarField) -> ScalarField:
    """Pointwise squared Frobenius norm of the Hessian, all partials spectral."""
    grid = f.grid
    fhat = _rfft(f.values)
    k_even = _k_axes_r(grid)
    k_odd = _k_axes_odd_r(grid)
    total = np.zeros(grid.shape)
    for i in range(grid.d):
        for j in range(i, grid.d):
            if i == j:
                mult = -k_even[i] * k_even[i]
                weight = 1.0
            else:
                mult = -k_odd[i] * k_odd[j]
                weight = 2.0  # off-diagonal pairs appear twice in the sum
            dij = _irfft(mult * fhat, grid)
            total = total + weight * dij * dij
    return ScalarField(grid, total)


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
    if t == 0:
        return f
    mult = np.exp(-(t / tau) * (damping + _k_squared_r(f.grid)))
    return _apply_multiplier(f, mult)


def integrate(f: ScalarField) -> float:
    """Box quadrature: h^d times the sample sum (midpoint rule on the torus)."""
    return float(f.grid.spacing**f.grid.d * np.sum(f.values))


def dealias(f: ScalarField) -> ScalarField:
    """Zero all modes above the 2/3 cutoff (applied after nonlinear products)."""
    fhat = _rfft(f.values)
    fhat[~_dealias_mask_r(f.grid)] = 0.0
    return ScalarField(f.grid, _irfft(fhat, f.grid))
