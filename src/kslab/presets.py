"""Named initial-data presets, sampled as arrays on the grid.

The dynamics only require bounded nonnegative cell density and a bounded
Lipschitz chemical field; these presets are convenient shapes for the
experiment drivers.  All are centered at the box origin so the compact
truncation at radius M interacts with them predictably.  Each is evaluated
on open-mesh coordinates (one length-N array per axis, broadcasting to the
grid), so only the sampled fields themselves take full arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Grid, _is_integer
from .norms import _check_support
from .solver import State, approx_initial

__all__ = ["build_initial", "validate_initial", "PRESET_NAMES"]

PRESET_NAMES = ("gaussian_bump", "two_bumps", "constant", "random_smooth")


def _random_modes(amps: np.ndarray, grid: Grid, amplitude: float) -> np.ndarray:
    """Random low Fourier modes, lifted to a minimum of 0 and scaled to peak ``amplitude``.

    The sum over modes ``m`` of ``a_m cos(phase) + b_m sin(phase)``, with
    ``phase = 2 pi sum_j (m_j + 1) x_j / L``, is the real part of
    ``sum_m w_m prod_j e^{2 pi i (m_j + 1) x_j / L}`` with ``w = a - i b``.
    The modes are contracted with the per-axis factors one axis at a time,
    by ``einsum`` without ``optimize`` (no BLAS, so the bytes do not depend on
    the host's library).
    """
    x = grid.axis_coords()
    waves = np.arange(1, amps.shape[0] + 1)
    factor = np.exp(1j * (2.0 * np.pi / grid.box_len) * np.multiply.outer(waves, x))
    total = amps[..., 0] - 1j * amps[..., 1]
    for _ in range(grid.d):  # the leading mode axis out, the axis's points in last
        total = np.einsum("m...,mx->...x", total, factor)
    total = total.real
    total -= total.min()
    peak = total.max()
    return amplitude * total / peak if peak > 0 else total


def validate_initial(
    grid: Grid, preset: str, amplitude: float, width: float, M: float, seed: int = 0
) -> None:
    """The rules on initial data, for ``build_initial`` and the config's ``init.*`` keys."""
    if preset not in PRESET_NAMES:
        raise ValueError(f"preset must be one of {PRESET_NAMES}")
    if not math.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    if not amplitude >= 0:
        raise ValueError("amplitude must be nonnegative")
    if not (width > 0 and math.isfinite(width)):
        raise ValueError("width must be positive and finite")
    _check_support(grid, "M", M)
    if not _is_integer(seed):
        raise ValueError("seed must be an integer")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def build_initial(
    grid: Grid,
    preset: str,
    amplitude: float,
    width: float,
    M: float,
    seed: int = 0,
) -> State:
    """Sample a preset and truncate it to compact support at radius M.

    The chemical field starts at half the density amplitude with the same
    shape (a central bump for ``two_bumps``), a neutral choice that
    exercises both equations from t=0.  The arguments are checked by
    ``validate_initial`` before anything is sampled.
    """
    validate_initial(grid, preset, amplitude, width, M, seed)
    coords = np.ix_(*[grid.axis_coords()] * grid.d)

    def bump(shift: float = 0.0) -> np.ndarray:
        """Gaussian of the preset's width centered at ``shift`` on the first axis."""
        shifted = (coords[0] - shift, *coords[1:])
        return np.exp(-sum(x * x for x in shifted) / (2.0 * width**2))

    if preset == "gaussian_bump":
        profile = bump()
        n0 = amplitude * profile
        c0 = np.multiply(0.5 * amplitude, profile, out=profile)
    elif preset == "two_bumps":
        offset = grid.box_len / 8.0
        n0 = amplitude * (bump(offset) + bump(-offset))
        c0 = 0.5 * amplitude * bump()
    elif preset == "constant":
        n0, c0 = amplitude, 0.5 * amplitude
    else:  # random_smooth
        rng = np.random.default_rng(seed)
        # Band-limited nonnegative noise: random low modes, lifted above zero.
        amps_n = rng.standard_normal((4,) * grid.d + (2,))
        amps_c = rng.standard_normal((4,) * grid.d + (2,))
        n0 = _random_modes(amps_n, grid, amplitude)
        c0 = 0.5 * _random_modes(amps_c, grid, amplitude)
    return approx_initial(n0, c0, M, grid)
