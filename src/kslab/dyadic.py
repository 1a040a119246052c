"""Homogeneous dyadic frequency blocks and low-frequency cut-offs.

The low-pass profile is the textbook smooth radial bump: identically 1 for
|xi| <= (3/4) 2^j, identically 0 for |xi| >= (4/3) 2^j.  Block j is the
difference of consecutive low-passes, hence supported in the annulus
[3/4, 8/3] * 2^j, and the family telescopes exactly:

    S_{j_min} + sum_{j=j_min}^{j_max} B_j = S_{j_max+1} = identity

once 2^{j_max+1} * 3/4 clears the largest grid wavenumber.  On a finite grid
the decomposition truncates at j_min set by the box size (2^{j_min} ~ 2*pi/L)
and at the Nyquist-touching j_max.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fields import Grid, ScalarField, _apply_multiplier, _is_integer, _k_squared_r
from .norms import _smoothstep_down

__all__ = [
    "block_range",
    "dyadic_block",
    "low_freq",
    "reconstruct",
]

_LOW_EDGE = 0.75
_HIGH_EDGE = 4.0 / 3.0


def lowpass_profile(r: np.ndarray) -> np.ndarray:
    """Radial low-pass: 1 for r <= 3/4, 0 for r >= 4/3, smooth monotone between."""
    return _smoothstep_down((np.asarray(r) - _LOW_EDGE) / (_HIGH_EDGE - _LOW_EDGE))


def block_profile(r: np.ndarray) -> np.ndarray:
    """Annular bump supported in [3/4, 8/3]: lowpass(r/2) - lowpass(r)."""
    r = np.asarray(r)
    return lowpass_profile(r / 2.0) - lowpass_profile(r)


@lru_cache(maxsize=64)
def _k_radial(grid: Grid) -> np.ndarray:
    return np.sqrt(_k_squared_r(grid))


@lru_cache(maxsize=64)
def block_range(grid: Grid) -> range:
    """The blocks j_min..j_max that resolve ``grid``: 2^j_min <= 2 pi / L, and
    j_max is the smallest j with (3/4) 2^(j+1) >= the largest grid wavenumber,
    so S_{j_max+1} is the identity on the grid."""
    k_min = 2.0 * np.pi / grid.box_len
    k_max = float(np.max(_k_radial(grid)))
    j_min = math.floor(math.log2(k_min))
    j_max = math.ceil(math.log2(k_max / (2.0 * _LOW_EDGE)))
    return range(j_min, j_max + 1)


def dyadic_block(f: ScalarField, j: int) -> ScalarField:
    """Filter f through the annular bump at scale 2^j (zero out of range)."""
    if not _is_integer(j):
        raise ValueError("j must be an integer")
    grid = f.grid
    blocks = block_range(grid)
    # Out-of-range blocks are identically zero on the grid; the lower guard
    # also keeps 2**j away from floating underflow in the profile argument.
    if j > blocks.stop or j < blocks.start - 40:
        return ScalarField(grid, np.zeros(grid.shape))
    return _apply_multiplier(f, block_profile(_k_radial(grid) / 2.0**j))


def low_freq(f: ScalarField, j: int) -> ScalarField:
    """Smooth low-pass keeping |xi| below ~(4/3) 2^j; the DC mode always passes."""
    if not _is_integer(j):
        raise ValueError("j must be an integer")
    return _apply_multiplier(f, lowpass_profile(_k_radial(f.grid) / 2.0**j))


def reconstruct(f: ScalarField) -> ScalarField:
    """Low-pass at j_min plus every block of ``block_range``; equals f up to roundoff."""
    blocks = block_range(f.grid)
    total = low_freq(f, blocks.start)
    for j in blocks:
        total = total + dyadic_block(f, j)
    return total
