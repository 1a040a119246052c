import numpy as np
import pytest

from kslab.fields import ScalarField, make_grid
from kslab.solver import run


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid1d():
    return make_grid(1, 256, 40.0)


@pytest.fixture
def grid2d():
    return make_grid(2, 64, 40.0)


def band_limited(grid, rng, max_index):
    """Random real field with per-axis mode indices below ``max_index``."""
    fhat = np.zeros(grid.shape, dtype=np.complex128)
    n = grid.n_axis
    idx = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    keep = idx <= max_index
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.d):
        shape = [1] * grid.d
        shape[ax] = n
        mask &= keep.reshape(shape)
    fhat[mask] = rng.standard_normal(int(mask.sum())) + 1j * rng.standard_normal(
        int(mask.sum())
    )
    vals = np.fft.ifftn(fhat).real
    peak = np.max(np.abs(vals))
    return ScalarField(grid, vals / peak if peak > 0 else vals)


def run_states(initial, params, config):
    """Run with a monitor that keeps every sampled state; returns (result, states)."""
    states = []
    result = run(initial, params, config, monitors=lambda s: states.append(s) or {})
    return result, states
