import threading

import numpy as np
import pytest

from kslab import fields, solver
from kslab.dyadic import dyadic_block, low_freq
from kslab.fields import ScalarField, make_grid
from kslab.norms import uloc_norm


def dealias_mask(grid):
    """The 2/3 rule's kept modes in the half spectrum, from ``np.fft.fftfreq``:
    |mode index| <= N/3 on every axis.  The tests' oracle for the band."""
    n = grid.n_axis
    full_idx = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    half_idx = np.fft.rfftfreq(n, d=1.0 / n)
    mask = np.ones(grid.rshape, dtype=bool)
    for ax in range(grid.d):
        idx = half_idx if ax == grid.d - 1 else full_idx
        shape = [1] * grid.d
        shape[ax] = len(idx)
        mask = mask & (idx <= n / 3.0).reshape(shape)
    return mask


def random_field(grid, rng, band_limit=None):
    """Standard normal samples on ``grid``; with ``band_limit``, only the modes
    whose index is at most ``band_limit`` on every axis are kept."""
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    if band_limit is not None:
        fhat = np.fft.fftn(f.values)
        idx = np.abs(np.fft.fftfreq(grid.n_axis, d=1.0 / grid.n_axis))
        keep = idx <= band_limit
        mask = np.ones(grid.shape, dtype=bool)
        for ax in range(grid.d):
            shape = [1] * grid.d
            shape[ax] = grid.n_axis
            mask &= keep.reshape(shape)
        fhat[~mask] = 0.0
        f = ScalarField(grid, np.fft.ifftn(fhat).real)
    return f


def generalized_young_check(f, p, j):
    """Ratio (||B_j f||_inf + ||S_j f||_inf) / (2^{(d/p) j} ||f||_{p,1}).

    The scaling bound holds for j >= 0 with a constant independent of j and f;
    the returned ratio is the empirical constant for this field and scale.
    """
    if j < 0:
        raise ValueError("the scaling bound is stated for j >= 0")
    base = uloc_norm(f, p, 1.0)
    if base == 0.0:
        return 0.0
    numer = dyadic_block(f, j).max_abs() + low_freq(f, j).max_abs()
    return float(numer / (2.0 ** (f.grid.d / p * j) * base))


def determinism_check(initial, params, config):
    """Whether two runs from identical inputs give identical traces and finals."""
    r1 = solver.run(initial, params, config)
    r2 = solver.run(initial, params, config)
    if len(r1.trace) != len(r2.trace):
        return False
    for s1, s2 in zip(r1.trace, r2.trace):
        if s1.t != s2.t or s1.values != s2.values:
            return False
    return bool(
        np.array_equal(r1.final.n.values, r2.final.n.values)
        and np.array_equal(r1.final.c.values, r2.final.c.values)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid1d():
    return make_grid(1, 256, 40.0)


@pytest.fixture
def grid2d():
    return make_grid(2, 64, 40.0)


@pytest.fixture
def helper_halves(monkeypatch):
    """The list of pass halves that run off their caller's thread from here on.

    A split transform hands the helper thread one half of each of its two
    passes.  The list is also ``fields._halves.ran``, so a forked child can
    count in its own copy.
    """
    ran = []
    halves = fields._halves

    def counted(shape, run, n):
        caller = threading.get_ident()

        def run_counted(s):
            if threading.get_ident() != caller:
                ran.append(s)
            return run(s)

        return halves(shape, run_counted, n)

    counted.ran = ran
    monkeypatch.setattr(fields, "_halves", counted)
    return ran


@pytest.fixture
def split_everywhere(monkeypatch, helper_halves):
    """Split the transforms of every field of two or more dimensions, on any host."""
    monkeypatch.setattr(fields, "SPLIT_MIN_POINTS", 0)
    monkeypatch.setattr(fields, "_cpus", lambda: 2)
    return helper_halves
