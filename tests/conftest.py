import threading

import numpy as np
import pytest

from kslab import fields
from kslab.fields import make_grid


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
