"""Numerical laboratory for the Keller-Segel system with logistic growth.

Simulates the coupled cell-density / chemoattractant dynamics on periodic
boxes approximating the whole space, and instruments the a-priori estimates
that control global boundedness (uniformly local norms, cutoff-weighted
moment functionals, dyadic frequency analysis) as runtime-checkable
residual monitors.
"""

from .fields import (
    Grid,
    ScalarField,
    VectorField,
    dealias,
    divergence,
    gradient,
    heat_propagate,
    hessian_sq,
    integrate,
    laplacian,
    magnitude,
    make_grid,
)
from .norms import (
    cutoff_phi,
    cutoff_psi,
    lp_norm,
    uloc_norm,
    w1inf_norm,
)
from .dyadic import block_range, dyadic_block, low_freq
from .solver import (
    Params,
    PicardConfig,
    PicardResult,
    RunConfig,
    RunResult,
    RunStatus,
    State,
    approx_initial,
    picard_local_solve,
    rhs,
    run,
    step,
)

__version__ = "0.1.0"
