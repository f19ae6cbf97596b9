"""The least-squares kernel on P and lambda given apart, for the tests: the
solvers hand `_solve` and `_factor` the one Fortran-order [P | lambda] that
`_collocate` builds, and these build it the same way."""

import numpy as np

from tfc_solve import solver


def system_of(P, lam):
    """[P | lambda] as one Fortran-order array."""
    system = np.empty((len(P), P.shape[1] + 1), order="F")
    system[:, :-1], system[:, -1] = P, lam
    return system


def solve_ls(P, lam, weights=None, scaling="column_norm"):
    return solver._solve(system_of(P, lam), weights, scaling)


def factor(P, lam, weights, scaling):
    return solver._factor(system_of(P, lam), weights, scaling)
