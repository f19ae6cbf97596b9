"""Property tests of the least-squares kernel and the constraint elimination,
derandomized so that every run draws the same examples."""

from itertools import combinations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfc_solve import map_ode, solve_ls
from tfc_solve.catalog import CATALOG
from tfc_solve.chebyshev import endpoint_rows
from tfc_solve.embedding import _eliminate
from tfc_solve.solver import _QR_BLOCK_ROWS, _expression, _factor, _make_solution


def _row_signs_fixed(R):
    d = np.sign(np.diagonal(R)).copy()
    d[d == 0.0] = 1.0
    return R * d[:, None]


# Row counts around the block size: exact multiples of it, and a last block
# with fewer rows than the n + 1 columns of [P | lambda].
@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=st.integers(1, 3 * _QR_BLOCK_ROWS + 100), n=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(rows=_QR_BLOCK_ROWS, n=20, seed=0)
@example(rows=2 * _QR_BLOCK_ROWS, n=40, seed=1)
@example(rows=3 * _QR_BLOCK_ROWS, n=7, seed=2)
@example(rows=_QR_BLOCK_ROWS + 1, n=12, seed=3)
@example(rows=2 * _QR_BLOCK_ROWS + 5, n=30, seed=4)
def test_blocked_factor_matches_one_qr(rows, n, seed):
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(rows, n))
    lam = rng.normal(size=rows)
    R, s = _factor(P, lam, None, "none")
    ref = np.linalg.qr(np.column_stack([P, lam]), mode="r")
    assert R.shape == ref.shape
    assert np.array_equal(s, np.ones(n))
    if rows <= _QR_BLOCK_ROWS:
        # one block is one Householder QR of the whole system
        assert np.array_equal(R, ref)
    err = np.max(np.abs(_row_signs_fixed(R) - _row_signs_fixed(ref)))
    assert err <= 1e-13 * np.linalg.norm(ref)


# Row counts straddling numpy's pairwise-summation blocks (8 and 128), and
# residuals spread over up to 24 orders of magnitude.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=st.integers(1, 5000), n=st.integers(1, 12), spread=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
@example(rows=1, n=1, spread=0, seed=0)
@example(rows=7, n=3, spread=0, seed=1)
@example(rows=8, n=3, spread=0, seed=2)
@example(rows=9, n=3, spread=0, seed=3)
@example(rows=127, n=5, spread=0, seed=4)
@example(rows=128, n=5, spread=0, seed=5)
@example(rows=129, n=5, spread=0, seed=6)
@example(rows=4097, n=9, spread=0, seed=7)
@example(rows=1000, n=6, spread=12, seed=8)
def test_residual_statistics_are_numpys(rows, n, spread, seed):
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(rows, n))
    lam = rng.normal(size=rows) * 10.0 ** rng.uniform(-spread, spread, size=rows)
    sol = solve_ls(P, lam)
    r = sol.residuals
    assert sol.residual_mean == float(np.mean(r))
    assert sol.residual_abs_mean == float(np.mean(np.abs(r)))
    assert sol.residual_std == float(np.std(r))


# The 15 pairs of distinct (order, end) constraints, end 0 at t1 and 1 at t2.
_PAIRS = list(combinations([(d, end) for end in (0, 1) for d in range(3)], 2))


# m up to the catalog's 23: with xi of unit size at every degree, the terms
# of y''(+-1) grow as k^4 / 3, and their rounding with them (measured: at
# most 0.3 of the bound at m <= 23, 2.7 times it at m = 30).
@settings(derandomize=True, max_examples=150, deadline=None)
@given(pair=st.sampled_from(_PAIRS), pid=st.sampled_from(["eq19", "eq26"]),
       m=st.integers(3, 23), values=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_constraints_hold_for_any_xi(pair, pid, m, values, seed):
    entry = CATALOG[pid]
    mapped = map_ode(entry.ode())
    triples = [(d, entry.interval[end], v) for (d, end), v in zip(pair, values)]
    constraints = _expression(mapped, triples)
    S, K, W, a = elim = _eliminate(constraints, m)
    # each kept column's coefficients: 1 at its own k, -W at the pivots
    V = np.zeros((m + 1, len(K)))
    V[K, np.arange(len(K))] = 1.0
    V[S] = -W
    C = endpoint_rows(m, [c.order for c in constraints], [c.location for c in constraints])
    assert np.all(C @ V == 0.0)
    xi = np.random.default_rng(seed).normal(size=len(K))
    solution = _make_solution(elim, mapped, m, xi)
    for d, at, v in triples:
        assert abs(solution(at)[d][0] - v) <= 1e-9 * max(1.0, abs(v)), (d, at, v)
