"""Property tests of the least-squares kernel and the constraint elimination,
derandomized so that every run draws the same examples."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tfc_solve import map_ode
from tfc_solve.catalog import CATALOG
from tfc_solve.chebyshev import endpoint_rows
from tfc_solve.embedding import _eliminate
from tfc_solve.solver import (
    _QR_BLOCK_ROWS,
    RANK_DEFICIENT_TOL,
    _expression,
    _leading_xi,
    _make_solution,
    _singular_values,
)

from kernel import factor as _factor
from kernel import solve_ls

EPS = np.finfo(float).eps


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


def _lstsq_bound(Ps, lam):
    """lstsq's xi on Ps, and eps kappa / gap (||xi|| + kappa ||r|| / sigma_1),
    the first-order size of a backward-stable solver's error against it; or
    None when a singular value sits within 0.1 decade of the cut-off, where
    roundoff can tip it either side."""
    rows, n = Ps.shape
    ref_sv = np.linalg.svd(Ps, compute_uv=False)
    cutoff = EPS * max(rows, n) * ref_sv[0]
    if not np.all(np.abs(np.log10(ref_sv / cutoff)) > 0.1):
        return None
    z_ref, *_ = np.linalg.lstsq(Ps, lam, rcond=None)
    kept, dropped = ref_sv[ref_sv > cutoff], ref_sv[ref_sv <= cutoff]
    kappa = kept[0] / kept[-1]
    # a dropped value rotates the kept subspace by eps over the relative gap
    gap = 1.0 - dropped[0] / kept[-1] if len(dropped) else 1.0
    r_ref = np.linalg.norm(Ps @ z_ref - lam)
    unit = EPS * kappa / gap * (np.linalg.norm(z_ref) + kappa * r_ref / kept[0])
    return z_ref, unit, ref_sv, len(kept) == n


# Singular values of the scaled P from 1 down to 1e-15, straddling lstsq's
# cut-off eps * max(rows, n) * sigma_max; optionally one column duplicated;
# rows from 1, fewer than the columns included.
@settings(derandomize=True, max_examples=200, deadline=None)
@given(rows=st.integers(1, 200), n=st.integers(1, 30), decades=st.floats(0.0, 15.0),
       duplicate=st.booleans(), scaling=st.sampled_from(["column_norm", "none"]),
       seed=st.integers(0, 2**32 - 1))
@example(rows=3, n=8, decades=2.0, duplicate=False, scaling="none", seed=0)
@example(rows=40, n=5, decades=0.0, duplicate=True, scaling="column_norm", seed=1)
@example(rows=120, n=20, decades=15.0, duplicate=False, scaling="column_norm", seed=2)
def test_kernel_matches_full_svd_and_lstsq(rows, n, decades, duplicate, scaling, seed):
    rng = np.random.default_rng(seed)
    k = min(rows, n)
    U, _ = np.linalg.qr(rng.normal(size=(rows, k)))
    V, _ = np.linalg.qr(rng.normal(size=(n, k)))
    P = (U * np.logspace(0.0, -decades, k)) @ V.T * 10.0 ** rng.uniform(-3, 3, size=n)
    if duplicate and n > 1:
        P[:, -1] = P[:, 0]
    lam = rng.normal(size=rows)
    sol = solve_ls(P, lam, scaling=scaling)

    # the full-SVD reference on the same triangle R[:n, :n]
    R, s = _factor(P, lam, None, scaling)
    sv = np.linalg.svd(R[:n, :n])[1]
    cond = np.inf if sv[-1] == 0.0 else (sv[0] / sv[-1]) ** 2
    assert sol.cond_PtP == pytest.approx(cond, rel=1e-9)
    assert sol.rank_deficient == bool(sv[-1] < RANK_DEFICIENT_TOL * sv[0])

    # the sweep's route over the leading blocks j = 1..n: singular values in
    # ascending j up to the first block whose cut-off drops a value, and the
    # xi of the blocks before it off one inverse. Householder QR's rounding
    # grows as gamma_(rows j) (Higham 2002, theorem 20.3), which in its
    # probabilistic form is sqrt(rows j) eps; the bound is 4 sqrt(rows j)
    # units (measured: at most 0.18 of it, and 0.22 for a per-block
    # np.linalg.solve). The flat 16 units of solve_ls's bound below is too
    # tight for about 7 blocks a draw: on the draws of an earlier version of
    # this test, a well-conditioned block of 52 rows and 10 columns reached
    # 0.93 of it, by either route
    Ps = P / s
    uncut = 0
    while uncut < n and _singular_values(R, rows, uncut + 1, s)[0] is None:
        uncut += 1
    if uncut:
        Z = _leading_xi(R, uncut, s)
        for j in range(1, uncut + 1):
            ref = _lstsq_bound(Ps[:, :j], lam)
            if ref is not None:
                bound = 4.0 * np.sqrt(rows * j) * ref[1]
                assert np.linalg.norm(Z[:j, j - 1] * s[:j] - ref[0]) <= bound, j

    # lstsq on the scaled P, away from the cut-off (measured: at most 0.42
    # of this bound over the draws)
    ref = _lstsq_bound(Ps, lam)
    assume(ref is not None)
    z_ref, unit, ref_sv, full_rank = ref
    assert np.linalg.norm(sol.xi * s - z_ref) <= 16.0 * unit

    if full_rank:
        # full rank: the residual is orthogonal to every column, up to the
        # backward error of the solve and of forming the residual (measured:
        # at most 0.17 of the bound); eps ||P|| ||r|| alone fails by about
        # cond(P) on ill-conditioned draws
        norm = ref_sv[0]
        bound = 4.0 * EPS * norm * (norm * np.linalg.norm(sol.xi * s) + np.linalg.norm(lam))
        assert np.linalg.norm(Ps.T @ sol.residuals) <= bound
