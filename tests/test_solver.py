import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from tfc_solve import (
    CollocationConfig,
    DomainError,
    LinearODE2,
    assemble,
    diagnostics,
    fixed_case_expression,
    m_sweep,
    map_ode,
    solve_ls,
    solve_problem,
)
from tfc_solve.catalog import CATALOG
from tfc_solve.chebyshev import _clip_to_interval, endpoint_rows, eval_basis_grid
from tfc_solve.embedding import FIXED_CASES, ConstraintSpec, _eliminate
from tfc_solve.solver import (
    RANK_DEFICIENT_TOL,
    LSSolution,
    _expression,
    _factor,
    _make_solution,
)

EPS = np.finfo(float).eps


def _eq19():
    return CATALOG["eq19"].ode()


def _eq26():
    return CATALOG["eq26"].ode()


def _cfg(**kw):
    base = dict(m=17, N=1000)
    base.update(kw)
    return CollocationConfig(**base)


# --- assembly --------------------------------------------------------------

def test_first_node_quadratic_column():
    # At the left node of the initial-value embedding, the k = 2 column
    # reduces to (4/dt^2) f2(t1) T2''(-1) = (4/9) * 1 * 4 = 16/9 for the
    # [1, 4] catalog problem.
    mapped = map_ode(_eq19())
    expr = fixed_case_expression("IVP_y_dy", (0.0, 0.0))
    P, _ = assemble(expr.constraints, mapped, _cfg())
    assert P[0, 0] == pytest.approx(16.0 / 9.0, abs=1e-12)


def test_assemble_matches_independent_construction():
    # rebuild P and lambda from scratch with numpy's Chebyshev module and
    # the explicit initial-value betas beta1 = 1, beta2 = 1 + x.
    ode = _eq19()
    mapped = map_ode(ode)
    m, N = 9, 40
    cfg = _cfg(m=m, N=N)
    v1, v2 = 1.0, 0.75  # x-scaled constraint values
    expr = fixed_case_expression("IVP_y_dy", (v1, v2))
    P, lam = assemble(expr.constraints, mapped, cfg)

    x = mapped.map.nodes(N)
    t = mapped.map.to_t(x)
    f2 = t**2
    f1 = -t * (t + 2.0)
    f0 = t + 2.0
    dt = 3.0

    def op(y, yp, ypp):
        return (4.0 / dt**2) * f2 * ypp + (2.0 / dt) * f1 * yp + f0 * y

    P_ref = np.zeros_like(P)
    for k in range(2, m + 1):
        ck = np.zeros(k + 1)
        ck[k] = 1.0
        Tk = C.Chebyshev(ck)
        y = Tk(x) - Tk(-1.0) - (1.0 + x) * Tk.deriv(1)(-1.0)
        yp = Tk.deriv(1)(x) - Tk.deriv(1)(-1.0)
        ypp = Tk.deriv(2)(x)
        P_ref[:, k - 2] = op(y, yp, ypp)
    yc = v1 + v2 * (1.0 + x)
    lam_ref = 0.0 - op(yc, np.full_like(x, v2), np.zeros_like(x))

    assert np.max(np.abs(P - P_ref)) <= 1e-10
    assert np.max(np.abs(lam - lam_ref)) <= 1e-10


def test_lambda_zero_for_homogeneous_zero_constraints():
    mapped = map_ode(_eq19())
    expr = fixed_case_expression("IVP_y_dy", (0.0, 0.0))
    _, lam = assemble(expr.constraints, mapped, _cfg(m=8, N=50))
    assert np.max(np.abs(lam)) == 0.0


def _dropped_columns(case_id, mapped, N):
    """The k = 0, 1 columns assembly leaves out: the operator on embedded T_0, T_1."""
    expr = fixed_case_expression(case_id, (0.0, 0.0))
    x = mapped.map.nodes(N)
    coeffs = mapped.coefficients_at(x)
    cols = []
    for k in (0, 1):
        Tk = C.Chebyshev.basis(k)
        g_at = [Tk.deriv(c.order)(c.location) for c in expr.constraints]
        y, yp, ypp = expr.eval(x, Tk(x), Tk.deriv(1)(x), Tk.deriv(2)(x), g_at)
        cols.append(mapped.homogeneous_operator(x, y, yp, ypp, coeffs))
    return np.column_stack(cols)


@pytest.mark.parametrize("case_id", ["IVP_y_dy", "BVP_y_y", "BVP_y_dy", "BVP_dy_y"])
def test_dropped_columns_vanish_when_embedding_reproduces_affine(case_id):
    # these embeddings reproduce constants and linears exactly, so the
    # k = 0, 1 columns are numerically zero.
    mapped = map_ode(_eq26())
    expr = fixed_case_expression(case_id, (0.3, -0.9))
    P, _ = assemble(expr.constraints, mapped, _cfg(m=10, N=60))
    dropped = _dropped_columns(case_id, mapped, 60)
    scale = np.max(np.abs(P))
    assert np.max(np.abs(dropped)) <= 1e-12 * scale


def test_dropped_columns_nonzero_for_second_derivative_case():
    # the double second-derivative embedding does not annihilate T0, T1,
    # but those directions still lie in the span of the kept columns.
    mapped = map_ode(_eq26())
    expr = fixed_case_expression("BVP_ddy_ddy", (0.0, 0.0))
    P, _ = assemble(expr.constraints, mapped, _cfg(m=10, N=60))
    dropped = _dropped_columns("BVP_ddy_ddy", mapped, 60)
    assert np.max(np.abs(dropped)) > 1e-6
    resid = dropped - P @ np.linalg.lstsq(P, dropped, rcond=None)[0]
    assert np.max(np.abs(resid)) <= 1e-8 * np.max(np.abs(dropped))


# --- least squares ---------------------------------------------------------

def test_solve_ls_recovers_exact_solution():
    rng = np.random.default_rng(0)
    P = rng.normal(size=(50, 6))
    xi_true = rng.normal(size=6)
    sol = solve_ls(P, P @ xi_true)
    assert np.max(np.abs(sol.xi - xi_true)) <= 1e-12
    assert sol.residual_abs_mean <= 1e-13
    assert not sol.rank_deficient


def test_solve_ls_orthonormal_conditioning():
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(40, 5)))
    sol = solve_ls(q, np.zeros(40), scaling="none")
    assert sol.cond_PtP == pytest.approx(1.0, rel=1e-12)


def test_solve_ls_flags_rank_deficiency():
    P = np.zeros((30, 4))
    P[:, 0] = np.linspace(0, 1, 30)
    P[:, 1] = 2.0 * P[:, 0]  # dependent column
    P[:, 2] = np.linspace(0, 1, 30) ** 2
    P[:, 3] = np.linspace(0, 1, 30) ** 3
    sol = solve_ls(P, np.zeros(30))
    assert sol.rank_deficient
    assert sol.cond_PtP > 1e20


def test_solve_ls_residual_statistics():
    # residual of an inconsistent 1-column system is known in closed form
    P = np.ones((4, 1))
    lam = np.array([0.0, 0.0, 0.0, 4.0])  # lstsq fit: xi = 1
    sol = solve_ls(P, lam)
    assert sol.xi[0] == pytest.approx(1.0)
    assert sol.residual_mean == pytest.approx(0.0, abs=1e-14)
    assert sol.residual_abs_mean == pytest.approx(1.5)
    assert sol.residual_std == pytest.approx(np.sqrt(3.0), rel=1e-12)


def test_solve_ls_weights_reweight_the_fit():
    rng = np.random.default_rng(2)
    P = rng.normal(size=(20, 3))
    lam = rng.normal(size=20)
    w = rng.uniform(0.5, 2.0, 20)
    sol = solve_ls(P, lam, w)
    sw = np.sqrt(w)
    ref, *_ = np.linalg.lstsq(P * sw[:, None], lam * sw, rcond=None)
    assert np.max(np.abs(sol.xi - ref)) <= 1e-10
    # unweighted answer differs
    sol0 = solve_ls(P, lam)
    assert np.max(np.abs(sol.xi - sol0.xi)) > 1e-6


def _reference_solve_ls(P, lam, weights=None, scaling="column_norm"):
    """The former kernel: one SVD of the scaled P, then lstsq (gelsd)."""
    P = np.asarray(P, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if weights is not None:
        sw = np.sqrt(weights)
        Pw = P * sw[:, None]
        lw = lam * sw
    else:
        Pw, lw = P, lam
    if scaling == "column_norm":
        s = np.linalg.norm(Pw, axis=0)
        s[s == 0.0] = 1.0
    else:
        s = np.ones(P.shape[1])
    Ps = Pw / s
    sv = np.linalg.svd(Ps, compute_uv=False)
    smax, smin = sv[0], sv[-1]
    z, *_ = np.linalg.lstsq(Ps, lw, rcond=None)
    xi = z / s
    r = P @ xi - lam
    return LSSolution(
        xi=xi, residuals=r, residual_mean=float(np.mean(r)),
        residual_abs_mean=float(np.mean(np.abs(r))), residual_std=float(np.std(r)),
        cond_PtP=float(np.inf if smin == 0.0 else (smax / smin) ** 2),
        rank_deficient=bool(smin < RANK_DEFICIENT_TOL * smax),
    )


def _assert_matches_reference(sol, ref):
    # xi to a few times cond(PtP) * eps (measured: at most 9.5 at cond 1)
    tol = 16.0 * max(ref.cond_PtP, 1.0) * EPS * max(1.0, np.max(np.abs(ref.xi)))
    assert np.max(np.abs(sol.xi - ref.xi)) <= tol
    assert sol.cond_PtP == pytest.approx(ref.cond_PtP, rel=1e-9)
    assert sol.rank_deficient == ref.rank_deficient


def _conditioned(rng, rows, n, cond_PtP):
    """Random rows x n matrix with cond(P^T P) = cond_PtP."""
    u, _ = np.linalg.qr(rng.normal(size=(rows, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (u * np.logspace(0, -0.5 * np.log10(cond_PtP), n)) @ v.T


@pytest.mark.parametrize("scaling", ["none", "column_norm"])
@pytest.mark.parametrize("cond_PtP", [1e0, 1e3, 1e6, 1e9, 1e12])
def test_solve_ls_matches_svd_reference_across_conditioning(cond_PtP, scaling):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        P = _conditioned(rng, 300, 12, cond_PtP)
        lam = rng.normal(size=300)  # inconsistent: a nonzero residual
        sol = solve_ls(P, lam, scaling=scaling)
        ref = _reference_solve_ls(P, lam, scaling=scaling)
        _assert_matches_reference(sol, ref)
        if scaling == "none":
            assert ref.cond_PtP == pytest.approx(cond_PtP, rel=1e-6)


@pytest.mark.parametrize("scaling", ["none", "column_norm"])
def test_solve_ls_duplicated_column_gives_minimum_norm_solution(scaling):
    rng = np.random.default_rng(5)
    P = rng.normal(size=(40, 5))
    P[:, 3] = P[:, 1]  # exactly rank deficient
    lam = rng.normal(size=40)
    sol = solve_ls(P, lam, scaling=scaling)
    ref, *_ = np.linalg.lstsq(P, lam, rcond=None)
    assert np.max(np.abs(sol.xi - ref)) <= 1e-12
    assert sol.xi[1] == pytest.approx(sol.xi[3], rel=1e-12)
    assert sol.rank_deficient


@pytest.mark.parametrize("rows", [4, 5, 6])
def test_solve_ls_few_rows(rows):
    # rows <= n + 1, down to an underdetermined system: the triangle R of
    # [P | lambda] is then wide, with fewer rows than n + 1.
    rng = np.random.default_rng(rows)
    P = rng.normal(size=(rows, 5))
    lam = rng.normal(size=rows)
    sol, ref = solve_ls(P, lam), _reference_solve_ls(P, lam)
    _assert_matches_reference(sol, ref)
    assert sol.residual_std == pytest.approx(ref.residual_std, abs=1e-12)


def test_solve_ls_weights_and_no_scaling_match_reference():
    rng = np.random.default_rng(6)
    P = _conditioned(rng, 60, 8, 1e8)
    lam = rng.normal(size=60)
    w = rng.uniform(0.5, 2.0, 60)
    for scaling in ("none", "column_norm"):
        _assert_matches_reference(solve_ls(P, lam, w, scaling),
                                  _reference_solve_ls(P, lam, w, scaling))


@pytest.mark.parametrize("name, bad", [("P", np.inf), ("lam", np.nan), ("weights", np.nan)])
def test_solve_ls_rejects_non_finite_input(name, bad):
    rng = np.random.default_rng(7)
    args = {"P": rng.normal(size=(20, 3)), "lam": rng.normal(size=20),
            "weights": np.ones(20)}
    args[name][12] = bad
    args[name][15] = bad  # only the first bad row is named
    with pytest.raises(ValueError, match=f"^{name} is non-finite at row 12$"):
        solve_ls(args["P"], args["lam"], args["weights"])


def test_scaling_does_not_change_solution():
    ode = _eq19()
    c = CATALOG["eq19"].constraint_triples()
    a = solve_problem(ode, c, _cfg(scaling="column_norm"))
    b = solve_problem(ode, c, _cfg(scaling="none"))
    assert np.max(np.abs(a.xi - b.xi)) <= 1e-8 * max(1.0, np.max(np.abs(a.xi)))


# --- end-to-end solves -----------------------------------------------------

def test_solve_straight_line_bvp_exact():
    ode = LinearODE2(
        f2=lambda t: np.ones_like(t),
        f1=lambda t: np.zeros_like(t),
        f0=lambda t: np.zeros_like(t),
        f=lambda t: np.zeros_like(t),
        t1=0.0,
        t2=1.0,
    )
    sol = solve_problem(ode, [(0, 0.0, 0.0), (0, 1.0, 1.0)], _cfg(m=5, N=50))
    t = np.linspace(0, 1, 11)
    y, yd, ydd = sol.solution(t)
    assert np.max(np.abs(y - t)) <= 1e-13
    assert np.max(np.abs(yd - 1.0)) <= 1e-12
    assert np.max(np.abs(ydd)) <= 1e-11


def test_solve_catalog_ivp_matches_analytic():
    entry = CATALOG["eq19"]
    sol = solve_problem(entry.ode(), entry.constraint_triples(), _cfg())
    t = np.linspace(1.0, 4.0, 500)
    y, _, _ = sol.solution(t)
    assert np.max(np.abs(y - entry.analytic(t)[0])) <= 1e-10
    assert sol.residual_std <= 1e-10


def test_solve_catalog_bvp_matches_analytic():
    entry = CATALOG["eq26"]
    sol = solve_problem(entry.ode(), entry.constraint_triples(), _cfg(m=16))
    t = np.linspace(0.0, 1.0, 500)
    y, _, _ = sol.solution(t)
    assert np.max(np.abs(y - entry.analytic(t)[0])) <= 1e-12


def test_constraints_hold_for_any_coefficients():
    # the embedding satisfies the constraints regardless of xi; perturb it
    entry = CATALOG["eq26"]
    cfg = _cfg(m=12)
    sol = solve_problem(entry.ode(), entry.constraint_triples(), cfg)
    rng = np.random.default_rng(4)
    mapped = map_ode(entry.ode())
    xi = sol.xi + rng.normal(scale=10.0, size=sol.xi.shape)
    elim = _eliminate(_expression(mapped, entry.constraint_triples()), cfg.m)
    perturbed = _make_solution(elim, mapped, cfg.m, xi)
    y, _, _ = perturbed(np.array([0.0, 1.0]))
    assert y[0] == pytest.approx(1.0, abs=1e-10)
    assert y[1] == pytest.approx(3.0, abs=1e-10)


def test_residual_orthogonal_to_columns():
    mapped = map_ode(_eq19())
    expr = fixed_case_expression("IVP_y_dy", (1.0, 0.75))
    cfg = _cfg(m=10, N=200)
    P, lam = assemble(expr.constraints, mapped, cfg)
    sol = solve_ls(P, lam)
    g = P.T @ sol.residuals
    assert np.max(np.abs(g)) <= 1e-9 * max(np.linalg.norm(P), 1.0)


def test_node_count_invariance():
    entry = CATALOG["eq19"]
    t = np.linspace(1.0, 4.0, 200)
    y_a = solve_problem(entry.ode(), entry.constraint_triples(),
                        _cfg(N=500)).solution(t)[0]
    y_b = solve_problem(entry.ode(), entry.constraint_triples(),
                        _cfg(N=2000)).solution(t)[0]
    assert np.max(np.abs(y_a - y_b)) <= 1e-10


def test_lobatto_nodes_supported():
    entry = CATALOG["eq19"]
    sol = solve_problem(entry.ode(), entry.constraint_triples(),
                        _cfg(nodes="lobatto"))
    t = np.linspace(1.0, 4.0, 200)
    y, _, _ = sol.solution(t)
    assert np.max(np.abs(y - entry.analytic(t)[0])) <= 1e-10


# --- constraint-case resolution --------------------------------------------

def test_case_resolution_examples():
    # eq19 lives on [1, 4]: dt = 3, so a second derivative scales by 9/4
    mapped = map_ode(_eq19())
    for triples, case_id, values in (
            ([(1, 1.0, 0.0), (0, 1.0, 1.0)], "IVP_y_dy", (1.0, 0.0)),
            ([(2, 4.0, 0.5), (0, 1.0, 1.0)], "BVP_y_ddy", (1.0, 1.125))):
        assert _expression(mapped, triples) == fixed_case_expression(case_id, values).constraints


def test_case_resolution_errors():
    mapped = map_ode(_eq19())
    with pytest.raises(ValueError, match=r"pairs \(\(0, -1.0\),\)"):
        _expression(mapped, [(0, 1.0, 0.0)])
    with pytest.raises(ValueError, match="neither t1 nor t2"):
        _expression(mapped, [(0, 2.0, 0.0), (0, 4.0, 1.0)])
    for order in (-1, 3, 1.5):
        with pytest.raises(ValueError, match=rf"pairs \(\(0, -1.0\), \({order}, 1.0\)\)"):
            _expression(mapped, [(0, 1.0, 0.0), (order, 4.0, 1.0)])
    # singular constraint rows: a duplicated pair, and y'' at both ends over
    # T_0..T_2, where T_2'' is the only nonzero column
    with pytest.raises(ValueError, match="constraint rows have rank 1 on T_0..T_17"):
        solve_problem(_eq19(), [(0, 1.0, 0.0), (0, 1.0, 1.0)], _cfg())
    with pytest.raises(ValueError, match="constraint rows have rank 1 on T_0..T_2"):
        solve_problem(_eq19(), [(2, 1.0, 0.0), (2, 4.0, 1.0)], _cfg(m=2, N=20))


@pytest.mark.parametrize("orders", [(0, 1), (0, 2), (1, 2)])
@pytest.mark.parametrize("pid", ["eq19", "eq26"])
def test_terminal_pairs_solve(pid, orders):
    # both constraints at t2, which no published case has
    entry = CATALOG[pid]
    t2 = entry.interval[1]
    end = entry.analytic(np.array([t2]))
    sol = solve_problem(entry.ode(), [(d, t2, float(end[d][0])) for d in orders], _cfg())
    t = np.linspace(*entry.interval, 1001)
    y = entry.analytic(t)[0]
    assert np.max(np.abs(sol.solution(t)[0] - y)) <= 1e-10 * np.max(np.abs(y))


def test_config_validation():
    with pytest.raises(ValueError):
        CollocationConfig(m=1)
    with pytest.raises(ValueError):
        CollocationConfig(m=10, N=5)
    with pytest.raises(ValueError):
        CollocationConfig(scaling="rows")
    with pytest.raises(ValueError):
        CollocationConfig(m=4, N=10, weights=np.zeros(10))
    with pytest.raises(ValueError):
        CollocationConfig(m=4, N=10, weights=np.r_[np.nan, np.ones(9)])


# --- solution domain ---------------------------------------------------------

def test_solution_outside_interval_raises():
    sol = solve_problem(_eq19(), CATALOG["eq19"].constraint_triples(), _cfg())
    with pytest.raises(DomainError):
        sol.solution(9.0)
    with pytest.raises(DomainError):
        sol.solution(np.array([2.0, 4.0 + 1e-6]))
    y, yd, ydd = sol.solution(4.0)
    ya, yda, ydda = CATALOG["eq19"].analytic(4.0)
    assert y[0] == pytest.approx(ya, abs=1e-9)
    assert yd[0] == pytest.approx(yda, abs=1e-8)
    assert ydd[0] == pytest.approx(ydda, abs=1e-7)


# --- m sweep -------------------------------------------------------------------

SWEEP_FIELDS = ("residual_mean", "residual_abs_mean", "residual_std")

# A sweep row reads its m from the QR factorization of the largest-m system;
# a per-m solve factors the m system itself. The two agree to roundoff, not
# bit for bit. Largest |difference| / max(1, max|lambda|) per field over the
# 5 catalog problems x uniform/Lobatto nodes (N = 1000), rounded up at the
# second digit; measured 2.23e-12, 1.95e-13, 1.004e-12 with column scaling
# and 1.37e-10, 7.59e-12, 6.306e-11 without. These hold for rows with
# cond_PtP < SWEEP_COND; they are one build's maxima.
SWEEP_ABS_TOL = {
    "column_norm": {"residual_mean": 2.3e-12, "residual_abs_mean": 2.0e-13,
                    "residual_std": 1.1e-12},
    "none": {"residual_mean": 1.4e-10, "residual_abs_mean": 7.6e-12,
             "residual_std": 6.4e-11},
}
# From SWEEP_COND up, a last-bit change in P moves a residual by up to about
# kappa(P) eps ||lambda||, kappa(P) = sqrt(cond_PtP) (the first-order
# perturbation of a least-squares residual; Bjorck 1996, section 1.4). Those
# rows are bounded by SWEEP_KAPPA_C sqrt(cond_PtP) eps max(1, max|lambda|);
# measured: at most 0.015 of that bound (0.039 on the published-beta route).
SWEEP_COND = 1e12
SWEEP_KAPPA_C = 1.0


def _sweep_tol(name, ref, scaling, unit):
    if ref.cond_PtP < SWEEP_COND:
        return SWEEP_ABS_TOL[scaling][name] * unit
    return SWEEP_KAPPA_C * np.sqrt(ref.cond_PtP) * EPS * unit


def _assert_sweep_rows_match(got_report, ref_report, lam, scaling):
    unit = max(1.0, np.max(np.abs(lam)))
    tol = {name: t * unit for name, t in SWEEP_ABS_TOL[scaling].items()}
    assert got_report.classification == ref_report.classification
    assert [r.m for r in got_report.per_m] == [r.m for r in ref_report.per_m]
    for got, ref in zip(got_report.per_m, ref_report.per_m):
        assert got.error is None
        assert got.rank_deficient == ref.rank_deficient
        for name in SWEEP_FIELDS:
            diff = abs(getattr(got, name) - getattr(ref, name))
            assert diff <= _sweep_tol(name, ref, scaling, unit), (got.m, name)
        if ref.residual_std > 1e-8:
            assert got.residual_std == pytest.approx(ref.residual_std, rel=1e-8), got.m
        if ref.cond_PtP < 1e12:
            assert got.cond_PtP == pytest.approx(ref.cond_PtP, rel=1e-9), got.m
    # the best m may move only between rows at the same residual level
    a, b = got_report.best_m, ref_report.best_m
    for report in (got_report, ref_report):
        diff = report.row(a).residual_std - report.row(b).residual_std
        assert abs(diff) <= tol["residual_std"], (a, b)


@pytest.mark.parametrize("scaling", ["column_norm", "none"])
@pytest.mark.parametrize("nodes", ["uniform", "lobatto"])
@pytest.mark.parametrize("pid", sorted(CATALOG))
def test_m_sweep_matches_per_m_solves(pid, nodes, scaling):
    entry = CATALOG[pid]
    ode, constraints = entry.ode(), entry.constraint_triples()
    m_range = range(entry.sweep[0], entry.sweep[1] + 1)
    report = m_sweep(ode, constraints, m_range, N=1000, nodes=nodes, scaling=scaling)
    mapped = map_ode(ode)
    P, lam = assemble(_expression(mapped, constraints), mapped,
                      _cfg(m=m_range[-1], nodes=nodes, scaling=scaling))
    rows = []
    for m in m_range:
        cfg = _cfg(m=m, nodes=nodes, scaling=scaling)
        row = solve_problem(ode, constraints, cfg).sweep_row(m)
        # a per-m solve is solve_ls on a column slice of the largest system
        assert row == solve_ls(P[:, :m - 1], lam, scaling=scaling).sweep_row(m)
        rows.append(row)
    _assert_sweep_rows_match(report, diagnostics.make_report(rows), lam, scaling)


def test_m_sweep_over_row_blocks_matches_per_m_solves():
    # N = 3000 rows are factored in three blocks and the stacked triangles
    entry = CATALOG["eq26"]
    ode, constraints = entry.ode(), entry.constraint_triples()
    m_range = range(entry.sweep[0], entry.sweep[1] + 1)
    report = m_sweep(ode, constraints, m_range, N=3000)
    mapped = map_ode(ode)
    _, lam = assemble(_expression(mapped, constraints), mapped, _cfg(m=m_range[-1], N=3000))
    rows = [solve_problem(ode, constraints, _cfg(m=m, N=3000)).sweep_row(m) for m in m_range]
    _assert_sweep_rows_match(report, diagnostics.make_report(rows), lam, "column_norm")


def test_m_sweep_invalid_configs_get_their_own_rows():
    ode, constraints = _eq26(), CATALOG["eq26"].constraint_triples()
    report = m_sweep(ode, constraints, range(3, 26), N=20)
    assert [r.m for r in report.per_m] == list(range(3, 26))
    mapped = map_ode(ode)
    _, lam = assemble(_expression(mapped, constraints), mapped, _cfg(m=19, N=20))
    tol = SWEEP_ABS_TOL["column_norm"]["residual_std"] * max(1.0, np.max(np.abs(lam)))
    for r in report.per_m:
        if r.m >= 20:
            assert r.error == "need N >= m + 1"
        else:
            ref = solve_problem(ode, constraints, _cfg(m=r.m, N=20))
            assert r.error is None
            assert abs(r.residual_std - ref.residual_std) <= tol
            if ref.residual_std > 1e-8:
                assert r.residual_std == pytest.approx(ref.residual_std, rel=1e-8)


def test_m_sweep_row_below_the_pivots_is_an_error():
    # y'' at both ends has pivots T_2 and T_3: m = 2 cannot meet the
    # constraints, and the larger m read the same factorization
    ode, constraints = _eq26(), [(2, 0.0, 0.0), (2, 1.0, 1.0)]
    report = m_sweep(ode, constraints, range(2, 6), N=50)
    assert [r.error for r in report.per_m] == [
        "the 2 constraint rows have rank 1 on T_0..T_2", None, None, None]
    for r in report.per_m[1:]:
        ref = solve_problem(ode, constraints, _cfg(m=r.m, N=50))
        assert r.residual_std == pytest.approx(ref.residual_std, rel=1e-8, abs=1e-13)


def test_m_sweep_non_finite_system_gives_error_rows():
    # f2 = 1e307 overflows the k >= 3 columns of P to inf
    ode = LinearODE2(f2=lambda t: 1e307 + 0 * t, f1=lambda t: 0 * t,
                     f0=lambda t: 0 * t, f=lambda t: 0 * t, t1=0.0, t2=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        report = m_sweep(ode, [(0, 0.0, 0.0), (0, 1.0, 1.0)], range(3, 6), N=50)
    assert [r.error for r in report.per_m] == ["P is non-finite at row 0"] * 3
    assert report.best_m == -1


def test_m_sweep_node_singularity_gives_error_rows():
    ode = LinearODE2(f2=lambda t: 1.0 + 0 * t, f1=lambda t: 0 * t, f0=lambda t: 0 * t,
                     f=lambda t: 1.0 / (t - 0.5), t1=0.0, t2=1.0)
    with np.errstate(divide="ignore"):
        report = m_sweep(ode, [(0, 0.0, 0.0), (0, 1.0, 0.0)], range(3, 8), N=1001)
    assert [r.m for r in report.per_m] == list(range(3, 8))
    assert all("f is non-finite at node 500" in r.error for r in report.per_m)
    assert report.best_m == -1


def test_m_sweep_propagates_programming_errors():
    def broken(t):
        raise TypeError("coefficient bug")

    ode = LinearODE2(f2=broken, f1=broken, f0=broken, f=broken, t1=0.0, t2=1.0)
    with pytest.raises(TypeError, match="coefficient bug"):
        m_sweep(ode, [(0, 0.0, 0.0), (0, 1.0, 0.0)], range(3, 8))


def test_no_single_point_basis_evaluation(monkeypatch):
    import tfc_solve.chebyshev as chebyshev
    import tfc_solve.solver as solver

    calls = []
    original = chebyshev.eval_basis

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (chebyshev, solver):
        monkeypatch.setattr(module, "eval_basis", counted, raising=False)
    sol = solve_problem(_eq19(), CATALOG["eq19"].constraint_triples(), _cfg())
    sol.solution(np.linspace(1.0, 4.0, 11))
    m_sweep(_eq26(), CATALOG["eq26"].constraint_triples(), range(3, 10))
    assert calls == []


def test_constraint_rows_need_an_interval_end():
    # rows (-1)^k and 1: pivots T_0 and T_1, kept T_2 - T_0, T_3 - T_1, T_4 - T_0
    expr = fixed_case_expression("BVP_y_y", [0.0, 0.0])
    S, K, W, _ = _eliminate(expr.constraints, 4)
    assert (S, K.tolist(), W.tolist()) == ([0, 1], [2, 3, 4], [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    moved = expr.constraints[:1] + (ConstraintSpec(0, 0.5, 0.0),)
    with pytest.raises(ValueError, match="endpoint must be -1 or \\+1"):
        _eliminate(moved, 4)


# --- in-place kernels against the formulations they replaced ---------------
# Each reference is the allocating form the kernel had before it worked in
# place; the outputs must agree in every bit, the sign of zeros included.


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def _reference_factor(P, lam, weights, scaling):
    """[Ps | lw] written whole into one Fortran-order array, then blocked QR."""
    rows, n = P.shape
    A = np.empty((rows, n + 1), order="F")
    if weights is not None:
        sw = np.sqrt(weights)
        np.multiply(P, sw[:, None], out=A[:, :n])
        np.multiply(lam, sw, out=A[:, n])
    else:
        A[:, :n] = P
        A[:, n] = lam
    if scaling == "column_norm":
        s = np.linalg.norm(A[:, :n], axis=0)
        s[s == 0.0] = 1.0
        A[:, :n] /= s
    else:
        s = np.ones(n)
    Rs = [np.linalg.qr(A[i:i + 1024], mode="r") for i in range(0, max(rows, 1), 1024)]
    return (Rs[0] if len(Rs) == 1 else np.linalg.qr(np.vstack(Rs), mode="r")), s


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("scaling", ["column_norm", "none"])
@pytest.mark.parametrize("rows", [1, 5, 1023, 1024, 1025, 4000])
def test_factor_bit_identical_to_whole_array_form(rows, scaling, weighted, order):
    rng = np.random.default_rng([rows, weighted, order == "F"])
    # columns over twelve decades, one of them zero
    P = rng.standard_normal((rows, 19)) * np.logspace(-6, 6, 19)
    P[:, 7] = 0.0
    P = np.asarray(P, order=order)
    lam = rng.standard_normal(rows)
    weights = rng.uniform(0.1, 10.0, rows) if weighted else None
    R, s = _factor(P, lam, weights, scaling)
    R_ref, s_ref = _reference_factor(P, lam, weights, scaling)
    assert _bits(s) == _bits(s_ref)
    assert _bits(R) == _bits(R_ref)


def _reference_assemble(constraints, mapped, cfg):
    """L T_k for every k, and each product, as an array of its own."""
    S, K, W, a = _eliminate(constraints, cfg.m)
    x = mapped.map.nodes(cfg.N, cfg.nodes)
    f2, f1, f0, f = mapped.coefficients_at(x)
    grid = eval_basis_grid(cfg.m, 2, x)
    dt = mapped.map.delta_t
    LT = (4.0 / dt**2) * f2 * grid[2] + (2.0 / dt) * f1 * grid[1] + f0 * grid[0]
    return (LT[K] - W.T @ LT[S]).T, f - a @ LT[S]


@pytest.mark.parametrize("nodes", ["uniform", "lobatto"])
@pytest.mark.parametrize("case_id", sorted(FIXED_CASES))
def test_assemble_bit_identical_to_allocating_form(case_id, nodes):
    mapped = map_ode(_eq19())
    constraints = fixed_case_expression(case_id, (0.75, -1.25)).constraints
    for m in (2, 17, 30):
        for N in (20, 1000, 4000):
            if N < m + 1:
                continue
            cfg = _cfg(m=m, N=N, nodes=nodes)
            if case_id == "BVP_ddy_ddy" and m == 2:
                # its pivots are T_2 and T_3
                with pytest.raises(ValueError, match="constraint rows have rank 1"):
                    assemble(constraints, mapped, cfg)
                continue
            P, lam = assemble(constraints, mapped, cfg)
            P_ref, lam_ref = _reference_assemble(constraints, mapped, cfg)
            # the residual P @ xi rounds by P's memory order, so it is kept
            assert P.flags.f_contiguous == P_ref.flags.f_contiguous
            assert _bits(P) == _bits(P_ref), (m, N)
            assert _bits(lam) == _bits(lam_ref), (m, N)


def _reference_eliminate(constraints, m):
    """Gauss-Jordan on [C | c] as numpy row operations, over the recurrence's
    endpoint values."""
    n = len(constraints)
    A = np.empty((n, m + 2))
    for i, c in enumerate(constraints):
        A[i, :-1] = eval_basis_grid(m, 2, c.location)[c.order, :, 0]
        A[i, -1] = c.value
    tol = 1e-10 * np.abs(A).max(axis=0)
    S = []
    for k in range(m + 1):
        r = len(S)
        p = max(range(r, n), key=lambda i: abs(A[i, k]))
        if abs(A[p, k]) > tol[k]:
            A[[r, p]] = A[[p, r]]
            A[r] /= A[r, k]
            for i in set(range(n)) - {r}:
                A[i] -= A[i, k] * A[r]
            S.append(k)
            if len(S) == n:
                K = [j for j in range(m + 1) if j not in S]
                return S, np.array(K), A[:, K], A[:, -1]
    raise ValueError(f"the {n} constraint rows have rank {len(S)} on T_0..T_{m}")


_ENDS = [(d, e) for e in (-1.0, 1.0) for d in (0, 1, 2)]


@pytest.mark.parametrize("m", [2, 17, 30])
def test_eliminate_bit_identical_to_numpy_row_operations(m):
    # all 15 pairs of distinct (order, end) constraints, and one alone
    sets = [(p, q) for i, p in enumerate(_ENDS) for q in _ENDS[i + 1:]] + [((0, 1.0),)]
    for specs in sets:
        for values in ((0.7, -1.3e-3), (0.0, -0.0)):
            constraints = tuple(ConstraintSpec(d, e, v) for (d, e), v in zip(specs, values))
            try:
                ref = _reference_eliminate(constraints, m)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    _eliminate(constraints, m)
                continue
            S, K, W, a = _eliminate(constraints, m)
            assert S == ref[0], specs
            assert K.dtype == ref[1].dtype and _bits(K) == _bits(ref[1]), specs
            assert _bits(W) == _bits(ref[2]), specs
            assert _bits(a) == _bits(ref[3]), specs


# --- the published beta polynomials, as a reference -------------------------

def _beta_route(ode, triples, cfg):
    """The solution through a published case's betas: the solver's route before
    it eliminated the constraint rows. Column k = 2..m is the operator on
    y_k = T_k - sum_i beta_i T_k^(d_i)(x_i); y = g + sum_i beta_i (c_i - g_i)."""
    mapped = map_ode(ode)
    constraints = _expression(mapped, triples)
    pairs = tuple((c.order, c.location) for c in constraints)
    case_id = next(cid for cid, (specs, _) in FIXED_CASES.items() if specs == pairs)
    expr = fixed_case_expression(case_id, [c.value for c in constraints])
    x = mapped.map.nodes(cfg.N, cfg.nodes)
    coeffs = mapped.coefficients_at(x)
    grid = eval_basis_grid(cfg.m, 2, x)
    rows = endpoint_rows(cfg.m, [c.order for c in constraints], [c.location for c in constraints])
    b = [expr.betas.eval(x, d) for d in range(3)]
    P = mapped.homogeneous_operator(
        x, *(grid[d, 2:] - rows[:, 2:].T @ b[d] for d in range(3)), coeffs).T
    lam = coeffs[3] - mapped.homogeneous_operator(x, *(expr.values @ bd for bd in b), coeffs)
    c = np.zeros(cfg.m + 1)
    c[2:] = solve_ls(P, lam, cfg.weights, cfg.scaling).xi

    def solution(t):
        x = _clip_to_interval(mapped.map.to_x(t))
        g = eval_basis_grid(cfg.m, 2, x)
        y, yp, ypp = expr.eval(x, c @ g[0], c @ g[1], c @ g[2], rows @ c)
        return y, mapped.map.dydx_to_dydt(yp), mapped.map.d2ydx2_to_d2ydt2(ypp)

    return solution


# The homogeneous ODE has a nonzero solution meeting both constraints at zero.
_NOT_UNIQUE = {("eq19", "BVP_ddy_ddy"), ("eq26", "BVP_y_dy"), ("eq26", "BVP_dy_ddy")}


@pytest.mark.parametrize("pid", ["eq19", "eq26"])
def test_elimination_agrees_with_the_published_betas(pid):
    # the kept columns and T_2..T_m with the betas span the same space, so
    # the two routes differ by rounding only
    entry = CATALOG[pid]
    ode, (t1, t2) = entry.ode(), entry.interval
    t = np.linspace(t1, t2, 1001)
    for case_id, (specs, _) in sorted(FIXED_CASES.items()):
        if (pid, case_id) in _NOT_UNIQUE:
            continue
        triples = [(d, at, float(entry.analytic(np.array([at]))[d][0]))
                   for d, at in ((d, t1 if loc < 0 else t2) for d, loc in specs)]
        for m in (15, 17, 23):
            for N in (1000, 4000):
                got = solve_problem(ode, triples, _cfg(m=m, N=N)).solution(t)
                ref = _beta_route(ode, triples, _cfg(m=m, N=N))(t)
                for d in range(3):
                    err = np.max(np.abs(got[d] - ref[d])) / max(1.0, np.max(np.abs(ref[d])))
                    assert err <= 1e-9, (case_id, m, N, d, err)
