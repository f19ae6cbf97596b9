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
from tfc_solve.solver import _make_solution, case_from_constraints


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
    P, lam, x, _ = assemble(expr, mapped, _cfg())
    assert x[0] == -1.0
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
    P, lam, x, _ = assemble(expr, mapped, cfg)

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
    _, lam, _, _ = assemble(expr, mapped, _cfg(m=8, N=50))
    assert np.max(np.abs(lam)) == 0.0


@pytest.mark.parametrize("case_id", ["IVP_y_dy", "BVP_y_y", "BVP_y_dy", "BVP_dy_y"])
def test_dropped_columns_vanish_when_embedding_reproduces_affine(case_id):
    # these embeddings reproduce constants and linears exactly, so the
    # k = 0, 1 columns are numerically zero.
    mapped = map_ode(_eq26())
    expr = fixed_case_expression(case_id, (0.3, -0.9))
    P, _, _, dropped = assemble(expr, mapped, _cfg(m=10, N=60))
    scale = np.max(np.abs(P))
    assert np.max(np.abs(dropped)) <= 1e-12 * scale


def test_dropped_columns_nonzero_for_second_derivative_case():
    # the double second-derivative embedding does not annihilate T0, T1,
    # but those directions still lie in the span of the kept columns.
    mapped = map_ode(_eq26())
    expr = fixed_case_expression("BVP_ddy_ddy", (0.0, 0.0))
    P, _, _, dropped = assemble(expr, mapped, _cfg(m=10, N=60))
    assert np.max(np.abs(dropped)) > 1e-6
    resid = dropped - P @ np.linalg.lstsq(P, dropped, rcond=None)[0]
    assert np.max(np.abs(resid)) <= 1e-8 * np.max(np.abs(dropped))


# --- least squares ---------------------------------------------------------

def test_solve_ls_recovers_exact_solution():
    rng = np.random.default_rng(0)
    P = rng.normal(size=(50, 6))
    xi_true = rng.normal(size=6)
    sol = solve_ls(P, P @ xi_true, _cfg(m=7, N=50))
    assert np.max(np.abs(sol.xi - xi_true)) <= 1e-12
    assert sol.residual_abs_mean <= 1e-13
    assert not sol.rank_deficient


def test_solve_ls_orthonormal_conditioning():
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(40, 5)))
    sol = solve_ls(q, np.zeros(40), _cfg(m=6, N=40, scaling="none"))
    assert sol.cond_PtP == pytest.approx(1.0, rel=1e-12)


def test_solve_ls_flags_rank_deficiency():
    P = np.zeros((30, 4))
    P[:, 0] = np.linspace(0, 1, 30)
    P[:, 1] = 2.0 * P[:, 0]  # dependent column
    P[:, 2] = np.linspace(0, 1, 30) ** 2
    P[:, 3] = np.linspace(0, 1, 30) ** 3
    sol = solve_ls(P, np.zeros(30), _cfg(m=5, N=30))
    assert sol.rank_deficient
    assert sol.cond_PtP > 1e20


def test_solve_ls_residual_statistics():
    # residual of an inconsistent 1-column system is known in closed form
    P = np.ones((4, 1))
    lam = np.array([0.0, 0.0, 0.0, 4.0])  # lstsq fit: xi = 1
    sol = solve_ls(P, lam, _cfg(m=2, N=4))
    assert sol.xi[0] == pytest.approx(1.0)
    assert sol.residual_mean == pytest.approx(0.0, abs=1e-14)
    assert sol.residual_abs_mean == pytest.approx(1.5)
    assert sol.residual_std == pytest.approx(np.sqrt(3.0), rel=1e-12)


def test_solve_ls_weights_reweight_the_fit():
    rng = np.random.default_rng(2)
    P = rng.normal(size=(20, 3))
    lam = rng.normal(size=20)
    w = rng.uniform(0.5, 2.0, 20)
    sol = solve_ls(P, lam, CollocationConfig(m=4, N=20, weights=w))
    sw = np.sqrt(w)
    ref, *_ = np.linalg.lstsq(P * sw[:, None], lam * sw, rcond=None)
    assert np.max(np.abs(sol.xi - ref)) <= 1e-10
    # unweighted answer differs
    sol0 = solve_ls(P, lam, _cfg(m=4, N=20))
    assert np.max(np.abs(sol.xi - sol0.xi)) > 1e-6


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
    perturbed = _make_solution(sol.expr, mapped, cfg.m, xi)
    y, _, _ = perturbed(np.array([0.0, 1.0]))
    assert y[0] == pytest.approx(1.0, abs=1e-10)
    assert y[1] == pytest.approx(3.0, abs=1e-10)


def test_residual_orthogonal_to_columns():
    mapped = map_ode(_eq19())
    expr = fixed_case_expression("IVP_y_dy", (1.0, 0.75))
    cfg = _cfg(m=10, N=200)
    P, lam, _, _ = assemble(expr, mapped, cfg)
    sol = solve_ls(P, lam, cfg)
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
    ode = _eq19()
    case, c1, c2 = case_from_constraints(ode, [(1, 1.0, 0.0), (0, 1.0, 1.0)])
    assert case == "IVP_y_dy"
    assert c1 == (0, 1.0)
    assert c2 == (1, 0.0)
    case, _, _ = case_from_constraints(ode, [(2, 4.0, 0.5), (0, 1.0, 1.0)])
    assert case == "BVP_y_ddy"


def test_case_resolution_errors():
    ode = _eq19()
    with pytest.raises(ValueError):
        case_from_constraints(ode, [(0, 1.0, 0.0)])
    with pytest.raises(ValueError):
        case_from_constraints(ode, [(0, 2.0, 0.0), (0, 4.0, 1.0)])
    with pytest.raises(ValueError):
        case_from_constraints(ode, [(0, 4.0, 0.0), (1, 4.0, 1.0)])


def test_config_validation():
    with pytest.raises(ValueError):
        CollocationConfig(m=1)
    with pytest.raises(ValueError):
        CollocationConfig(m=10, N=5)
    with pytest.raises(ValueError):
        CollocationConfig(scaling="rows")
    with pytest.raises(ValueError):
        CollocationConfig(m=4, N=10, weights=np.zeros(10))


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

SWEEP_FIELDS = ("residual_mean", "residual_abs_mean", "residual_std", "cond_PtP")


@pytest.mark.parametrize("scaling", ["column_norm", "none"])
@pytest.mark.parametrize("nodes", ["uniform", "lobatto"])
@pytest.mark.parametrize("pid", sorted(CATALOG))
def test_m_sweep_matches_per_m_solves(pid, nodes, scaling):
    entry = CATALOG[pid]
    ode, constraints = entry.ode(), entry.constraint_triples()
    m_range = range(entry.sweep[0], entry.sweep[1] + 1)
    report = m_sweep(ode, constraints, m_range, N=1000, nodes=nodes, scaling=scaling)
    rows = [solve_problem(ode, constraints, _cfg(m=m, nodes=nodes, scaling=scaling))
            .sweep_row(m) for m in m_range]
    expected = diagnostics.make_report(rows)
    assert report.classification == expected.classification
    assert report.best_m == expected.best_m
    assert [r.m for r in report.per_m] == list(m_range)
    for got, ref in zip(report.per_m, expected.per_m):
        assert got.error is None
        assert got.rank_deficient == ref.rank_deficient
        for name in SWEEP_FIELDS:
            assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=1e-12,
                                                       abs=0.0), (got.m, name)


def test_m_sweep_invalid_configs_get_their_own_rows():
    ode, constraints = _eq26(), CATALOG["eq26"].constraint_triples()
    report = m_sweep(ode, constraints, range(3, 26), N=20)
    assert [r.m for r in report.per_m] == list(range(3, 26))
    for r in report.per_m:
        if r.m >= 20:
            assert r.error == "need N >= m + 1"
        else:
            ref = solve_problem(ode, constraints, _cfg(m=r.m, N=20))
            assert r.error is None
            assert r.residual_std == pytest.approx(ref.residual_std, rel=1e-12, abs=0.0)


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
