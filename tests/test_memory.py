"""Peak transient memory of the solvers, as tracemalloc sees it.

numpy reports every data buffer it allocates to tracemalloc, so these peaks
are the same from run to run. Each bound is a multiple of the nbytes of the
system the call solves. The rule they hold the kernels to: no temporary of
the system's size besides the system matrix itself and one scratch.
"""

import tracemalloc

import numpy as np

from tfc_solve import (
    CollocationConfig,
    StateCostateProblem,
    m_sweep,
    solve_problem,
    solve_state_costate,
)
from tfc_solve.catalog import CATALOG
from tfc_solve.solver import _solve

from kernel import system_of


def transient_peak(call):
    """Peak bytes allocated, over those held before, during one call."""
    call()  # caches and first-call allocations stay out of the measure
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_solve_ls_makes_no_copy_of_the_system():
    # [P | lambda] is factored a block of rows at a time; a copy of it whole
    # would take the peak past the system's own size
    rng = np.random.default_rng(5)
    system = system_of(rng.standard_normal((4000, 60)), rng.standard_normal(4000))
    assert transient_peak(lambda: _solve(system, None, "column_norm")) < 1.0 * system.nbytes


def test_solution_callable_builds_no_basis_grid():
    # y, y' and y'' are summed by Clenshaw's recurrence in four (3, len(t))
    # arrays, 2x broadcast among them (0.18 grids); a (3, m + 1, len(t))
    # basis grid took it to 1.06
    entry = CATALOG["eq19"]
    sol = solve_problem(entry.ode(), entry.constraint_triples(), CollocationConfig(m=23, N=1000))
    t = np.linspace(entry.ode().t1, entry.ode().t2, 10001)
    grid_bytes = 3 * 24 * 10001 * 8
    assert transient_peak(lambda: sol.solution(t)) < 0.25 * grid_bytes


def test_warm_solve_reads_the_kept_node_table():
    # a warm eq19 solve peaks at 2.36 systems: [P | lambda] (one system) and
    # the product W^T (L T_S) the assembly subtracts from it (0.96), with the
    # node table kept from the first call; a (3, m + 1, N) basis grid built on
    # every call took it to 4.44
    entry = CATALOG["eq19"]
    cfg = CollocationConfig(m=23, N=4000)
    system = cfg.N * (cfg.m - 1) * 8 + cfg.N * 8  # P and lambda
    peak = transient_peak(lambda: solve_problem(entry.ode(), entry.constraint_triples(), cfg))
    assert peak < 3.0 * system


def test_m_sweep_assembles_through_one_scratch():
    # the column buffer (one system) and the product W^T (L T_S) the
    # assembly subtracts from it (0.97) are the only arrays of their size, a
    # peak of 2.34 systems; with a (3, m + 1, N) basis grid built on every
    # call it was 4.38
    entry = CATALOG["eq28"]
    ode, constraints = entry.ode(), entry.constraint_triples()
    m_range = range(entry.sweep[0], entry.sweep[1] + 1)
    system = 1000 * (m_range[-1] - 1) * 8 + 1000 * 8  # P and lambda at N = 1000
    peak = transient_peak(lambda: m_sweep(ode, constraints, m_range, N=1000))
    assert peak < 6.0 * system


def double_integrator():
    # the double integrator with quadratic state and control costs, in
    # companion form: a 3N x (3m - 1) system
    return StateCostateProblem(
        A11=lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]),
        A12=lambda t: np.array([[0.0, 0.0], [0.0, -1.0]]),
        A21=lambda t: np.array([[-1.0, 0.0], [0.0, 0.0]]),
        A22=lambda t: np.array([[0.0, 0.0], [-1.0, 0.0]]),
        x0=[1.0, 0.0], lambda_f=[0.0, 0.0], t0=0.0, tf=2.0)


def test_state_costate_builds_the_block_system_in_place():
    # M itself (one system) is made by the call; the assembly's stacks and
    # the factor's row blocks add well under one more
    cfg = CollocationConfig(m=20, N=1000)
    system = 4 * cfg.N * 3 * cfg.m * 8 + 4 * cfg.N * 8  # M and its right-hand side
    peak = transient_peak(lambda: solve_state_costate(double_integrator(), cfg))
    assert peak < 2.2 * system


def test_state_costate_reads_the_kept_node_table():
    # in units of the 3N x (3m - 1) system and its right-hand side, with the
    # node table kept from the first call: M (1.0) with A (0.09) and one
    # (equation, block) pair's products, such as W^T (L T_S) (0.11), peak at
    # 1.39 in the assembly, and M with the kernel's QR of a block of rows at
    # 1.41; a value table T_0..T_m of its own and each block's
    # t-derivative products took it to 1.90, and a t-scaled (3, m + 1, N)
    # derivative grid, with a block's products made while the last block's
    # were alive, to 2.27
    cfg = CollocationConfig(m=20, N=1000)
    system = 3 * cfg.N * (3 * cfg.m - 1) * 8 + 3 * cfg.N * 8
    peak = transient_peak(lambda: solve_state_costate(double_integrator(), cfg))
    assert peak < 2.05 * system
