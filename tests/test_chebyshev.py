import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfc_solve import DomainError, endpoint_values, eval_basis, eval_basis_grid
from tfc_solve.chebyshev import clenshaw, derivative_series, endpoint_rows

EPS = np.finfo(float).eps


def test_base_cases():
    be = eval_basis(1, 0, 0.3)
    assert be.values[0] == 1.0
    assert be.values[1] == 0.3


def test_t2_value():
    be = eval_basis(2, 0, 0.5)
    assert be.values[2] == pytest.approx(-0.5, abs=1e-15)


def test_derivative_invariant_base():
    be = eval_basis(5, 2, 0.2)
    assert be.derivs[1][0] == 0.0
    assert be.derivs[2][0] == 0.0
    assert be.derivs[1][1] == 1.0
    assert be.derivs[2][1] == 0.0


def test_values_bounded_on_interval():
    x = np.linspace(-1, 1, 201)
    grid = eval_basis_grid(20, 0, x)
    assert np.max(np.abs(grid[0])) <= 1.0 + 1e-12


def _fd_derivative(k, d, x, h=1e-5):
    # central finite differences of the value recurrence
    if d == 1:
        lo = eval_basis(k, 0, x - h).values[k]
        hi = eval_basis(k, 0, x + h).values[k]
        return (hi - lo) / (2 * h)
    lo = eval_basis(k, 0, x - h).values[k]
    mid = eval_basis(k, 0, x).values[k]
    hi = eval_basis(k, 0, x + h).values[k]
    return (hi - 2 * mid + lo) / h**2


def test_derivs_match_finite_differences():
    be = eval_basis(5, 2, 0.7)
    for d in (1, 2):
        for k in range(2, 6):
            fd = _fd_derivative(k, d, 0.7)
            assert be.derivs[d][k] == pytest.approx(fd, rel=1e-6)


def test_derivative_recurrence_vs_fd_interior_points():
    xs = np.linspace(-0.95, 0.95, 50)
    for x in xs:
        be = eval_basis(20, 2, float(x))
        for d in (1, 2):
            for k in range(2, 21):
                fd = _fd_derivative(k, d, float(x))
                scale = max(abs(fd), 1.0)
                assert abs(be.derivs[d][k] - fd) <= 1e-5 * scale


@pytest.mark.parametrize("endpoint", [-1, 1])
def test_endpoint_identities_vs_recurrence(endpoint):
    be = eval_basis(30, 2, float(endpoint))
    for k in range(31):
        t0, t1, t2 = endpoint_values(k, endpoint)
        assert abs(t0 - be.values[k]) <= 1e-10
        assert abs(t1 - be.derivs[1][k]) <= 1e-10
        assert abs(t2 - be.derivs[2][k]) <= 1e-10


def test_endpoint_examples():
    assert endpoint_values(3, -1) == (-1.0, 9.0, -24.0)
    assert endpoint_values(0, -1) == (1.0, 0.0, 0.0)
    be = eval_basis(7, 2, 1.0)
    t0, t1, t2 = endpoint_values(7, 1)
    assert abs(t0 - be.values[7]) <= 1e-12
    assert abs(t1 - be.derivs[1][7]) <= 1e-12
    assert abs(t2 - be.derivs[2][7]) <= 1e-12


def test_cosine_identity():
    rng = np.random.default_rng(7)
    for theta in rng.uniform(1e-3, np.pi - 1e-3, 20):
        be = eval_basis(15, 0, float(np.cos(theta)))
        for k in range(16):
            assert abs(be.values[k] - np.cos(k * theta)) <= 1e-12


def test_domain_error_outside_interval():
    with pytest.raises(DomainError):
        eval_basis(5, 0, 1.001)
    # endpoint roundoff is tolerated
    eval_basis(5, 0, 1.0 + 5e-13)


def test_bad_arguments():
    with pytest.raises(ValueError):
        eval_basis(0, 0, 0.5)
    with pytest.raises(ValueError):
        eval_basis(3, -1, 0.5)


def _grid_reference(m_max, d_max, x):
    """The recurrence one order and one point set at a time."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((d_max + 1, m_max + 1, x.size))
    out[0, 0] = 1.0
    out[0, 1] = x
    if d_max >= 1:
        out[1, 1] = 1.0
    for k in range(1, m_max):
        out[0, k + 1] = 2.0 * x * out[0, k] - out[0, k - 1]
        for d in range(1, d_max + 1):
            out[d, k + 1] = 2.0 * d * out[d - 1, k] + 2.0 * x * out[d, k] - out[d, k - 1]
    return out


def _assert_grid_bits(m, d, x):
    got, ref = eval_basis_grid(m, d, x), _grid_reference(m, d, x)
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), (m, d, x.size)


def test_grid_bit_identical_to_reference_recurrence():
    # uniform and Lobatto points with their endpoints, both signed zeros,
    # and points within roundoff outside [-1, 1]
    x = np.r_[np.linspace(-1.0, 1.0, 101), -np.cos(np.pi * np.arange(33) / 32),
              0.0, -0.0, 1.0 + 5e-13, -1.0 - 5e-13]
    for m in range(1, 41):
        for d in range(4):
            _assert_grid_bits(m, d, x)
    # a large point set, and m_max = 1 (no recurrence step, so columns 0 and
    # 1 are all the output) right after a freed array of NaNs of the same
    # size, so that memory left uninitialised would show
    for pts in (x, np.linspace(-1.0, 1.0, 10001)):
        for d in range(4):
            for m in (1, 2, 17):
                dirty = np.full((d + 1, m + 1, pts.size), np.nan)
                del dirty
                _assert_grid_bits(m, d, pts)


@pytest.mark.parametrize("endpoint", [-1.0, 1.0])
def test_endpoint_rows_bit_identical_to_recurrence(endpoint):
    # bytes, so that a -0.0 against the recurrence's +0.0 counts
    for m in range(2, 41):
        be = eval_basis(m, 2, endpoint)
        ref = [be.values, be.derivs[1], be.derivs[2]]
        rows = endpoint_rows(m, [0, 1, 2, 2, 0], [endpoint] * 5)
        for i, d in enumerate([0, 1, 2, 2, 0]):
            assert rows[i].tobytes() == ref[d].tobytes(), (m, d)


def test_endpoint_rows_mixed_ends_and_orders():
    rows = endpoint_rows(3, [1, 0, 2], [-1, 1, -1])
    assert rows.tolist() == [[0.0, 1.0, -4.0, 9.0], [1.0, 1.0, 1.0, 1.0],
                             [0.0, 0.0, 4.0, -24.0]]
    assert np.array_equal(np.signbit(rows), rows < 0.0)  # no -0.0


@pytest.mark.parametrize("orders, endpoints", [
    ([0], [0.5]), ([1, 0], [1.0, -0.999]), ([0], [1.0 + 1e-15]), ([3], [1.0]),
    ([-1], [-1.0]), ([1.5], [1.0]), ([0, 1.5], [-1.0, 1.0])])
def test_endpoint_rows_refuse_other_points_and_orders(orders, endpoints):
    with pytest.raises(ValueError):
        endpoint_rows(10, orders, endpoints)


def test_derivative_series():
    # T_3' = 12 x^2 - 3 = 3 T_0 + 6 T_2
    assert derivative_series(np.array([0.0, 0.0, 0.0, 1.0])).tolist() == [3.0, 0.0, 6.0, 0.0]
    rng = np.random.default_rng(4)
    x = np.linspace(-1.0, 1.0, 41)
    for m in (1, 2, 5, 30):
        c = rng.standard_normal(m + 1)
        b = derivative_series(c)
        assert b.shape == c.shape and b[-1] == 0.0
        assert np.allclose(b[:-1], np.polynomial.chebyshev.chebder(c), rtol=1e-14, atol=1e-14)
        assert np.allclose(b @ eval_basis_grid(m, 0, x)[0], c @ eval_basis_grid(m, 1, x)[1],
                           rtol=1e-13, atol=1e-13 * m * m)


@pytest.mark.parametrize("m", [1, 2, 3, 17, 30])
def test_values_alone_are_the_grids_row_zero(m):
    # the values-only recurrence skips the derivative terms and keeps every
    # bit of row 0, the sign of zeros included
    x = np.r_[-1.0, -0.0, 0.0, 1.0, np.random.default_rng(m).uniform(-1.0, 1.0, 40)]
    values = eval_basis_grid(m, 0, x)
    assert values.shape == (1, m + 1, len(x))
    assert values.tobytes() == eval_basis_grid(m, 2, x)[0].tobytes()


@pytest.mark.parametrize("m", [1, 2, 17, 30])
def test_derivative_series_of_stacked_columns(m):
    # each column of an (m + 1, r) array gets the bits of its own call,
    # zero columns and a -0.0 included
    C = np.random.default_rng(m).standard_normal((m + 1, 5))
    C[:, 1] = 0.0
    C[:, 3] = -0.0
    got = derivative_series(C)
    assert got.shape == C.shape
    ref = np.column_stack([derivative_series(C[:, j]) for j in range(C.shape[1])])
    assert got.tobytes() == ref.tobytes()
    stacked = derivative_series(C[:, :, None])
    assert stacked.shape == (m + 1, 5, 1) and stacked.tobytes() == ref.tobytes()


def _clenshaw_reference(c, x):
    """Clenshaw's recurrence as written, 2x broadcast at each step."""
    b1 = b2 = np.zeros((len(c), len(x)))
    for k in range(c.shape[1] - 1, 0, -1):
        b1, b2 = 2.0 * x * b1 - b2 + c[:, k, None], b1
    return x * b1 - b2 + c[:, :1]


# Coefficients decaying at up to e^-1.5 per degree, over ten decades of scale.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(m=st.sampled_from([2, 3, 17, 30]), decay=st.floats(0.0, 1.5),
       decades=st.floats(-5.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_clenshaw_matches_the_basis_grid(m, decay, decades, seed):
    # rows c, c' and c'' summed by Clenshaw against c times the grid's T_k,
    # T_k' and T_k''. Each sum's rounding error is under a small multiple of
    # m eps sum_k |c_k| T_k^(d)(1), since |T_k^(d)| <= T_k^(d)(1) on [-1, 1]
    # (a scan of 12000 draws like these reached 1.26 of it at d = 0, 0.63 at
    # d = 1 and 0.59 at d = 2)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(m + 1) * np.exp(-decay * np.arange(m + 1)) * 10.0**decades
    x = np.r_[-1.0, 0.0, 1.0, rng.uniform(-1.0, 1.0, 20)]
    dc = derivative_series(c)
    series = np.stack([c, dc, derivative_series(dc)])
    got = clenshaw(series, x)
    assert got.tobytes() == _clenshaw_reference(series, x).tobytes()
    ref = c @ eval_basis_grid(m, 2, x)
    assert got.shape == ref.shape == (3, len(x))
    bound = 4.0 * m * EPS * (np.abs(c) @ endpoint_rows(m, (0, 1, 2), (1.0,) * 3).T)
    assert np.all(np.abs(got - ref) <= bound[:, None])
