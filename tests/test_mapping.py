import numpy as np
import pytest

from tfc_solve import DomainMap


def test_endpoint_examples():
    dm = DomainMap(1.0, 4.0)
    assert dm.to_x(1.0) == -1.0
    assert dm.to_x(4.0) == 1.0
    assert dm.to_x(2.5) == 0.0


def test_to_t_examples():
    assert DomainMap(0.0, 1.0).to_t(-1.0) == 0.0
    assert DomainMap(1.0, 4.0).to_t(0.0) == 2.5


def test_round_trip():
    dm = DomainMap(-2.3, 7.9)
    rng = np.random.default_rng(1)
    t = rng.uniform(-2.3, 7.9, 100)
    back = dm.to_t(dm.to_x(t))
    assert np.max(np.abs(back - t) / np.maximum(np.abs(t), 1e-300)) <= 1e-14


def test_derivative_constraint_scaling():
    dm = DomainMap(1.0, 4.0)
    assert dm.scale_derivative_constraint(1, 0.0) == 0.0
    assert DomainMap(0.0, 2.0).scale_derivative_constraint(1, 2.0) == 2.0
    assert dm.scale_derivative_constraint(2, 1.0) == pytest.approx(2.25)
    assert dm.scale_derivative_constraint(0, 5.0) == 5.0
    with pytest.raises(ValueError):
        dm.scale_derivative_constraint(3, 1.0)


def test_chain_rule_identity():
    # dy/dt computed by finite differences in t matches (2/dt) dy/dx on
    # the matched grid.
    dm = DomainMap(0.5, 3.5)
    x = np.linspace(-0.99, 0.99, 101)
    t = dm.to_t(x)
    h = 1e-6

    def y(t):
        return np.sin(1.3 * t) + t**3 / 7.0

    dydt = (y(t + h) - y(t - h)) / (2 * h)
    hx = 1e-6
    dydx = (y(dm.to_t(x + hx)) - y(dm.to_t(x - hx))) / (2 * hx)
    assert np.max(np.abs(dydt - dm.to_t_derivative(1, dydx))) <= 1e-8 * np.max(np.abs(dydt))


# The forms the three DomainMap methods replace, as their callers rounded
# them: the solution callable's y', y'' (y as it was), the operator weights
# on f2, f1 (f0 as it was) and the t-to-x constraint values.
def _old_values(d, dt, v, out=None):
    if d == 0:
        return v
    if d == 1:
        return np.divide(np.multiply(v, 2.0, out=out), dt, out=out)
    return np.divide(np.multiply(v, 4.0, out=out), dt**2, out=out)


def _old_weight(d, dt, f):
    return (f, (2.0 / dt) * f, (4.0 / dt**2) * f)[d]


def _old_constraint(d, dt, v):
    return (float(v), float(v) * dt / 2.0, float(v) * dt**2 / 4.0)[d]


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


@pytest.mark.parametrize("dt", [1.5, 3.0, np.pi, 2.0 * np.pi])
def test_derivative_scaling_bit_identical_to_the_forms_it_replaces(dt):
    dm = DomainMap(0.0, dt)
    assert dm.delta_t == dt
    rng = np.random.default_rng(5)
    v = rng.standard_normal(64) * 10.0 ** rng.integers(-200, 200, 64)
    v[:2] = 0.0, -0.0  # a zero keeps its sign too
    for d in (0, 1, 2):
        assert _bits(dm.to_t_derivative(d, v)) == _bits(_old_values(d, dt, v))
        assert _bits(dm.derivative_factor(d) * v) == _bits(_old_weight(d, dt, v))
        for x in (*v[:8], 0.1, -7.25):
            assert _bits(dm.to_t_derivative(d, x)) == _bits(_old_values(d, dt, x))
            assert _bits(dm.scale_derivative_constraint(d, x)) == _bits(_old_constraint(d, dt, x))
        # out= may be the values themselves or another buffer
        inplace, buf = v.copy(), np.empty_like(v)
        assert dm.to_t_derivative(d, inplace, out=inplace) is inplace
        assert dm.to_t_derivative(d, v, out=buf) is buf
        assert _bits(inplace) == _bits(buf) == _bits(_old_values(d, dt, v))
    for order in (3, -1):
        with pytest.raises(ValueError, match="not supported"):
            dm.scale_derivative_constraint(order, 1.0)


def test_nodes_ordering_and_endpoints():
    dm = DomainMap(0.0, 1.0)
    for kind in ("uniform", "lobatto"):
        x = dm.nodes(17, kind)
        assert x[0] == -1.0
        assert x[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.diff(x) > 0)


def test_rejects_degenerate_interval():
    with pytest.raises(ValueError):
        DomainMap(1.0, 1.0)
    with pytest.raises(ValueError):
        DomainMap(2.0, 1.0)
