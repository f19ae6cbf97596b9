import numpy as np
import pytest

from tfc_solve import (
    DivisorZero,
    LinearODE2,
    NodeSingularity,
    implied_initial_value,
    map_ode,
)
from tfc_solve.catalog import CATALOG


def _eq19():
    return CATALOG["eq19"].ode()


def test_mapped_second_derivative_scaling():
    # t^2 y'' - t(t+2) y' + (t+2) y = 0 on [1, 4]: dt = 3, so the mapped
    # y'' coefficient is (4/9) t^2.
    mapped = map_ode(_eq19())
    x = np.array([-1.0, 0.0, 1.0])
    f2, f1, f0, f = mapped.coefficients_at(x)
    t = np.array([1.0, 2.5, 4.0])
    assert np.allclose(f2, t**2)
    assert np.allclose(f1, -t * (t + 2.0))
    assert np.allclose(f0, t + 2.0)
    assert np.allclose(f, 0.0)
    op = mapped.homogeneous_operator(x, 0.0 * x, 0.0 * x, np.ones_like(x))
    assert np.allclose(op, (4.0 / 9.0) * t**2)


def test_analytic_solution_annihilates_residual():
    # y(t) = (2 - e^{t-1}) t solves the mapped equation at machine level.
    mapped = map_ode(_eq19())
    x = np.linspace(-1, 1, 301)
    t = mapped.map.to_t(x)
    e = np.exp(t - 1.0)
    y = (2.0 - e) * t
    dydt = 2.0 - e - e * t
    d2ydt2 = -2.0 * e - e * t
    dt = mapped.map.delta_t
    yp = dydt * dt / 2.0
    ypp = d2ydt2 * dt**2 / 4.0
    r = mapped.homogeneous_operator(x, y, yp, ypp) - mapped.coefficients_at(x)[3]
    assert np.max(np.abs(r)) <= 1e-9


def test_first_derivative_chain_rule():
    ode = LinearODE2(
        f2=lambda t: np.ones_like(t),
        f1=lambda t: np.ones_like(t),
        f0=lambda t: np.zeros_like(t),
        f=lambda t: np.zeros_like(t),
        t1=0.0,
        t2=5.0,
    )
    mapped = map_ode(ode)
    # y = t => y_x = dt/2, y_xx = 0; operator must return dy/dt = 1
    x = np.linspace(-1, 1, 9)
    t = mapped.map.to_t(x)
    op = mapped.homogeneous_operator(x, t, np.full_like(x, 2.5), np.zeros_like(x))
    assert np.allclose(op, 1.0, atol=1e-14)


def test_node_singularity_reported():
    ode = LinearODE2(
        f2=lambda t: 1.0 / (t - 2.0),
        f1=lambda t: np.zeros_like(t),
        f0=lambda t: np.ones_like(t),
        f=lambda t: np.zeros_like(t),
        t1=0.0,
        t2=4.0,
    )
    mapped = map_ode(ode)
    with np.errstate(divide="ignore"), pytest.raises(NodeSingularity) as exc:
        mapped.coefficients_at(np.array([-1.0, 0.0, 1.0]))
    assert exc.value.name == "f2"
    assert exc.value.t == pytest.approx(2.0)


def test_implied_initial_second_derivative():
    # for the [1, 4] catalog problem with y(1) = 1, ydot(1) = 0 the ODE at
    # t1 pins ddy: 1*ddy - 3*0 + 3*1 = 0 => ddy = -3, i.e. -6.75 in x.
    mapped = map_ode(_eq19())
    dy_x = 0.0 * mapped.map.delta_t / 2.0
    ddy_x = implied_initial_value(mapped, {"y": 1.0, "dy_x": dy_x})
    assert ddy_x == pytest.approx(-6.75, abs=1e-12)
    assert mapped.map.to_t_derivative(2, ddy_x) == pytest.approx(-3.0, abs=1e-12)


def test_implied_initial_value_and_slope():
    mapped = map_ode(_eq19())
    # invert the relation both ways from the same consistent triple
    y = implied_initial_value(mapped, {"dy_x": 0.0, "ddy_x": -6.75})
    assert y == pytest.approx(1.0, abs=1e-12)
    dy = implied_initial_value(mapped, {"y": 1.0, "ddy_x": -6.75})
    assert dy == pytest.approx(0.0, abs=1e-12)


def test_implied_initial_value_linearity():
    mapped = map_ode(_eq19())
    rng = np.random.default_rng(11)
    a = implied_initial_value(mapped, {"y": 0.0, "dy_x": 0.0})
    for _ in range(20):
        y0, dy0 = rng.normal(size=2)
        v1 = implied_initial_value(mapped, {"y": y0, "dy_x": dy0})
        vy = implied_initial_value(mapped, {"y": 1.0, "dy_x": 0.0}) - a
        vd = implied_initial_value(mapped, {"y": 0.0, "dy_x": 1.0}) - a
        assert v1 == pytest.approx(a + y0 * vy + dy0 * vd, abs=1e-10)


def test_divisor_zero():
    ode = LinearODE2(
        f2=lambda t: np.zeros_like(t),
        f1=lambda t: np.ones_like(t),
        f0=lambda t: np.ones_like(t),
        f=lambda t: np.zeros_like(t),
        t1=0.0,
        t2=1.0,
    )
    with pytest.raises(DivisorZero) as exc:
        implied_initial_value(map_ode(ode), {"y": 1.0, "dy_x": 0.0})
    assert "f2" in str(exc.value)


def test_implied_initial_value_argument_checks():
    mapped = map_ode(_eq19())
    with pytest.raises(ValueError):
        implied_initial_value(mapped, {"y": 1.0})
    with pytest.raises(ValueError):
        implied_initial_value(mapped, {"y": 1.0, "dy_x": 0.0, "ddy_x": 0.0})


@pytest.mark.parametrize("shape", [(301,), (18, 301)])
def test_operator_into_a_buffer_keeps_every_bit(shape):
    # the one-pass sum `assemble` forms over a node table's rows T'', T', T,
    # written into a buffer, against the allocating call
    mapped = map_ode(_eq19())
    x = np.linspace(-1.0, 1.0, 301)
    coeffs = mapped.coefficients_at(x)
    rng = np.random.default_rng(7)
    y, yp, ypp = (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
                  for _ in range(3))
    y[..., 0] = yp[..., 0] = ypp[..., 0] = 0.0  # a zero keeps its sign too
    ref = mapped.homogeneous_operator(x, y, yp, ypp, coeffs)
    f2, f1, f0, _ = coeffs
    dt = mapped.map.delta_t
    assert ref.tobytes() == ((4.0 / dt**2) * f2 * ypp + (2.0 / dt) * f1 * yp + f0 * y).tobytes()
    w = mapped.operator_weights(coeffs)
    assert w.shape == (3, len(x))
    spec = "dki,di->ki" if len(shape) == 2 else "di,di->i"
    buf = np.full(shape, np.nan)
    out = np.einsum(spec, np.stack([y, yp, ypp])[::-1], w, out=buf)
    assert out is buf
    assert out.tobytes() == ref.tobytes()
    # the one difference: einsum starts its sum from +0.0, so three -0.0
    # products read +0.0 where the allocating call keeps -0.0
    zeros = np.full((3,) + shape, -0.0)
    assert np.all(np.signbit(mapped.homogeneous_operator(x, *zeros, np.ones((4, 301)))))
    assert not np.any(np.signbit(np.einsum(spec, zeros, np.ones((3, 301)))))
