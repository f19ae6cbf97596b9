"""Chebyshev polynomials of the first kind and their derivatives on [-1, 1].

Values follow the three-term recurrence T_{k+1} = 2 x T_k - T_{k-1}; the
d-th derivatives follow the companion recurrence

    T_{k+1}^(d) = 2 d T_k^(d-1) + 2 x T_k^(d) - T_{k-1}^(d),

which fills the collocation matrix. At x = -1 and x = +1, where the
constraints sit, T_k^(d) has a closed form; `endpoint_rows` gives it for
every k at once, bit for bit what the recurrence gives there. A series
sum_k c_k T_k is summed by Clenshaw's recurrence (`clenshaw`), which
needs no table of the basis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Tolerance for x marginally outside [-1, 1] from mapping roundoff.
ENDPOINT_EPS = 1e-12


@dataclass(frozen=True)
class BasisEval:
    """Chebyshev values and derivatives at a single point.

    values[k] = T_k(x); derivs[d][k] = d^d T_k / dx^d for d = 1..d_max.
    """

    m_max: int
    x: float
    values: np.ndarray
    derivs: dict


def _check_x(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("x must be finite")
    outside = np.abs(x) > 1.0 + ENDPOINT_EPS
    if np.any(outside):
        raise DomainError(
            f"x outside [-1, 1]: {float(x[outside].flat[0])!r}"
            f" ({int(np.count_nonzero(outside))} point(s))")
    return x


def _clip_to_interval(x):
    """x checked to lie within roundoff of [-1, 1], then clipped onto it."""
    return np.clip(_check_x(x), -1.0, 1.0)


def eval_basis_grid(m_max, d_max, x):
    """Evaluate T_0..T_m and derivatives up to order d_max at points x.

    Returns an array of shape (d_max + 1, m_max + 1, len(x)); slice [0] holds
    the values, slice [d] the d-th derivatives.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    x = np.atleast_1d(_check_x(x))
    n = x.size
    out = np.empty((d_max + 1, m_max + 1, n))
    out[:, :2] = 0.0
    out[0, 0] = 1.0
    out[0, 1] = x
    if d_max >= 1:
        out[1, 1] = 1.0
    x2 = 2.0 * x
    d2 = 2.0 * np.arange(1.0, d_max + 1.0)[:, None]
    term = np.empty((d_max, n))
    # Every order d at once, rounded as (2d T_k^(d-1) + 2x T_k^(d)) - T_{k-1}^(d);
    # IEEE addition commutes, so adding the 2d term second keeps every bit.
    # Values alone (d_max = 0) have no 2d term.
    for k in range(1, m_max):
        nxt = out[:, k + 1]
        np.multiply(x2, out[:, k], out=nxt)
        if d_max:
            np.multiply(d2, out[:-1, k], out=term)
            nxt[1:] += term
        nxt -= out[:, k - 1]
    return out


def derivative_series(c):
    """Coefficients of d/dx sum_k c_k T_k, as many as c's (the last is 0).

    From the top down, b_{k-1} = b_{k+1} + 2 k c_k, then b_0 is halved
    (Mason & Handscomb, Chebyshev Polynomials, 2003, section 2.4.5). The
    degree runs along c's first axis; each series along the others (the
    columns of an (m + 1, r) c) gets the bits of its own call.
    """
    n = len(c)
    b = np.zeros((n + 1,) + np.shape(c)[1:])
    for k in range(n - 1, 0, -1):
        b[k - 1] = b[k + 1] + 2.0 * k * c[k]
    b[0] /= 2.0
    return b[:n]


def clenshaw(c, x):
    """sum_k c[i, k] T_k(x) for every row i of c at points x in [-1, 1],
    shape (len(c), len(x)).

    Clenshaw's recurrence, from the top down: b_k = 2 x b_{k+1} - b_{k+2} +
    c_k, then the sum is x b_1 - b_2 + c_0 (Clenshaw 1955; Mason &
    Handscomb, Chebyshev Polynomials, 2003, section 2.4). It needs four
    (rows, len(x)) arrays, 2x broadcast among them, and no table of the basis.
    """
    c = np.asarray(c, dtype=float)
    x = np.atleast_1d(x)
    b1, b2 = np.zeros((len(c), x.size)), np.zeros((len(c), x.size))
    b = np.empty_like(b1)
    x2 = np.multiply(2.0, x, out=np.empty_like(b1))
    for k in range(c.shape[1] - 1, 0, -1):
        np.multiply(x2, b1, out=b)
        b -= b2
        b += c[:, k, None]
        b1, b2, b = b, b1, b2
    np.multiply(x, b1, out=b)
    b -= b2
    b += c[:, :1]
    return b


def eval_basis(m_max, d_max, x):
    """Evaluate the basis at a single point, packaged as a BasisEval."""
    grid = eval_basis_grid(m_max, d_max, float(x))
    values = grid[0, :, 0].copy()
    derivs = {d: grid[d, :, 0].copy() for d in range(1, d_max + 1)}
    return BasisEval(m_max=m_max, x=float(x), values=values, derivs=derivs)


def endpoint_rows(m_max, orders, endpoints):
    """Closed-form T_k^(d)(e) for k = 0..m_max, one row per (d, e) pair.

    d is 0, 1 or 2 and e is -1 or +1 (Mason & Handscomb, Chebyshev
    Polynomials, 2003, section 2.4): at +1, prod_{j<d} (k^2 - j^2) / (2j + 1),
    multiplied and divided in turn, each step the integer T_k^(j+1)(1) and
    exact below 2^53; at -1 the same times (-1)^(k + d). Returns shape
    (len(orders), m_max + 1), with the recurrence's bits, its +0.0 included.
    """
    rows = np.ones((len(orders), m_max + 1))
    k2 = np.arange(m_max + 1.0)
    k2 *= k2
    for row, d, e in zip(rows, orders, endpoints):
        if e not in (-1.0, 1.0):
            raise ValueError("endpoint must be -1 or +1")
        if d not in (0, 1, 2):
            raise ValueError("derivative order must be 0, 1 or 2")
        d = int(d)
        for j in range(d):
            row *= k2 - j * j
            row /= 2 * j + 1
        if e < 0.0:
            row[1 - d % 2::2] *= -1.0  # the k with k + d odd
    # + 0.0 turns the -0.0 of k^2 (k^2 - 1) / 3 at k = 0, and of a flipped
    # zero, into the recurrence's +0.0
    rows += 0.0
    return rows


def endpoint_values(k, endpoint):
    """Closed-form (T_k, T_k', T_k'') at x = -1 or x = +1: column k of
    `endpoint_rows`, from which the solver builds its constraint rows."""
    if k < 0:
        raise ValueError("k must be >= 0")
    k = int(k)
    return tuple(float(v) for v in endpoint_rows(k, (0, 1, 2), (endpoint,) * 3)[:, k])
