"""Chebyshev polynomials of the first kind and their derivatives on [-1, 1].

Values follow the three-term recurrence T_{k+1} = 2 x T_k - T_{k-1}; the
d-th derivatives follow the companion recurrence

    T_{k+1}^(d) = 2 d T_k^(d-1) + 2 x T_k^(d) - T_{k-1}^(d),

so that the same quantities feed both the collocation matrix and the
endpoint identities.
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
    out = np.zeros((d_max + 1, m_max + 1, n))
    out[0, 0] = 1.0
    out[0, 1] = x
    if d_max >= 1:
        out[1, 1] = 1.0
    for k in range(1, m_max):
        out[0, k + 1] = 2.0 * x * out[0, k] - out[0, k - 1]
        for d in range(1, d_max + 1):
            out[d, k + 1] = (
                2.0 * d * out[d - 1, k] + 2.0 * x * out[d, k] - out[d, k - 1]
            )
    return out


def eval_basis(m_max, d_max, x):
    """Evaluate the basis at a single point, packaged as a BasisEval."""
    grid = eval_basis_grid(m_max, d_max, float(x))
    values = grid[0, :, 0].copy()
    derivs = {d: grid[d, :, 0].copy() for d in range(1, d_max + 1)}
    return BasisEval(m_max=m_max, x=float(x), values=values, derivs=derivs)


def endpoint_values(k, endpoint):
    """Closed-form (T_k, T_k', T_k'') at x = -1 or x = +1.

    At +1: (1, k^2, k^2 (k^2 - 1) / 3); at -1 the same with alternating signs.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if endpoint not in (-1, 1):
        raise ValueError("endpoint must be -1 or +1")
    k = float(k)
    t0, t1, t2 = 1.0, k * k, k * k * (k * k - 1.0) / 3.0
    if endpoint == -1:
        s = -1.0 if int(k) % 2 else 1.0
        return (s, -s * t1, s * t2)
    return (t0, t1, t2)
