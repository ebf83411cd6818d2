"""Special functions backing the closed-form spectra.

Gamma, the modified Bessel functions I/K and the products I_n K_n, and
the Gauss hypergeometric function.  Only integer Bessel orders are needed;
arguments are real.  `bessel_ik` and `hyp2f1` take a whole column of orders
or parameters at once.  Bessel J and its zeros come straight from scipy
(`models._cached_zeros`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as _sp

__all__ = [
    "gamma_fn",
    "bessel_i",
    "bessel_k",
    "bessel_ik",
    "hyp2f1",
]

# math.gamma overflows just above 171.6; keep a round threshold below it
_GAMMA_OVERFLOW = 171.0


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0."""
    if x <= 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    if x > _GAMMA_OVERFLOW:
        raise OverflowError(f"gamma_fn overflow for x = {x}")
    return math.gamma(x)


def bessel_i(n: int, x: float) -> float:
    """Modified Bessel function of the first kind, integer order."""
    if n < 0:
        raise ValueError("bessel_i requires n >= 0")
    val = float(_sp.iv(n, x))
    if math.isinf(val):
        raise OverflowError(f"bessel_i overflow at (n={n}, x={x})")
    return val


def bessel_k(n: int, x: float) -> float:
    """Modified Bessel function of the second kind; requires x > 0."""
    if n < 0:
        raise ValueError("bessel_k requires n >= 0")
    if x <= 0.0:
        raise ValueError(f"bessel_k requires x > 0, got {x}")
    return float(_sp.kv(n, x))


@lru_cache(maxsize=64)
def _bessel_ratios(x: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    # (I_{k+1}/I_k, K_{k+1}/K_k) at x for k < size, read-only.  The I ratio
    # comes from Miller's backward recurrence, written as the continued
    # fraction rho_{j-1} = 1 / (2j/x + rho_j) and started from 0 at
    # j = k + 10 + 6 sqrt(x), a depth that converges to rounding for every
    # k and depends on x only, so each mode's value is the same in any
    # column.  The K ratio comes from the (stable) forward recurrence.
    c = (2.0 / x) * np.arange(size)
    rho = np.zeros(size)
    for j in range(10 + int(6.0 * math.sqrt(x)), 0, -1):
        rho += c
        rho += 2.0 * j / x
        np.reciprocal(rho, out=rho)
    r = [float(_sp.kve(1, x) / _sp.kve(0, x))]
    for k in range(1, size):
        r.append(2.0 * k / x + 1.0 / r[-1])
    r = np.array(r)
    rho.flags.writeable = r.flags.writeable = False
    return rho, r


def bessel_ik(n, y: float, x: float):
    """I_n(y) K_n(x) for 0 < y <= x and an integer n >= 0 or array of them.

    The factors over- and underflow at large n, the product does not: by
    the Wronskian, I_n(x) K_n(x) = 1 / (x (K_{n+1}/K_n + I_{n+1}/I_n)), and
    I_n(y) / I_n(x) is I_0(y) / I_0(x) times the product of the ratios
    (I_{k+1}/I_k)(y) / (I_{k+1}/I_k)(x) over k < n.
    """
    ns = np.asarray(n)
    if ns.min() < 0:
        raise ValueError("bessel_ik requires n >= 0")
    if not 0.0 < y <= x:
        raise ValueError(f"bessel_ik requires 0 < y <= x, got y={y}, x={x}")
    top = int(ns.max())
    size = 128 * (top // 128 + 1)  # one cached table serves many columns
    rho_x, r_x = _bessel_ratios(x, size)
    val = 1.0 / (x * (r_x[ns] + rho_x[ns]))
    if y != x:
        i0 = float(_sp.ive(0, y) / _sp.ive(0, x)) * math.exp(y - x)
        steps = _bessel_ratios(y, size)[0][:top] / rho_x[:top]
        val = val * (i0 * np.concatenate(([1.0], np.cumprod(steps))))[ns]
    return val if ns.ndim else float(val)


def hyp2f1(a, b, c, z: float):
    """Gauss hypergeometric function F(a, b; c; z) for real z in [0, 1].

    Below z = 1 this is scipy's implementation (power series, and the
    z -> 1-z linear transformation near 1), broadcasting over array
    parameters.  z = 1 itself uses the Gauss summation value, for scalar
    parameters with c - a - b > 0.
    """
    cs = np.asarray(c, dtype=float)
    if np.any((cs <= 0) & (cs == np.floor(cs))):
        raise ValueError(f"hyp2f1 pole: c = {c} is a nonpositive integer")
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"hyp2f1 requires z in [0, 1], got {z}")
    if z < 1.0:
        out = _sp.hyp2f1(a, b, c, z)
        return out if np.ndim(out) else float(out)
    if np.ndim(a) or np.ndim(b) or np.ndim(c):
        raise ValueError("hyp2f1 at z=1 takes scalar parameters")
    if c - a - b <= 0:
        raise ValueError("hyp2f1 at z=1 requires c - a - b > 0")
    return (math.gamma(c) * math.gamma(c - a - b)
            / (math.gamma(c - a) * math.gamma(c - b)))
