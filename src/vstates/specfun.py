"""The products I_n(y) K_n(x) of modified Bessel functions, for a column of
integer orders at once: the one special function scipy lacks.

The disc models sum `bessel_ik` columns over their screening nodes, so the
ratio tables are cached for a few hundred arguments.  Everything else
(Gamma, the Gauss hypergeometric function, Bessel I, K, J and the zeros of
J) comes straight from `math` and `scipy.special`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as _sp

__all__ = ["bessel_ik"]


@lru_cache(maxsize=512)
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
