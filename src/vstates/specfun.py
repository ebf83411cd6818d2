"""Special functions backing the closed-form spectra.

Gamma, Bessel J/I/K and the products I_n K_n, Bessel zeros and the Gauss
hypergeometric function.  Only integer Bessel orders are needed; arguments
are real.  `bessel_ik` and `hyp2f1` take a whole column of orders or
parameters at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

__all__ = [
    "BesselZeroTable",
    "gamma_fn",
    "bessel_j",
    "bessel_jp",
    "bessel_i",
    "bessel_k",
    "bessel_ik",
    "bessel_zeros",
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


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind, integer order n >= 0."""
    if n < 0:
        raise ValueError("bessel_j requires n >= 0")
    return float(_sp.jv(n, x))


def bessel_jp(n: int, x: float) -> float:
    """Derivative J_n'(x), used by the zero-finder Newton polish."""
    if n == 0:
        return -bessel_j(1, x)
    return 0.5 * (bessel_j(n - 1, x) - bessel_j(n + 1, x))


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


@dataclass(frozen=True)
class BesselZeroTable:
    """First zeros x_{n,1} < x_{n,2} < ... of J_n."""

    order: int
    zeros: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.zeros, dtype=float)
        object.__setattr__(self, "zeros", z)
        if z.size and not np.all(np.diff(z) > 0):
            raise ValueError("Bessel zeros must be strictly increasing")

    def __len__(self) -> int:
        return len(self.zeros)

    def __getitem__(self, k: int) -> float:
        return float(self.zeros[k])


def _mcmahon_guess(n: int, k: int) -> float:
    """McMahon's large-k asymptotic for the k-th positive zero of J_n."""
    beta = (k + 0.5 * n - 0.25) * math.pi
    mu = 4.0 * n * n
    # first three correction terms of the McMahon expansion
    b8 = 8.0 * beta
    guess = beta - (mu - 1.0) / b8
    guess -= 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8**3)
    guess -= (32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0)
              / (15.0 * b8**5))
    return guess


def bessel_zeros(n: int, count: int, tol: float = 1e-13,
                 max_iter: int = 60) -> BesselZeroTable:
    """First `count` positive zeros of J_n.

    McMahon asymptotic initial guess, then a safeguarded Newton polish
    (bisection fallback when the Newton step leaves the bracket).
    """
    if count < 1:
        raise ValueError("bessel_zeros requires count >= 1")
    zeros = np.empty(count)
    for k in range(1, count + 1):
        x = _mcmahon_guess(n, k)
        # bracket the root around the asymptotic guess
        lo, hi = x - 1.2, x + 1.2
        if lo <= max(n, 0.0):
            lo = max(n * 0.5, 1e-3)
        flo, fhi = bessel_j(n, lo), bessel_j(n, hi)
        widen = 0
        while flo * fhi > 0 and widen < 30:
            lo = max(lo - 0.5, 1e-3)
            hi += 0.5
            flo, fhi = bessel_j(n, lo), bessel_j(n, hi)
            widen += 1
        if flo * fhi > 0:
            raise RuntimeError(f"bessel_zeros: bracketing failed at (n={n}, k={k})")
        converged = False
        for _ in range(max_iter):
            f = bessel_j(n, x)
            if abs(f) < tol:
                converged = True
                break
            fp = bessel_jp(n, x)
            step_ok = fp != 0.0
            if step_ok:
                x_new = x - f / fp
                step_ok = lo < x_new < hi
            if not step_ok:
                x_new = 0.5 * (lo + hi)
            if f * flo < 0:
                hi = x
            else:
                lo, flo = x, f
            if abs(x_new - x) < 1e-15 * max(1.0, abs(x)):
                x = x_new
                converged = abs(bessel_j(n, x)) < 1e-12
                break
            x = x_new
        if not converged and abs(bessel_j(n, x)) > 1e-12:
            raise RuntimeError(f"bessel_zeros: no convergence at (n={n}, k={k})")
        zeros[k - 1] = x
    return BesselZeroTable(order=n, zeros=zeros)


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
