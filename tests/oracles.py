"""Independent routes that the tests compare the package against.

`spectral_integral` and `k0_eval` integrate against a Bernstein measure
with adaptive scipy quadrature, apart from the node rule of
`cmkernel._measure_nodes`; `delta_inf_via_psi` assembles the large-n
limit of the discriminant through Psi_b instead of the velocity constants.
`AnnulusGreenCoefficients` and `annulus_c_frak` give the annulus Green
function and its constant in the classical radial form, `series_p` and
`qgsw_disc_v_series` the discs' p and V^1, V^2 as Bessel-zero series or
Sneddon integrals, and `psi_b_prime0` the slope of Psi_b at 0 with the
integral it contains.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _integrate

from vstates import models
from vstates.cmkernel import (Measure, _node_sums, euler_flat, gsqg_power,
                              qgsw_shifted)
from vstates.models import (KernelModel, _jn_zero_series, closed_lambda,
                            qgsw_disc, sneddon_integral)
from vstates.universal import periodic_trapezoid, psi_b

_TAIL_TOL = 1e-12


def _x_max(decay: float) -> float:
    # truncation point where the analytic tail bound 2 pi e^{-decay X}
    # drops below the quadrature tolerance
    return max(60.0, math.log(2.0 * math.pi / _TAIL_TOL) / decay + 10.0)


def _quad(fun, a: float, b: float) -> float:
    # panels [a, a + 1], [a + 1, a + 10], [a + 10, a + 100], ...: one
    # adaptive rule over a range up to ~1e9 long misses the unit scale
    edges, width = [a], 1.0
    while a + width < b:
        edges.append(a + width)
        width *= 10.0
    val, err = map(sum, zip(*(
        _integrate.quad(fun, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-11)
        for lo, hi in zip(edges, edges[1:] + [b]))))
    if err > 1e-6 * max(1.0, abs(val)):
        warnings.warn(f"quadrature error estimate {err:.2e} is large")
    return val


def _density_integral(mu: Measure, fun, decay: float) -> float:
    """int fun(x) dmu_density(x), truncated using the e^{-decay x} tail."""
    if mu.family is None:
        return 0.0
    xmax = _x_max(decay)
    if mu.family == "qgsw_shifted":
        # x = eps cosh(u) removes the inverse-square-root endpoint singularity:
        # dmu = (1/2pi) x / sqrt(x^2-eps^2) dx  ->  (eps/2pi) cosh(u) du
        eps = mu.params["eps"]
        umax = math.acosh(max(xmax / eps, 1.5))
        return _quad(lambda u: fun(eps * math.cosh(u))
                     * eps * math.cosh(u) / (2.0 * math.pi), 0.0, umax)
    if mu.family == "truncated_low":
        return _quad(lambda x: fun(x) * mu.density(x), 0.0, mu.params["x_star"])
    if mu.family == "truncated_high":
        x_star = mu.params["x_star"]
        hi = max(xmax, x_star + 10.0)
        tail = abs(fun(hi) * mu.density(hi)) * hi
        if tail > 1e-9:
            warnings.warn(f"truncated_high tail estimate {tail:.2e} exceeds tolerance")
        return _quad(lambda x: fun(x) * mu.density(x), x_star, hi)
    return _quad(lambda x: fun(x) * mu.density(x), 0.0, xmax)


def spectral_integral(g, mu: Measure, decay: float = 1.0) -> float:
    """int_0^inf g(x) dmu(x)/x  (atoms summed exactly, density by quadrature).

    `decay` is the exponential decay rate assumed for g when truncating the
    infinite range (phi-type integrands decay like e^{-(1-b)x}).
    """
    total = 0.0
    for x, m in mu.atoms:
        if x == 0.0:
            raise ValueError("spectral_integral undefined for an atom at x = 0")
        total += m * g(x) / x
    total += _density_integral(mu, lambda x: g(x) / x, decay)
    return total


def k0_eval(mu: Measure, t: float, c0: float = 0.0) -> float:
    """K0(t) reconstructed from mu with the normalization K0(1) = c0.

    K0(t) = c0 + int (e^{-t x} - e^{-x}) / x dmu(x).
    """
    if t <= 0:
        raise ValueError("k0_eval requires t > 0")
    if t == 1.0:
        return c0

    def h(x: float) -> float:
        if x < 1e-12:
            return 1.0 - t
        return (math.exp(-t * x) - math.exp(-x)) / x

    total = c0
    for x, m in mu.atoms:
        total += m * h(x)
    total += _density_integral(mu, h, min(t, 1.0))
    return total


def _measure(model: KernelModel) -> Measure:
    """Bernstein measure of the convolution part K0."""
    kind, arg = model.k0
    if kind == "measure":
        return arg
    if kind == "log":
        return euler_flat()
    return gsqg_power(arg) if kind == "power" else qgsw_shifted(arg)


def delta_inf_via_psi(model: KernelModel, b: float) -> float:
    """Large-n limit of the discriminant, (V^1 - V^2)^2, with the
    convolution part re-assembled through the integral of Psi_b against
    the measure, plus the smooth-part constants c_b - ct_b."""
    (total,) = _node_sums(_measure(model), 300.0 / b,
                          lambda x: psi_b(b, x))
    c_b, ct_b = models.c_terms(model, b)
    return (total + c_b - ct_b) ** 2


# ---------------------------------------------------------------------------
# annulus Green-function coefficients and the constant c_frak
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnulusGreenCoefficients:
    """Radial coefficients of the annulus Green-function expansion."""

    r1: float
    r2: float

    def a0(self, r: float) -> float:
        return (math.log(self.r2) * math.log(self.r1 / r)
                / math.log(self.r1 / self.r2))

    def b0(self, r: float) -> float:
        return math.log(r / self.r2) / math.log(self.r1 / self.r2)

    def a_m(self, m: int, r: float) -> float:
        r1, r2 = self.r1, self.r2
        return (r ** m - (r1 * r1 / r) ** m) / (r2 ** (2 * m) - r1 ** (2 * m))

    def b_m(self, m: int, r: float) -> float:
        r1, r2 = self.r1, self.r2
        return (r1 ** (2 * m) * ((r2 * r2 / r) ** m - r ** m)
                / (r2 ** (2 * m) - r1 ** (2 * m)))


def annulus_c_frak(r1: float, r2: float, b: float) -> float:
    """The constant c_frak with c_b = c_frak / b^2 and c-tilde_b = c_frak."""
    num = (-(b * b / 2.0) * math.log(b) - (1.0 - b * b) / 4.0
           - ((1.0 - b * b) / 2.0) * math.log(r2))
    return num / math.log(r1 / r2)


# ---------------------------------------------------------------------------
# series routes of the discs' p and V^1, V^2, and Psi_b'(0)
# ---------------------------------------------------------------------------

def series_p(model: KernelModel, n: int, b: float,
             truncation: int = 500) -> tuple[float, float, float]:
    """Interaction coefficients of the gSQG/QGSW disc via eigenexpansion,
    the test route of both discs' screening-node sums in `closed_p`.

    The n-th angular Fourier coefficient of the full disc Green function is
    a series over the zeros of J_n; subtracting the whole-plane coefficient
    lambda_{n,b} leaves p_{n,b}.  For the gSQG disc the series is summed by
    Sneddon's integral, a node sum per coefficient; for the QGSW disc it
    is truncated.
    """
    if model.k1 not in ("bessel_ik", "subordinated"):
        raise ValueError("series_p is defined for GsqgDisc / QgswDisc only")
    kind, arg = model.k0
    r = model.domain[1]
    if kind == "bessel":
        def coeff(a1: float, a2: float) -> float:
            return 2.0 * _jn_zero_series(
                n, n, n, a1, a2, lambda x: 1.0 / (x * x + arg * arg * r * r),
                truncation)
    else:
        def coeff(a1: float, a2: float) -> float:
            lo, hi = min(a1, a2), max(a1, a2)
            return 2.0 * r ** (-arg) * sneddon_integral(n, n, n, 2.0 - arg,
                                                        lo, hi)

    return tuple(coeff(y / r, x / r) - closed_lambda(model, [n], y, x)[0]
                 for y, x in ((b, b), (1.0, 1.0), (b, 1.0)))


def qgsw_disc_v_series(eps: float, r: float, b: float,
                       truncation: int = 500) -> tuple[float, float]:
    """(V^1, V^2) for the QGSW disc via the Bessel-zero series, the test
    route of `c_terms`' closed QGSW disc term."""
    qgsw_disc(eps, r).require_b(b)
    c2 = eps * eps * r * r

    # the series run over the zeros of J_0 with J_1 numerators
    def s0(a1: float, a2: float) -> float:
        return _jn_zero_series(0, 1, 1, a1, a2,
                               lambda x: 1.0 / (x * x + c2), truncation)

    v1 = -2.0 * (s0(b / r, 1.0 / r) / b - s0(b / r, b / r))
    v2 = -2.0 * (s0(1.0 / r, 1.0 / r) - b * s0(1.0 / r, b / r))
    return (v1, v2)


def psi_b_prime0(b: float) -> tuple[float, float]:
    """Derivative of Psi_b at x = 0 and the inner integral it contains.

    Psi_b'(0) = (8/3)(1+b) - 2(b^2+1) * I(b) with
    I(b) = int_{-1}^{1} sqrt((1-y^2)/(1+b^2-2by)) dy.
    Returns (Psi_b'(0), I(b)).
    """
    if not 0.0 < b < 1.0:
        raise ValueError("psi_b_prime0 requires b in (0, 1)")

    def integrand(t):
        root = np.sqrt(1.0 + b * b - 2.0 * b * np.cos(t))
        return np.sin(t) ** 2 / root

    inner = 0.5 * periodic_trapezoid(integrand)
    return (8.0 / 3.0) * (1.0 + b) - 2.0 * (b * b + 1.0) * inner, inner
