"""Independent quadrature routes that the tests compare the package against.

`spectral_integral` and `k0_eval` integrate against a Bernstein measure
with adaptive scipy quadrature, apart from the node rule of
`cmkernel._measure_nodes`; `delta_inf_via_psi` assembles the large-n
limit of the discriminant through Psi_b instead of the velocity constants.
"""

from __future__ import annotations

import math
import warnings

from scipy import integrate as _integrate

from vstates import models
from vstates.cmkernel import Measure, _node_sums
from vstates.models import KernelModel
from vstates.universal import psi_b

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


def delta_inf_via_psi(model: KernelModel, b: float) -> float:
    """Large-n limit of the discriminant, (V^1 - V^2)^2, with the
    convolution part re-assembled through the integral of Psi_b against
    the measure, plus the smooth-part constants c_b - ct_b."""
    (total,) = _node_sums(model.measure(), 300.0 / b,
                          lambda x: psi_b(b, x))
    c_b, ct_b = models.c_terms(model, b)
    return (total + c_b - ct_b) ** 2
