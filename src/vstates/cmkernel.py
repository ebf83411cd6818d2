"""Completely monotone kernel engine.

A kernel K0 with -K0' completely monotone is represented through its
Bernstein measure mu (atoms plus an optional density family).  This module
reconstructs K0 from mu (normalized at the reference point t = 1) and
evaluates the Laplace-weighted spectral integral int g(x) dmu(x)/x through
which the spectral coefficients factorize.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _integrate

__all__ = [
    "Measure",
    "c_beta",
    "euler_flat",
    "gsqg_power",
    "qgsw_shifted",
    "truncated_low",
    "truncated_high",
    "spectral_integral",
    "k0_eval",
    "measure_from_dict",
]

# each density family and the names of its parameters
_FAMILIES = {"euler_flat": (), "gsqg_power": ("beta",),
             "qgsw_shifted": ("eps",), "truncated_low": ("x_star",),
             "truncated_high": ("x_star", "gamma")}

_TAIL_TOL = 1e-12


def _check_params(owner: str, params: dict, names) -> None:
    # the one parameter rule of a model or measure: each named parameter
    # present, positive and finite, and a power-law beta below 1
    for name in names:
        top = 1.0 if name == "beta" else math.inf
        if not 0.0 < params.get(name, math.nan) < top:
            raise ValueError(f"{owner} requires {name} in (0, {top:g})")


def c_beta(beta: float) -> float:
    """Normalization constant of the power-law kernel c_beta |x|^{-beta}."""
    if not 0.0 < beta < 1.0:
        raise ValueError("c_beta requires beta in (0, 1)")
    return math.gamma(beta / 2.0) / (math.pi * 2.0 ** (2.0 - beta)
                                      * math.gamma(1.0 - beta / 2.0))


@dataclass(frozen=True)
class Measure:
    """Nonnegative Bernstein measure on [0, infinity).

    atoms: (location, mass) pairs with positive mass.
    family: optional density family tag, one of
        euler_flat      dmu = dx / (2 pi)
        gsqg_power      dmu = c_beta x^beta dx / Gamma(beta)
        qgsw_shifted    dmu = (1/2pi) x / sqrt(x^2 - eps^2) dx on x >= eps
        truncated_low   dmu = f(x) dx on (0, x_star)
        truncated_high  dmu = f(x) dx on (x_star, infinity), f <= C x^{1-gamma}
    params: family parameters (beta, eps, x_star, gamma).
    f: density profile for the truncated families (default: constant 1).
    """

    atoms: tuple[tuple[float, float], ...] = ()
    family: str | None = None
    params: dict = field(default_factory=dict)
    f: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple((float(x), float(m))
                                                for x, m in self.atoms))
        for x, m in self.atoms:
            if not (0.0 <= x < math.inf and 0.0 < m < math.inf):
                raise ValueError("atoms need a finite location >= 0 and a "
                                 "finite mass > 0")
        if self.family is not None and self.family not in _FAMILIES:
            raise ValueError(f"unknown density family {self.family!r}")
        if self.family is None and not self.atoms:
            raise ValueError("measure must not be identically zero")
        _check_params(self.family, self.params, _FAMILIES.get(self.family, ()))

    @property
    def alpha(self) -> float:
        """Integrability exponent of the kernel assumption: K0 is
        integrable against t^{-alpha + alpha^2} near t = 0."""
        if self.family == "gsqg_power":
            return min(0.5, (1.0 - self.params["beta"]) / 2.0)
        if self.family == "truncated_high":
            return min(0.5, self.params["gamma"] / 2.0)
        return 0.5

    def density(self, x: float) -> float:
        """Density w with dmu = w(x) dx (zero outside the support)."""
        support = self.support()
        if support is None or not support[0] < x < support[1]:
            return 0.0
        if self.family == "euler_flat":
            return 1.0 / (2.0 * math.pi)
        if self.family == "gsqg_power":
            beta = self.params["beta"]
            return c_beta(beta) * x ** beta / math.gamma(beta)
        if self.family == "qgsw_shifted":
            eps = self.params["eps"]
            return x / (2.0 * math.pi * math.sqrt(x * x - eps * eps))
        return self.f(x) if self.f is not None else 1.0

    def support(self) -> tuple[float, float, float, float | None] | None:
        """(lo, hi, a, b): the density lives on lo < x < hi (hi = inf when
        unbounded) and behaves like (x - lo)^a at lo and like x^b at
        infinity (b is None on a bounded support); None without a density.
        """
        p, inf = self.params, math.inf
        return {None: None,
                "euler_flat": (0.0, inf, 0.0, 0.0),
                "gsqg_power": (0.0, inf, p.get("beta"), p.get("beta")),
                "qgsw_shifted": (p.get("eps"), inf, -0.5, 0.0),
                "truncated_low": (0.0, p.get("x_star"), 0.0, None),
                "truncated_high": (p.get("x_star"), inf, 0.0, 0.0),
                }[self.family]


def euler_flat() -> Measure:
    return Measure(family="euler_flat")


def gsqg_power(beta: float) -> Measure:
    return Measure(family="gsqg_power", params={"beta": beta})


def qgsw_shifted(eps: float) -> Measure:
    return Measure(family="qgsw_shifted", params={"eps": eps})


def truncated_low(f: Callable[[float], float] | None, x_star: float) -> Measure:
    return Measure(family="truncated_low", params={"x_star": x_star}, f=f)


def truncated_high(f: Callable[[float], float] | None, x_star: float,
                   gamma: float) -> Measure:
    return Measure(family="truncated_high",
                   params={"x_star": x_star, "gamma": gamma}, f=f)


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


def measure_from_dict(d: dict) -> Measure:
    """Build a Measure from flat key-value text (config file section).

    Keys: family, atoms (as "x1:m1, x2:m2, ..."), the family's parameters
    (beta, eps, x_star, gamma) and, for the truncated families, amplitude:
    their density profile is the constant f = amplitude > 0.  A `variant`
    key is ignored; any other key raises ValueError.
    """
    atoms: list[tuple[float, float]] = []
    raw = d.get("atoms", "").strip()
    if raw:
        for piece in raw.split(","):
            try:
                x, m = map(float, piece.split(":"))
            except ValueError:
                raise ValueError(f"atoms needs x:m pairs, got "
                                 f"{piece.strip()!r}") from None
            atoms.append((x, m))
    family = d.get("family", "").strip() or None
    names = _FAMILIES.get(family, ())
    keys = {"variant", "family", "atoms", *names}
    f = None
    if "x_star" in names:  # a truncated family: f is the constant amplitude
        keys.add("amplitude")
        amp = float(d.get("amplitude", 1.0))
        if not 0.0 < amp < math.inf:
            raise ValueError("amplitude must be finite and > 0")
        f = lambda _x, _a=amp: _a
    mu = Measure(atoms=tuple(atoms), family=family, f=f,
                 params={name: float(d[name]) for name in names if name in d})
    extra = sorted(set(d) - keys)
    if extra:
        raise ValueError(f"{family or 'an atomic measure'} takes no "
                         f"{', '.join(extra)}")
    return mu
