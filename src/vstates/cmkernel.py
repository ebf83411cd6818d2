"""Completely monotone kernel engine.

A kernel K0 with -K0' completely monotone is represented through its
Bernstein measure mu (atoms plus an optional density family, whose
parameters, support and density are one entry of `_FAMILIES`).  This module
builds the measures and holds the one quadrature rule of a custom measure:
`_measure_nodes` places nodes on the whole half-line from the atoms and
`Measure.support()`, weighted by one `Measure.density` call on the nodes,
and `_node_sums` takes int g(x) dmu(x)/x over them, through which the
spectral coefficients factorize.  Its half-line rule, `_graded_nodes`,
also takes the two integrals of `vstate verify` (`models.sneddon_integral`
and the McMahon tail of the Bessel-zero series).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .universal import _gauss_rule

__all__ = [
    "Measure",
    "c_beta",
    "euler_flat",
    "gsqg_power",
    "qgsw_shifted",
    "truncated_low",
    "truncated_high",
    "measure_from_dict",
]

# each density family: its parameter names, its `Measure.support` with a
# name for that parameter's value, and its density at an array x inside the
# support, None if truncated: then f (float_power rounds like x ** beta)
_FAMILIES = {
    "euler_flat": ((), (0.0, math.inf, 0.0, 0.0),
                   lambda x: 1.0 / (2.0 * math.pi)),
    "gsqg_power": (("beta",), (0.0, math.inf, "beta", "beta"), lambda x, beta:
                   c_beta(beta) * np.float_power(x, beta) / math.gamma(beta)),
    "qgsw_shifted": (("eps",), ("eps", math.inf, -0.5, 0.0), lambda x, eps:
                     x / (2.0 * math.pi * np.sqrt(x * x - eps * eps))),
    "truncated_low": (("x_star",), (0.0, "x_star", 0.0, None), None),
    "truncated_high": (("x_star", "gamma"), ("x_star", math.inf, 0.0, 0.0),
                       None),
}


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
        if self.family is not None:
            _check_params(self.family, self.params, _FAMILIES[self.family][0])

    @property
    def alpha(self) -> float:
        """Integrability exponent of the kernel assumption: K0 is
        integrable against t^{-alpha + alpha^2} near t = 0."""
        if self.family == "gsqg_power":
            return min(0.5, (1.0 - self.params["beta"]) / 2.0)
        if self.family == "truncated_high":
            return min(0.5, self.params["gamma"] / 2.0)
        return 0.5

    def density(self, x):
        """Density w with dmu = w(x) dx (zero outside the support), a float
        at one x and an array at an array of x."""
        xs, support = np.asarray(x, dtype=float), self.support()
        w = np.zeros(xs.shape)
        if support is not None:
            inside = (support[0] < xs) & (xs < support[1])
            names, _, rule = _FAMILIES[self.family]
            w[inside] = (rule(xs[inside], *map(self.params.get, names))
                         if rule else [self.f(v) for v in xs[inside].tolist()]
                         if self.f else 1.0)
        return w if np.ndim(x) else float(w)

    def support(self) -> tuple[float, float, float, float | None] | None:
        """(lo, hi, a, b): the density lives on lo < x < hi (hi = inf when
        unbounded) and behaves like (x - lo)^a at lo and like x^b at
        infinity (b is None on a bounded support); None without a density.
        """
        if self.family is None:
            return None
        return tuple(self.params[v] if isinstance(v, str) else v
                     for v in _FAMILIES[self.family][1])


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


def _panel(p: float, q: float, e: float) -> tuple[np.ndarray, np.ndarray]:
    # nodes u and weights of int_p^q F(u) du for F ~ (u - p)^e at p: the
    # Gauss-Jacobi rule of order 32 for that weight, divided back out
    t, w = _gauss_rule(32, e)
    u = p + 0.5 * (q - p) * (1.0 + t)
    return u, w * (0.5 * (q - p)) ** (1.0 + e) / (u - p) ** e


def _graded_nodes(lo: float, top: float, a: float,
                  tail: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of int F(x) dx for F ~ (x - lo)^a at lo: panels
    graded geometrically toward lo on lo < x < top, the first Gauss-Jacobi
    for that weight and the others Gauss-Legendre, and given a tail
    exponent, one Gauss-Jacobi panel in w = top/x for the weight w^tail on
    x > top, as F(top/w) top/w^2 is for F ~ x^-(tail + 2) at infinity."""
    edges = lo + (top - lo) * 2.0 ** np.arange(-14.0, 1.0)
    panels = [_panel(lo, edges[0], a)] + [
        _panel(p, q, 0.0) for p, q in zip(edges[:-1], edges[1:])]
    if tail is not None:
        w, ww = _panel(0.0, 1.0, tail)
        panels.append((top / w, ww * top / (w * w)))
    return tuple(map(np.concatenate, zip(*panels)))


def _measure_nodes(mu: Measure, x_cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of mu on the whole half-line: its atoms, then the
    nodes of its density part.  An atom at 0 raises ValueError.

    Weights include the density value.  With (lo, hi, a, b) =
    mu.support(), `_graded_nodes` covers lo < x < top for the weight
    (x - lo)^a, where top is hi on a bounded support and max(x_cut, lo + 10)
    otherwise, and then the rest of the half-line with the tail exponent
    -b: the integrands g(x)/x of `_node_sums` fall like 1/x^2.
    """
    if any(x == 0.0 for x, _ in mu.atoms):
        raise ValueError("spectral coefficient undefined for atom at 0")
    atoms = np.reshape(mu.atoms, (-1, 2))
    support = mu.support()
    if support is None:
        return atoms[:, 0], atoms[:, 1]
    lo, hi, a, b = support
    bounded = math.isfinite(hi)
    xs, ws = _graded_nodes(lo, hi if bounded else max(x_cut, lo + 10.0), a,
                           None if bounded else -b)
    return (np.concatenate([atoms[:, 0], xs]),
            np.concatenate([atoms[:, 1], ws * mu.density(xs)]))


def _node_sums(mu: Measure, x_cut: float, fun) -> np.ndarray:
    # int fun(x) dmu(x)/x, one value per row of fun, as sums over the nodes
    # of mu built once; fun is called once on the nodes up to the cut and
    # once beyond it, as phi_n grades its panels for its largest argument
    xs, ws = _measure_nodes(mu, x_cut)
    parts = [(xs[m], ws[m] / xs[m]) for m in (xs <= x_cut, xs > x_cut)]
    return sum(np.sum(np.atleast_2d(fun(x) * w), axis=-1) for x, w in parts)


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
    # an atomic measure or an unknown family has no parameters and no f
    names, _, rule = _FAMILIES.get(family, ((), None, 0))
    keys = {"variant", "family", "atoms", *names}
    f = None
    if rule is None:  # a truncated family: f is the constant amplitude
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
