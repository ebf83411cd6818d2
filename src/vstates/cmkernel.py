"""Completely monotone kernel engine.

A kernel K0 with -K0' completely monotone is represented through its
Bernstein measure mu (atoms plus an optional density family).  This module
builds the measures and holds the one quadrature rule of a custom measure:
`_measure_nodes` places nodes on the whole half-line from the atoms,
`Measure.support()` and `Measure.density`, and `_node_sums` takes
int g(x) dmu(x)/x over them, through which the spectral coefficients
factorize.
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

# each density family and the names of its parameters
_FAMILIES = {"euler_flat": (), "gsqg_power": ("beta",),
             "qgsw_shifted": ("eps",), "truncated_low": ("x_star",),
             "truncated_high": ("x_star", "gamma")}


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


def _panel(p: float, q: float, e: float) -> tuple[np.ndarray, np.ndarray]:
    # nodes u and weights of int_p^q F(u) du for F ~ (u - p)^e at p: the
    # Gauss-Jacobi rule of order 32 for that weight, divided back out
    t, w = _gauss_rule(32, e)
    u = p + 0.5 * (q - p) * (1.0 + t)
    return u, w * (0.5 * (q - p)) ** (1.0 + e) / (u - p) ** e


def _measure_nodes(mu: Measure, x_cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of mu on the whole half-line: its atoms, then the
    nodes of its density part.  An atom at 0 raises ValueError.

    Weights include the density value.  With (lo, hi, a, b) =
    mu.support(), panels graded geometrically toward lo cover lo < x < top,
    the first one Gauss-Jacobi for the weight (x - lo)^a and the others
    Gauss-Legendre; top is hi on a bounded support and max(x_cut, lo + 10)
    otherwise, and then one Gauss-Jacobi panel in w = top/x for the weight
    w^(-b) takes the rest of the half-line.
    """
    if any(x == 0.0 for x, _ in mu.atoms):
        raise ValueError("spectral coefficient undefined for atom at 0")
    atoms = np.reshape(mu.atoms, (-1, 2))
    support = mu.support()
    if support is None:
        return atoms[:, 0], atoms[:, 1]
    lo, hi, a, b = support
    top = hi if math.isfinite(hi) else max(x_cut, lo + 10.0)
    edges = lo + (top - lo) * 2.0 ** np.arange(-14.0, 1.0)
    panels = [_panel(lo, edges[0], a)] + [
        _panel(p, q, 0.0) for p, q in zip(edges[:-1], edges[1:])]
    if not math.isfinite(hi):
        w, ww = _panel(0.0, 1.0, -b)
        panels.append((top / w, ww * top / (w * w)))
    xs, ws = map(np.concatenate, zip(*panels))
    return (np.concatenate([atoms[:, 0], xs]),
            np.concatenate([atoms[:, 1], ws * np.vectorize(mu.density)(xs)]))


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
