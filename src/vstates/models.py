"""Catalog of geophysical kernel models with closed-form spectral data.

A model is its convolution kernel K0 plus its domain (R1, R2): the region
R1 < |x| < R2, with R1 = 0 when there is no inner boundary and R2 = inf
when there is no outer one.  So (0, inf) is the whole plane, (0, R) a
disc, (r1, r2) an annulus and (r, inf) the exterior of a disc.  The
kernel is K(x, y) = K0(|x - y|) + K1(x, y), where K1 is the regular part
of the domain's Green function; both fields fix every closed form the
dispersion relation needs: the convolution coefficients lambda /
lambda-tilde, the interaction coefficients p / p-tilde, and the velocity
constants V^1, V^2 of the unperturbed annulus 1_{D \\ b D}.  This module
dispatches on the kind of K0 and K1: `closed_lambda` and `closed_p` are
their coefficients between two circles, every kind included,
`KernelModel.k0_factors`, `singular_weights` and `k1_patch` what `contour`
integrates.
Elsewhere only `dispersion` reads a kind (`measure_obj` or `k1`), in three
places: the `source` label of a row, `has_closed_fold`, and the block size
of its fold scan.

The closed forms take an integer array of modes n (one int is one mode)
and return a column over them; their numerics neither over- nor underflow
at large n.  The Bessel-zero series and Sneddon's formula here are what
`vstate verify` runs, their integrals node sums of `cmkernel`'s half-line
rule; the series routes the tests check the closed p and V^1, V^2 of the
discs against live in `tests/oracles.py`.

Every special function comes from `specfun`, on numpy alone: no command
runs scipy.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.polynomial.laguerre

from .cmkernel import (Measure, _check_params, _graded_nodes, _node_sums,
                       c_beta)
from .specfun import (_cached_rows, _rgamma, bessel_i, bessel_ik, bessel_j,
                      bessel_j_zeros, bessel_k, hyp2f1, power_series)
from .universal import _gauss_rule, _modes, phi_n, phi_nb

__all__ = [
    "KernelModel",
    "euler_plane",
    "gsqg_plane",
    "qgsw_plane",
    "euler_disc",
    "gsqg_disc",
    "qgsw_disc",
    "euler_annulus",
    "euler_exterior",
    "custom_convolution",
    "model_from_dict",
    "gsqg_capital_lambda",
    "closed_lambda",
    "closed_p",
    "c_terms",
    "qgsw_disc_identity",
    "sneddon_series",
    "sneddon_integral",
    "model_warning",
    "singular_weights",
    "k1_patch",
]


def _lazy_import(name: str):
    # sys.modules[name]; a module not imported yet is registered there as a
    # lazy module, which runs at its first attribute access.  None when its
    # top-level package is not installed: find_spec of a dotted name would
    # import that package and raise
    if name in sys.modules:
        return sys.modules[name]
    if importlib.util.find_spec(name.partition(".")[0]) is None:
        return None
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# no vstates code runs scipy.integrate; it stays registered because the
# span tracer of perfbench/spans.py looks it up in sys.modules to wrap quad.
# scipy is optional at run time: without it nothing is registered
_integrate = _lazy_import("scipy.integrate")

_LOG = ("log", 0.0)
# terms of the Bessel-zero series of qgsw_disc_identity and sneddon_series
_QGSW_TERMS, _SNEDDON_TERMS = 500, 2000


@dataclass(frozen=True)
class KernelModel:
    """A kernel model: its convolution kernel K0 on the domain (R1, R2).

    k0 is ("log", 0), ("power", beta), ("bessel", eps) or ("measure", mu):
    -log(r)/(2 pi), c_beta r^-beta, K_0(eps r)/(2 pi) or the kernel of a
    Bernstein measure.  Every parameter is positive and finite, beta < 1,
    and R1 < 1 < R2; the patch b < |x| < 1 needs R1 < b as well.
    """

    variant: str
    params: dict
    k0: tuple
    domain: tuple[float, float] = (0.0, math.inf)

    def __post_init__(self) -> None:
        _check_params(self.variant, self.params, self.params)
        if not self.domain[0] < 1.0 < self.domain[1]:
            raise ValueError(f"{self.variant} requires R1 < 1 < R2, got "
                             f"{self.domain}")

    @property
    def k1(self) -> str | None:
        """Kind of the regular part K1: None on the plane, "green" for the
        log kernel's Green series, "bessel_ik" for the closed I_n K_n terms
        of the QGSW disc, "subordinated" for the gSQG disc's integral of
        them over eps (see `_screening_nodes`)."""
        if self.domain == (0.0, math.inf):
            return None
        return {"log": "green", "bessel": "bessel_ik"}.get(self.k0[0],
                                                            "subordinated")

    @property
    def measure_obj(self) -> Measure | None:
        """The user-supplied Bernstein measure of a custom convolution."""
        return self.k0[1] if self.k0[0] == "measure" else None

    @property
    def singular_exponent(self) -> float | None:
        """beta of the singular weight |2 sin((theta - eta)/2)|^-beta that
        `k0_factors` splits off the power kernel; None for the weight
        log|2 sin((theta - eta)/2)| of the log and Bessel kernels."""
        return self.k0[1] if self.k0[0] == "power" else None

    def k0_factors(self, d: np.ndarray, g: np.ndarray | None, stream: bool):
        """Factors of the velocity kernel K0(d), or with stream=True of the
        stream kernel h(d)/d, where h' + h/rho = K0, for the log, power and
        Bessel kernels.

        Without g the first factor is the whole kernel and the second None.
        With g = d/s, s = |2 sin((theta - eta)/2)|, the kernel is the first
        factor times the weight of `singular_exponent` at s plus the second,
        smooth factor (None where it vanishes).  The Bessel kernel is a pair
        (k, i) with k(z) - log(z) i(z) analytic (DLMF 10.31.2): (K0, I0) for
        the velocity and ((1 - z K1)/z^2, I1/z) for the stream, z = eps d;
        as log d = log g + log s, its factors are -i/(2 pi) and
        (k + log(d/g) i)/(2 pi).  Both take i and k + log(z/2) i (plus
        gamma I0 for the velocity) as power series (`specfun.power_series`),
        so the split evaluates no K.
        """
        kind, arg = self.k0
        if kind == "power":
            pref = c_beta(arg) / (2.0 - arg) if stream else c_beta(arg)
            return pref * (d if g is None else g) ** (-arg), None
        if kind == "log":
            # K0 = -log(d)/(2 pi), h(d)/d = -(log(d) - 1/2)/(4 pi)
            shift, den = (0.5, 4.0 * np.pi) if stream else (0.0, 2.0 * np.pi)
            if g is None:
                return -(np.log(d) - shift) / den, None
            return -1.0 / den, -(np.log(g) - shift) / den
        z = arg * d
        names = ("i1", "k1") if stream else ("i0", "k0")
        if g is not None:
            i, k = power_series(z, names)
            shift = np.log(arg * g / 2.0) + (0.0 if stream else np.euler_gamma)
            return -i / (2.0 * np.pi), (k - shift * i) / (2.0 * np.pi)
        if not stream:
            return bessel_k(z, 0)[0] / (2.0 * np.pi), None
        # (1 - z K1)/z^2, by its series up to z = 2, where 1 - z K1 cancels
        k, near = np.empty(z.shape), z <= 2.0
        i, k[near] = power_series(z[near], names)
        k[near] -= np.log(z[near] / 2.0) * i
        far = z[~near]
        k[~near] = (1.0 - far * bessel_k(far)[1]) / (far * far)
        return k / (2.0 * np.pi), None

    def contains_b(self, b: float) -> bool:
        return self.domain[0] < b < 1.0

    def require_b(self, b: float) -> None:
        """Raise ValueError unless the patch b < |x| < 1 fits the domain."""
        if not self.contains_b(b):
            raise ValueError(f"b = {b} outside the admissible interval "
                             f"{(self.domain[0], 1.0)}")

    def describe(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v:.15g}"
                             for k, v in sorted(self.params.items()))
            return f"{self.variant}({inner})"
        return self.variant


def singular_weights(beta: float | None, k: np.ndarray) -> np.ndarray:
    """Fourier coefficients at the integer modes k of the singular weight
    that `KernelModel.k0_factors` splits off, beta its `singular_exponent`:
    Lambda_{k,1}/c_beta for |2 sin(u/2)|^-beta, and for log|2 sin(u/2)|
    (beta None) -pi/|k| with zero mean."""
    k = np.abs(k)
    if beta is None:
        return np.where(k > 0, -np.pi / np.maximum(k, 1), 0.0)
    return gsqg_capital_lambda(k, 1.0, beta) / c_beta(beta)


def euler_plane() -> KernelModel:
    return KernelModel("EulerPlane", {}, _LOG)


def gsqg_plane(beta: float) -> KernelModel:
    return KernelModel("GsqgPlane", {"beta": beta}, ("power", beta))


def qgsw_plane(eps: float) -> KernelModel:
    return KernelModel("QgswPlane", {"eps": eps}, ("bessel", eps))


def euler_disc(r: float) -> KernelModel:
    return KernelModel("EulerDisc", {"r": r}, _LOG, (0.0, r))


def gsqg_disc(beta: float, r: float) -> KernelModel:
    return KernelModel("GsqgDisc", {"beta": beta, "r": r}, ("power", beta),
                       (0.0, r))


def qgsw_disc(eps: float, r: float) -> KernelModel:
    return KernelModel("QgswDisc", {"eps": eps, "r": r}, ("bessel", eps),
                       (0.0, r))


def euler_annulus(r1: float, r2: float) -> KernelModel:
    return KernelModel("EulerAnnulus", {"r1": r1, "r2": r2}, _LOG, (r1, r2))


def euler_exterior(r: float) -> KernelModel:
    return KernelModel("EulerExterior", {"r": r}, _LOG, (r, math.inf))


def custom_convolution(measure: Measure) -> KernelModel:
    return KernelModel("CustomConvolution", {}, ("measure", measure))


_VARIANT_BUILDERS = {
    "EulerPlane": euler_plane, "GsqgPlane": gsqg_plane,
    "QgswPlane": qgsw_plane, "EulerDisc": euler_disc, "GsqgDisc": gsqg_disc,
    "QgswDisc": qgsw_disc, "EulerAnnulus": euler_annulus,
    "EulerExterior": euler_exterior,
}


def model_from_dict(d: dict) -> KernelModel:
    """Build a model from flat key-value text (config section or CLI flags)."""
    variant = d["variant"]
    if variant == "CustomConvolution":
        from .cmkernel import measure_from_dict
        return custom_convolution(measure_from_dict(d))
    if variant not in _VARIANT_BUILDERS:
        raise ValueError(f"unknown model variant {variant!r}")
    params = {k: float(v) for k, v in d.items() if k != "variant"}
    try:
        return _VARIANT_BUILDERS[variant](**params)
    except TypeError as exc:  # a missing or unknown key
        raise ValueError(f"{variant}: {exc}") from exc


# ---------------------------------------------------------------------------
# convolution coefficients lambda, lambda-tilde
# ---------------------------------------------------------------------------

def gsqg_capital_lambda(n, b: float, beta: float):
    """Lambda_{n,b}(beta) = 2 pi c_beta b^n (beta/2)_n / n! F(beta/2, n+beta/2; n+1; b^2).

    With a = beta/2 that is 2 pi c_beta c_n, c_n the n-th Fourier
    coefficient of |b - e^{i eta}|^-beta.  At b = 1 Gauss's sum gives c_n =
    c_0 g_n, c_0 = Gamma(1-beta)/Gamma(1-a)^2 and g_n the product of
    (k+a)/(k+1-a) over k < n, O(n^(beta-1)) and exact to rounding.  Below
    1 the c_n solve, with e = (1-b)^2/b = b + 1/b - 2,
      (n+1-a) c_{n+1} = (2 + e) n c_n - (n-1+a) c_{n-1},
    whose other solution grows like b^-n (`_power_fourier`).
    """
    ns = _modes(n, "gsqg_capital_lambda", least=0)
    if not 0.0 < b <= 1.0:
        raise ValueError("gsqg_capital_lambda requires b in (0, 1]")
    a, top = beta / 2.0, int(ns.max())
    k = np.arange(float(top))
    g = np.concatenate(([1.0], np.cumprod((k + a) / (k + 1.0 - a))))
    if b < 1.0:
        # a column at least top long of the same (b, a) serves: a mode's
        # value does not depend on the column's length
        if (b, a) in _POWER_COLUMNS and _POWER_COLUMNS[b, a].size <= top:
            del _POWER_COLUMNS[b, a]  # too short: built again below
        val, = _cached_rows(_POWER_COLUMNS, [(b, a)],
                            lambda _: [_power_fourier(top, b, a, g)])
    else:
        val = math.gamma(1.0 - beta) / math.gamma(1.0 - a) ** 2 * g
    return 2.0 * math.pi * c_beta(beta) * val[ns]


# (b, a) -> the longest column c_0 ... of `_power_fourier` built so far
_POWER_COLUMNS: dict = {}


# `_power_fourier` takes the forward recurrence up to the mode where the
# growth b^(-2n) of its rounding errors reaches 1/_FORWARD_GROWTH
_FORWARD_GROWTH = 0.05


def _power_fourier(top: int, b: float, a: float, g: np.ndarray) -> np.ndarray:
    # c_0 ... c_top of |b - e^{i eta}|^-2a for 0 < b < 1 from c_0 =
    # F(a, a; 1; b^2) and their recurrence, written with e = (1-b)^2/b so
    # that its coefficients keep b to rounding next to 1.  Forward up to
    # mode `fwd` as u_n = c_n / g_n from c_1 = a b F(a, 1+a; 2; b^2), by the
    # differences (small next to b = 1, where u is constant)
    #   (n+a) (u_{n+1} - u_n) = (n-a) (u_n - u_{n-1}) + e n u_n;
    # above it backward (Miller) as the ratios c_n/c_{n-1}, started from 0
    # where b^(2 depth) < e^-50.  Neither depends on top past rounding, so
    # a mode has one value in every column.
    z, e = b * b, (1.0 - b) ** 2 / b
    fwd = min(top, int(math.log(_FORWARD_GROWTH) / (2.0 * math.log(b))))
    u = [hyp2f1(a, a, 1.0, z)]
    if fwd:
        u.append(b * (1.0 - a) * hyp2f1(a, 1.0 + a, 2.0, z))
        d, k = u[1] - u[0], np.arange(1.0, fwd)
        for p, q, r in zip(*(v.tolist() for v in (k - a, e * k, k + a))):
            d = (p * d + q * u[-1]) / r
            u.append(u[-1] + d)
    rho, ratios = 0.0, []
    if fwd < top:
        k = np.arange(top + math.ceil(-50.0 / math.log(z)), fwd, -1.0)
        for p, q, r, t in zip(*(v.tolist() for v in
                                (k - 1 + a, 2.0 * k, k + 1 - a, e * k))):
            rho = p / (q - r * rho + t)
            ratios.append(rho)
    c = np.array(u) * g[:fwd + 1]
    return np.append(c, c[-1] * np.cumprod(ratios[:fwd - top - 1:-1]))


def closed_lambda(model: KernelModel, n, y: float, x: float):
    """The n-th Fourier coefficient of K0(|y - x e^{i eta}|), y <= x:
    lambda_{n,b}, lambda_{n,1} and lambda-tilde_{n,b} are its values at
    (y, x) = (b, b), (1, 1), (b, 1).

    The log, power and Bessel kernels take their closed forms.  A custom
    measure (CustomConvolution) takes node sums over `cmkernel._node_sums`,
    the nodes built once for all modes: at y = x of int phi_n(y t) dmu(t)/t,
    otherwise of int phi_{n,y/x}(x t) dmu(t)/t, whose integrand decays like
    e^{-(x-y)t}, which sets the cut."""
    ns = _modes(n, "closed_lambda")
    kind, arg = model.k0
    if kind == "log":
        # float_power rounds like the scalar (y/x) ** n
        return np.float_power(y / x, ns) / (2.0 * ns)
    if kind == "power":
        return x ** (-arg) * gsqg_capital_lambda(ns, y / x, arg)
    if kind == "bessel":
        return bessel_ik(ns, y * arg, x * arg)
    if y == x:
        return _node_sums(arg, 300.0 / y, lambda t: phi_n(ns, y * t))
    x_cut = math.log(2.0 * math.pi / 1e-14) / max(x - y, 1e-3) + 10.0
    return _node_sums(arg, x_cut, lambda t: phi_nb(ns, y / x, x * t))


# ---------------------------------------------------------------------------
# interaction coefficients p, p-tilde
# ---------------------------------------------------------------------------

def closed_p(model: KernelModel, n, b: float) -> tuple:
    """(p_{n,b}, p_{n,1}, p-tilde_{n,b}) of the model's K1.

    Plane models have K1 = 0.  The Green series of the domain (R1, R2)
    gives the coefficient between the circles of radii y <= x,
      -e_n(y)^T C_n e_n(x) / (2n),  e_n(t) = ((t/R2)^n, (R1/t)^n),
    C_n that of the K1 series (above `_k1_domain`), at (y, x) = (b, b),
    (1, 1), (b, 1).  Both discs R D sum w_j times the QGSW-disc closed forms at
    eps = rho_j over their `_screening_nodes`, every product I_n K_n from
    `bessel_ik`:
      p_{n,x} = -[I_n(eps x) K_n(eps R)]^2 / (I_n(eps R) K_n(eps R)),
      p-tilde_{n,b} = -I_n(eps b) K_n(eps R) I_n(eps) K_n(eps R)
                       / (I_n(eps R) K_n(eps R)).
    """
    ns = _modes(n, "closed_p")
    if model.k1 is None:
        return (np.zeros(ns.shape),) * 3
    if model.k1 == "green":
        r1, r2 = model.domain
        y, x = np.array([[b, 1.0, b], [b, 1.0, 1.0]])[..., None]
        s2n = np.float_power(r1 / r2, 2 * ns)
        # e_n(y)^T C_n e_n(x) (1 - s^2n), each product of powers taken as
        # one power (float_power rounds like the scalar t ** n)
        num = (np.float_power(y * x / (r2 * r2), ns)
               + np.float_power(r1 * r1 / (y * x), ns)
               - s2n * np.float_power(y / x, ns)
               - np.float_power(r1 * r1 * x / (r2 * r2 * y), ns))
        cols = -num / (2.0 * ns * (1.0 - s2n))
    else:
        cols = _disc_p(ns, b, model.domain[1], _screening_nodes(model))
    return tuple(cols)


# ---------------------------------------------------------------------------
# K1 constants of the velocities V^1, V^2
# ---------------------------------------------------------------------------

def c_terms(model: KernelModel, b: float) -> tuple[float, float]:
    """(c_b, c-tilde_b): the K1 contributions inside V^1, V^2.

    For a Green-series K1 they are (c / b^2, c), where c is the constant
    mode of K1 over the patch, C0[1, 0] (1 - b^2)/2
    + C0[1, 1] (-(1 - b^2)/4 - (b^2/2) log b).  Both discs R D sum w_j
    times the QGSW-disc terms at eps = rho_j over their `_screening_nodes`,
    with k = K_0(eps R)/I_0(eps R),
      c_b = -k I_1(eps b) (I_1(eps)/b - I_1(eps b)),
      c-tilde_b = -k I_1(eps) (I_1(eps) - b I_1(eps b)).
    """
    if model.k1 is None:
        return (0.0, 0.0)
    if model.k1 == "green":
        c0 = _k1_domain(model)[2]
        c = float(c0[1, 0] * (1.0 - b * b) / 2.0
                  + c0[1, 1] * (-(1.0 - b * b) / 4.0
                                - (b * b / 2.0) * math.log(b)))
        return (c / (b * b), c)
    return _disc_c(b, model.domain[1], _screening_nodes(model))


# ---------------------------------------------------------------------------
# screening nodes: a disc's K1 as a sum of QGSW-disc K1 terms
# ---------------------------------------------------------------------------

# the gSQG disc's rule is the coarser of the first two orders whose probe
# columns agree to this, relative
_SUBORDINATION_TOL = 1e-12


def _screening_nodes(model: KernelModel) -> tuple[np.ndarray, np.ndarray]:
    """Nodes rho_j and weights w_j with the disc's K1 the sum of w_j times
    the QGSW-disc K1 at eps = rho_j: (eps, 1) for the QGSW disc, a rule
    built once per (beta, R) for the gSQG disc, whose K1 is by
    Balakrishnan's formula for the fractional Laplacian
      (2/pi) sin(pi beta/2) int_0^inf rho^(beta-1) K1_QgswDisc(rho) d rho.
    """
    kind, arg = model.k0
    if kind == "bessel":
        return np.array([arg]), np.array([1.0])
    return _subordination_rule(arg, model.domain[1])[:2]


def model_warning(model: KernelModel) -> str | None:
    """Why the model's numbers may miss their tolerance, or None: the gSQG
    disc's rho rule not converged at its last order (`_subordination_rule`).
    """
    if model.k1 != "subordinated":
        return None
    return _subordination_rule(model.k0[1], model.domain[1])[2]


def _disc_p(ns: np.ndarray, b: float, r: float, nodes) -> np.ndarray:
    # rows p_{n,b}, p_{n,1}, p-tilde_{n,b} of the disc R D summed over the
    # nodes, in node order; the sum of one node is its term, signed zeros too
    eps, w = nodes
    ik_b, ik_1, ik_r = bessel_ik(ns, np.concatenate([eps * b, eps, eps * r]),
                                 np.tile(eps * r, 3)).reshape(3, eps.size, -1)
    terms = w[:, None] * (np.array([-ik_b * ik_b, -ik_1 * ik_1,
                                    -ik_b * ik_1]) / ik_r)
    terms = terms.transpose(1, 0, 2)
    return sum(terms[1:], terms[0])


def _disc_c(b: float, r: float, nodes) -> tuple[float, float]:
    # (c_b, c-tilde_b) of the disc R D summed over the nodes, with K_0/I_0
    # and I_1 scaled by exp(2 eps R) and exp(-eps R): nothing overflows
    eps, w = nodes
    (i0r, _, _), (_, i1b, i1) = bessel_i(np.stack([eps * r, eps * b, eps]),
                                         scaled=True)
    k = w * bessel_k(eps * r, 0, scaled=True)[0] / i0r
    i1b, i1 = i1b * np.exp(eps * (b - r)), i1 * np.exp(eps * (1.0 - r))
    c = (-k * i1b * (i1 / b - i1b), -k * i1 * (i1 - b * i1b))
    return tuple(float(sum(t[1:], t[0])) for t in c)


@lru_cache(maxsize=16)
def _subordination_rule(beta: float, r: float) -> tuple:
    # (nodes, weights, None), or with the text of a warning last when no
    # two orders agree.  Gauss-Legendre in u = rho^(beta/2) for
    # rho < s = max(1, 1/(R - 1)), where rho^(beta-1) d rho = (2/beta) u du
    # and the terms' rho^2 log rho is u^(4/beta) log u, then Gauss-Laguerre
    # at their decay rate 2 (R - 1).
    # The probe columns are p_{n,1}, n <= 4, and c at b = 1/2.  Below
    # rho = 1e-100 the terms equal their rho -> 0 limit to rounding.
    s, rate = max(1.0, 1.0 / (r - 1.0)), 2.0 * (r - 1.0)
    pref = 2.0 * math.sin(math.pi * beta / 2.0) / math.pi
    last = note = None
    for order in (16, 32, 64, 128):
        (gx, gw), (lx, lw) = (_gauss_rule(order),
                              np.polynomial.laguerre.laggauss(order))
        u, tail = s ** (beta / 2.0) * (gx + 1.0) / 2.0, s + lx / rate
        nodes = (np.append(np.maximum(u ** (2.0 / beta), 1e-100), tail),
                 pref * np.append(s ** (beta / 2.0) / beta * gw * u,
                                  lw * np.exp(lx) / rate * tail ** (beta - 1)))
        val = np.append(_disc_p(np.arange(1, 5), 1.0, r, nodes)[1],
                        _disc_c(0.5, r, nodes))
        if last and np.all(np.abs(val - last[1])
                           <= _SUBORDINATION_TOL * np.abs(val)):
            nodes = last[0]
            break
        last = nodes, val
    else:
        note = (f"gSQG disc rho rule at beta = {beta:.15g}, R = {r:.15g} is "
                f"not converged to {_SUBORDINATION_TOL:g} at order {order}")
    for arr in nodes:
        arr.flags.writeable = False
    return (*nodes, note)


# ---------------------------------------------------------------------------
# Bessel-zero series with analytic mean-tail correction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _cached_zeros(n: int, count: int) -> np.ndarray:
    # the first `count` positive zeros of J_n, read-only
    zeros = bessel_j_zeros(n, count)
    zeros.flags.writeable = False
    return zeros


def _mcmahon_tail_sum(n: int, k_start: int, weight, q: float) -> float:
    """sum_{k >= k_start} weight(x_{n,k}) using the McMahon zero locations,
    for a weight that decays like x^-q, q > 1.

    Euler-Maclaurin on the smooth function k -> weight(x_{n,k}(asymptotic));
    used only for the slowly decaying mean part of oscillatory series tails.
    The integral over k > k_start - 1/2 is a node sum of `_graded_nodes`.
    """
    def g(k):
        beta = (k + 0.5 * n - 0.25) * math.pi
        return weight(beta - (4.0 * n * n - 1.0) / (8.0 * beta))

    lo = k_start - 0.5
    ks, ws = _graded_nodes(lo, 2.0 * lo, 0.0, q - 2.0)
    # midpoint-rule form of Euler-Maclaurin; the derivative correction
    d1 = (g(lo + 1e-3) - g(lo - 1e-3)) / 2e-3
    return float(np.sum(ws * g(ks))) + d1 / 24.0


def _jn_zero_series(n: int, beta: int, gamma: int, a1: float, a2: float,
                    weight, truncation: int, q: float = 2.0) -> float:
    """sum_k J_beta(a1 x_k) J_gamma(a2 x_k) weight(x_k) / J_{n+1}^2(x_k).

    The sum runs over the first `truncation` zeros x_k of J_n; `weight`
    takes an array of x and decays like x^-q.  When both factors coincide
    (a1 == a2, beta == gamma) the tail has the non-oscillating mean
    J_beta(a x)^2 / J_{n+1}(x)^2 ~ 1/(2a), summed analytically through the
    McMahon asymptotics of the remaining zeros.
    """
    zeros = _cached_zeros(n, truncation)
    same = a1 == a2 and beta == gamma
    j1 = bessel_j(beta, a1 * zeros)
    j2 = j1 if same else bessel_j(gamma, a2 * zeros)
    jden = bessel_j(n + 1, zeros)
    total = float(np.sum(j1 * j2 * weight(zeros) / (jden * jden)))
    if same:
        total += _mcmahon_tail_sum(n, truncation + 1, weight, q) / (2.0 * a1)
    return total


def qgsw_disc_identity(x_outer: float, y_inner: float,
                       eps: float) -> tuple[float, float]:
    """Bessel-zero series vs closed form of the QGSW summation identity.

    Returns (series_value, closed_value) for
    sum_k J_1(X x_{0,k}) J_1(Y x_{0,k}) / ((x_{0,k}^2 + eps^2) J_1^2(x_{0,k}))
    = (1/2) (I_1(Y eps) / I_0(eps)) (I_1(X eps) K_0(eps) + I_0(eps) K_1(X eps)),
    valid for 0 < Y <= X < 1.
    """
    if y_inner == 0.0:
        return (0.0, 0.0)
    if not 0.0 < y_inner <= x_outer <= 1.0:
        raise ValueError("qgsw_disc_identity requires 0 < Y <= X <= 1")
    series = _jn_zero_series(0, 1, 1, x_outer, y_inner,
                             lambda x: 1.0 / (x * x + eps * eps), _QGSW_TERMS)
    (i0, _, _), (_, i1y, i1x) = bessel_i(
        np.array([eps, y_inner * eps, x_outer * eps]))
    (k0, _), (_, k1x) = bessel_k(np.array([eps, x_outer * eps]))
    closed = 0.5 * (i1y / i0) * (i1x * k0 + i0 * k1x)
    return (series, float(closed))


def _sneddon_window(name: str, order: int, q: float, a: float,
                    b: float) -> None:
    # 0 < a <= b <= 1 and 1 < q < order + 2, order = beta + gamma - 2n
    if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
        raise ValueError(f"{name} requires 0 < a, b <= 1")
    if a > b:
        raise ValueError(f"{name} requires a <= b")
    if not 1.0 < q < order + 2:
        raise ValueError(f"{name} requires 1 < q < beta+gamma-2n+2")


def sneddon_series(beta_idx: int, gamma_idx: int, n: int, q: float,
                   a: float, b: float) -> float:
    """Left side of Sneddon's formula, truncated with a mean-tail correction.

    sum_k J_beta(a x_{n,k}) J_gamma(b x_{n,k}) / (x_{n,k}^q J_{n+1}^2(x_{n,k})).
    Admissible as the closed form: 0 < a <= b <= 1, 1 < q < beta+gamma-2n+2.
    """
    _sneddon_window("sneddon_series", beta_idx + gamma_idx - 2 * n, q, a, b)
    return _jn_zero_series(n, beta_idx, gamma_idx, a, b,
                           lambda x: x ** (-q), _SNEDDON_TERMS, q)


def sneddon_integral(beta_idx: int, gamma_idx: int, n: int, q: float,
                     a: float, b: float) -> float:
    """Right side of Sneddon's formula.

    J-term (closed hypergeometric form) plus
    (1/pi) sin(pi (beta+gamma-2n-q)/2) int rho^{1-q} I_beta(a rho)
    I_gamma(b rho) K_n(rho)/I_n(rho) d rho.
    Requires 0 < a <= b <= 1 and 1 < q < beta + gamma - 2n + 2.
    """
    _sneddon_window("sneddon_integral", beta_idx + gamma_idx - 2 * n, q, a, b)

    # J-term: Gamma-ratio prefactor (_rgamma: 0 at a pole) times F(.; a^2/b^2)
    pref = (a ** beta_idx * math.gamma(1.0 + (beta_idx + gamma_idx - q) / 2.0)
            * _rgamma((gamma_idx - beta_idx + q) / 2.0)
            / (2.0 ** q * b ** (2.0 + beta_idx - q)
               * math.gamma(beta_idx + 1.0)))
    jterm = pref * hyp2f1(1.0 + (beta_idx + gamma_idx - q) / 2.0,
                          1.0 + (beta_idx - gamma_idx - q) / 2.0,
                          beta_idx + 1.0, a * a / (b * b))

    sin_fac = math.sin(math.pi / 2.0 * (beta_idx + gamma_idx - 2 * n - q))

    # the integrand is rho^(1-q+beta+gamma-2n) at 0, times a series with a
    # log term, and falls like rho^-q e^{-(2-a-b) rho}: panels graded toward
    # 0 up to rho = 8, then toward 8 until the exponential has fallen by
    # e^-40 (or 1000 beyond 8), and the tail panel takes rho^-q
    rho, w = map(np.concatenate, zip(
        _graded_nodes(0.0, 8.0, 1.0 - q + beta_idx + gamma_idx - 2 * n, None),
        _graded_nodes(8.0, 8.0 + 40.0 / max(2.0 - a - b, 0.04), 0.0,
                      q - 2.0)))
    scaled = (bessel_i(a * rho, beta_idx, True)[beta_idx]
              * bessel_i(b * rho, gamma_idx, True)[gamma_idx]
              * bessel_k(rho, n, True)[n] / bessel_i(rho, n, True)[n])
    integral = np.sum(w * rho ** (1.0 - q) * scaled
                      * np.exp((a + b - 2.0) * rho))
    return jterm + sin_fac / math.pi * float(integral)


# ---------------------------------------------------------------------------
# smooth kernel part K1 over the contour's patch
# ---------------------------------------------------------------------------

# K1 is the regular part of the Green function of the annulus R1 < |x| < R2,
# with (R1, R2) = (0, R) for the disc and (R, inf) for the exterior:
#   2 pi K1(rho e^{i theta}, t e^{i eta}) = [1, log rho] C0 [1, log t]^T
#       - sum_{k>=1} (1/k) e_k(rho)^T C_k e_k(t) cos k(theta - eta),
# e_k(t) = ((t/R2)^k, (R1/t)^k), C_k = [[1, -s^k], [-s^k, 1]] / (1 - s^{2k}),
# s = R1/R2.  The patch enters only through its weights on [1, log t] and
# its mode sums of e_k(t) e^{-i k eta}.

_K1_TERM_TOL = 1e-16
_K1_TERM_CAP = 400


def _k1_domain(model: KernelModel) -> tuple[float, float, np.ndarray]:
    """(R1, R2, C0) of the domain whose Green function has regular part K1."""
    r1, r2 = model.domain
    if r1 == 0.0:
        return r1, r2, np.array([[math.log(r2), 0.0], [0.0, 0.0]])
    if r2 == math.inf:
        return r1, r2, np.array([[-math.log(r1), 1.0], [1.0, 0.0]])
    l1, l2 = math.log(r1), math.log(r2)
    return r1, r2, np.array([[l1 * l2, -l2], [-l2, 1.0]]) / (l1 - l2)


def _k1_primitives(t: np.ndarray, r1: float, r2: float, kk: np.ndarray):
    # antiderivatives in t of t, t log t and t e_k(t)
    t = t[:, None]
    t2 = t * t
    base = np.hstack([t2 / 2.0, t2 * (np.log(t) - 0.5) / 2.0])
    # t (R1/t)^k integrates to t^2 (R1/t)^k / (2 - k); R1^2 log t at k = 2
    inner = t2 * (r1 / t) ** kk / np.where(kk == 2, 1, 2 - kk)
    inner[:, kk == 2] = r1 * r1 * np.log(t)
    outer = t2 * (t / r2) ** kk / (kk + 2.0)
    return base, np.stack([outer, inner], axis=-1)


def k1_patch(model: KernelModel, fold: int, theta: np.ndarray,
             ra: np.ndarray, rb: np.ndarray,
             rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Stream and velocity (vx + i vy) of K1 over the fold-symmetric patch
    ra(eta) < |y| < rb(eta), eta the uniform grid theta, at the first
    ``rows`` points of its inner (row 0) and outer (row 1) boundary; zero on
    the plane.

    Each term of the K1 series is a radial factor times cos k(theta - eta):
    the factor is integrated from ra(eta) to rb(eta) in closed form, and the
    columns by the trapezoid rule.  The patch's mode sums vanish unless fold
    divides k.  The series stops once the largest term ratio q has
    q^k < 1e-16, at k <= 400.  A custom measure (no `k0_factors`) or a K1
    but the Green series has no contour dynamics: ValueError.
    """
    if model.measure_obj is not None or model.k1 not in (None, "green"):
        raise ValueError(
            f"contour dynamics not supported for {model.variant!r}")
    if model.k1 is None:
        return np.zeros((2, rows)), np.zeros((2, rows), dtype=complex)
    step = 2.0 * np.pi / len(theta)
    x = (np.concatenate([ra[:rows], rb[:rows]])
         * np.tile(np.exp(1j * theta[:rows]), 2))
    r1, r2, c0 = _k1_domain(model)
    rho, ang = np.abs(x), np.angle(x)
    q = max(float(np.max(rho)) * float(np.max(rb)) / r2 ** 2,
            r1 ** 2 / (float(np.min(rho)) * float(np.min(ra))))
    cap = min(_K1_TERM_CAP, max(8, math.ceil(math.log(_K1_TERM_TOL)
                                             / math.log(q))))
    kk = np.arange(fold, cap + 1, fold)
    base_a, modes_a = _k1_primitives(ra, r1, r2, kk)
    base_b, modes_b = _k1_primitives(rb, r1, r2, kk)
    s0 = step * (base_b - base_a).sum(axis=0)
    sk = np.einsum("mk,mkj->kj", np.exp(-1j * np.outer(theta, kk)) * step,
                   modes_b - modes_a)
    s = (r1 / r2) ** kk
    u_out = (sk[:, 0] - s * sk[:, 1]) / (1.0 - s * s)
    u_in = (sk[:, 1] - s * sk[:, 0]) / (1.0 - s * s)
    rot = np.exp(1j * np.outer(ang, kk))
    e_out = (rho[:, None] / r2) ** kk * rot
    e_in = (r1 / rho[:, None]) ** kk * rot
    psi = (c0[0] @ s0 + (c0[1] @ s0) * np.log(rho)
           - np.real(e_out @ (u_out / kk) + e_in @ (u_in / kk)))
    # rho d/drho + i d/dtheta of the mode sums: e_in u_in - conj(e_out u_out)
    vel = (np.exp(1j * ang) / rho
           * (c0[1] @ s0 + e_in @ u_in - np.conj(e_out @ u_out)))
    return ((psi / (2.0 * math.pi)).reshape(2, rows),
            (vel / (2.0 * math.pi)).reshape(2, rows))
