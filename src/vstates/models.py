"""Catalog of geophysical kernel models with closed-form spectral data.

Each model names a kernel K(x, y) = K0(|x - y|) + K1(x, y) on a domain
(whole plane, disc of radius R, annulus R1 < |x| < R2, or the exterior of
a disc) and carries the closed forms needed by the dispersion relation:
the convolution coefficients lambda / lambda-tilde, the interaction
coefficients p / p-tilde, and the velocity constants V^1, V^2 of the
unperturbed annulus 1_{D \\ b D}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _sp

from .cmkernel import Measure, c_beta, euler_flat, gsqg_power, qgsw_shifted
from .specfun import (bessel_i, bessel_j, bessel_k, bessel_zeros, gamma_fn,
                      hyp2f1, pochhammer)

__all__ = [
    "KernelModel",
    "AnnulusGreenCoefficients",
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
    "closed_tilde_lambda",
    "closed_p",
    "series_p",
    "c_terms",
    "v1_v2",
    "annulus_c_frak",
    "qgsw_disc_identity",
    "sneddon_series",
    "sneddon_integral",
    "gsqg_disc_v_terms",
    "qgsw_disc_v_terms",
    "qgsw_disc_v_series",
    "k1_series",
    "k1_eval",
    "k1_grad",
]

_EULER_FAMILY = ("EulerPlane", "EulerDisc", "EulerAnnulus", "EulerExterior")
_PLANE = ("EulerPlane", "GsqgPlane", "QgswPlane", "CustomConvolution")


@dataclass(frozen=True)
class KernelModel:
    """Tagged kernel model with its parameters and admissible b-interval."""

    variant: str
    params: dict = field(default_factory=dict)
    measure_obj: Measure | None = None

    @property
    def s_max(self) -> tuple[float, float]:
        if self.variant == "EulerAnnulus":
            return (self.params["r1"], 1.0)
        if self.variant == "EulerExterior":
            return (self.params["r"], 1.0)
        return (0.0, 1.0)

    def contains_b(self, b: float) -> bool:
        lo, hi = self.s_max
        return lo < b < hi

    def measure(self) -> Measure | None:
        """Bernstein measure of the convolution part K0, when built in."""
        if self.measure_obj is not None:
            return self.measure_obj
        if self.variant in _EULER_FAMILY:
            return euler_flat()
        if self.variant in ("GsqgPlane", "GsqgDisc"):
            return gsqg_power(self.params["beta"])
        if self.variant in ("QgswPlane", "QgswDisc"):
            return qgsw_shifted(self.params["eps"])
        return None

    def describe(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
            return f"{self.variant}({inner})"
        return self.variant


def euler_plane() -> KernelModel:
    return KernelModel("EulerPlane")


def gsqg_plane(beta: float) -> KernelModel:
    if not 0.0 < beta < 1.0:
        raise ValueError("gsqg_plane requires beta in (0, 1)")
    return KernelModel("GsqgPlane", {"beta": beta})


def qgsw_plane(eps: float) -> KernelModel:
    if eps <= 0:
        raise ValueError("qgsw_plane requires eps > 0")
    return KernelModel("QgswPlane", {"eps": eps})


def euler_disc(r: float) -> KernelModel:
    if r <= 1.0:
        raise ValueError("euler_disc requires R > 1")
    return KernelModel("EulerDisc", {"r": r})


def gsqg_disc(beta: float, r: float) -> KernelModel:
    if not 0.0 < beta < 1.0 or r <= 1.0:
        raise ValueError("gsqg_disc requires beta in (0, 1) and R > 1")
    return KernelModel("GsqgDisc", {"beta": beta, "r": r})


def qgsw_disc(eps: float, r: float) -> KernelModel:
    if eps <= 0 or r <= 1.0:
        raise ValueError("qgsw_disc requires eps > 0 and R > 1")
    return KernelModel("QgswDisc", {"eps": eps, "r": r})


def euler_annulus(r1: float, r2: float) -> KernelModel:
    if not 0.0 < r1 < 1.0 < r2:
        raise ValueError("euler_annulus requires 0 < R1 < 1 < R2")
    return KernelModel("EulerAnnulus", {"r1": r1, "r2": r2})


def euler_exterior(r: float) -> KernelModel:
    if not 0.0 < r < 1.0:
        raise ValueError("euler_exterior requires R in (0, 1)")
    return KernelModel("EulerExterior", {"r": r})


def custom_convolution(measure: Measure, alpha: float = 0.5) -> KernelModel:
    return KernelModel("CustomConvolution", {"alpha": alpha},
                       measure_obj=measure)


_VARIANT_BUILDERS = {
    "EulerPlane": lambda p: euler_plane(),
    "GsqgPlane": lambda p: gsqg_plane(p["beta"]),
    "QgswPlane": lambda p: qgsw_plane(p["eps"]),
    "EulerDisc": lambda p: euler_disc(p["r"]),
    "GsqgDisc": lambda p: gsqg_disc(p["beta"], p["r"]),
    "QgswDisc": lambda p: qgsw_disc(p["eps"], p["r"]),
    "EulerAnnulus": lambda p: euler_annulus(p["r1"], p["r2"]),
    "EulerExterior": lambda p: euler_exterior(p["r"]),
}


def model_from_dict(d: dict) -> KernelModel:
    """Build a model from flat key-value text (config section or CLI flags)."""
    variant = d["variant"]
    if variant == "CustomConvolution":
        from .cmkernel import measure_from_dict
        return custom_convolution(measure_from_dict(d),
                                  alpha=float(d.get("alpha", 0.5)))
    if variant not in _VARIANT_BUILDERS:
        raise ValueError(f"unknown model variant {variant!r}")
    params = {k: float(v) for k, v in d.items() if k != "variant"}
    return _VARIANT_BUILDERS[variant](params)


# ---------------------------------------------------------------------------
# convolution coefficients lambda, lambda-tilde
# ---------------------------------------------------------------------------

def gsqg_capital_lambda(n: int, b: float, beta: float) -> float:
    """Lambda_{n,b}(beta) = 2 pi c_beta b^n (beta/2)_n / n! F(beta/2, n+beta/2; n+1; b^2)."""
    if n < 0:
        raise ValueError("gsqg_capital_lambda requires n >= 0")
    if not 0.0 < b <= 1.0:
        raise ValueError("gsqg_capital_lambda requires b in (0, 1]")
    pref = (2.0 * math.pi * c_beta(beta) * b ** n
            * pochhammer(beta / 2.0, n) / math.factorial(n))
    return pref * hyp2f1(beta / 2.0, n + beta / 2.0, n + 1.0, b * b)


def closed_lambda(model: KernelModel, n: int, b: float) -> float | None:
    """lambda_{n,b} of the model's K0, when a closed form exists."""
    if n < 1:
        raise ValueError("closed_lambda requires n >= 1")
    if model.variant in _EULER_FAMILY:
        return 1.0 / (2.0 * n)
    if model.variant in ("GsqgPlane", "GsqgDisc"):
        beta = model.params["beta"]
        return b ** (-beta) * gsqg_capital_lambda(n, 1.0, beta)
    if model.variant in ("QgswPlane", "QgswDisc"):
        eps = model.params["eps"]
        return bessel_i(n, b * eps) * bessel_k(n, b * eps)
    return None


def closed_tilde_lambda(model: KernelModel, n: int, b: float) -> float | None:
    """lambda-tilde_{n,b} of the model's K0, when a closed form exists."""
    if n < 1:
        raise ValueError("closed_tilde_lambda requires n >= 1")
    if model.variant in _EULER_FAMILY:
        return b ** n / (2.0 * n)
    if model.variant in ("GsqgPlane", "GsqgDisc"):
        return gsqg_capital_lambda(n, b, model.params["beta"])
    if model.variant in ("QgswPlane", "QgswDisc"):
        eps = model.params["eps"]
        return bessel_i(n, b * eps) * bessel_k(n, eps)
    return None


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
# interaction coefficients p, p-tilde
# ---------------------------------------------------------------------------

def closed_p(model: KernelModel, n: int, b: float,
             truncation: int = 500) -> tuple[float, float, float]:
    """(p_{n,b}, p_{n,1}, p-tilde_{n,b}) of the model's K1.

    Plane models have K1 = 0.  Euler disc/annulus/exterior use the explicit
    log-kernel Fourier coefficients; the gSQG/QGSW disc variants route to
    the Bessel-zero series of `series_p`.
    """
    if n < 1:
        raise ValueError("closed_p requires n >= 1")
    v = model.variant
    if v in _PLANE:
        return (0.0, 0.0, 0.0)
    if v == "EulerDisc":
        q = model.params["r"] ** -2
        return (-(q * b * b) ** n / (2.0 * n),
                -(q) ** n / (2.0 * n),
                -(q * b) ** n / (2.0 * n))
    if v == "EulerAnnulus":
        g = AnnulusGreenCoefficients(model.params["r1"], model.params["r2"])
        p_nb = -(g.a_m(n, b) * b ** n + g.b_m(n, b) * b ** -n) / (2.0 * n)
        p_n1 = -(g.a_m(n, 1.0) + g.b_m(n, 1.0)) / (2.0 * n)
        pt_nb = -(g.a_m(n, 1.0) * b ** n + g.b_m(n, 1.0) * b ** -n) / (2.0 * n)
        return (p_nb, p_n1, pt_nb)
    if v == "EulerExterior":
        r2n = model.params["r"] ** (2 * n)
        return (-r2n * b ** (-2 * n) / (2.0 * n),
                -r2n / (2.0 * n),
                -r2n * b ** (-n) / (2.0 * n))
    if v in ("GsqgDisc", "QgswDisc"):
        return series_p(model, n, b, truncation)
    raise ValueError(f"closed_p: unsupported variant {v!r}")


def series_p(model: KernelModel, n: int, b: float,
             truncation: int = 500) -> tuple[float, float, float]:
    """Interaction coefficients of the gSQG/QGSW disc via eigenexpansion.

    The n-th angular Fourier coefficient of the full disc Green function is
    a series over the zeros of J_n; subtracting the whole-plane coefficient
    lambda_{n,b} leaves p_{n,b}.
    """
    r = model.params["r"]
    if model.variant == "QgswDisc":
        eps = model.params["eps"]

        def coeff(a1: float, a2: float) -> float:
            return 2.0 * _jn_zero_series(
                n, n, a1, a2, lambda x: 1.0 / (x * x + eps * eps * r * r),
                truncation)

        lam_b = bessel_i(n, b * eps) * bessel_k(n, b * eps)
        lam_1 = bessel_i(n, eps) * bessel_k(n, eps)
        lamt = bessel_i(n, b * eps) * bessel_k(n, eps)
        return (coeff(b / r, b / r) - lam_b,
                coeff(1.0 / r, 1.0 / r) - lam_1,
                coeff(b / r, 1.0 / r) - lamt)
    if model.variant == "GsqgDisc":
        beta = model.params["beta"]
        q = 2.0 - beta
        pref = 2.0 * r ** (-beta)

        def coeff(a1: float, a2: float) -> float:
            lo, hi = min(a1, a2), max(a1, a2)
            return pref * sneddon_integral(n, n, n, q, lo, hi)

        lam_b = b ** (-beta) * gsqg_capital_lambda(n, 1.0, beta)
        lam_1 = gsqg_capital_lambda(n, 1.0, beta)
        lamt = gsqg_capital_lambda(n, b, beta)
        return (coeff(b / r, b / r) - lam_b,
                coeff(1.0 / r, 1.0 / r) - lam_1,
                coeff(b / r, 1.0 / r) - lamt)
    raise ValueError("series_p is defined for GsqgDisc / QgswDisc only")


# ---------------------------------------------------------------------------
# velocity constants V^1, V^2
# ---------------------------------------------------------------------------

def v1_v2(model: KernelModel, b: float) -> tuple[float, float]:
    """(V^1_b[0], V^2_b[0]) for the model."""
    if not model.contains_b(b):
        raise ValueError(f"b = {b} outside the admissible interval {model.s_max}")
    v = model.variant
    if v == "GsqgDisc":
        return gsqg_disc_v_terms(model.params["beta"], model.params["r"], b)
    if v == "QgswDisc":
        return qgsw_disc_v_terms(model.params["eps"], model.params["r"], b)
    if v == "EulerAnnulus":
        cf = annulus_c_frak(model.params["r1"], model.params["r2"], b)
        return (cf / (b * b), -(1.0 - b * b) / 2.0 + cf)
    if v == "EulerExterior":
        return ((1.0 - b * b) / (2.0 * b * b), 0.0)
    # convolution part only (plane models and the Euler disc, whose
    # K1-induced c-terms vanish)
    lam_b = closed_lambda(model, 1, b)
    lamt_b = closed_tilde_lambda(model, 1, b)
    lam_1 = closed_lambda(model, 1, 1.0)
    if lam_b is None:
        raise ValueError(f"v1_v2 has no closed form for {v!r}; "
                         "use dispersion.v_constants")
    v1 = lam_b - lamt_b / b
    v2 = -lam_1 + b * lamt_b
    return (v1, v2)


def c_terms(model: KernelModel, b: float) -> tuple[float, float]:
    """(c_b, c-tilde_b): the K1 contributions inside V^1, V^2."""
    v = model.variant
    if v in _PLANE or v == "EulerDisc":
        return (0.0, 0.0)
    if v == "EulerAnnulus":
        cf = annulus_c_frak(model.params["r1"], model.params["r2"], b)
        return (cf / (b * b), cf)
    if v == "EulerExterior":
        return ((1.0 - b * b) / (2.0 * b * b), (1.0 - b * b) / 2.0)
    # gSQG / QGSW disc: difference between the full V and its convolution part
    v1, v2 = v1_v2(model, b)
    lam_b = closed_lambda(model, 1, b)
    lamt_b = closed_tilde_lambda(model, 1, b)
    lam_1 = closed_lambda(model, 1, 1.0)
    return (v1 - (lam_b - lamt_b / b), v2 - (-lam_1 + b * lamt_b))


# ---------------------------------------------------------------------------
# Bessel-zero series with analytic mean-tail correction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _cached_zeros(n: int, count: int) -> np.ndarray:
    return bessel_zeros(n, count).zeros


def _mcmahon_tail_sum(n: int, k_start: int, weight) -> float:
    """sum_{k >= k_start} weight(x_{n,k}) using the McMahon zero locations.

    Euler-Maclaurin on the smooth function k -> weight(x_{n,k}(asymptotic));
    used only for the slowly decaying mean part of oscillatory series tails.
    """
    def g(k: float) -> float:
        beta = (k + 0.5 * n - 0.25) * math.pi
        mu = 4.0 * n * n
        x = beta - (mu - 1.0) / (8.0 * beta)
        return weight(x)

    val, _ = _integrate.quad(g, k_start - 0.5, np.inf, limit=200)
    # midpoint-rule form of Euler-Maclaurin; the derivative correction
    d1 = (g(k_start - 0.5 + 1e-3) - g(k_start - 0.5 - 1e-3)) / 2e-3
    return val + d1 / 24.0


def _jn_zero_series(n: int, nu: int, a1: float, a2: float, weight,
                    truncation: int) -> float:
    """sum_k J_nu(a1 x_{n,k}) J_nu(a2 x_{n,k}) weight(x_{n,k}) / J_{n+1}^2(x_{n,k}).

    The sum runs over the zeros of J_n.  Truncated at `truncation` terms;
    when a1 == a2 the tail has the non-oscillating mean
    J_nu(a x)^2 / J_{n+1}(x)^2 ~ 1/(2a), summed analytically through the
    McMahon asymptotics of the remaining zeros.
    """
    zeros = _cached_zeros(n, truncation)
    j1 = _sp.jv(nu, a1 * zeros)
    j2 = j1 if a1 == a2 else _sp.jv(nu, a2 * zeros)
    jden = _sp.jv(n + 1, zeros)
    w = np.array([weight(float(x)) for x in zeros])
    total = float(np.sum(j1 * j2 * w / (jden * jden)))
    if a1 == a2:
        total += _mcmahon_tail_sum(n, truncation + 1, weight) / (2.0 * a1)
    return total


def qgsw_disc_identity(x_outer: float, y_inner: float, eps: float,
                       truncation: int = 500) -> tuple[float, float]:
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
    series = _jn_zero_series(0, 1, x_outer, y_inner,
                             lambda x: 1.0 / (x * x + eps * eps), truncation)
    closed = 0.5 * (bessel_i(1, y_inner * eps) / bessel_i(0, eps)) * (
        bessel_i(1, x_outer * eps) * bessel_k(0, eps)
        + bessel_i(0, eps) * bessel_k(1, x_outer * eps))
    return (series, closed)


def sneddon_series(beta_idx: int, gamma_idx: int, n: int, q: float,
                   a: float, b: float, truncation: int = 500) -> float:
    """Left side of Sneddon's formula, truncated with a mean-tail correction.

    sum_k J_beta(a x_{n,k}) J_gamma(b x_{n,k}) / (x_{n,k}^q J_{n+1}^2(x_{n,k})).
    Admissibility window as for the closed form: 0 < a <= b <= 1 and
    1 < q < beta + gamma - 2n + 2.
    """
    if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
        raise ValueError("sneddon_series requires 0 < a, b <= 1")
    if a > b:
        raise ValueError("sneddon_series requires a <= b")
    if not 1.0 < q < beta_idx + gamma_idx - 2 * n + 2:
        raise ValueError("sneddon_series requires 1 < q < beta+gamma-2n+2")
    zeros = _cached_zeros(n, truncation)
    ja = _sp.jv(beta_idx, a * zeros)
    jb = _sp.jv(gamma_idx, b * zeros)
    jden = _sp.jv(n + 1, zeros)
    total = float(np.sum(ja * jb / (zeros ** q * jden * jden)))
    if a == b and beta_idx == gamma_idx:
        # non-oscillating tail mean: J_beta(a x)^2 / J_{n+1}^2(x) ~ 1/(2a x^{q-1})
        total += _mcmahon_tail_sum(n, truncation + 1,
                                   lambda x: x ** (-q)) / (2.0 * a)
    return total


def sneddon_integral(beta_idx: int, gamma_idx: int, n: int, q: float,
                     a: float, b: float) -> float:
    """Right side of Sneddon's formula.

    J-term (closed hypergeometric form) plus
    (1/pi) sin(pi (beta+gamma-2n-q)/2) int rho^{1-q} I_beta(a rho)
    I_gamma(b rho) K_n(rho)/I_n(rho) d rho.
    Requires 0 < a <= b <= 1 and 1 < q < beta + gamma - 2n + 2.
    """
    if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
        raise ValueError("sneddon_integral requires 0 < a, b <= 1")
    if a > b:
        raise ValueError("sneddon_integral requires a <= b")
    if not 1.0 < q < beta_idx + gamma_idx - 2 * n + 2:
        raise ValueError("sneddon_integral requires 1 < q < beta+gamma-2n+2")

    # J-term: Gamma-ratio prefactor times F(.; a^2/b^2).  The denominator
    # Gamma may sit at a negative argument or a pole (where 1/Gamma = 0).
    den_arg = (gamma_idx - beta_idx + q) / 2.0
    if den_arg <= 0 and den_arg == int(den_arg):
        inv_den = 0.0
    else:
        inv_den = 1.0 / math.gamma(den_arg)
    pref = (a ** beta_idx * gamma_fn(1.0 + (beta_idx + gamma_idx - q) / 2.0)
            * inv_den
            / (2.0 ** q * b ** (2.0 + beta_idx - q)
               * gamma_fn(beta_idx + 1.0)))
    jterm = pref * hyp2f1(1.0 + (beta_idx + gamma_idx - q) / 2.0,
                          1.0 + (beta_idx - gamma_idx - q) / 2.0,
                          beta_idx + 1.0, a * a / (b * b))

    sin_fac = math.sin(math.pi / 2.0 * (beta_idx + gamma_idx - 2 * n - q))

    def integrand(rho: float) -> float:
        if rho == 0.0:
            return 0.0
        scaled = (_sp.ive(beta_idx, a * rho) * _sp.ive(gamma_idx, b * rho)
                  * _sp.kve(n, rho) / _sp.ive(n, rho))
        return rho ** (1.0 - q) * scaled * math.exp((a + b - 2.0) * rho)

    integral, _ = _integrate.quad(integrand, 0.0, np.inf, limit=400,
                                  epsabs=1e-13, epsrel=1e-12)
    return jterm + sin_fac / math.pi * integral


# ---------------------------------------------------------------------------
# gSQG / QGSW disc velocity constants
# ---------------------------------------------------------------------------

def _ik_prod(n1: int, x1: float, n2: int, x2: float) -> float:
    """I_{n1}(x1) K_{n2}(x2) via scaled Bessel functions (overflow-safe)."""
    return float(_sp.ive(n1, x1) * _sp.kve(n2, x2) * math.exp(x1 - x2))


def _ii_over_i0_ratio(n1: int, x1: float, n2: int, x2: float,
                      r: float, rho: float) -> float:
    """I_{n1}(x1) I_{n2}(x2) K_0(R rho) / I_0(R rho), overflow-safe."""
    return float(_sp.ive(n1, x1) * _sp.ive(n2, x2)
                 * _sp.kve(0, r * rho) / _sp.ive(0, r * rho)
                 * math.exp(x1 + x2 - 2.0 * r * rho))


def gsqg_disc_v_terms(beta: float, r: float, b: float) -> tuple[float, float]:
    """(V^1, V^2) for the gSQG equation on the disc R*D via Sneddon integrals."""
    if not 0.0 < beta < 1.0 or r <= 1.0 or not 0.0 < b < 1.0:
        raise ValueError("gsqg_disc_v_terms: invalid parameters")
    pref = -2.0 * math.sin(math.pi * beta / 2.0) / math.pi

    def int1_v1(rho: float) -> float:
        if rho == 0.0:
            return 0.0
        val = (_ik_prod(1, b * rho, 1, rho) / b - _ik_prod(1, b * rho, 1, b * rho))
        return val * rho ** (beta - 1.0)

    def int2_v1(rho: float) -> float:
        if rho == 0.0:
            return 0.0
        val = (_ii_over_i0_ratio(1, b * rho, 1, rho, r, rho) / b
               - _ii_over_i0_ratio(1, b * rho, 1, b * rho, r, rho))
        return val * rho ** (beta - 1.0)

    def int1_v2(rho: float) -> float:
        if rho == 0.0:
            return 0.0
        val = (_ik_prod(1, rho, 1, rho) - b * _ik_prod(1, b * rho, 1, rho))
        return val * rho ** (beta - 1.0)

    def int2_v2(rho: float) -> float:
        if rho == 0.0:
            return 0.0
        val = (_ii_over_i0_ratio(1, rho, 1, rho, r, rho)
               - b * _ii_over_i0_ratio(1, rho, 1, b * rho, r, rho))
        return val * rho ** (beta - 1.0)

    def quad_full(f) -> float:
        v1, _ = _integrate.quad(f, 0.0, 1.0, limit=400, epsabs=1e-13)
        v2, _ = _integrate.quad(f, 1.0, np.inf, limit=400, epsabs=1e-13)
        return v1 + v2

    v1 = pref * (quad_full(int1_v1) + quad_full(int2_v1))
    v2 = pref * (quad_full(int1_v2) + quad_full(int2_v2))
    return (v1, v2)


def qgsw_disc_v_terms(eps: float, r: float, b: float) -> tuple[float, float]:
    """(V^1, V^2) for the QGSW equation on the disc R*D, closed form."""
    if eps <= 0 or r <= 1.0 or not 0.0 < b < 1.0:
        raise ValueError("qgsw_disc_v_terms: invalid parameters")
    i1b = bessel_i(1, b * eps)
    i1 = bessel_i(1, eps)
    k1b = bessel_k(1, b * eps)
    k1 = bessel_k(1, eps)
    ratio = bessel_k(0, r * eps) / bessel_i(0, r * eps)
    v1 = -ratio * i1b * (i1 / b - i1b) - i1b * (k1 / b - k1b)
    v2 = -ratio * i1 * (i1 - b * i1b) - k1 * (i1 - b * i1b)
    return (v1, v2)


def qgsw_disc_v_series(eps: float, r: float, b: float,
                       truncation: int = 500) -> tuple[float, float]:
    """(V^1, V^2) for the QGSW disc via the Bessel-zero series."""
    if eps <= 0 or r <= 1.0 or not 0.0 < b < 1.0:
        raise ValueError("qgsw_disc_v_series: invalid parameters")
    c2 = eps * eps * r * r

    # the series run over the zeros of J_0 with J_1 numerators
    def s0(a1: float, a2: float) -> float:
        return _jn_zero_series(0, 1, a1, a2,
                               lambda x: 1.0 / (x * x + c2), truncation)

    v1 = -2.0 * (s0(b / r, 1.0 / r) / b - s0(b / r, b / r))
    v2 = -2.0 * (s0(1.0 / r, 1.0 / r) - b * s0(1.0 / r, b / r))
    return (v1, v2)


# ---------------------------------------------------------------------------
# smooth kernel part K1 (needed by the contour functional)
# ---------------------------------------------------------------------------

# K1 is the regular part of the Green function of the annulus R1 < |x| < R2,
# with (R1, R2) = (0, R) for the disc and (R, inf) for the exterior:
#   2 pi K1(rho e^{i theta}, t e^{i eta}) = [1, log rho] C0 [1, log t]^T
#       - sum_{k>=1} (1/k) e_k(rho)^T C_k e_k(t) cos k(theta - eta),
# e_k(t) = ((t/R2)^k, (R1/t)^k), C_k = [[1, -s^k], [-s^k, 1]] / (1 - s^{2k}),
# s = R1/R2.  A source enters only through its weights on [1, log t] and its
# mode sums of e_k(t) e^{-i k eta}, so a point and a patch share the series.

_K1_TERM_TOL = 1e-16
_K1_TERM_CAP = 400


def _k1_domain(model: KernelModel) -> tuple[float, float, np.ndarray]:
    """(R1, R2, C0) of the annulus whose Green function has regular part K1."""
    p = model.params
    if model.variant == "EulerDisc":
        return 0.0, p["r"], np.array([[math.log(p["r"]), 0.0], [0.0, 0.0]])
    if model.variant == "EulerExterior":
        return p["r"], math.inf, np.array([[-math.log(p["r"]), 1.0],
                                          [1.0, 0.0]])
    if model.variant == "EulerAnnulus":
        l1, l2 = math.log(p["r1"]), math.log(p["r2"])
        return p["r1"], p["r2"], (np.array([[l1 * l2, -l2], [-l2, 1.0]])
                                  / (l1 - l2))
    raise ValueError(f"no closed kernel part for {model.variant!r}")


def k1_series(model: KernelModel, x: np.ndarray, t_min: float, t_max: float,
              source) -> tuple[np.ndarray, np.ndarray]:
    """Stream and velocity (vx + i vy) of K1 against a source, at points x.

    The source lies at radii in [t_min, t_max].  ``source(r1, r2, kk)``
    returns its weights on [1, log t] and, one row per mode k in kk, its
    sums of e_k(t) e^{-i k eta}.  The series stops once the largest term
    ratio q has q^k < 1e-16, after at most 400 terms.
    """
    r1, r2, c0 = _k1_domain(model)
    rho, theta = np.abs(x), np.angle(x)
    q = max(float(np.max(rho)) * t_max / r2 ** 2,
            r1 ** 2 / (float(np.min(rho)) * t_min))
    cap = min(_K1_TERM_CAP, max(8, math.ceil(math.log(_K1_TERM_TOL)
                                             / math.log(q))))
    kk = np.arange(1, cap + 1)
    s0, sk = source(r1, r2, kk)
    s = (r1 / r2) ** kk
    u_out = (sk[:, 0] - s * sk[:, 1]) / (1.0 - s * s)
    u_in = (sk[:, 1] - s * sk[:, 0]) / (1.0 - s * s)
    rot = np.exp(1j * np.outer(theta, kk))
    e_out = (rho[:, None] / r2) ** kk * rot
    e_in = (r1 / rho[:, None]) ** kk * rot
    val = (c0[0] @ s0 + (c0[1] @ s0) * np.log(rho)
           - np.real(e_out @ (u_out / kk) + e_in @ (u_in / kk)))
    # rho d/drho + i d/dtheta of the mode sums: e_in u_in - conj(e_out u_out)
    grad = (np.exp(1j * theta) / rho
            * (c0[1] @ s0 + e_in @ u_in - np.conj(e_out @ u_out)))
    return val / (2.0 * math.pi), grad / (2.0 * math.pi)


def _k1_point(model: KernelModel, x: complex,
              y: complex) -> tuple[float, complex]:
    t, eta = abs(y), math.atan2(y.imag, y.real)

    def source(r1, r2, kk):
        e_k = np.stack([(t / r2) ** kk, (r1 / t) ** kk], axis=1)
        return (np.array([1.0, math.log(t)]),
                e_k * np.exp(-1j * kk * eta)[:, None])

    val, grad = k1_series(model, np.array([complex(x)]), t, t, source)
    return float(val[0]), complex(grad[0])


def k1_eval(model: KernelModel, x: complex, y: complex) -> float:
    """K1(x, y) for models with an explicit smooth kernel part."""
    if model.variant in _PLANE:
        return 0.0
    return _k1_point(model, x, y)[0]


def k1_grad(model: KernelModel, x: complex, y: complex) -> complex:
    """Gradient of K1 in x, returned as a complex number (vx + i vy)."""
    if model.variant in _PLANE:
        return 0.0 + 0.0j
    return _k1_point(model, x, y)[1]
