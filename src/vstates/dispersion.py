"""Spectral engine for the linearized patch dynamics.

Assembles the coefficient rows and dispersion points of the annulus
1_{D \\ b D}.  `spectral_row` is the one assembly route: given an array of
modes it returns columns, the lambdas from one array call per closed form
of `models` or from quadrature for a custom measure (nodes built once per
coefficient), p from `models.closed_p` and the K1 constants from
`models.c_terms`, on both discs node sums of QGSW-disc closed forms that
call no quadrature routine.  `v_constants` is the mode-1 combination of
the same lambdas plus those constants, for every model.
`dispersion_point` takes the row, the velocity constants V^1, V^2 (once
per b) and forms A, B, the discriminant, both roots and the
classification as arrays.  The module also evaluates the discriminant's
large-n limit, locates the smallest symmetry fold m admitting simple real
eigenvalues, and scans the monotone ordering of the two branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate as _integrate

from . import models as _models
from .cmkernel import Measure
from .models import KernelModel
from .universal import _gauss_rule, phi_n, phi_nb, psi_b

__all__ = [
    "DEGENERACY_TOL",
    "SpectralRow",
    "DispersionPoint",
    "MonotonicityReport",
    "FoldNotFound",
    "spectral_row",
    "dispersion_point",
    "dispersion_points",
    "delta_inf",
    "min_fold",
    "has_closed_fold",
    "annulus_fold_inequality",
    "monotonicity_scan",
    "q_matrix",
    "kernel_vector",
]

# absolute tolerance identifying a degenerate discriminant
DEGENERACY_TOL = 1e-9

# the largest symmetry fold min_fold tries
_FOLD_CAP = 64

# how SpectralRow.source names the route of p for each kind of K1
_P_SOURCE = {None: "zero", "green": "closed", "bessel_ik": "closed",
             "subordinated": "quadrature"}


class FoldNotFound(RuntimeError):
    """No symmetry fold below the cap satisfies the bifurcation conditions."""


@dataclass(frozen=True)
class SpectralRow:
    """Coefficients entering the n-th Fourier block of the linearization;
    columns over the modes when n is an array."""

    n: int
    b: float
    lam_nb: float
    lam_n1: float
    lamt_nb: float
    p_nb: float
    p_n1: float
    pt_nb: float
    c_b: float
    ct_b: float
    source: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DispersionPoint:
    """Dispersion data at mode n: quadratic coefficients, discriminant, roots.

    When n is an array of modes every field is a column, and the roots are
    NaN where the discriminant is negative (None for a single mode).  The
    eigenvalue pair -i n Omega^{+/-} leaves the imaginary axis, and the
    mode is "unstable", exactly when the discriminant is negative.
    """

    n: int
    b: float
    a_nb: float
    b_nb: float
    delta: float
    omega_plus: float | None
    omega_minus: float | None
    classification: str  # {"stable", "unstable", "degenerate"}
    row: SpectralRow


@dataclass(frozen=True)
class MonotonicityReport:
    case: str  # {"V1>V2", "V1<V2"}
    ok: bool
    first_violation: int | None
    n_values: tuple[int, ...]
    omega_plus: tuple[float, ...]
    omega_minus: tuple[float, ...]
    v1: float
    v2: float


# ---------------------------------------------------------------------------
# quadrature fallback for convolution models without closed forms
# ---------------------------------------------------------------------------

def _measure_nodes(mu: Measure, x_hi: float,
                   order: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of mu on (0, x_hi): its atoms, then Gauss-Legendre
    nodes of its density part.  An atom at 0 raises ValueError.

    Weights include the density value.  Panels refine geometrically toward
    the lower endpoint; the shifted family integrates in u with
    x = eps cosh(u), which removes its inverse-square-root singularity.
    """
    if any(x == 0.0 for x, _ in mu.atoms):
        raise ValueError("spectral coefficient undefined for atom at 0")
    atoms = np.reshape(mu.atoms, (-1, 2))
    if mu.family is None:
        return atoms[:, 0], atoms[:, 1]
    gx, gw = _gauss_rule(order)

    def assemble(edges: np.ndarray, fun_x, fun_w) -> tuple[np.ndarray, np.ndarray]:
        xs, ws = [atoms[:, 0]], [atoms[:, 1]]
        for a, c in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + c), 0.5 * (c - a)
            u = mid + half * gx
            xs.append(fun_x(u))
            ws.append(fun_w(u) * half * gw)
        return np.concatenate(xs), np.concatenate(ws)

    if mu.family == "qgsw_shifted":
        eps = mu.params["eps"]
        u_hi = math.acosh(max(x_hi / eps, 1.5))
        return assemble(np.linspace(0.0, u_hi, 17),
                        lambda u: eps * np.cosh(u),
                        lambda u: eps * np.cosh(u) / (2.0 * math.pi))
    if mu.family == "truncated_low":
        lo, hi = 0.0, min(mu.params["x_star"], x_hi)
    elif mu.family == "truncated_high":
        lo, hi = mu.params["x_star"], max(x_hi, mu.params["x_star"] + 10.0)
    else:
        lo, hi = 0.0, x_hi
    edges = lo + (hi - lo) * 2.0 ** np.arange(-14.0, 0.0)
    return assemble(np.concatenate([[lo], edges, [hi]]), lambda u: u,
                    np.vectorize(mu.density))


def _tail_moments(mu: Measure, x_cut: float) -> tuple[float, float]:
    """(int x^-2 dmu, int x^-4 dmu) over x > x_cut, the density part only.

    `_tail_integral` needs no other integral of the measure beyond the cut.
    """
    if mu.family is None:
        return (0.0, 0.0)
    return tuple(_integrate.quad(lambda x: mu.density(x) * x ** -p, x_cut,
                                 np.inf, limit=200, epsabs=0.0,
                                 epsrel=1e-12)[0] for p in (2, 4))


def _tail_integral(n, scale: float, moments: tuple[float, float]):
    # int phi_n(scale x) dmu(x)/x over x > x_cut, from the large-argument
    # expansion phi_n(y) = 2/y - (2 n^2 - 1/4)/y^3 + O(y^-5), linear in n^2
    m2, m4 = moments
    return 2.0 / scale * m2 - (2.0 * n * n - 0.25) / scale ** 3 * m4


def _lambda_quadrature(mu: Measure, ns: np.ndarray,
                       scale: float) -> np.ndarray:
    """int phi_n(scale * x) dmu(x)/x at an array of modes; the algebraic
    tail beyond the cut is summed by model."""
    x_cut = 300.0 / scale
    xs, ws = _measure_nodes(mu, x_cut)
    head = np.array([np.sum(phi_n(k, scale * xs) * ws / xs)
                     for k in ns.tolist()])
    return head + _tail_integral(ns, scale, _tail_moments(mu, x_cut))


def _lambda_tilde_quadrature(mu: Measure, ns: np.ndarray,
                             b: float) -> np.ndarray:
    """int phi_{n,b}(x) dmu(x)/x at an array of modes; the integrand
    decays like e^{-(1-b)x}."""
    decay = max(1.0 - b, 1e-3)
    x_cut = math.log(2.0 * math.pi / 1e-14) / decay + 10.0
    xs, ws = _measure_nodes(mu, x_cut)
    return np.array([np.sum(phi_nb(k, b, xs) * ws / xs)
                     for k in ns.tolist()])


# ---------------------------------------------------------------------------
# row / point assembly
# ---------------------------------------------------------------------------

_COEFFS = ("lam_nb", "lam_n1", "lamt_nb", "p_nb", "p_n1", "pt_nb")


def _lambdas(model: KernelModel, ns: np.ndarray, b: float) -> tuple:
    # ((lambda_{n,b}, lambda_{n,1}, lambda-tilde_{n,b}) columns, their route)
    if model.k0[0] == "measure":
        mu = model.measure()
        return (_lambda_quadrature(mu, ns, b), _lambda_quadrature(mu, ns, 1.0),
                _lambda_tilde_quadrature(mu, ns, b)), "quadrature"
    return (_models.closed_lambda(model, ns, b),
            _models.closed_lambda(model, ns, 1.0),
            _models.closed_tilde_lambda(model, ns, b)), "closed"


def spectral_row(model: KernelModel, n, b: float) -> SpectralRow:
    """Assemble the six coefficients and two constants of the n-th block.

    n may be an integer array of modes, which gives a row of columns.  The
    closed forms take all modes in one call; a custom measure's lambdas come
    from quadrature, on nodes built once per coefficient.
    """
    ns = np.atleast_1d(np.asarray(n, dtype=int))
    if ns.ndim != 1 or ns.size == 0 or ns.min() < 1:
        raise ValueError("spectral_row requires modes n >= 1")
    model.require_b(b)
    lams, route = _lambdas(model, ns, b)
    c_b, ct_b = _models.c_terms(model, b)
    row = SpectralRow(n=ns, b=b, **dict(zip(_COEFFS, (
        *lams, *_models.closed_p(model, ns, b)))), c_b=c_b, ct_b=ct_b,
        source={"p": _P_SOURCE[model.k1], "lambda": route})
    return row if np.ndim(n) else _split_row(row)[0]


def _split_row(row: SpectralRow) -> list[SpectralRow]:
    # one SpectralRow of floats per mode of a row of columns
    return [SpectralRow(n, row.b, *vals, c_b=row.c_b, ct_b=row.ct_b,
                        source=dict(row.source))
            for n, *vals in zip(*(getattr(row, k).tolist()
                                  for k in ("n", *_COEFFS)))]


def dispersion_point(model: KernelModel, n, b: float,
                     v: tuple[float, float] | None = None) -> DispersionPoint:
    """Quadratic coefficients A, B, discriminant and roots at mode n.

    n may be an integer array of modes, which gives a point of columns.
    V^1, V^2 are computed once, or taken from v; a custom measure whose
    first mode is 1 takes them from that column of its row.  A non-finite
    coefficient raises ArithmeticError naming the model, the mode and b.
    """
    ns = np.atleast_1d(np.asarray(n, dtype=int))
    row = spectral_row(model, ns, b)
    cols = {k: getattr(row, k) for k in _COEFFS}
    if v is None and model.k0[0] == "measure" and ns[0] == 1:
        v = _models._mode_1_v(row.lam_nb[0], row.lam_n1[0], row.lamt_nb[0],
                              b, row.c_b, row.ct_b)
    v1, v2 = v_constants(model, b) if v is None else v
    a_nb = -v1 + cols["lam_nb"] + cols["p_nb"]
    b_nb = -v2 - cols["lam_n1"] - cols["p_n1"]
    off = cols["lamt_nb"] + cols["pt_nb"]
    # float_power rounds like the scalar x ** 2, which is not always x * x
    delta = np.float_power(a_nb - b_nb, 2) - 4.0 * off * off
    # Delta is finite exactly when V and every coefficient are
    if not (np.isfinite(delta).all() and math.isfinite(row.c_b + row.ct_b)):
        names = [*cols, "Delta"]
        bad = ~np.isfinite([*cols.values(), delta + row.c_b + row.ct_b])
        i, j = np.argwhere(bad)[0]
        raise ArithmeticError(f"non-finite {names[i]} for {model.describe()} "
                              f"at n = {ns[j]}, b = {b}")
    half_gap = np.sqrt(np.where(delta >= 0.0, delta, np.nan)) / 2.0
    tol = DEGENERACY_TOL
    kind = (delta > tol).astype(int) - (delta < -tol) + 1
    point = DispersionPoint(
        n=ns, b=b, a_nb=a_nb, b_nb=b_nb, delta=delta,
        omega_plus=(a_nb + b_nb) / 2.0 + half_gap,
        omega_minus=(a_nb + b_nb) / 2.0 - half_gap,
        classification=np.array(["unstable", "degenerate", "stable"])[kind],
        row=row)
    return point if np.ndim(n) else _split(point)[0]


def _split(point: DispersionPoint) -> list[DispersionPoint]:
    # one DispersionPoint of floats per mode of a point of columns
    return [DispersionPoint(
        n=row.n, b=point.b, a_nb=a, b_nb=bb, delta=d,
        omega_plus=wp if d >= 0.0 else None,
        omega_minus=wm if d >= 0.0 else None, classification=cls, row=row)
        for row, a, bb, d, wp, wm, cls
        in zip(_split_row(point.row), *(c.tolist() for c in (
            point.a_nb, point.b_nb, point.delta, point.omega_plus,
            point.omega_minus, point.classification)))]


def dispersion_points(model: KernelModel, ns, b: float
                      ) -> list[DispersionPoint]:
    """`dispersion_point` at each mode of ns, from one call on all of them."""
    return _split(dispersion_point(model, np.array(list(ns), dtype=int), b))


def v_constants(model: KernelModel, b: float) -> tuple[float, float]:
    """(V^1, V^2): the mode-1 combination of the model's lambdas plus the
    K1 constants of `models.c_terms`, for every model.

    b is checked first, so an inadmissible b never reaches a quadrature.
    """
    model.require_b(b)
    lams, _ = _lambdas(model, np.array([1]), b)
    return _models._mode_1_v(*(float(c[0]) for c in lams), b,
                             *_models.c_terms(model, b))


def delta_inf(model: KernelModel, b: float, via_psi: bool = False) -> float:
    """Large-n limit of the discriminant, (V^1 - V^2)^2.

    With via_psi=True the convolution part is re-assembled through the
    integral of Psi_b against the measure (independent route), plus the
    smooth-part constants c_b - ct_b.
    """
    if not via_psi:
        v1, v2 = v_constants(model, b)
        return (v1 - v2) ** 2
    mu = model.measure()
    x_cut = 300.0 / min(b, 1.0)
    xs, ws = _measure_nodes(mu, x_cut)
    # phi_{1,b} is exponentially small beyond the cut
    moments = _tail_moments(mu, x_cut)
    total = (float(np.sum(psi_b(b, xs) * ws / xs))
             + _tail_integral(1, 1.0, moments) + _tail_integral(1, b, moments))
    c_b, ct_b = _models.c_terms(model, b)
    return (total + c_b - ct_b) ** 2


# ---------------------------------------------------------------------------
# fold selection
# ---------------------------------------------------------------------------

def has_closed_fold(model: KernelModel) -> bool:
    """True when the closed fold inequality applies: a Green-series K1 on a
    domain with an inner boundary (annulus, exterior of a disc)."""
    return model.k1 == "green" and model.domain[0] > 0.0


def annulus_fold_inequality(model: KernelModel, b: float, n):
    """Closed positivity condition for the discriminant at mode n.

    n is one mode (giving a bool) or an integer array (a bool column).
    Written for the domain (R1, R2) with R2 entering only through 1/R2, so
    the exterior R2 = inf is its limit; c is the K1 constant of `c_terms`.
    """
    if not has_closed_fold(model):
        raise ValueError("the closed fold inequality needs an annulus or "
                         "exterior domain with a log kernel")
    ns = np.asarray(n)
    r1, r2 = model.domain
    c = _models.c_terms(model, b)[1]
    u = 1.0 / r2
    # float_power rounds like the scalar x ** n
    s2n = np.float_power(r1 * u, 2 * ns)
    inner = np.float_power(r1 / b, 2 * ns)
    u2n = np.float_power(u, 2 * ns)
    rhs = (b * b / ((1.0 - b * b) * (b * b + 2.0 * c))) / (1.0 - s2n) * (
        2.0 - np.float_power(r1, 2 * ns) - inner
        - np.float_power(b * u, 2 * ns) - u2n + 2.0 * s2n
        + 2.0 * (1.0 - u2n) * np.float_power(b, ns) * (1.0 - inner))
    return ns > rhs if ns.ndim else bool(ns > rhs)


def min_fold(model: KernelModel, b: float, k_max: int = 10,
             v: tuple[float, float] | None = None) -> int:
    """Smallest symmetry fold m with a simple real spectrum on all modes km.

    With tol = DEGENERACY_TOL, the conditions per candidate m are
    Delta_{km,b} > tol for k = 1..k_max, all
    Omega^{+/-}_{km} pairwise distinct beyond tol (including the limit
    values -V^1, -V^2), and the gaps |Delta_{km} - Delta_inf| decreasing
    over the last five k up to k_max.  Models with a closed fold inequality
    (see `has_closed_fold`) are additionally cross-checked against it.
    V^1, V^2 are computed once, or taken from v.
    """
    tol = DEGENERACY_TOL
    v1, v2 = v_constants(model, b) if v is None else v
    if not abs(v1 - v2) > tol:
        raise ValueError("b lies outside the admissible set: V^1 = V^2")
    d_inf = (v1 - v2) ** 2
    for m in range(1, _FOLD_CAP + 1):
        p = dispersion_point(model, np.arange(m, k_max * m + 1, m), b,
                             v=(v1, v2))
        if (p.delta <= tol).any():
            continue
        omegas = np.sort(np.concatenate([p.omega_plus, p.omega_minus,
                                         [-v1, -v2]]))
        if np.any(np.diff(omegas) <= tol):  # a collision of two roots
            continue
        # beyond the modes km, k <= k_max: accept if |Delta_{km} - Delta_inf|
        # decreased over the last 5 and the limit is safely positive
        if d_inf <= 4.0 * tol or np.any(np.diff(abs(p.delta[-5:] - d_inf))
                                        >= 0.0):
            continue
        if has_closed_fold(model) and not np.all(
                annulus_fold_inequality(model, b, p.n)):
            raise RuntimeError(
                "closed fold inequality disagrees with the Delta scan")
        return m
    raise FoldNotFound(f"no fold m <= {_FOLD_CAP} satisfies the conditions")


# ---------------------------------------------------------------------------
# monotonicity and kernel data
# ---------------------------------------------------------------------------

def monotonicity_scan(model: KernelModel, b: float, m_start: int,
                      count: int) -> MonotonicityReport:
    """Check the monotone branch ordering over n = m_start .. m_start+count-1.

    Case V^1 > V^2: Omega^+ increases toward -V^2, Omega^- decreases toward
    -V^1, and every root lies strictly inside (-V^1, -V^2); mirrored when
    V^1 < V^2.
    """
    v1, v2 = v_constants(model, b)
    p = dispersion_point(model, np.arange(m_start, m_start + count), b,
                         v=(v1, v2))
    if np.any(p.delta < 0.0):
        n = p.n[np.argmax(p.delta < 0.0)]
        raise ValueError(f"Delta < 0 at n = {n}: scan needs a real spectrum")
    plus, minus = p.omega_plus, p.omega_minus
    case = "V1>V2" if v1 > v2 else "V1<V2"
    lo, hi = (-v1, -v2) if v1 > v2 else (-v2, -v1)
    ok = (lo < minus) & (minus <= plus) & (plus < hi)
    sign = 1.0 if v1 > v2 else -1.0
    ok[1:] &= (sign * np.diff(plus) > 0.0) & (sign * np.diff(minus) < 0.0)
    first_violation = None if ok.all() else int(p.n[np.argmin(ok)])
    return MonotonicityReport(case=case, ok=first_violation is None,
                              first_violation=first_violation,
                              n_values=tuple(p.n.tolist()),
                              omega_plus=tuple(plus.tolist()),
                              omega_minus=tuple(minus.tolist()),
                              v1=v1, v2=v2)


def q_matrix(model: KernelModel, n: int, b: float, omega: float) -> np.ndarray:
    """The 2x2 multiplier block Q_{n,b}(Omega)."""
    p = dispersion_point(model, n, b)
    off = p.row.lamt_nb + p.row.pt_nb
    return np.array([[omega - p.a_nb, off],
                     [-off, omega - p.b_nb]])


def kernel_vector(model: KernelModel, m: int, b: float,
                  branch: str = "+") -> np.ndarray:
    """Generator of ker Q_{m,b}(Omega^{branch}); needs a simple spectrum."""
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    p = dispersion_point(model, m, b)
    if p.delta <= DEGENERACY_TOL:
        raise ValueError(f"degenerate spectrum at m = {m}: Delta = {p.delta:.3e}")
    omega = p.omega_plus if branch == "+" else p.omega_minus
    vec = np.array([-(p.row.lamt_nb + p.row.pt_nb), omega - p.a_nb])
    if np.allclose(vec, 0.0):
        raise ValueError("kernel vector degenerated to zero")
    return vec
