"""Spectral engine for the linearized patch dynamics.

Assembles the coefficient rows and dispersion points of the annulus
1_{D \\ b D}.  `spectral_row` is the one assembly route: given an array of
modes it returns columns, the lambdas from one array call of
`models.closed_lambda` per radii pair (b, b), (1, 1), (b, 1) or, for a
custom measure, as node sums over the one node rule of `_measure_nodes`
(built once per coefficient from `Measure.support()` and
`Measure.density`), p from `models.closed_p` and the K1 constants from
`models.c_terms`, on both discs node sums of QGSW-disc closed forms that
call no quadrature routine.  `dispersion_point` forms the velocity
constants V^1, V^2 from the mode-1 column of its row (adding mode 1 to the
call when the modes do not start there), then A, B, the discriminant, both
roots and the classification as arrays; `DispersionPoint.q` assembles the
block Q_{n,b}(Omega).  The module also evaluates the discriminant's
large-n limit, locates the smallest symmetry fold m admitting simple real
eigenvalues (one array call per block of candidate folds), and scans the
monotone ordering of the two branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
    source: str = ""  # closed-form, quadrature or closed-form/p-quadrature


@dataclass(frozen=True)
class DispersionPoint:
    """Dispersion data at mode n: quadratic coefficients, discriminant, roots.

    When n is an array of modes every field is a column, and the roots are
    NaN where the discriminant is negative (None for a single mode).  The
    eigenvalue pair -i n Omega^{+/-} leaves the imaginary axis, and the
    mode is "unstable", exactly when the discriminant is negative.  v1, v2
    are the annulus velocities V^1, V^2 at b.
    """

    n: int
    b: float
    a_nb: float
    b_nb: float
    delta: float
    omega_plus: float | None
    omega_minus: float | None
    classification: str  # {"stable", "unstable", "degenerate"}
    v1: float
    v2: float
    row: SpectralRow

    def q(self, omega: float) -> np.ndarray:
        """The 2x2 block Q_{n,b}(Omega); per column on the last axis."""
        off = self.row.lamt_nb + self.row.pt_nb
        return np.array([[omega - self.a_nb, off],
                         [-off, omega - self.b_nb]])


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


def _lambda_quadrature(mu: Measure, ns: np.ndarray, y: float,
                       x: float) -> np.ndarray:
    """The coefficient of `models.closed_lambda` between the radii y <= x
    for a custom measure, at an array of modes, as node sums: at y = x
    int phi_n(y t) dmu(t)/t, otherwise int phi_{n,y/x}(x t) dmu(t)/t,
    whose integrand decays like e^{-(x-y)t}, which sets the cut."""
    if y == x:
        return _node_sums(mu, 300.0 / y, lambda t: phi_n(ns, y * t))
    x_cut = math.log(2.0 * math.pi / 1e-14) / max(x - y, 1e-3) + 10.0
    return _node_sums(mu, x_cut, lambda t: phi_nb(ns, y / x, x * t))


# ---------------------------------------------------------------------------
# row / point assembly
# ---------------------------------------------------------------------------

_COEFFS = ("lam_nb", "lam_n1", "lamt_nb", "p_nb", "p_n1", "pt_nb")


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
    # the lambdas: closed forms, or node sums for a custom measure
    mu = model.measure_obj
    lam, arg = ((_models.closed_lambda, model) if mu is None
                else (_lambda_quadrature, mu))
    lams = [lam(arg, ns, y, x) for y, x in ((b, b), (1.0, 1.0), (b, 1.0))]
    source = ("closed-form" if mu is None else "quadrature") + (
        "/p-quadrature" if model.k1 == "subordinated" else "")
    c_b, ct_b = _models.c_terms(model, b)
    row = SpectralRow(n=ns, b=b, **dict(zip(_COEFFS, (
        *lams, *_models.closed_p(model, ns, b)))), c_b=c_b, ct_b=ct_b,
        source=source)
    return row if np.ndim(n) else _split_row(row)[0]


def _split_row(row: SpectralRow) -> list[SpectralRow]:
    # one SpectralRow of floats per mode of a row of columns
    return [SpectralRow(n, row.b, *vals, c_b=row.c_b, ct_b=row.ct_b,
                        source=row.source)
            for n, *vals in zip(*(getattr(row, k).tolist()
                                  for k in ("n", *_COEFFS)))]


def dispersion_point(model: KernelModel, n, b: float) -> DispersionPoint:
    """Quadratic coefficients A, B, discriminant and roots at mode n.

    n may be an integer array of modes, which gives a point of columns.
    V^1, V^2 come from the row's mode-1 column, added to the same call
    when the modes do not start at 1.  A non-finite coefficient, mode 1
    included, raises ArithmeticError naming the model, the mode and b.
    """
    ns = np.atleast_1d(np.asarray(n, dtype=int))
    lead = ns[:1].tolist() not in ([1], [])  # add a mode-1 column
    row = spectral_row(model, np.concatenate(([1], ns)) if lead else ns, b)
    cols = {k: getattr(row, k) for k in _COEFFS}
    lam, lam1, lamt = (cols[k][0] for k in ("lam_nb", "lam_n1", "lamt_nb"))
    v1 = float(lam - lamt / b + row.c_b)
    v2 = float(-lam1 + b * lamt + row.ct_b)
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
                              f"at n = {row.n[j]}, b = {b}")
    if lead:  # drop the added column
        a_nb, b_nb, delta = a_nb[1:], b_nb[1:], delta[1:]
        row = replace(row, n=row.n[1:],
                      **{k: c[1:] for k, c in cols.items()})
    half_gap = np.sqrt(np.where(delta >= 0.0, delta, np.nan)) / 2.0
    tol = DEGENERACY_TOL
    kind = (delta > tol).astype(int) - (delta < -tol) + 1
    point = DispersionPoint(
        n=row.n, b=b, a_nb=a_nb, b_nb=b_nb, delta=delta,
        omega_plus=(a_nb + b_nb) / 2.0 + half_gap,
        omega_minus=(a_nb + b_nb) / 2.0 - half_gap,
        classification=np.array(["unstable", "degenerate", "stable"])[kind],
        v1=v1, v2=v2, row=row)
    return point if np.ndim(n) else _split(point)[0]


def _split(point: DispersionPoint) -> list[DispersionPoint]:
    # one DispersionPoint of floats per mode of a point of columns
    return [DispersionPoint(
        n=row.n, b=point.b, a_nb=a, b_nb=bb, delta=d,
        omega_plus=wp if d >= 0.0 else None,
        omega_minus=wm if d >= 0.0 else None, classification=cls,
        v1=point.v1, v2=point.v2, row=row)
        for row, a, bb, d, wp, wm, cls
        in zip(_split_row(point.row), *(c.tolist() for c in (
            point.a_nb, point.b_nb, point.delta, point.omega_plus,
            point.omega_minus, point.classification)))]


def dispersion_points(model: KernelModel, ns, b: float
                      ) -> list[DispersionPoint]:
    """`dispersion_point` at each mode of ns, from one call on all of them."""
    return _split(dispersion_point(model, np.array(list(ns), dtype=int), b))


def v_constants(model: KernelModel, b: float) -> tuple[float, float]:
    """(V^1, V^2) of the mode-1 `dispersion_point`.

    b is checked first, so an inadmissible b never reaches a quadrature.
    """
    point = dispersion_point(model, [1], b)
    return point.v1, point.v2


def delta_inf(model: KernelModel, b: float, via_psi: bool = False) -> float:
    """Large-n limit of the discriminant, (V^1 - V^2)^2.

    With via_psi=True the convolution part is re-assembled through the
    integral of Psi_b against the measure (independent route), plus the
    smooth-part constants c_b - ct_b.
    """
    if not via_psi:
        v1, v2 = v_constants(model, b)
        return (v1 - v2) ** 2
    (total,) = _node_sums(model.measure(), 300.0 / b,
                          lambda x: psi_b(b, x))
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


def min_fold(model: KernelModel, b: float, k_max: int = 10) -> int:
    """Smallest symmetry fold m with a simple real spectrum on all modes km.

    With tol = DEGENERACY_TOL, the conditions per candidate m are
    Delta_{km,b} > tol for k = 1..k_max, all
    Omega^{+/-}_{km} pairwise distinct beyond tol (including the limit
    values -V^1, -V^2), and the gaps |Delta_{km} - Delta_inf| decreasing
    over the last five k up to k_max, so k_max >= 2.  Models with a closed
    fold inequality (see `has_closed_fold`) are additionally cross-checked
    against it.  The folds are scanned in blocks 1-8, 9-16, 17-32, 33-64
    (one by one for a custom measure, whose quadrature costs per mode where
    a closed form costs per call), each one `dispersion_point` call, so a
    non-finite coefficient at any mode of a block raises ArithmeticError,
    even past the accepted fold.
    """
    m = _min_fold(model, b, k_max)[0]
    if m is None:
        raise FoldNotFound(f"no fold m <= {_FOLD_CAP} satisfies the "
                           "conditions")
    return m


def _min_fold(model: KernelModel, b: float, k_max: int
              ) -> tuple[int | None, float, float]:
    # (m or None, V^1, V^2) of min_fold's scan, V from its first block
    if k_max < 2:
        raise ValueError(f"min_fold needs k_max >= 2, got {k_max}")
    tol, lo, ks = DEGENERACY_TOL, 1, np.arange(1, k_max + 1)
    while lo <= _FOLD_CAP:
        hi = lo if model.measure_obj is not None else max(8, 2 * lo - 2)
        grid = np.outer(np.arange(lo, min(hi, _FOLD_CAP) + 1), ks)  # km
        modes = np.unique(grid)
        p = dispersion_point(model, modes, b)
        if not abs(p.v1 - p.v2) > tol:
            raise ValueError("b lies outside the admissible set: V^1 = V^2")
        at, d_inf = np.searchsorted(modes, grid), (p.v1 - p.v2) ** 2
        omegas = np.sort(np.hstack([p.omega_plus[at], p.omega_minus[at],
                                    np.tile([-p.v1, -p.v2], (len(at), 1))]))
        # beyond the modes km, k <= k_max: accept if |Delta_{km} - Delta_inf|
        # decreased over the last 5 and the limit is safely positive
        ok = ~(np.any(p.delta[at] <= tol, axis=1)
               | np.any(np.diff(omegas) <= tol, axis=1)  # a root collision
               | np.any(np.diff(abs(p.delta[at][:, -5:] - d_inf)) >= 0, axis=1)
               | (d_inf <= 4.0 * tol))
        if ok.any():
            ns = grid[np.argmax(ok)]
            if has_closed_fold(model) and not np.all(
                    annulus_fold_inequality(model, b, ns)):
                raise RuntimeError(
                    "closed fold inequality disagrees with the Delta scan")
            return int(ns[0]), p.v1, p.v2
        lo += len(grid)
    return None, p.v1, p.v2


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
    p = dispersion_point(model, np.arange(m_start, m_start + count), b)
    v1, v2 = p.v1, p.v2
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
    """The 2x2 multiplier block Q_{n,b}(Omega) of `DispersionPoint.q`."""
    return dispersion_point(model, n, b).q(omega)


def _kernel_root(point: DispersionPoint, branch: str
                 ) -> tuple[float, np.ndarray]:
    # Omega^{branch} and the generator of ker Q_{m,b}(Omega^{branch}) at
    # the first mode m of a point of columns; needs a simple spectrum
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    p = _split(point)[0]
    if p.delta <= DEGENERACY_TOL:
        raise ValueError(f"degenerate spectrum at m = {p.n}: "
                         f"Delta = {p.delta:.3e}")
    omega = p.omega_plus if branch == "+" else p.omega_minus
    q = p.q(omega)
    vec = np.array([-q[0, 1], q[0, 0]])
    if np.allclose(vec, 0.0):
        raise ValueError("kernel vector degenerated to zero")
    return omega, vec


def kernel_vector(model: KernelModel, m: int, b: float,
                  branch: str = "+") -> np.ndarray:
    """Generator of ker Q_{m,b}(Omega^{branch}); needs a simple spectrum."""
    return _kernel_root(dispersion_point(model, [m], b), branch)[1]
