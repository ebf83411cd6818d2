"""Spectral engine for the linearized patch dynamics.

Assembles the coefficient rows and dispersion points of the annulus
1_{D \\ b D}.  Every function here that takes modes takes an integer array
of them (one int is one mode) and returns columns over them.
`spectral_row` is the one assembly route: the lambdas of every model from
one array call of `models.closed_lambda` per radii pair (b, b), (1, 1),
(b, 1), p from `models.closed_p` and the K1 constants from
`models.c_terms`.  Only three places here ask what kind of kernel a model
has: the `source` label of a row, `has_closed_fold`, and the block size of
the fold scan.

`dispersion_point` forms the velocity constants V^1, V^2 from the mode-1
column of its row (adding mode 1 to the call when the modes do not start
there), so a point of any modes carries them and the discriminant's
large-n limit (V^1 - V^2)^2; then A, B, the discriminant, both roots (NaN
where the discriminant is negative) and the classification as columns.
`DispersionPoint.q` assembles the blocks Q_{n,b}(Omega), and `kernel_root`
reads a root and its kernel vector off the first column.  The module also
locates the smallest symmetry fold m admitting simple real
eigenvalues (one array call per block of candidate folds), and scans the
monotone ordering of the two branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import models as _models
from .models import KernelModel
from .universal import _modes

__all__ = [
    "DEGENERACY_TOL",
    "SpectralRow",
    "DispersionPoint",
    "MonotonicityReport",
    "spectral_row",
    "dispersion_point",
    "min_fold",
    "has_closed_fold",
    "annulus_fold_inequality",
    "monotonicity_scan",
    "kernel_root",
]

# absolute tolerance identifying a degenerate discriminant
DEGENERACY_TOL = 1e-9

# the largest symmetry fold min_fold tries
_FOLD_CAP = 64


@dataclass(frozen=True)
class SpectralRow:
    """Coefficients entering the Fourier blocks of the linearization, one
    column entry per mode of n."""

    n: np.ndarray
    b: float
    lam_nb: np.ndarray
    lam_n1: np.ndarray
    lamt_nb: np.ndarray
    p_nb: np.ndarray
    p_n1: np.ndarray
    pt_nb: np.ndarray
    c_b: float
    ct_b: float
    source: str = ""  # closed-form, quadrature or closed-form/p-quadrature


@dataclass(frozen=True)
class DispersionPoint:
    """Dispersion data at the modes n: quadratic coefficients, discriminant,
    roots, each a column over the modes.

    The roots are NaN where the discriminant is negative.  The eigenvalue
    pair -i n Omega^{+/-} leaves the imaginary axis, and the mode is
    "unstable", exactly when the discriminant is negative.  v1, v2 are the
    annulus velocities V^1, V^2 at b.
    """

    n: np.ndarray
    b: float
    a_nb: np.ndarray
    b_nb: np.ndarray
    delta: np.ndarray
    omega_plus: np.ndarray
    omega_minus: np.ndarray
    classification: np.ndarray  # {"stable", "unstable", "degenerate"}
    v1: float
    v2: float
    row: SpectralRow

    def q(self, omega: float) -> np.ndarray:
        """The 2x2 blocks Q_{n,b}(Omega), one per mode on the last axis."""
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
# row / point assembly
# ---------------------------------------------------------------------------

_COEFFS = ("lam_nb", "lam_n1", "lamt_nb", "p_nb", "p_n1", "pt_nb")


def spectral_row(model: KernelModel, n, b: float) -> SpectralRow:
    """Assemble the six coefficients and two constants of the blocks at the
    integer array of modes n (one int is one mode), each coefficient a
    column from one call for all modes.
    """
    ns = _modes(n, "spectral_row")
    model.require_b(b)
    lams = [_models.closed_lambda(model, ns, y, x)
            for y, x in ((b, b), (1.0, 1.0), (b, 1.0))]
    source = ("closed-form" if model.measure_obj is None else "quadrature") + (
        "/p-quadrature" if model.k1 == "subordinated" else "")
    c_b, ct_b = _models.c_terms(model, b)
    return SpectralRow(n=ns, b=b, **dict(zip(_COEFFS, (
        *lams, *_models.closed_p(model, ns, b)))), c_b=c_b, ct_b=ct_b,
        source=source)


def dispersion_point(model: KernelModel, n, b: float) -> DispersionPoint:
    """Quadratic coefficients A, B, discriminant and roots, columns over the
    integer array of modes n (one int is one mode).

    V^1, V^2 come from the row's mode-1 column, added to the same call
    when the modes do not start at 1.  A non-finite coefficient, mode 1
    included, raises ArithmeticError naming the model, the mode and b.
    """
    ns = _modes(n, "dispersion_point")
    lead = ns[0] != 1  # add a mode-1 column
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
    return DispersionPoint(
        n=row.n, b=b, a_nb=a_nb, b_nb=b_nb, delta=delta,
        omega_plus=(a_nb + b_nb) / 2.0 + half_gap,
        omega_minus=(a_nb + b_nb) / 2.0 - half_gap,
        classification=np.array(["unstable", "degenerate", "stable"])[kind],
        v1=v1, v2=v2, row=row)


# ---------------------------------------------------------------------------
# fold selection
# ---------------------------------------------------------------------------

def has_closed_fold(model: KernelModel) -> bool:
    """True when the closed fold inequality applies: a Green-series K1 on a
    domain with an inner boundary (annulus, exterior of a disc)."""
    return model.k1 == "green" and model.domain[0] > 0.0


def annulus_fold_inequality(model: KernelModel, b: float, n):
    """Closed positivity condition for the discriminant, a bool column over
    the integer array of modes n (one int is one mode).

    Written for the domain (R1, R2) with R2 entering only through 1/R2, so
    the exterior R2 = inf is its limit; c is the K1 constant of `c_terms`.
    """
    ns = _modes(n, "annulus_fold_inequality")
    if not has_closed_fold(model):
        raise ValueError("the closed fold inequality needs an annulus or "
                         "exterior domain with a log kernel")
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
    return ns > rhs


def min_fold(model: KernelModel, b: float, k_max: int = 10
             ) -> tuple[int | None, float, float]:
    """Smallest symmetry fold m with a simple real spectrum on all modes km,
    as (m, V^1, V^2); m is None when no fold m <= 64 passes or b lies
    outside the admissible set (|V^1 - V^2| <= tol).

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
    even past the accepted fold.  V^1, V^2 come from the first block.
    """
    if k_max < 2:
        raise ValueError(f"min_fold needs k_max >= 2, got {k_max}")
    tol, lo, ks = DEGENERACY_TOL, 1, np.arange(1, k_max + 1)
    while lo <= _FOLD_CAP:
        hi = lo if model.measure_obj is not None else max(8, 2 * lo - 2)
        grid = np.outer(np.arange(lo, min(hi, _FOLD_CAP) + 1), ks)  # km
        modes = np.array(sorted(set(grid.flat)))  # np.unique loads numpy.ma
        p = dispersion_point(model, modes, b)
        if not abs(p.v1 - p.v2) > tol:  # b outside S: no fold
            return None, p.v1, p.v2
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
# monotonicity and kernel roots
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


def kernel_root(point: DispersionPoint, branch: str
                ) -> tuple[float, np.ndarray]:
    """Omega^{branch} and the generator of ker Q_{m,b}(Omega^{branch}) at
    the first mode m of the point; needs a simple spectrum there."""
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    delta = point.delta[0]
    if delta <= DEGENERACY_TOL:
        raise ValueError(f"degenerate spectrum at m = {point.n[0]}: "
                         f"Delta = {delta:.3e}")
    omega = (point.omega_plus if branch == "+" else point.omega_minus)[0]
    q = point.q(omega)[..., 0]
    # the rows of Q are parallel at a simple root: take the longer one
    row = q[0] if np.hypot(*q[0]) >= np.hypot(*q[1]) else -q[1]
    return omega, np.array([-row[1], row[0]])
