"""Discretized contour dynamics for doubly connected patches.

The patch is the region between two star-shaped curves sqrt(b^2 + 2 r1) e^{i theta}
and sqrt(1 + 2 r2) e^{i theta} with m-fold symmetric, even perturbations r1, r2.
The rotating-patch equation F(Omega, r) = Omega r' + d/dtheta F0[r] = 0 is
evaluated spectrally: the convolution part of the kernel is reduced to
boundary integrals by the divergence theorem, the model splits it into a
singular and a smooth factor (`KernelModel.k0_factors`), the angular
singularity is integrated with exact Fourier weights (a circulant cached
per grid), and the model integrates the smooth kernel part K1 of bounded
domains over the patch (`models.k1_patch`).  Only `models` reads the kind
of K0 and K1; this module reads none.  F is odd and 2 pi/m-periodic, so
its targets are the grid points on [0, pi/m) only.
A branch follows the kernel-mode amplitude: a secant predictor over one
corrector, `_correct`, preconditioned by the annulus blocks -n Q_{n,b}(Omega)
that the finite-difference `jacobian` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import numpy.fft

from .models import KernelModel, k1_patch, singular_weights
from . import dispersion as _dispersion

__all__ = [
    "GeometryError",
    "BranchError",
    "PerturbationState",
    "ResidualVector",
    "trivial_state",
    "eval_f0",
    "eval_f",
    "jacobian",
    "branch_continue",
    "boundary_export",
]

# _correct: residual sup-norm that accepts a point, cap on its eval_f
# calls (over twice the worst measured, 17 at s = 1.2), Anderson depth
_ACCEPT_TOL = 1e-11
_MAX_EVALS = 40
_ANDERSON_DEPTH = 5
# central-difference step of the coefficient columns of `jacobian`
_FD_STEP = 1e-7


class GeometryError(ValueError):
    """Boundary curves left the admissible configuration."""


class BranchError(RuntimeError):
    """Branch continuation failed; `points` are the states accepted before."""

    def __init__(self, message: str, points: list[PerturbationState]):
        super().__init__(message)
        self.points = points


class _NoConvergence(ArithmeticError):
    """`_correct` spent its eval_f calls without accepting the point."""


def _grid_theta(size: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(size) / size


def _mode_tables(theta: np.ndarray,
                 kk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(k theta) and its derivative -k sin(k theta), a column per k."""
    arg = np.outer(theta, kk)
    return np.cos(arg), -np.sin(arg) * kk


@dataclass(frozen=True)
class PerturbationState:
    """Cosine-mode perturbation of the annulus b < |x| < 1.

    a1[k-1], a2[k-1] are the cos(k m theta) coefficients of r1, r2 for
    k = 1..n_modes; omega is the rotation speed, s the kernel amplitude.
    A branch point also records the eval_f calls that accepted it and its
    residual sup-norm then (both 0 at the annulus).
    """

    b: float
    m: int
    n_modes: int
    a1: np.ndarray
    a2: np.ndarray
    omega: float = 0.0
    s: float = 0.0
    iterations: int = 0
    residual: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a1", np.asarray(self.a1, dtype=float))
        object.__setattr__(self, "a2", np.asarray(self.a2, dtype=float))
        if self.m < 1 or self.n_modes < 1:
            raise ValueError("PerturbationState needs m >= 1, n_modes >= 1")
        if len(self.a1) != self.n_modes or len(self.a2) != self.n_modes:
            raise ValueError("coefficient arrays must have length n_modes")
        if not 0.0 < self.b < 1.0:
            raise ValueError("PerturbationState requires b in (0, 1)")

    @property
    def grid_size(self) -> int:
        return 4 * self.n_modes * self.m

    def theta_grid(self) -> np.ndarray:
        return _grid_theta(self.grid_size)

    def _modes(self) -> np.ndarray:
        return self.m * np.arange(1, self.n_modes + 1)

    def r_values(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cos, _ = _mode_tables(theta, self._modes())
        return cos @ self.a1, cos @ self.a2

    def r_derivatives(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, dsin = _mode_tables(theta, self._modes())
        return dsin @ self.a1, dsin @ self.a2

    def radii(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._radii(*self.r_values(theta))

    def _radii(self, r1: np.ndarray,
               r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sq1 = self.b * self.b + 2.0 * r1
        sq2 = 1.0 + 2.0 * r2
        if np.any(sq1 <= 0.0) or np.any(sq2 <= 0.0):
            raise GeometryError("boundary radius collapsed to zero")
        return np.sqrt(sq1), np.sqrt(sq2)


@dataclass(frozen=True)
class ResidualVector:
    """Sine coefficients of F at frequencies m, 2m, ..., n_modes*m."""

    s1: np.ndarray
    s2: np.ndarray

    def norm(self) -> float:
        return max(float(np.max(np.abs(self.s1))),
                   float(np.max(np.abs(self.s2))))

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.s1, self.s2])


def trivial_state(b: float, m: int, n_modes: int,
                  omega: float = 0.0) -> PerturbationState:
    z = np.zeros(n_modes)
    return PerturbationState(b=b, m=m, n_modes=n_modes, a1=z, a2=z.copy(),
                             omega=omega)


# ---------------------------------------------------------------------------
# boundary integrals of the convolution kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _singular_tables(size: int, rows: int,
                     beta: float | None) -> tuple[np.ndarray, np.ndarray]:
    """|2 sin((theta_i - eta_j)/2)|, with 1 where i = j, and the circulant
    c[(i - j) mod size] of the singular weight of exponent beta
    (`models.singular_weights`), for targets i < rows.

    c = ifft(W-hat) is real because W-hat is even, and the row sum
    sum_j S_ij c[(i - j) mod size] is the spectral product
    sum_k S-hat_{i,k} W-hat_k e^{i k theta_i}.
    """
    lag = (np.arange(rows)[:, None] - np.arange(size)[None, :]) % size
    sin_fac = 2.0 * np.sin(np.pi * lag / size)
    sin_fac[lag == 0] = 1.0
    k = np.fft.fftfreq(size, d=1.0 / size).astype(int)
    circ = np.fft.ifft(singular_weights(beta, k)).real[lag]
    sin_fac.flags.writeable = circ.flags.writeable = False
    return sin_fac, circ


def _k0_integral(model: KernelModel, z: np.ndarray, w: np.ndarray,
                 wp: np.ndarray, v: np.ndarray, self_interaction: bool,
                 stream: bool) -> np.ndarray:
    """int K0(|z_i - w(eta)|) v(eta) d eta (complex), or with stream=True
    int (h(d)/d) (w(eta) - z_i) . v(eta) d eta, with d_ij = |z_i - w_j|.

    For self-interaction (z_i = w_i) the model's `k0_factors` at the smooth
    quotient g_ij = d_ij / |2 sin((theta_i - eta_j)/2)| give the kernel:
    the singular factor against the circulant, plus the smooth factor.  On
    the diagonal d_ii = g_ii = |w'_i|, the limit of g, so every entry stays
    finite; the diagonal source term drops out of all that is used: it
    multiplies v_i = +/-i w'_i, whose part in Re(grad psi . conj w') is
    zero, and in the stream the factor (w_i - z_i) . v_i is zero.
    """
    h = 2.0 * np.pi / len(w)
    diff = z[:, None] - w[None, :]
    d = np.abs(diff)
    if stream:
        # (w_j - z_i) . v_j as plane vectors
        v = (-diff.real) * v.real[None, :] + (-diff.imag) * v.imag[None, :]
    else:
        v = v[None, :]
    if not self_interaction:
        return (model.k0_factors(d, None, stream)[0] * v).sum(axis=1) * h
    sin_fac, circ = _singular_tables(len(w), len(z), model.singular_exponent)
    np.fill_diagonal(d, np.abs(wp[:len(z)]))
    sing, smooth = model.k0_factors(d, d / sin_fac, stream)
    total = (sing * v * circ).sum(axis=1)
    if smooth is not None:
        total += (smooth * v).sum(axis=1) * h
    return total


# ---------------------------------------------------------------------------
# geometry assembly and the functional
# ---------------------------------------------------------------------------

def _check_geometry(model: KernelModel, ra: np.ndarray,
                    rb: np.ndarray) -> None:
    gap = float(np.min(rb - ra))
    if gap <= 0.0:
        raise GeometryError(f"boundary curves intersect (by {-gap:.1e})")
    r1, r2 = model.domain
    lo, hi = float(np.min(ra)), float(np.max(rb))
    if lo <= r1:
        raise GeometryError(f"inner boundary reaches {lo:.5g} <= R1 = {r1:g} "
                            f"(by {r1 - lo:.1e})")
    if hi >= r2:
        raise GeometryError(f"outer boundary reaches {hi:.5g} >= R2 = {r2:g} "
                            f"(by {hi - r2:.1e})")


@lru_cache(maxsize=32)
def _grid_tables(size: int, m: int, n_modes: int) -> tuple:
    """The tables of a state's grid, read-only: theta, the `_mode_tables`
    of its modes k m, k <= n_modes, e^{i theta}, and the sine basis with
    which `eval_f` projects on its cell."""
    theta = _grid_theta(size)
    kk = m * np.arange(1, n_modes + 1)
    half = size // (2 * m)
    tables = (theta, *_mode_tables(theta, kk), np.exp(1j * theta),
              np.sin(np.outer(kk, theta[:half])) * (2.0 / half))
    for table in tables:
        table.flags.writeable = False
    return tables


def _boundary_data(model: KernelModel, state: PerturbationState):
    theta, cos, dsin, phase, _ = _grid_tables(state.grid_size, state.m,
                                              state.n_modes)
    ra, rb = state._radii(cos @ state.a1, cos @ state.a2)
    _check_geometry(model, ra, rb)
    d1, d2 = dsin @ state.a1, dsin @ state.a2
    w1p = (d1 / ra + 1j * ra) * phase
    w2p = (d2 / rb + 1j * rb) * phase
    return theta, ra, rb, ra * phase, rb * phase, w1p, w2p, d1, d2, state.m


def _boundary_field(model: KernelModel, data: tuple, rows: int,
                    stream: bool) -> tuple[np.ndarray, np.ndarray]:
    """Stream function (stream=True) or its gradient (complex) at the first
    ``rows`` points of the two boundaries; the sources are the whole grid.

    The divergence theorem turns the patch integral of K0 into boundary
    integrals against the tangent w' rotated by -i (stream) or i (gradient);
    that of K1 is `k1_patch`, which refuses a model without contour dynamics.
    """
    theta, ra, rb, w1, w2, w1p, w2p, _, _, m = data
    k1 = k1_patch(model, m, theta, ra, rb, rows)[0 if stream else 1]
    rot = -1j if stream else 1j
    out = [_k0_integral(model, z[:rows], w2, w2p, rot * w2p, not inner, stream)
           - _k0_integral(model, z[:rows], w1, w1p, rot * w1p, inner, stream)
           for z, inner in ((w1, True), (w2, False))]
    return out[0] + k1[0], out[1] + k1[1]


def eval_f0(model: KernelModel, state: PerturbationState
            ) -> tuple[np.ndarray, np.ndarray]:
    """Stream function F0[r] sampled on the theta grid for both boundaries."""
    return _boundary_field(model, _boundary_data(model, state),
                           state.grid_size, stream=True)


def eval_f(model: KernelModel, state: PerturbationState) -> ResidualVector:
    """F(Omega, r) = Omega r' + d/dtheta F0[r], projected on the sine basis.

    F is odd and 2 pi/m-periodic, so it is evaluated only on the cell
    [0, pi/m), at theta_0..theta_{H-1} with H = N/(2m), and projected there
    with weight 2/H, which equals the full-grid projection.
    """
    data = _boundary_data(model, state)
    _, _, _, _, _, w1p, w2p, d1, d2, _ = data
    half = state.grid_size // (2 * state.m)
    u1, u2 = _boundary_field(model, data, half, stream=False)
    # d/dtheta F0_j = grad psi(z_j) . z_j'
    f1 = state.omega * d1[:half] + np.real(u1 * np.conj(w1p[:half]))
    f2 = state.omega * d2[:half] + np.real(u2 * np.conj(w2p[:half]))
    basis = _grid_tables(state.grid_size, state.m, state.n_modes)[4]
    return ResidualVector(s1=basis @ f1, s2=basis @ f2)


def jacobian(model: KernelModel, state: PerturbationState) -> np.ndarray:
    """Jacobian of eval_f(model, state).stacked() in (a1, a2, Omega).

    The coefficient columns are central differences with step 1e-7; the
    Omega column is exact, the sine coefficients -k m a_k of r'.  At the
    annulus the rows and columns (k, n_modes + k) form -n Q_{n,b}(Omega) of
    `dispersion.DispersionPoint.q`, n = k m.
    """
    n = state.n_modes
    coeffs = np.concatenate([state.a1, state.a2])
    jac = np.empty((2 * n, 2 * n + 1))
    for j, step in enumerate(np.eye(2 * n) * _FD_STEP):
        fp, fm = (eval_f(model, replace(state, a1=c[:n], a2=c[n:])).stacked()
                  for c in (coeffs + step, coeffs - step))
        jac[:, j] = (fp - fm) / (2.0 * _FD_STEP)
    kk = state._modes()
    jac[:, 2 * n] = -np.concatenate([kk * state.a1, kk * state.a2])
    return jac


# ---------------------------------------------------------------------------
# branch continuation
# ---------------------------------------------------------------------------

def _preconditioner(point, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """`jacobian` at the annulus, bordered by the amplitude row, at the
    Omega of u = (a1, a2, Omega): rows and columns (k, n_modes + k) hold
    -n Q_{n,b}(Omega), n = k m, the blocks `point.q(Omega)` of the point's
    columns, and the Omega column is exact at u, as in `jacobian`."""
    n = len(point.n)
    idx = np.add.outer([0, n], np.arange(n))  # the rows of a1_k and a2_k
    pre = np.zeros((2 * n + 1, 2 * n + 1))
    pre[idx[:, None], idx] = -point.n * point.q(u[2 * n])
    pre[:2 * n, 2 * n] = -np.concatenate([point.n, point.n]) * u[:2 * n]
    pre[2 * n] = row
    return pre


def _correct(model: KernelModel, point, base: PerturbationState,
             row: np.ndarray, s: float, u: np.ndarray) -> tuple:
    """The corrector: solves G(u) = {F = 0, row . u = s}, u = (a1, a2, Omega),
    from a guess by u <- u - P(u)^{-1} G(u), P = `_preconditioner`, mixed by
    Anderson to depth 5 (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) with one
    eval_f call per iteration, to a residual sup-norm below 1e-11.  Returns u
    and its state, with s, the eval_f calls and the sup-norm of F; raises
    GeometryError, LinAlgError (P singular) or, at 40 calls, _NoConvergence."""
    n = base.n_modes
    # Anderson history: differences of the iterates and of their
    # preconditioned residuals f = -P^{-1} G
    dx, df, last = [], [], None
    for evals in range(1, _MAX_EVALS + 1):
        state = replace(base, a1=u[:n], a2=u[n:2 * n], omega=u[2 * n])
        res = np.append(eval_f(model, state).stacked(), row @ u - s)
        if np.max(np.abs(res)) < _ACCEPT_TOL:
            return u, replace(state, s=float(s), iterations=evals,
                              residual=float(np.max(np.abs(res[:-1]))))
        f = -np.linalg.solve(_preconditioner(point, row, u), res)
        step = f
        if last is not None:
            dx = [*dx, u - last[0]][-_ANDERSON_DEPTH:]
            df = [*df, f - last[1]][-_ANDERSON_DEPTH:]
            mix = np.column_stack(df)
            gamma = np.linalg.lstsq(mix, f, rcond=None)[0]
            step = f - (np.column_stack(dx) + mix) @ gamma
        last = u, f
        u = u + step
    raise _NoConvergence(f"no convergence in {_MAX_EVALS} iterations, "
                         f"residual {np.max(np.abs(res)):.1e}")


def branch_continue(model: KernelModel, b: float, m: int, branch: str = "+",
                    *, s_max: float, steps: int,
                    n_modes: int) -> list[PerturbationState]:
    """Amplitude-parameterized branch of m-fold V-states near the annulus.

    Marches the kernel-direction amplitude s from 0 to s_max in steps >= 1
    equal steps, `_correct` solving from a secant predictor at each.  A
    point is its state; the first is the annulus, s = 0 at the dispersion
    root Omega^{+/-}.  A BranchError names the cause of a failure and
    carries the states accepted before it.
    """
    for need, ok in (("m >= 1", m >= 1), ("n_modes >= 1", n_modes >= 1),
                     ("steps >= 1", steps >= 1), ("s_max != 0", s_max != 0),
                     ("a finite s_max", np.isfinite(s_max))):
        if not ok:
            raise ValueError(f"branch_continue needs {need}")
    n = n_modes
    point = _dispersion.dispersion_point(model, m * np.arange(1, n + 1), b)
    omega0, kvec = _dispersion.kernel_root(point, branch)
    points = [trivial_state(b, m, n, omega0)]
    # the amplitude (a1_1, a2_1) . kvec / |kvec|^2 is linear in u
    row = np.zeros(2 * n + 1)
    row[[0, n]] = kvec / (kvec @ kvec)
    u = np.append(np.zeros(2 * n), omega0)
    s_grid = np.linspace(0.0, s_max, steps + 1)[1:]
    # secant predictor 2 u - u_prev; seeded one step back along the kernel
    # direction, its first step is the tangent step u + s_1 kvec
    u_prev = u.copy()
    u_prev[[0, n]] -= s_grid[0] * kvec
    for s in s_grid:
        try:
            cur, state = _correct(model, point, points[0], row, s,
                                  2.0 * u - u_prev)
        except (GeometryError, np.linalg.LinAlgError, _NoConvergence) as exc:
            cause = ("singular preconditioner"
                     if isinstance(exc, np.linalg.LinAlgError) else exc)
            raise BranchError(f"continuation failed at s = {s:.15g}: {cause}",
                              points) from exc
        u_prev, u = u, cur
        points.append(state)
    return points


def boundary_export(state: PerturbationState,
                    samples: int | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Complex samples of the two boundary curves on a uniform grid."""
    if samples is None:
        theta = state.theta_grid()
    else:
        theta = _grid_theta(samples)
    ra, rb = state.radii(theta)
    phase = np.exp(1j * theta)
    return ra * phase, rb * phase
