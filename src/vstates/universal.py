"""Universal trigonometric-integral functions.

phi_n(x), phi_{n,b}(x) and Psi_b(x) factorize the spectral coefficients of
every completely monotone convolution kernel.  The integrands are smooth
2*pi-periodic functions, so the trapezoid rule converges spectrally; nodes
are doubled until two successive levels agree.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "periodic_trapezoid",
    "phi_n",
    "phi_nb",
    "phi_1b_closed",
    "psi_b",
    "psi_b_prime0",
]


def periodic_trapezoid(f, tol: float = 1e-12, n0: int = 64,
                       n_max: int = 1 << 21) -> float:
    """Trapezoid rule over one period [0, 2*pi) with node doubling.

    `f` maps an array of angles to an array of values.
    """
    m = n0
    h = 2.0 * np.pi / m
    total = float(np.sum(f(np.arange(m) * h))) * h
    while m < n_max:
        # refine by evaluating only the new midpoints of the uniform grid
        mid = np.arange(m) * h + 0.5 * h
        total_new = 0.5 * total + float(np.sum(f(mid))) * (0.5 * h)
        m *= 2
        h *= 0.5
        if abs(total_new - total) <= tol * max(1.0, abs(total_new)):
            return total_new
        total = total_new
    return total


@functools.lru_cache(maxsize=None)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre rule on [-1, 1], one eigenvalue solve per order, read-only
    gx, gw = np.polynomial.legendre.leggauss(order)
    gx.flags.writeable = gw.flags.writeable = False
    return gx, gw


def _phi_panel_edges(x: float) -> np.ndarray:
    # geometric grading toward u = 0, where the integrand peaks on a
    # scale ~ 1/(2x); the corner of the periodic extension sits there too
    k = max(6, int(np.ceil(np.log2(max(float(x), 1.0)))) + 3)
    return np.concatenate([[0.0], (np.pi / 2.0) * 2.0 ** np.arange(-k, 1.0)])


def _phi_gauss(n: int, x, order: int) -> float | np.ndarray:
    # phi_n(x) = 4 int_0^{pi/2} exp(-2x sin u) cos(2n u) du  (eta = 2u and
    # the reflection u -> pi - u); composite Gauss-Legendre per panel
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    gx, gw = _gauss_rule(order)
    edges = _phi_panel_edges(np.max(xs))
    total = np.zeros_like(xs)
    for a, c in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + c), 0.5 * (c - a)
        u = mid + half * gx
        vals = np.exp(-2.0 * xs[:, None] * np.sin(u)) * np.cos(2.0 * n * u)
        total += half * vals @ gw
    total *= 4.0
    return total if np.ndim(x) else float(total[0])


def phi_n(n: int, x: float) -> float:
    """phi_n(x) = int_0^{2pi} exp(-2 x sin(eta/2)) cos(n eta) d eta.

    The periodic integrand has a corner at eta = 0 (the kernel argument is
    2x|sin(eta/2)|), so the plain trapezoid rule degrades to O(h^2) there;
    graded Gauss-Legendre panels restore rapid convergence.  The order is
    doubled until two evaluations agree.
    """
    if n < 1:
        raise ValueError("phi_n requires n >= 1")
    if x < 0:
        raise ValueError("phi_n requires x >= 0")
    if x == 0.0:
        return 0.0
    order = 24
    val = _phi_gauss(n, x, order)
    while order < 200:
        order *= 2
        val_new = _phi_gauss(n, x, order)
        if abs(val_new - val) <= 1e-13 * max(1.0, abs(val_new)):
            return val_new
        val = val_new
    return val


def phi_nb(n: int, b: float, x: float) -> float:
    """phi_{n,b}(x) = int_0^{2pi} exp(-x |b - e^{i eta}|) cos(n eta) d eta."""
    if n < 1:
        raise ValueError("phi_nb requires n >= 1")
    if not 0.0 < b <= 1.0:
        raise ValueError("phi_nb requires b in (0, 1]")
    if x < 0:
        raise ValueError("phi_nb requires x >= 0")
    if x == 0.0:
        return 0.0

    def integrand(eta):
        dist = np.sqrt(1.0 + b * b - 2.0 * b * np.cos(eta))
        return np.exp(-x * dist) * np.cos(n * eta)

    return periodic_trapezoid(integrand)


def phi_1b_closed(b: float, x: float) -> float:
    """Single-integral form of phi_{1,b}; independent oracle for n = 1.

    2 b x int_{-1}^{1} exp(-x sqrt(1+b^2-2by)) sqrt(1-y^2)/sqrt(1+b^2-2by) dy,
    evaluated after y = cos(t), which makes the integrand smooth-periodic.
    """
    if not 0.0 < b <= 1.0:
        raise ValueError("phi_1b_closed requires b in (0, 1]")
    if x < 0:
        raise ValueError("phi_1b_closed requires x >= 0")
    if x == 0.0:
        return 0.0

    def integrand(t):
        root = np.sqrt(1.0 + b * b - 2.0 * b * np.cos(t))
        s = np.sin(t)
        # at b = 1 the t = 0 endpoint is a removable 0/0: sin t / (2 sin(t/2))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(root > 0, s * s / np.maximum(root, 1e-300), 0.0)
        return np.exp(-x * root) * ratio

    # the even periodic extension doubles the [0, pi] integral
    return 2.0 * b * x * 0.5 * periodic_trapezoid(lambda t: integrand(t))


def psi_b(b: float, x: float) -> float:
    """Psi_b(x) = phi_1(x) + phi_1(b x) - (b + 1/b) phi_{1,b}(x)."""
    if not 0.0 < b < 1.0:
        raise ValueError("psi_b requires b in (0, 1)")
    if x == 0.0:
        return 0.0
    return phi_n(1, x) + phi_n(1, b * x) - (b + 1.0 / b) * phi_nb(1, b, x)


def psi_b_prime0(b: float) -> tuple[float, float]:
    """Derivative of Psi_b at x = 0 and the inner integral it contains.

    Psi_b'(0) = (8/3)(1+b) - 2(b^2+1) * I(b) with
    I(b) = int_{-1}^{1} sqrt((1-y^2)/(1+b^2-2by)) dy.
    Returns (Psi_b'(0), I(b)).
    """
    if not 0.0 < b < 1.0:
        raise ValueError("psi_b_prime0 requires b in (0, 1)")

    def integrand(t):
        root = np.sqrt(1.0 + b * b - 2.0 * b * np.cos(t))
        return np.sin(t) ** 2 / root

    inner = 0.5 * periodic_trapezoid(integrand)
    return (8.0 / 3.0) * (1.0 + b) - 2.0 * (b * b + 1.0) * inner, inner
