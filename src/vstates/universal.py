"""Universal trigonometric-integral functions.

phi_n(x), phi_{n,b}(x) and Psi_b(x) factorize the spectral coefficients of
every completely monotone convolution kernel.  Each takes one x or an
array of x, which converges when all its entries have; x = 0 gives exactly
0.  phi_n and phi_{n,b} take an integer array of modes (one int is one
mode) and return one row per mode, shaped like x: the result has the shape
of the modes followed by that of x.  phi_n doubles a Gauss order until two
agree to 1e-13 relative, the modes sharing one exponential table per panel
while each row doubles its order until it agrees on its own.  The smooth
periodic integrands of phi_{n,b} take trapezoid sums whose nodes are
doubled, from at least 4n, until two levels agree to 1e-12 relative, the
modes sharing one exponential table per level, each row starting and
stopping on its own.  The Gauss rules of `_gauss_rule`, Legendre and
Jacobi alike, come from numpy: this module runs no scipy.
"""

from __future__ import annotations

import functools

import numpy as np
import numpy.polynomial.legendre

__all__ = [
    "periodic_trapezoid",
    "phi_n",
    "phi_nb",
    "phi_1b_closed",
    "psi_b",
]

# most values one integrand call of periodic_trapezoid may return (1 MiB)
_TRAPEZOID_CHUNK = 1 << 17


def _level_sum(f, eta: np.ndarray, chunk: int):
    # sums over the nodes eta of each array f yields, along its last axis,
    # in chunks of angles; power-of-two chunk sums are added pairwise as
    # numpy sums one long row, so chunking leaves a one-row sum unchanged
    sums = np.stack([[np.sum(v, axis=-1) for v in f(eta[i:i + chunk])]
                     for i in range(0, eta.size, chunk)], axis=-1)
    while sums.shape[-1] % 2 == 0:
        sums = sums[..., 0::2] + sums[..., 1::2]
    return np.sum(sums, axis=-1)


def periodic_trapezoid(f, tol: float = 1e-12, n0=64, n_max: int = 1 << 21):
    """Trapezoid rule over one period [0, 2*pi) with node doubling.

    `f` maps an array of angles to values along its last axis, one row per
    leading index; the result has the leading shape, a float for one row.
    For a list of start levels n0, `f(eta, rows)` yields the values of the
    listed rows in turn, and each row doubles from its own n0 until its own
    entries agree, as in the call with that n0 alone, which must lie below
    n_max.  `f` is called on at most _TRAPEZOID_CHUNK values (per row) at a
    time.
    """
    if np.ndim(n0) == 0:
        return periodic_trapezoid(lambda eta, _: [f(eta)], tol, [n0], n_max)[0]
    if max(n0) >= n_max:  # checked before the first call of f
        raise ValueError(f"periodic_trapezoid needs n0 < n_max = {n_max}")
    size = max(1, np.size(next(iter(f(np.zeros(1), [0])))))
    chunk = 1 << max(0, (_TRAPEZOID_CHUNK // size).bit_length() - 1)
    total, live, m = {}, [], min(n0)
    h = 2.0 * np.pi / m
    while m <= max(n0) or live and m < n_max:
        if new := [i for i, start in enumerate(n0) if start == m]:
            level = _level_sum(lambda e: f(e, new), np.arange(m) * h, chunk)
            total.update(zip(new, level * h))
            live += new
        if live and m < n_max:
            # refine by evaluating only the new midpoints of the uniform grid
            mid, prev = np.arange(m) * h + 0.5 * h, dict(total)
            level = _level_sum(lambda e: f(e, live), mid, chunk)
            total.update((i, 0.5 * prev[i] + v * (0.5 * h))
                         for i, v in zip(live, level))
            live = [i for i in live if not np.all(np.abs(total[i] - prev[i])
                    <= tol * np.maximum(1.0, np.abs(total[i])))]
        m *= 2
        h *= 0.5
    return [t if np.ndim(t) else float(t) for _, t in sorted(total.items())]


def _values(x, name: str) -> np.ndarray:
    # x >= 0 as a flat array, for a float or an array argument
    xs = np.ravel(np.asarray(x, dtype=float))
    if np.any(xs < 0):
        raise ValueError(f"{name} requires x >= 0")
    return xs


def _rows(vals, x) -> np.ndarray:
    # the rows of vals, one per mode, each shaped like x; exact 0 at x = 0
    vals = np.where(np.ravel(x) == 0.0, 0.0, vals)
    return vals.reshape((len(vals),) + np.shape(x))


def _jacobi(n: int, a: float, x: np.ndarray):
    # P_n and P_n' of the Jacobi family (0, a), a != 0, at x in (-1, 1):
    # the three-term recurrence (DLMF 18.9.1) from P_{-1} = 0, P_0 = 1, and
    # the derivative from P_n and P_{n-1} (DLMF 18.9.16)
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(1, n + 1):
        c = 2.0 * k + a
        prev, cur = cur, (((c - 1.0) * (c * (c - 2.0) * x - a * a) * cur
                           - 2.0 * (k - 1.0) * (k + a - 1.0) * c * prev)
                          / (2.0 * k * (k + a) * (c - 2.0)))
    c = 2.0 * n + a
    return cur, (n * ((-a - c * x) * cur + 2.0 * (n + a) * prev)
                 / (c * (1.0 - x) * (1.0 + x)))


@functools.lru_cache(maxsize=None)
def _gauss_rule(order: int, a: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    # Gauss rule on [-1, 1] for the weight (1 + t)^a: Gauss-Legendre at
    # a = 0, else Gauss-Jacobi by Golub-Welsch: the eigenvalues of the
    # Jacobi matrix, refined by one Newton step on P_order^(0, a), and the
    # weights mu0 v_0^2 from the first components of its eigenvectors,
    # mu0 = 2^(a+1) / (a+1); one eigenvalue solve per order, read-only
    if a == 0.0:
        gx, gw = np.polynomial.legendre.leggauss(order)
    else:
        k = np.arange(1.0, order)
        c = 2.0 * np.append(0.0, k) + a
        # the Jacobi matrix, of which eigh reads the lower triangle
        gx, v = np.linalg.eigh(np.diag(a * a / (c * (c + 2.0))) + np.diag(
            2.0 * k * (k + a) / (c[1:] * np.sqrt(c[1:] ** 2 - 1.0)), -1))
        p, slope = _jacobi(order, a, gx)
        gx = gx - p / slope
        gw = 2.0 ** (a + 1.0) / (a + 1.0) * v[0] ** 2
    gx.flags.writeable = gw.flags.writeable = False
    return gx, gw


def _phi_gauss(ns: list[int], xs: np.ndarray, order: int) -> np.ndarray:
    # phi_n(x) = 4 int_0^{pi/2} exp(-2x sin u) cos(2n u) du  (eta = 2u and
    # the reflection u -> pi - u); composite Gauss-Legendre per panel, one
    # row per mode of ns from one exponential table per panel
    gx, gw = _gauss_rule(order)
    # geometric grading toward u = 0, where the integrand peaks on a scale
    # ~ 1/(2x) for the largest x; the corner of the periodic extension sits
    # there too
    k = max(6, int(np.ceil(np.log2(max(np.max(xs, initial=0.0), 1.0)))) + 3)
    edges = np.concatenate([[0.0], (np.pi / 2.0) * 2.0 ** np.arange(-k, 1.0)])
    total = np.zeros((len(ns), xs.size))
    for a, c in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + c), 0.5 * (c - a)
        u = mid + half * gx
        e = np.exp(-2.0 * xs[:, None] * np.sin(u))
        for row, n in zip(total, ns):
            row += half * (e * np.cos(2.0 * n * u)) @ gw
    return total * 4.0


def phi_n(n, x):
    """phi_n(x) = int_0^{2pi} exp(-2 x sin(eta/2)) cos(n eta) d eta.

    The periodic integrand has a corner at eta = 0 (the kernel argument is
    2x|sin(eta/2)|), so the plain trapezoid rule degrades to O(h^2) there;
    Gauss-Legendre panels graded for the largest x restore rapid
    convergence.  The order is doubled until two evaluations agree.
    One row per mode of n: the modes share the exponential table, and each
    doubles its order until its own row agrees, so a row equals the call
    at its mode alone.
    """
    ns = np.atleast_1d(np.asarray(n, dtype=int))
    if ns.ndim != 1 or np.any(ns < 1):
        raise ValueError("phi_n requires n >= 1")
    xs = _values(x, "phi_n")
    order = 24
    val = _phi_gauss(ns.tolist(), xs, order)
    live = np.arange(ns.size)
    while order < 200 and live.size:
        order *= 2
        prev, new = val[live], _phi_gauss(ns[live].tolist(), xs, order)
        val[live] = new
        live = live[~np.all(np.abs(new - prev)
                            <= 1e-13 * np.maximum(1.0, np.abs(new)), axis=1)]
    return _rows(val, x)


def phi_nb(n, b: float, x):
    """phi_{n,b}(x) = int_0^{2pi} exp(-x |b - e^{i eta}|) cos(n eta) d eta.

    One row per mode of n; the modes share the exponential table of each
    trapezoid level, and a row equals its mode's call.
    """
    ns = np.atleast_1d(np.asarray(n, dtype=int)).tolist()
    if np.ndim(ns) != 1 or min(ns) < 1:
        raise ValueError("phi_nb requires n >= 1")
    if max(ns) > 1 << 18:  # above, the 4n-node start reaches the 2^21 cap
        raise ValueError(f"phi_nb requires n <= 262144, got {max(ns)}")
    if not 0.0 < b <= 1.0:
        raise ValueError("phi_nb requires b in (0, 1]")
    xs = _values(x, "phi_nb")[:, None]

    def integrand(eta, rows):
        e = np.exp(-xs * np.sqrt(1.0 + b * b - 2.0 * b * np.cos(eta)))
        return (e * np.cos(ns[i] * eta) for i in rows)

    # start at >= 4n nodes: on a level of n or 2n nodes cos(n eta) aliases
    # to a constant, and two aliased levels would agree
    n0 = [max(64, 1 << (4 * k - 1).bit_length()) for k in ns]
    return _rows(periodic_trapezoid(integrand, n0=n0), x)


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


def psi_b(b: float, x):
    """Psi_b(x) = phi_1(x) + phi_1(b x) - (b + 1/b) phi_{1,b}(x)."""
    if not 0.0 < b < 1.0:
        raise ValueError("psi_b requires b in (0, 1)")
    return (phi_n([1], x)[0] + phi_n([1], b * np.asarray(x))[0]
            - (b + 1.0 / b) * phi_nb([1], b, x)[0])
