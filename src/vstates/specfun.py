"""Special functions on numpy alone: Bessel I and K of integer order, their
products I_n(y) K_n(x) over a column of orders at once, Bessel J of
integer order with its zeros, and the Gauss hypergeometric function.

- K0, K1: power series in w = z^2/4 up to z = 2 (DLMF 10.31.1-2), above
  it Chebyshev series of sqrt(z) e^z K(z) in 4/z - 1, whose coefficients
  are built at the first call from a trapezoid sum of the integral
  sqrt(z) e^z K(z) = int_0^inf e^{-u^2/2} (...) du.  K_n by the forward
  recurrence.
- I0, I1: power series up to z = 20 (DLMF 10.25.2), their asymptotic
  series (DLMF 10.40.1) above.  I_n by the upward recurrence past
  z = max(20, n^2), below it I_0 times the ratios I_{k+1}/I_k of Miller's
  backward recurrence (`_i_ratios`).
- J_n: Miller's recurrence up to x = max(25, n), above it Hankel's
  expansion of J0, J1 (DLMF 10.17.3) and the upward recurrence; its zeros
  are bracketed by sign changes from x = n and polished by Newton steps.
- F(p, q; r; z) for 0 <= z <= 1: Gauss's sum at 1, the series up to 1/2,
  the connection formula in 1 - z (DLMF 15.8.4) above.

The disc models pass all their screening nodes to one `bessel_ik` call,
whose ratio tables come from one recurrence over all arguments and are
cached, so those of the nodes carry over from one b to the next.  The
README lists each cut and term count with what it bounds.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .universal import _modes

__all__ = ["bessel_ik", "bessel_i", "bessel_k", "bessel_j",
           "bessel_j_zeros", "hyp2f1", "power_series"]

# most terms kept of the power series: the reciprocal factorials stay
# normal doubles up to k = 97, and the term rule of `power_series` is met
# up to z = 90
_TERMS = 96
# K0, K1: power series up to here, Chebyshev series above
_K_CUT = 2.0
# I0, I1: power series up to here, asymptotic series above
_I_CUT = 20.0
# J_n: Miller's recurrence up to max(n, this), Hankel's expansion above
_J_CUT = 25.0


@lru_cache(maxsize=None)
def _series_rows() -> np.ndarray:
    # rows over k < _TERMS of the series in w = z^2/4 of I0, of
    # K0 + (log(z/2) + gamma) I0, of I1/z and of (1 - z K1)/z^2
    # + log(z/2) I1/z, with H_k the harmonic sum and
    # psi(k+1) + psi(k+2) = 2 (H_k - gamma) + 1/(k+1)
    rows, h, f = [], 0.0, 1  # H_k and k!
    for k in range(_TERMS):
        if k:
            h, f = h + 1.0 / k, f * k
        rows.append((1.0 / (f * f), h / (f * f), 0.5 / (f * f * (k + 1)),
                     (2.0 * (h - np.euler_gamma) + 1.0 / (k + 1))
                     / (4.0 * f * (f * (k + 1)))))
    return np.array(rows).T


_SERIES = {"i0": 0, "k0": 1, "i1": 2, "k1": 3}


def power_series(z, names) -> np.ndarray:
    """Rows of the power series in w = z^2/4 over an array z, one per name:
    "i0" I0(z), "k0" K0(z) + (log(z/2) + gamma) I0(z), "i1" I1(z)/z and
    "k1" (1 - z K1(z))/z^2 + log(z/2) I1(z)/z (DLMF 10.25.2, 10.31.1-2).

    Horner's rule keeps the terms up to the first whose I0 term, times
    2 + k, is below 2^-56 of the I0 sum at the largest z: every series
    has positive terms from k = 1 on, each at most 2 + k times that.
    """
    w = np.asarray(z, dtype=float) ** 2 / 4.0
    top, term, total, n = float(np.max(w, initial=0.0)), 1.0, 1.0, 1
    while term * (1 + n) > 2.0 ** -56 * total and n < _TERMS:
        term *= top / (n * n)
        total += term
        n += 1
    coef = _series_rows()[[_SERIES[name] for name in names], :n]
    coef = coef.reshape(coef.shape + (1,) * w.ndim)
    out = np.empty((len(names),) + w.shape)
    out[...] = coef[:, -1]
    for k in range(n - 2, -1, -1):
        out *= w
        out += coef[:, k]
    return out


@lru_cache(maxsize=None)
def _k_chebyshev() -> np.ndarray:
    # Chebyshev coefficients in t = 4/z - 1 of sqrt(z) e^z K_nu(z), z >= 2,
    # nu = 0, 1: interpolated at 32 Chebyshev points, where
    # sqrt(z) e^z K_nu(z) = int_0^inf e^{-u^2/2} (1 + nu u^2/(2z))
    # / sqrt(1 + u^2/(4z)) du takes the trapezoid rule with step 1/3 up to
    # u = 9 (within 4e-16 of the integral); sqrt(pi/2), its limit, is
    # taken out before the transform.  Terms past 22 are below 2e-16.
    theta, u = np.pi * (np.arange(32) + 0.5) / 32, np.arange(28) / 3.0
    q = np.outer(np.cos(theta) + 1.0, u * u) / 16.0  # u^2/(4z)
    g = np.exp(-u * u / 2.0) / 3.0
    g[0] /= 2.0
    vals = np.array([g * (1.0 + 2.0 * nu * q) / np.sqrt(1.0 + q) - g
                     for nu in (0, 1)]).sum(axis=-1)
    coef = vals @ np.cos(np.outer(theta, np.arange(22))) / 16.0
    coef[:, 0] = coef[:, 0] / 2.0 + math.sqrt(math.pi / 2.0)
    return coef


def bessel_k(z, top: int = 1, scaled: bool = False) -> np.ndarray:
    """Rows K_0(z) ... K_top(z) over an array z > 0, or e^z times them."""
    z = np.asarray(z, dtype=float)
    rows = min(top, 1) + 1  # K0, or K0 and K1
    out = np.empty((top + 1,) + z.shape)
    near = z <= _K_CUT
    if near.any():
        zn = z[near]
        series = power_series(zn, ("i0", "k0", "i1", "k1")[:2 * rows])
        log = np.log(zn / 2.0)
        out[0, near] = series[1] - (log + np.euler_gamma) * series[0]
        if rows > 1:
            out[1, near] = 1.0 / zn + zn * (log * series[2] - series[3])
        if scaled:
            out[:rows, near] *= np.exp(zn)
    if not near.all():
        zf = z[~near]
        t2 = 8.0 / zf - 2.0
        b1, b2 = np.zeros((rows,) + zf.shape), np.zeros((rows,) + zf.shape)
        coef = _k_chebyshev()[:rows]
        for c in coef.T[:0:-1, :, None]:  # Clenshaw's recurrence
            b1, b2 = t2 * b1 - b2 + c, b1
        vals = (t2 / 2.0 * b1 - b2 + coef[:, :1]) / np.sqrt(zf)
        out[:rows, ~near] = vals if scaled else vals * np.exp(-zf)
    for k in range(1, top):
        out[k + 1] = out[k - 1] + 2.0 * k / z * out[k]
    return out


@lru_cache(maxsize=None)
def _hankel_rows() -> np.ndarray:
    # a_k(nu) = prod_{j <= k} (4 nu^2 - (2j - 1)^2) / (k! 8^k), nu = 0, 1,
    # k < 40: the coefficients of Hankel's expansion and of the
    # asymptotic series of I_nu (DLMF 10.17.1, 10.40.1)
    rows, mu = np.ones((2, 40)), np.array([0.0, 4.0])
    for k in range(1, 40):
        rows[:, k] = rows[:, k - 1] * (mu - (2 * k - 1) ** 2) / (8.0 * k)
    return rows


def bessel_i(z, top: int = 1, scaled: bool = False) -> np.ndarray:
    """Rows I_0(z) ... I_top(z) over an array z > 0, or e^-z times them."""
    z = np.asarray(z, dtype=float)
    out = np.empty((max(top, 1) + 1,) + z.shape)
    near = z <= _I_CUT
    if near.any():
        zn = z[near]
        i0, i1 = power_series(zn, ("i0", "i1"))
        out[:2, near] = i0, zn * i1
        if scaled:
            out[:2, near] *= np.exp(-zn)
    if not near.all():
        # e^-z I_nu(z) sqrt(2 pi z) = sum_k (-1)^k a_k(nu) / z^k; at z > 20
        # its terms fall below 2^-56 before k = 40 and then grow
        zf = z[~near]
        coef = _hankel_rows() * (-1.0) ** np.arange(40)
        vals = np.zeros((2,) + zf.shape)
        for c in coef.T[::-1]:
            vals = vals / zf + c[:, None]
        vals /= np.sqrt(2.0 * np.pi * zf)
        out[:2, ~near] = vals if scaled else vals * np.exp(zf)
    if top > 1:
        # I_n by the upward recurrence where z > max(20, top^2), which is
        # stable there (within 1e-15 of scipy up to n = 12), elsewhere as
        # I_0 times Miller's ratios I_{k+1}/I_k, k < n
        up = z > max(_I_CUT, top * top)
        rows = out[:, up]
        for k in range(1, top):
            rows[k + 1] = rows[k - 1] - 2.0 * k / z[up] * rows[k]
        out[:, up] = rows
        if not up.all():
            rho = _i_ratios(z[~up].tolist(), top).T
            out[2:, ~up] = out[0, ~up] * np.cumprod(rho, axis=0)[1:]
    return out[:top + 1]


# (x, size) -> I ratio row of `_i_ratios`, K ratio row of `_k_ratios`;
# x -> (e^x K_0(x), e^x K_1(x)) of `_k01`
_I_RATIOS: dict = {}
_K_RATIOS: dict = {}
_K01: dict = {}


def _cached_rows(cache: dict, keys: list, fill) -> list:
    # cache[key] for each key of keys; the keys not cached yet, in the
    # order they first appear, take their rows from one call fill(new).
    # The cache is emptied once it holds more than 1024 entries
    if len(cache) > 1024:
        cache.clear()
    if new := list(dict.fromkeys(k for k in keys if k not in cache)):
        cache.update(zip(new, fill(new)))
    return [cache[k] for k in keys]


def _i_ratios(xs: list, size: int) -> np.ndarray:
    # rows I_{k+1}/I_k at each x of xs for k < size, from Miller's backward
    # recurrence, written as the continued fraction
    # rho_{j-1} = 1 / (2j/x + rho_j) and started from 0 at
    # j = k + 10 + 6 sqrt(x), a depth that converges to rounding for every
    # k and depends on x only, so each mode's value is the same in any
    # column.  The arguments not cached share one recurrence, each row
    # joining at its own depth, so it equals the row of its x alone.
    def fill(new):
        order = np.argsort([-x for x, _ in new], kind="stable")
        x = np.array([new[i][0] for i in order])[:, None]
        depth = 10 + (6.0 * np.sqrt(x[:, 0])).astype(int)
        c, rho = (2.0 / x) * np.arange(size), np.zeros((len(new), size))
        for j in range(depth[0], 0, -1):
            top = rho[:np.count_nonzero(depth >= j)]  # the rows started
            top += c[:len(top)]
            top += 2.0 * j / x[:len(top)]
            np.reciprocal(top, out=top)
        rows = np.empty_like(rho)
        rows[order] = rho
        return rows

    return np.array(_cached_rows(_I_RATIOS, [(x, size) for x in xs], fill))


def _k01(xs: list) -> np.ndarray:
    # rows e^x K_0(x), e^x K_1(x) at each x of xs, those not cached from
    # one `bessel_k` call
    return np.array(_cached_rows(
        _K01, xs,
        lambda new: bessel_k(np.array(new), scaled=True).T.tolist())).T


def _k_ratios(xs: list, size: int) -> np.ndarray:
    # rows K_{k+1}/K_k at each x of xs for k < size, from the (stable)
    # forward recurrence started at K_1/K_0, each row in Python floats,
    # since a numpy step over a few rows costs more than the Python step
    # over each
    def fill(new):
        k0, k1 = _k01([x for x, _ in new])
        for (x, _), r0 in zip(new, (k1 / k0).tolist()):
            r = [r0]
            for k in range(1, size):
                r.append(2.0 * k / x + 1.0 / r[-1])
            yield np.array(r)

    return np.array(_cached_rows(_K_RATIOS, [(x, size) for x in xs], fill))


def bessel_ik(n, y, x):
    """I_n(y) K_n(x) for 0 < y <= x over an integer array of orders n >= 0
    (one int is one order), a row per pair when y and x are arrays of one
    shape: the shape of x, then that of the orders.

    The factors over- and underflow at large n, the product does not: by
    the Wronskian, I_n(x) K_n(x) = 1 / (x (K_{n+1}/K_n + I_{n+1}/I_n)), and
    I_n(y) / I_n(x) is I_0(y) / I_0(x) times the product of the ratios
    (I_{k+1}/I_k)(y) / (I_{k+1}/I_k)(x) over k < n, where the same
    Wronskian at n = 0 gives I_0 = 1 / (x K_0 (K_1/K_0 + I_1/I_0)).
    """
    ns = _modes(n, "bessel_ik", least=0)
    ys, xs = (np.array(v, dtype=float, ndmin=1) for v in (y, x))
    yl, xl = ys.tolist(), xs.tolist()
    if not all(0.0 < u <= v for u, v in zip(yl, xl)):
        raise ValueError(f"bessel_ik requires 0 < y <= x, got y={y}, x={x}")
    top = int(ns.max())
    size = 128 * (top // 128 + 1)  # one cached table serves many columns
    rho = _i_ratios(xl if yl == xl else xl + yl, size)
    val = 1.0 / (xs[:, None] * (_k_ratios(xl, size) + rho[:xs.size])[:, ns])
    if yl != xl:  # times I_n(y) / I_n(x), whose factors are 1 at y = x
        rho_x, rho_y = rho[:xs.size], rho[xs.size:]
        ratio = np.ones((xs.size, top + 1))
        np.cumprod(rho_y[:, :top] / rho_x[:, :top], axis=1, out=ratio[:, 1:])
        # e^-v I_0(v) at v = x, y, by the Wronskian
        k0, k1 = _k01(xl + yl)
        i0 = 1.0 / (np.concatenate([xs, ys]) * (k1 + rho[:, 0] * k0))
        ratio *= (i0[xs.size:] / i0[:xs.size] * np.exp(ys - xs))[:, None]
        val = val * ratio[:, ns]
    return val.reshape(np.shape(x) + ns.shape)


def _j_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (J_n(x), J_{n+1}(x)) over a 1-d array x > 0
    out = np.empty((2, x.size))
    far = x > max(_J_CUT, n)
    if far.any():
        # Hankel's expansion of J0, J1, then the upward recurrence, stable
        # for orders below x; cos and sin of x - (nu/2 + 1/4) pi are
        # expanded so that x itself is never rounded
        xf = x[far]
        coef = _hankel_rows() * (-1.0) ** (np.arange(40) // 2)
        p, q = np.zeros((2, xf.size)), np.zeros((2, xf.size))
        for k in range(38, -1, -2):
            p = p / (xf * xf) + coef[:, k, None]
            q = q / (xf * xf) + coef[:, k + 1, None]
        q /= xf
        cos, sin = np.cos(xf), np.sin(xf)
        c, s = (cos + sin) / math.sqrt(2.0), (sin - cos) / math.sqrt(2.0)
        # x - pi/4 for nu = 0, x - 3 pi/4 for nu = 1
        j0 = p[0] * c - q[0] * s
        j1 = p[1] * s + q[1] * c
        amp = np.sqrt(2.0 / (np.pi * xf))
        lo, hi = j0 * amp, j1 * amp
        for k in range(1, n + 1):
            lo, hi = hi, 2.0 * k / xf * hi - lo
        out[:, far] = lo, hi
    tiny = x < 1e-8  # (x/2)^n / n! to rounding
    if tiny.any():
        log = np.log(x[tiny] / 2.0)
        out[:, tiny] = [np.exp(k * log - math.lgamma(k + 1)) for k in (n, n + 1)]
    if not (far | tiny).all():
        # Miller's backward recurrence from an even order past n and x,
        # normalized by J_0 + 2 (J_2 + J_4 + ...) = 1, each entry rescaled
        # before it overflows
        xn = x[~(far | tiny)]
        m = max(n + 1, float(np.max(xn)))
        start = 2 * int((m + 10.0 + 2.0 * math.sqrt(10.0 * m)) // 2)
        # a step grows an entry at most 2 start / x + 1 times: past 1e100
        # it is scaled by 1e-200 at checks this many steps apart
        every = max(1, int(200.0 / math.log10(2.0 * start / np.min(xn) + 2.0)))
        hi, lo = np.zeros(xn.size), np.full(xn.size, 1e-300)
        norm, pair = np.zeros(xn.size), np.zeros((2, xn.size))
        for k in range(start, 0, -1):  # lo = J_k, hi = J_{k+1}, unscaled
            if k == n:
                pair[:] = lo, hi
            if k % 2 == 0:
                norm += 2.0 * lo
            lo, hi = 2.0 * k / xn * lo - hi, lo
            if k % every == 0 and np.max(np.abs(lo)) > 1e100:
                scale = np.where(np.abs(lo) > 1e100, 1e-200, 1.0)
                lo, hi, norm, pair = (v * scale for v in (lo, hi, norm, pair))
        if n == 0:
            pair[:] = lo, hi
        out[:, ~(far | tiny)] = pair / (norm + lo)
    return out[0], out[1]


def bessel_j(n: int, x) -> np.ndarray:
    """J_n(x) over an array x > 0, for an integer order n >= 0."""
    x = np.asarray(x, dtype=float)
    return _j_pair(n, x.ravel())[0].reshape(x.shape)


def bessel_j_zeros(n: int, count: int) -> np.ndarray:
    """The first `count` positive zeros of J_n.

    They lie beyond x = n and below (count + n/2) pi + 2, one per unit
    step at most: a sign change of J_n on that grid brackets each, and four
    Newton steps from the secant point within it reach rounding.
    """
    grid = np.arange(n + 0.5, (count + n / 2.0) * math.pi + 2.0, 1.0)
    j = bessel_j(n, grid)
    at = np.flatnonzero(np.signbit(j[:-1]) != np.signbit(j[1:]))[:count]
    if at.size < count:
        raise ArithmeticError(f"found {at.size} of {count} zeros of J_{n}")
    x = grid[at] - j[at] / (j[at + 1] - j[at])
    for _ in range(4):
        jn, jn1 = _j_pair(n, x)
        x = x - jn / (n / x * jn - jn1)
    return x


def _gauss_series(p: float, q: float, r: float, z: float) -> float:
    # sum_k (p)_k (q)_k / ((r)_k k!) z^k until a term is below 2^-56 of
    # the sum, for 0 <= z < 1
    total, term, k = 1.0, 1.0, 0
    while abs(term) > 2.0 ** -56 * abs(total):
        term *= (p + k) * (q + k) / ((r + k) * (k + 1.0)) * z
        total += term
        k += 1
    return total


def _rgamma(v: float) -> float:
    # 1 / Gamma(v), 0 at its poles
    return 0.0 if v <= 0 and v == int(v) else 1.0 / math.gamma(v)


def hyp2f1(p: float, q: float, r: float, z: float) -> float:
    """Gauss's F(p, q; r; z) for 0 <= z <= 1 (r - p - q > 0 at z = 1).

    At z = 1 Gauss's sum; up to z = 1/2, or for an integer r - p - q, the
    series; above, the connection formula (DLMF 15.8.4), two series in
    1 - z.
    """
    s = r - p - q
    if z == 1.0:
        return math.gamma(r) * math.gamma(s) * _rgamma(r - p) * _rgamma(r - q)
    if z <= 0.5 or s == int(s):
        return _gauss_series(p, q, r, z)
    w = 1.0 - z
    return math.gamma(r) * (
        math.gamma(s) * _rgamma(r - p) * _rgamma(r - q)
        * _gauss_series(p, q, 1.0 - s, w)
        + w ** s * math.gamma(-s) * _rgamma(p) * _rgamma(q)
        * _gauss_series(r - p, r - q, 1.0 + s, w))
