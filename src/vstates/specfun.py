"""The products I_n(y) K_n(x) of modified Bessel functions, for a column of
integer orders at once: the one special function scipy lacks.

The disc models pass all their screening nodes to one `bessel_ik` call,
whose ratio tables come from one recurrence over all arguments and are
cached, so those of the nodes carry over from one b to the next.
Everything else (Gamma, the Gauss hypergeometric function, Bessel I, K, J
and the zeros of J) comes straight from `math` and `scipy.special`.

`scipy.special` is a lazy module (`_lazy_import`), run at its first
attribute access: the Euler models and the universal functions compute
with numpy alone and never run it.  It is the only scipy module the
package runs: its quadratures and Gauss rules are numpy node sums.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from functools import lru_cache

import numpy as np

from .universal import _modes

__all__ = ["bessel_ik"]


def _lazy_import(name: str):
    # sys.modules[name]; a module not imported yet is registered there as a
    # lazy module, which runs at its first attribute access
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_sp = _lazy_import("scipy.special")


# (x, size) -> I ratio row of `_i_ratios`; emptied past 1024 entries
_I_RATIOS: dict = {}


def _i_ratios(xs: list, size: int) -> np.ndarray:
    # rows I_{k+1}/I_k at each x of xs for k < size, from Miller's backward
    # recurrence, written as the continued fraction
    # rho_{j-1} = 1 / (2j/x + rho_j) and started from 0 at
    # j = k + 10 + 6 sqrt(x), a depth that converges to rounding for every
    # k and depends on x only, so each mode's value is the same in any
    # column.  The arguments not cached share one recurrence, each row
    # joining at its own depth, so it equals the row of its x alone.
    if len(_I_RATIOS) > 1024:
        _I_RATIOS.clear()
    if new := sorted({x for x in xs if (x, size) not in _I_RATIOS},
                     reverse=True):
        x = np.array(new)[:, None]
        depth = 10 + (6.0 * np.sqrt(x[:, 0])).astype(int)
        c, rho = (2.0 / x) * np.arange(size), np.zeros((len(new), size))
        for j in range(depth[0], 0, -1):
            top = rho[:np.count_nonzero(depth >= j)]  # the rows started
            top += c[:len(top)]
            top += 2.0 * j / x[:len(top)]
            np.reciprocal(top, out=top)
        _I_RATIOS.update(((v, size), row) for v, row in zip(new, rho))
    return np.array([_I_RATIOS[v, size] for v in xs])


@lru_cache(maxsize=1024)
def _k_ratios(x: float, size: int) -> np.ndarray:
    # K_{k+1}/K_k at x for k < size, read-only, from the (stable) forward
    # recurrence, only ever needed at the x of `bessel_ik`; per argument in
    # Python floats, since a numpy step over a few rows costs more than the
    # Python step over each
    r = [float(_sp.kve(1, x) / _sp.kve(0, x))]
    for k in range(1, size):
        r.append(2.0 * k / x + 1.0 / r[-1])
    r = np.array(r)
    r.flags.writeable = False
    return r


def bessel_ik(n, y, x):
    """I_n(y) K_n(x) for 0 < y <= x over an integer array of orders n >= 0
    (one int is one order), a row per pair when y and x are arrays of one
    shape: the shape of x, then that of the orders.

    The factors over- and underflow at large n, the product does not: by
    the Wronskian, I_n(x) K_n(x) = 1 / (x (K_{n+1}/K_n + I_{n+1}/I_n)), and
    I_n(y) / I_n(x) is I_0(y) / I_0(x) times the product of the ratios
    (I_{k+1}/I_k)(y) / (I_{k+1}/I_k)(x) over k < n.
    """
    ns = _modes(n, "bessel_ik", least=0)
    ys, xs = (np.array(v, dtype=float, ndmin=1) for v in (y, x))
    yl, xl = ys.tolist(), xs.tolist()
    if not all(0.0 < u <= v for u, v in zip(yl, xl)):
        raise ValueError(f"bessel_ik requires 0 < y <= x, got y={y}, x={x}")
    top = int(ns.max())
    size = 128 * (top // 128 + 1)  # one cached table serves many columns
    rho = _i_ratios(xl + yl, size)
    rho_x, rho_y = rho[:xs.size], rho[xs.size:]
    r_x = np.array([_k_ratios(v, size) for v in xl])
    val = 1.0 / (xs[:, None] * (r_x + rho_x)[:, ns])
    if yl != xl:  # times I_n(y) / I_n(x), whose factors are 1 at y = x
        ratio = np.ones((xs.size, top + 1))
        np.cumprod(rho_y[:, :top] / rho_x[:, :top], axis=1, out=ratio[:, 1:])
        ratio *= np.array([float(_sp.ive(0, u) / _sp.ive(0, v))
                           * math.exp(u - v) if u != v else 1.0
                           for u, v in zip(yl, xl)])[:, None]
        val = val * ratio[:, ns]
    return val.reshape(np.shape(x) + ns.shape)
