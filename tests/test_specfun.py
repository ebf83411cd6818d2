"""Special-function layer, checked against mpmath and scipy oracles.

The Bessel-zero tables of the disc series (`models._cached_zeros`) are
checked here too.
"""

import ast
import math
import pathlib

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from vstates import models, specfun


@pytest.mark.parametrize("n", [0, 1, 3, 64, 128, 500, 2000])
def test_bessel_ik_vs_mpmath(n):
    # I_n(y) K_n(x), a one-mode column and the same mode inside a longer one;
    # products below 1e-290 underflow to 0 and are skipped
    for y, x in ((0.2, 0.2), (0.2, 1.0), (1.0, 5.0), (5.0, 5.0), (3.0, 50.0),
                 (50.0, 50.0), (0.5, 400.0), (400.0, 400.0), (40.0, 80.0)):
        with mpmath.workdps(30):
            want = mpmath.besseli(n, y) * mpmath.besselk(n, x)
        if want < 1e-290:
            continue
        (got,) = specfun.bessel_ik([n], y, x)
        assert got == pytest.approx(float(want), rel=5e-14)
        assert specfun.bessel_ik(np.array([0, n]), y, x)[1] == got


def _scalar_ratios(x, size):
    # the table of one argument alone, as the scalar recurrence built it:
    # Miller's backward recurrence for I_{k+1}/I_k from depth
    # 10 + 6 sqrt(x), the forward recurrence for K_{k+1}/K_k from the
    # package's K_1/K_0
    c, rho = (2.0 / x) * np.arange(size), np.zeros(size)
    for j in range(10 + int(6.0 * math.sqrt(x)), 0, -1):
        rho += c
        rho += 2.0 * j / x
        np.reciprocal(rho, out=rho)
    k0, k1 = specfun.bessel_k(np.array([x]), scaled=True)[:, 0]
    r = [float(k1 / k0)]
    for k in range(1, size):
        r.append(2.0 * k / x + 1.0 / r[-1])
    return rho, np.array(r)


@pytest.mark.parametrize("size", [128, 768])
def test_node_array_ratio_rows_equal_the_scalar_recurrence(size):
    # one backward recurrence over many arguments, each row joining at its
    # own depth, gives every I row bit for bit; cached rows are served as
    # built, and the K rows are the scalar forward recurrence
    xs = np.geomspace(1e-3, 1e3, 61).tolist()
    specfun._I_RATIOS.clear()
    for _ in range(2):
        rows = specfun._i_ratios(xs[::-1] + xs[:5], size)
        for x, row in zip(xs[::-1] + xs[:5], rows):
            want_rho, want_r = _scalar_ratios(x, size)
            assert np.array_equal(row, want_rho)
            assert np.array_equal(specfun._k_ratios([x], size)[0], want_r)


def test_bessel_ik_rows_equal_their_pair_alone():
    # the disc models' call: one row per (y, x) pair, y = x included
    x = np.array([0.3, 2.0, 2.0, 45.0, 700.0])
    y = np.array([0.1, 2.0, 0.5, 44.0, 3.0])
    ns = np.arange(0, 140)
    rows = specfun.bessel_ik(ns, y, x)
    assert rows.shape == (5, 140)
    for yy, xx, row in zip(y.tolist(), x.tolist(), rows):
        assert np.array_equal(row, specfun.bessel_ik(ns, yy, xx))
        assert row[7] == specfun.bessel_ik([7], yy, xx)[0]
    assert specfun.bessel_ik([3], y, x).shape == (5, 1)


def test_bessel_zero_interlacing():
    z0 = models._cached_zeros(0, 20)
    z1 = models._cached_zeros(1, 20)
    assert np.all(z0[:-1] < z1[:-1])
    assert np.all(z1[:-1] < z0[1:])


def test_bessel_zero_spacing_approaches_pi():
    zeros = models._cached_zeros(2, 60)
    gaps = np.diff(zeros)[-10:]
    assert np.max(np.abs(gaps - np.pi)) < 1e-3


@pytest.mark.parametrize("n", [25, 64, 128])
def test_bessel_zeros_of_high_orders(n):
    # the QGSW disc spectra reach these orders; each zero annihilates J_n
    zeros = models._cached_zeros(n, 500)
    assert zeros.shape == (500,)
    assert np.all(np.diff(zeros) > 0)
    assert np.max(np.abs(sp.jv(n, zeros))) < 1e-13


def test_cached_zeros_are_shared_and_read_only():
    zeros = models._cached_zeros(3, 40)
    assert models._cached_zeros(3, 40) is zeros
    with pytest.raises(ValueError):
        zeros[0] = 0.0


def test_jn_zeros_is_called_only_in_cached_zeros():
    # the package takes every table of Bessel zeros from _cached_zeros,
    # the one caller of specfun.bessel_j_zeros
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "vstates"
    inside, outside = 0, []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        spans = [(node.lineno, node.end_lineno)
                 for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_cached_zeros"]
        for lineno, line in enumerate(text.splitlines(), 1):
            if ("bessel_j_zeros(" not in line
                    or line.startswith("def bessel_j_zeros(")):
                continue
            if any(lo <= lineno <= hi for lo, hi in spans):
                inside += 1
            else:
                outside.append(f"{path.name}:{lineno}")
    assert outside == []
    assert inside == 1


# ---------------------------------------------------------------------------
# the numpy evaluators against scipy on dense grids and mpmath at 40 digits
# ---------------------------------------------------------------------------

# dense grids across every cut: the K series/Chebyshev cut at 2, the I
# series/asymptotic cut at 20, the J Miller/Hankel cut at 25
_Z = np.concatenate([np.geomspace(1e-10, 2.0, 4001), np.linspace(2.0, 60.0, 40001),
                     np.geomspace(60.0, 700.0, 2001)])


@pytest.mark.parametrize("scaled", [False, True])
def test_bessel_k_and_i_against_scipy(scaled):
    # orders 0..3, K by the forward recurrence and I by Miller's ratios
    # above order 1; worst seen 3.0e-15 (K0 just below the cut at 2)
    z = _Z if scaled else _Z[_Z < 600.0]  # unscaled K leaves normal doubles
    k = specfun.bessel_k(z, 3, scaled)
    i = specfun.bessel_i(z, 3, scaled)
    for n in range(4):
        want_k = sp.kve(n, z) if scaled else sp.kv(n, z)
        want_i = sp.ive(n, z) if scaled else sp.iv(n, z)
        assert np.max(np.abs(k[n] / want_k - 1.0)) < 5e-15, n
        assert np.max(np.abs(i[n] / want_i - 1.0)) < 5e-14, n


def test_power_series_against_scipy():
    # the four series of the near field, at the arguments the QGSW split
    # meets up to eps d = 30
    z = np.linspace(1e-3, 30.0, 3001)
    i0, k0, i1, k1 = specfun.power_series(z, ("i0", "k0", "i1", "k1"))
    log = np.log(z / 2.0)
    assert np.max(np.abs(i0 / sp.i0(z) - 1.0)) < 5e-15
    assert np.max(np.abs(i1 * z / sp.i1(z) - 1.0)) < 5e-15
    near = z <= 2.0  # where the K forms do not cancel
    assert np.max(np.abs((k0 - (log + np.euler_gamma) * i0)[near]
                         / sp.k0(z[near]) - 1.0)) < 5e-15
    assert np.max(np.abs((1.0 / z + z * (log * i1 - k1))[near]
                         / sp.k1(z[near]) - 1.0)) < 5e-15


@pytest.mark.parametrize("x", [1e-8, 0.3, 1.9, 2.1, 7.0, 19.9, 20.1, 45.0,
                               300.0])
def test_bessel_spot_values_against_mpmath(x):
    with mpmath.workdps(40):
        want_k = [float(mpmath.besselk(n, x) * mpmath.exp(x)) for n in (0, 1)]
        want_i = [float(mpmath.besseli(n, x) * mpmath.exp(-x))
                  for n in (0, 1, 2)]
        want_j = [float(mpmath.besselj(n, x)) for n in (0, 1, 5)]
    k = specfun.bessel_k(np.array([x]), 1, scaled=True)[:, 0]
    i = specfun.bessel_i(np.array([x]), 2, scaled=True)[:, 0]
    assert np.max(np.abs(k / want_k - 1.0)) < 4e-15
    assert np.max(np.abs(i / want_i - 1.0)) < 4e-15
    for n, want in zip((0, 1, 5), want_j):
        assert abs(specfun.bessel_j(n, x) - want) < 1e-15


@pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 30])
def test_bessel_j_against_scipy(n):
    # absolute: the leading term below 1e-8, Miller below 25, Hankel and
    # the upward recurrence above;
    # worst seen 4.8e-16 for n <= 9, 1.1e-14 for n = 30 near x = 360
    x = np.concatenate([np.geomspace(1e-300, 25.0, 5001),
                        np.linspace(25.0, 7000.0, 50001)])
    err = np.max(np.abs(specfun.bessel_j(n, x) - sp.jv(n, x)))
    assert err < (1e-15 if n < 10 else 2e-14)


@pytest.mark.parametrize("n, count", [(0, 500), (1, 2000), (2, 2000),
                                      (128, 500)])
def test_bessel_j_zeros_against_scipy(n, count):
    # worst seen 9.1e-13 absolute at x near 6300
    zeros = specfun.bessel_j_zeros(n, count)
    assert np.max(np.abs(zeros - sp.jn_zeros(n, count))
                  / sp.jn_zeros(n, count)) < 2e-16 * 1000


@pytest.mark.parametrize("p, q, r, z", [
    (0.25, 0.25, 1.0, 0.3), (0.25, 0.25, 1.0, 0.9), (0.25, 1.25, 2.0, 0.999),
    (0.05, 0.05, 1.0, 0.99999), (1.375, 0.375, 2.0, 0.1975),
    (1.375, 0.375, 2.0, 1.0), (5.25, 0.25, 6.0, 0.64), (1.25, -0.75, 2.0, 0.7)])
def test_hyp2f1_against_mpmath(p, q, r, z):
    # the series, Gauss's sum and the connection formula; worst seen 4.3e-15
    with mpmath.workdps(40):
        want = float(mpmath.hyp2f1(p, q, r, z))
    assert specfun.hyp2f1(p, q, r, z) == pytest.approx(want, rel=1e-14)
