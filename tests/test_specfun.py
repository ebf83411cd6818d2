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
    # 10 + 6 sqrt(x), the forward recurrence for K_{k+1}/K_k
    c, rho = (2.0 / x) * np.arange(size), np.zeros(size)
    for j in range(10 + int(6.0 * math.sqrt(x)), 0, -1):
        rho += c
        rho += 2.0 * j / x
        np.reciprocal(rho, out=rho)
    r = [float(sp.kve(1, x) / sp.kve(0, x))]
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
            assert np.array_equal(specfun._k_ratios(x, size), want_r)


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
    # the package takes every table of Bessel zeros from _cached_zeros
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "vstates"
    inside, outside = 0, []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        spans = [(node.lineno, node.end_lineno)
                 for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_cached_zeros"]
        for lineno, line in enumerate(text.splitlines(), 1):
            if "jn_zeros(" not in line:
                continue
            if any(lo <= lineno <= hi for lo, hi in spans):
                inside += 1
            else:
                outside.append(f"{path.name}:{lineno}")
    assert outside == []
    assert inside == 1
