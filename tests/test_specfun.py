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
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from vstates import models, specfun

mpmath.mp.dps = 30


def test_gamma_matches_math():
    for x in (0.1, 0.5, 1.0, 2.5, 10.0, 100.0, 170.0):
        assert specfun.gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-15)


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        specfun.gamma_fn(0.0)
    with pytest.raises(ValueError):
        specfun.gamma_fn(-1.5)
    with pytest.raises(OverflowError):
        specfun.gamma_fn(500.0)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_bessel_ik_vs_mpmath(n):
    for x in (0.2, 1.0, 5.0):
        assert specfun.bessel_i(n, x) == pytest.approx(
            float(mpmath.besseli(n, x)), rel=1e-12)
        assert specfun.bessel_k(n, x) == pytest.approx(
            float(mpmath.besselk(n, x)), rel=1e-12)


def test_bessel_ik_wronskian():
    # I_n(x) K_{n+1}(x) + I_{n+1}(x) K_n(x) = 1/x
    for n in (0, 1, 3):
        for x in (0.3, 1.0, 6.0):
            w = (specfun.bessel_i(n, x) * specfun.bessel_k(n + 1, x)
                 + specfun.bessel_i(n + 1, x) * specfun.bessel_k(n, x))
            assert w == pytest.approx(1.0 / x, rel=1e-12)


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


@given(st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(2.5, 6.0),
       st.floats(0.0, 0.95))
@settings(max_examples=60, deadline=None)
def test_hyp2f1_vs_mpmath(a, b, c, z):
    want = float(mpmath.hyp2f1(a, b, c, z))
    assert specfun.hyp2f1(a, b, c, z) == pytest.approx(want, rel=1e-10)


def test_hyp2f1_gauss_summation():
    a, b, c = 0.3, 0.6, 2.0
    want = (math.gamma(c) * math.gamma(c - a - b)
            / (math.gamma(c - a) * math.gamma(c - b)))
    assert specfun.hyp2f1(a, b, c, 1.0) == pytest.approx(want, rel=1e-13)


def test_hyp2f1_rejects_bad_input():
    with pytest.raises(ValueError):
        specfun.hyp2f1(0.5, 0.5, -1.0, 0.3)
    with pytest.raises(ValueError):
        specfun.hyp2f1(0.5, 0.5, 1.5, 1.2)
    with pytest.raises(ValueError):
        specfun.hyp2f1(0.5, 2.0, 1.5, 1.0)  # c - a - b < 0 at z = 1
