"""Special-function layer, checked against mpmath and scipy oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from vstates import specfun

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


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_bessel_j_vs_mpmath(n):
    for x in (0.1, 1.0, 3.7, 12.0):
        assert specfun.bessel_j(n, x) == pytest.approx(
            float(mpmath.besselj(n, x)), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_bessel_ik_vs_mpmath(n):
    for x in (0.2, 1.0, 5.0):
        assert specfun.bessel_i(n, x) == pytest.approx(
            float(mpmath.besseli(n, x)), rel=1e-12)
        assert specfun.bessel_k(n, x) == pytest.approx(
            float(mpmath.besselk(n, x)), rel=1e-12)


def test_bessel_jp_is_derivative():
    h = 1e-6
    for n in (0, 1, 4):
        for x in (0.5, 2.0, 9.0):
            fd = (specfun.bessel_j(n, x + h) - specfun.bessel_j(n, x - h)) / (2 * h)
            assert specfun.bessel_jp(n, x) == pytest.approx(fd, abs=1e-8)


def test_bessel_ik_wronskian():
    # I_n(x) K_{n+1}(x) + I_{n+1}(x) K_n(x) = 1/x
    for n in (0, 1, 3):
        for x in (0.3, 1.0, 6.0):
            w = (specfun.bessel_i(n, x) * specfun.bessel_k(n + 1, x)
                 + specfun.bessel_i(n + 1, x) * specfun.bessel_k(n, x))
            assert w == pytest.approx(1.0 / x, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
def test_bessel_zeros_vs_scipy(n):
    table = specfun.bessel_zeros(n, 30)
    want = sp.jn_zeros(n, 30)
    assert np.max(np.abs(table.zeros - want)) < 1e-10
    # the zeros must actually annihilate J_n
    assert max(abs(specfun.bessel_j(n, z)) for z in table.zeros) < 1e-11


def test_bessel_zero_interlacing():
    z0 = specfun.bessel_zeros(0, 20).zeros
    z1 = specfun.bessel_zeros(1, 20).zeros
    assert np.all(z0[:-1] < z1[:-1])
    assert np.all(z1[:-1] < z0[1:])


def test_bessel_zero_spacing_approaches_pi():
    zeros = specfun.bessel_zeros(2, 60).zeros
    gaps = np.diff(zeros)[-10:]
    assert np.max(np.abs(gaps - np.pi)) < 1e-3


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
