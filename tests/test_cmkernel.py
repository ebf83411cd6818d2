"""Bernstein-measure layer: kernel reconstruction and spectral integrals."""

import math

import numpy as np
import pytest
from scipy import integrate, special as sp

from vstates import cmkernel, dispersion
from vstates.universal import phi_n, phi_nb


def test_c_beta_value():
    # c_beta = Gamma(beta/2) / (pi 2^{2-beta} Gamma(1-beta/2))
    beta = 0.5
    want = (math.gamma(0.25)
            / (math.pi * 2.0 ** 1.5 * math.gamma(0.75)))
    assert cmkernel.c_beta(beta) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        cmkernel.c_beta(1.0)


def test_flat_measure_reconstructs_log_kernel():
    # Frullani: int_0^inf (e^{-tx} - e^{-x}) dx / x = -log t
    mu = cmkernel.euler_flat()
    for t in (1e-8, 1e-6, 1e-4, 0.1, 0.5, 2.0, 7.0):
        want = -math.log(t) / (2.0 * math.pi)
        assert cmkernel.k0_eval(mu, t) == pytest.approx(want, abs=1e-10)


def test_power_measure_reconstructs_power_kernel():
    # the normalization constant drops out of K0(t) - K0(s)
    beta = 0.4
    mu = cmkernel.gsqg_power(beta)
    cb = cmkernel.c_beta(beta)
    for t, s in ((0.5, 2.0), (0.2, 1.5), (1e-8, 2.0), (1e-6, 2.0),
                 (1e-4, 2.0)):
        diff = cmkernel.k0_eval(mu, t) - cmkernel.k0_eval(mu, s)
        want = cb * (t ** -beta - s ** -beta)
        assert diff == pytest.approx(want, rel=1e-8)


def test_shifted_measure_reconstructs_bessel_kernel():
    eps = 1.5
    mu = cmkernel.qgsw_shifted(eps)
    for t, s in ((0.5, 1.5), (0.8, 2.5), (1e-8, 2.0), (1e-6, 2.0),
                 (1e-4, 2.0)):
        diff = cmkernel.k0_eval(mu, t) - cmkernel.k0_eval(mu, s)
        want = (sp.k0(eps * t) - sp.k0(eps * s)) / (2.0 * math.pi)
        assert diff == pytest.approx(want, abs=1e-9)


def test_spectral_integral_atoms_exact():
    mu = cmkernel.Measure(atoms=((2.0, 3.0), (5.0, 1.0)))
    got = cmkernel.spectral_integral(lambda x: x * x, mu)
    assert got == pytest.approx(3.0 * 2.0 + 1.0 * 5.0, rel=1e-15)
    with pytest.raises(ValueError):
        cmkernel.spectral_integral(lambda x: 1.0,
                                   cmkernel.Measure(atoms=((0.0, 1.0),)))


def test_spectral_integral_flat_phi_tilde():
    # int phi_{1,b}(x) dx / (2 pi x) = lambda-tilde_{1,b} = b/2 for the flat
    # measure; the integrand decays like e^{-(1-b)x}, so truncation is safe
    # (phi_n itself decays only algebraically and needs the tail handling
    # of the dispersion module instead)
    from vstates.universal import phi_nb
    b = 0.5
    mu = cmkernel.euler_flat()
    got = cmkernel.spectral_integral(lambda x: phi_nb(1, b, x), mu,
                                     decay=1.0 - b)
    assert got == pytest.approx(b / 2.0, abs=1e-9)


def test_measure_validation():
    with pytest.raises(ValueError):
        cmkernel.Measure()
    with pytest.raises(ValueError):
        cmkernel.Measure(atoms=((1.0, -2.0),))
    with pytest.raises(ValueError):
        cmkernel.Measure(family="no_such_family")
    with pytest.raises(ValueError):
        cmkernel.gsqg_power(1.2)
    with pytest.raises(ValueError):
        cmkernel.qgsw_shifted(-1.0)
    for atoms in (((math.nan, 1.0),), ((1.0, math.nan),), ((math.inf, 1.0),)):
        with pytest.raises(ValueError):
            cmkernel.Measure(atoms=atoms)
    for x_star in (0.0, math.nan):
        with pytest.raises(ValueError):
            cmkernel.truncated_low(None, x_star)
    for gamma in (0.0, -1.0):
        with pytest.raises(ValueError):
            cmkernel.truncated_high(None, 2.0, gamma)
    with pytest.raises(ValueError):
        cmkernel.qgsw_shifted(math.inf)


def test_density_supports():
    lo = cmkernel.truncated_low(lambda x: 2.0, 3.0)
    assert lo.density(2.0) == 2.0
    assert lo.density(4.0) == 0.0
    hi = cmkernel.truncated_high(None, 3.0, gamma=1.0)
    assert hi.density(2.0) == 0.0
    assert hi.density(4.0) == 1.0
    mu = cmkernel.qgsw_shifted(2.0)
    assert mu.density(1.0) == 0.0
    assert mu.density(3.0) > 0.0


@pytest.mark.parametrize("mu,c0", [
    (cmkernel.euler_flat(), 0.0),
    (cmkernel.gsqg_power(0.6), 1.0),
    (cmkernel.qgsw_shifted(1.0), 0.1),
])
def test_neg_k0_prime_is_completely_monotone(mu, c0):
    # finite-difference sign checks of (-1)^k (-K0')^{(k)} >= 0
    ts = np.linspace(0.3, 3.0, 8)
    h = 1e-3
    vals = np.array([[cmkernel.k0_eval(mu, t + j * h, c0) for j in range(-2, 3)]
                     for t in ts])
    d1 = (vals[:, 3] - vals[:, 1]) / (2 * h)          # K0'
    d2 = (vals[:, 4] - 2 * vals[:, 2] + vals[:, 0]) / (h * h)
    assert np.all(-d1 > 0)                            # -K0' >= 0
    assert np.all(d2 > 0)                             # (-K0')' <= 0


@pytest.mark.parametrize("mu", [
    cmkernel.euler_flat(),
    cmkernel.gsqg_power(0.5),
    cmkernel.qgsw_shifted(1.0),
    cmkernel.truncated_low(None, 2.0),
])
# the quad oracle below warns of roundoff on two of these measures
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_small_scale_integrability(mu):
    # int_0^1 |K0(t)| t^{-alpha + alpha^2} dt < infinity
    a = mu.alpha
    expo = -a + a * a
    val, err = integrate.quad(
        lambda t: abs(cmkernel.k0_eval(mu, t)) * t ** expo, 1e-8, 1.0,
        limit=200)
    assert math.isfinite(val)
    assert err < 1e-4 * max(1.0, val)


def test_measure_from_dict_roundtrip():
    mu = cmkernel.measure_from_dict(
        {"family": "gsqg_power", "beta": "0.5", "atoms": "1.0:2.0"})
    assert mu.family == "gsqg_power"
    assert mu.atoms == ((1.0, 2.0),)
    mu2 = cmkernel.measure_from_dict({"atoms": "2:1"})
    assert mu2.family is None
    with pytest.raises(ValueError):
        cmkernel.measure_from_dict({"family": "bogus"})


@pytest.mark.parametrize("built, text, alpha", [
    (cmkernel.euler_flat(), {"family": "euler_flat"}, 0.5),
    (cmkernel.gsqg_power(0.5), {"family": "gsqg_power", "beta": "0.5"},
     0.25),
    (cmkernel.qgsw_shifted(2.0), {"family": "qgsw_shifted", "eps": "2"},
     0.5),
    (cmkernel.truncated_low(None, 2.0),
     {"family": "truncated_low", "x_star": "2"}, 0.5),
    (cmkernel.truncated_high(None, 2.0, 0.4),
     {"family": "truncated_high", "x_star": "2", "gamma": "0.4"}, 0.2),
])
def test_alpha_is_the_same_from_builder_and_text(built, text, alpha):
    # the integrability exponent follows from the family and its parameters
    assert built.alpha == alpha
    assert cmkernel.measure_from_dict(text).alpha == built.alpha


@pytest.mark.parametrize("mu", [
    cmkernel.truncated_low(None, 2.0),
    cmkernel.Measure(atoms=((0.5, 0.3),), family="truncated_low",
                     params={"x_star": 3.0}, f=lambda x: math.exp(-x)),
])
def test_spectral_integral_matches_lambda_quadrature(mu):
    # scipy quad over the measure against the node rule of the spectral
    # rows, on bounded supports
    for n, scale in ((1, 0.5), (3, 1.0), (6, 0.8)):
        want = cmkernel.spectral_integral(lambda x: phi_n(n, scale * x), mu)
        (got,) = dispersion._lambda_quadrature(mu, np.array([n]), scale,
                                               scale)
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("mu, rel", [(cmkernel.qgsw_shifted(2.0), 1e-12),
                                     (cmkernel.gsqg_power(0.5), 1e-12)])
def test_spectral_integral_matches_lambda_tilde_quadrature(mu, rel):
    for n, b in ((1, 0.5), (4, 0.7)):
        want = cmkernel.spectral_integral(lambda x: phi_nb(n, b, x), mu,
                                          decay=1.0 - b)
        (got,) = dispersion._lambda_quadrature(mu, np.array([n]), b, 1.0)
        assert got == pytest.approx(want, rel=rel)
