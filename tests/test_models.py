"""Model instantiation: closed spectra, smooth-kernel terms, summation
identities.  Every closed form is checked against an independent numeric
route (measure quadrature, Fourier integration of the kernel, or truncated
Bessel-zero series)."""

import cmath
import math

import numpy as np
import pytest
from scipy import special as sp

from vstates import cmkernel, dispersion, models
from vstates.universal import periodic_trapezoid

import oracles


# ---------------------------------------------------------------------------
# constructors and closed spectra
# ---------------------------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(ValueError):
        models.gsqg_plane(1.5)
    with pytest.raises(ValueError):
        models.qgsw_plane(-1.0)
    with pytest.raises(ValueError):
        models.euler_disc(0.8)
    with pytest.raises(ValueError):
        models.euler_annulus(2.0, 1.0)
    with pytest.raises(ValueError):
        models.euler_exterior(1.5)
    for bad in (math.nan, math.inf, 0.0):
        for build in (models.qgsw_plane, models.euler_disc,
                      models.euler_exterior, lambda x: models.gsqg_disc(x, 2.0),
                      lambda x: models.euler_annulus(0.5, x)):
            with pytest.raises(ValueError):
                build(bad)


def test_model_from_dict():
    m = models.model_from_dict({"variant": "GsqgPlane", "beta": "0.5"})
    assert m.variant == "GsqgPlane"
    assert m.params["beta"] == 0.5
    with pytest.raises(ValueError):
        models.model_from_dict({"variant": "Nope"})
    with pytest.raises(ValueError, match="EulerPlane"):
        models.model_from_dict({"variant": "EulerPlane", "beta": "0.5"})
    with pytest.raises(ValueError, match="QgswDisc"):
        models.model_from_dict({"variant": "QgswDisc", "eps": "2"})


def test_admissible_interval():
    assert models.euler_plane().contains_b(0.5)
    ext = models.euler_exterior(0.3)
    assert not ext.contains_b(0.2)       # b must exceed the excluded disc
    assert ext.contains_b(0.5)


def _lambda_fourier_oracle(model, n, b):
    """lambda_{n,b} from its defining angular integral of K0(2b|sin(eta/2)|).

    The integrand is singular at eta = 0, so tanh-sinh quadrature on the
    split interval is used instead of the trapezoid rule."""
    import mpmath
    variant = model.variant
    if variant.startswith("Euler"):
        k0 = lambda t: -mpmath.log(t) / (2 * mpmath.pi)
    elif variant.startswith("Gsqg"):
        beta = model.params["beta"]
        k0 = lambda t: cmkernel.c_beta(beta) * t ** (-beta)
    else:
        eps = model.params["eps"]
        k0 = lambda t: mpmath.besselk(0, eps * t) / (2 * mpmath.pi)

    f = lambda eta: k0(2 * b * mpmath.sin(eta / 2)) * mpmath.cos(n * eta)
    # the power-law endpoint singularity needs the extra working precision
    # for tanh-sinh nodes to resolve it
    with mpmath.workdps(40):
        return float(mpmath.quad(f, [0, mpmath.pi, 2 * mpmath.pi],
                                 maxdegree=12))


def _lambda_tilde_fourier_oracle(model, n, b):
    variant = model.variant
    if variant.startswith("Euler"):
        k0 = lambda t: -np.log(t) / (2.0 * np.pi)
    elif variant.startswith("Gsqg"):
        beta = model.params["beta"]
        k0 = lambda t: cmkernel.c_beta(beta) * t ** (-beta)
    else:
        eps = model.params["eps"]
        k0 = lambda t: sp.k0(eps * t) / (2.0 * np.pi)

    def f(eta):
        t = np.sqrt(1.0 + b * b - 2.0 * b * np.cos(eta))
        return k0(t) * np.cos(n * eta)

    return periodic_trapezoid(f, tol=1e-12, n0=512, n_max=1 << 18)


@pytest.mark.parametrize("model", [
    models.euler_plane(),
    models.gsqg_plane(0.5),
    models.gsqg_plane(0.8),
    models.qgsw_plane(2.0),
])
def test_closed_lambda_against_fourier_oracle(model):
    for n, b in ((1, 0.5), (2, 0.3), (4, 0.8)):
        lam = models.closed_lambda(model, [n], b, b)[0]
        lamt = models.closed_lambda(model, [n], b, 1.0)[0]
        # tanh-sinh stalls near 1e-8 for the strongest power singularity
        assert lam == pytest.approx(_lambda_fourier_oracle(model, n, b),
                                    rel=1e-7, abs=1e-9)
        assert lamt == pytest.approx(_lambda_tilde_fourier_oracle(model, n, b),
                                     rel=1e-9, abs=1e-11)


def test_euler_lambda_closed_values():
    model = models.euler_plane()
    for n in range(1, 8):
        assert models.closed_lambda(model, [n], 0.5, 0.5)[0] == pytest.approx(
            1.0 / (2 * n), rel=1e-15)
        assert models.closed_lambda(model, [n], 0.5, 1.0)[0] == pytest.approx(
            0.5 ** n / (2 * n), rel=1e-15)


def test_qgsw_lambda_is_bessel_product():
    model = models.qgsw_plane(1.5)
    n, b = 3, 0.4
    assert models.closed_lambda(model, [n], b, b)[0] == pytest.approx(
        sp.iv(n, b * 1.5) * sp.kv(n, b * 1.5), rel=1e-13)
    assert models.closed_lambda(model, [n], b, 1.0)[0] == pytest.approx(
        sp.iv(n, b * 1.5) * sp.kv(n, 1.5), rel=1e-13)


def test_gsqg_lambda_matches_gamma_ratio_weights():
    # independent closed oracle: the Fourier coefficients of
    # |2 sin(eta/2)|^{-beta} are 2 pi G(1-beta) G(n+beta/2) /
    # (G(beta/2) G(1-beta/2) G(n+1-beta/2)), so
    # lambda_{n,b} = c_beta b^{-beta} W_n
    from scipy.special import gammaln
    for beta in (0.3, 0.8):
        model = models.gsqg_plane(beta)
        for n, b in ((1, 0.5), (3, 0.3), (6, 0.9)):
            w = math.exp(math.log(2.0 * math.pi) + gammaln(1.0 - beta)
                         - gammaln(beta / 2.0) - gammaln(1.0 - beta / 2.0)
                         + gammaln(n + beta / 2.0)
                         - gammaln(n + 1.0 - beta / 2.0))
            want = cmkernel.c_beta(beta) * b ** (-beta) * w
            assert models.closed_lambda(model, [n], b, b)[0] == pytest.approx(
                want, rel=1e-12)


def test_gsqg_capital_lambda_small_beta_recovers_euler():
    # Lambda_{n,b}(beta)/beta -> pi b^n / n as beta -> 0 matches the
    # 1/(2n) b^n structure after the c_beta ~ beta/4pi normalization
    n, b = 2, 0.6
    got1 = models.gsqg_capital_lambda([n], b, 1e-5)[0]
    got2 = models.gsqg_capital_lambda([n], b, 2e-5)[0]
    assert got2 / got1 == pytest.approx(1.0, abs=2e-4)


# s = |2 sin((theta - eta)/2)| off the diagonal of a 128-point contour grid
_SPLIT_S = 2.0 * np.abs(np.sin(np.pi * np.arange(1, 128) / 128))
_SPLIT_XFAIL = pytest.mark.xfail(
    strict=True, reason="the QGSW split cancels e^{eps d} against its log "
    "weight at large eps (ROADMAP direction 2)")


@pytest.mark.parametrize("model", [
    models.euler_plane(), models.gsqg_plane(0.1), models.gsqg_plane(0.5),
    models.gsqg_plane(0.9), models.qgsw_plane(0.3), models.qgsw_plane(2.0),
    *(pytest.param(models.qgsw_plane(eps), marks=_SPLIT_XFAIL)
      for eps in (8.0, 10.0, 15.0)),
], ids=lambda m: m.describe())
def test_k0_split_sums_to_the_unsplit_kernel(model):
    # sing W(s) + smooth at d = g s, with W the singular weight s^-beta or
    # log s, is the unsplit kernel, velocity and stream, for g in {0.3, 1}
    beta = model.singular_exponent
    weight = np.log(_SPLIT_S) if beta is None else _SPLIT_S ** -beta
    for g in (0.3, 1.0):
        d = g * _SPLIT_S
        for stream in (False, True):
            whole, none = model.k0_factors(d, None, stream)
            sing, smooth = model.k0_factors(d, np.full_like(d, g), stream)
            split = sing * weight + (0.0 if smooth is None else smooth)
            assert none is None
            assert (np.max(np.abs(split - whole))
                    <= 1e-14 * np.max(np.abs(whole))), (g, stream)


def test_stream_series_from_harmonic_sums_equals_the_digamma_form():
    # the series of the QGSW stream kernel, built from math, is bit for bit
    # [psi(k+1) + psi(k+2)] / (4 k! (k+1)!) from scipy's digamma, factorial
    digamma = np.array([(sp.digamma(k + 1.0) + sp.digamma(k + 2.0))
                        / (4.0 * sp.factorial(k) * sp.factorial(k + 1))
                        for k in range(7, -1, -1)])
    assert models._STREAM_SERIES.tobytes() == digamma.tobytes()


# ---------------------------------------------------------------------------
# smooth kernel part: values, gradients, Fourier coefficients
# ---------------------------------------------------------------------------

def _p_fourier_oracle(model, n, rx, ry):
    def f(eta):
        return np.array([models.k1_point(model, rx,
                                         ry * cmath.exp(1j * float(e)))[0]
                         * math.cos(n * float(e)) for e in np.atleast_1d(eta)])

    return periodic_trapezoid(f, tol=1e-13, n0=256, n_max=4096)


@pytest.mark.parametrize("model", [
    models.euler_disc(2.0),
    models.euler_annulus(0.1, 10.0),
    models.euler_exterior(0.1),
])
def test_closed_p_against_kernel_fourier(model):
    b = 0.5
    for n in (1, 2, 5):
        p_nb, p_n1, pt_nb = (c[0] for c in models.closed_p(model, [n], b))
        assert p_nb == pytest.approx(_p_fourier_oracle(model, n, b, b),
                                     rel=1e-10, abs=1e-12)
        assert p_n1 == pytest.approx(_p_fourier_oracle(model, n, 1.0, 1.0),
                                     rel=1e-10, abs=1e-12)
        assert pt_nb == pytest.approx(_p_fourier_oracle(model, n, b, 1.0),
                                      rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("model, b", [
    (models.euler_annulus(0.1, 10.0), 0.100001),
    (models.euler_annulus(0.1, 10.0), 0.2),
    (models.euler_annulus(0.1, 10.0), 0.999),
    (models.euler_exterior(0.3), 0.300001),
])
def test_closed_forms_finite_at_the_largest_fold_mode(model, b):
    """n = 640 = k_max * _FOLD_CAP is the largest mode min_fold reaches."""
    import mpmath
    from vstates import dispersion
    n = 640
    p = [c[0] for c in models.closed_p(model, [n], b)]
    assert all(math.isfinite(v) for v in p)
    assert all(math.isfinite(v) for v in models.c_terms(model, b))
    assert dispersion.annulus_fold_inequality(model, b, [n]).dtype == bool

    # unscaled a_m / b_m formula at 50 digits; R2 = 10^400 for the exterior
    # leaves relative corrections of 10^-512000
    with mpmath.workdps(50):
        r1, bb = mpmath.mpf(model.domain[0]), mpmath.mpf(b)
        r2 = (mpmath.mpf(model.domain[1]) if model.domain[1] < math.inf
              else mpmath.mpf(10) ** 400)
        den = r2 ** (2 * n) - r1 ** (2 * n)

        def a_m(r):
            return (r ** n - (r1 * r1 / r) ** n) / den

        def b_m(r):
            return r1 ** (2 * n) * ((r2 * r2 / r) ** n - r ** n) / den

        want = (-(a_m(bb) * bb ** n + b_m(bb) * bb ** -n) / (2 * n),
                -(a_m(1) + b_m(1)) / (2 * n),
                -(a_m(1) * bb ** n + b_m(1) * bb ** -n) / (2 * n))
        for got, ref in zip(p, want):
            # values below the double range underflow to zero
            assert abs(got - ref) <= 1e-13 * abs(ref) + 1e-300, (got, ref)


# modes of the column checks: small, around the old factorial overflow at
# 171, and n = 640 = k_max * _FOLD_CAP, the largest mode min_fold reaches
COLUMN_MODES = np.array([1, 2, 64, 128, 171, 640])

# (model, b): QGSW at x = b eps in {0.02, 0.6, 4, 40} and gSQG up to b = 1;
# from b^2 = 0.9973 on, scipy's F overflows for n > 170 and gSQG takes the
# 1 - z connection formula there
PLANE_COLUMN_CASES = [
    (models.qgsw_plane(2.0), 0.01), (models.qgsw_plane(2.0), 0.3),
    (models.qgsw_plane(5.0), 0.8), (models.qgsw_plane(50.0), 0.8),
    (models.gsqg_plane(0.5), 0.3), (models.gsqg_plane(0.5), 0.9),
    (models.gsqg_plane(0.5), 0.99), (models.gsqg_plane(0.5), 0.999709),
    (models.gsqg_plane(0.5), 0.9999), (models.gsqg_plane(0.5), 1.0),
]


def _plane_lambdas_mpmath(model, n, b):
    """(lambda_{n,b}, lambda_{n,1}, lambda-tilde_{n,b}) at 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        b = mpmath.mpf(b)
        if model.k0[0] == "bessel":
            eps = mpmath.mpf(model.params["eps"])
            i_b = mpmath.besseli(n, b * eps)
            return (i_b * mpmath.besselk(n, b * eps),
                    mpmath.besseli(n, eps) * mpmath.besselk(n, eps),
                    i_b * mpmath.besselk(n, eps))
        beta = mpmath.mpf(model.params["beta"])
        a = beta / 2

        def cap(x):
            return (2 * mpmath.pi * cmkernel.c_beta(model.params["beta"])
                    * x ** n * mpmath.rf(a, n) / mpmath.factorial(n)
                    * mpmath.hyp2f1(a, n + a, n + 1, x * x))

        return b ** -beta * cap(mpmath.mpf(1)), cap(mpmath.mpf(1)), cap(b)


@pytest.mark.parametrize("model, b", PLANE_COLUMN_CASES,
                         ids=[f"{m.variant}-{b}" for m, b in PLANE_COLUMN_CASES])
def test_closed_lambda_columns_against_mpmath(model, b):
    got = tuple(models.closed_lambda(model, COLUMN_MODES, y, x)
                for y, x in ((b, b), (1.0, 1.0), (b, 1.0)))
    for i, n in enumerate(COLUMN_MODES):
        want = _plane_lambdas_mpmath(model, int(n), b)
        for col, ref in zip(got, want):
            # values below the double range underflow to zero
            assert abs(col[i] - ref) <= 1e-12 * abs(ref) + 1e-300, (n, col[i])


@pytest.mark.parametrize("model, b", [
    (models.euler_annulus(0.1, 10.0), 0.5),
    (models.euler_annulus(0.6, 1.3), 0.9),
    (models.euler_exterior(0.3), 0.300001),
    (models.euler_exterior(0.3), 0.7),
])
def test_closed_p_columns_against_mpmath(model, b):
    import mpmath
    got = models.closed_p(model, COLUMN_MODES, b)
    with mpmath.workdps(50):
        r1, bb = mpmath.mpf(model.domain[0]), mpmath.mpf(b)
        r2 = (mpmath.mpf(model.domain[1]) if model.domain[1] < math.inf
              else mpmath.mpf(10) ** 400)
        for i, n in enumerate(COLUMN_MODES.tolist()):
            den = r2 ** (2 * n) - r1 ** (2 * n)

            def a_m(r):
                return (r ** n - (r1 * r1 / r) ** n) / den

            def b_m(r):
                return r1 ** (2 * n) * ((r2 * r2 / r) ** n - r ** n) / den

            want = (-(a_m(bb) * bb ** n + b_m(bb) * bb ** -n) / (2 * n),
                    -(a_m(1) + b_m(1)) / (2 * n),
                    -(a_m(1) * bb ** n + b_m(1) * bb ** -n) / (2 * n))
            for col, ref in zip(got, want):
                assert abs(col[i] - ref) <= 1e-12 * abs(ref) + 1e-300, (n,)


@pytest.mark.parametrize("eps, r, b", [(2.0, 2.0, 0.3), (0.5, 3.0, 0.7),
                                      (5.0, 1.2, 0.05)])
def test_qgsw_disc_closed_p_against_mpmath(eps, r, b):
    # p_{n,x} = -(K_n(eps R)/I_n(eps R)) I_n(eps x)^2 and p-tilde_{n,b} =
    # -(K_n(eps R)/I_n(eps R)) I_n(eps b) I_n(eps), unscaled at 40 digits
    import mpmath
    ns = np.array([1, 40, 128])
    got = models.closed_p(models.qgsw_disc(eps, r), ns, b)
    with mpmath.workdps(40):
        for i, n in enumerate(ns.tolist()):
            ratio = (mpmath.besselk(n, eps * r)
                     / mpmath.besseli(n, eps * r))
            i_b, i_1 = mpmath.besseli(n, eps * b), mpmath.besseli(n, eps)
            want = (-ratio * i_b * i_b, -ratio * i_1 * i_1,
                    -ratio * i_b * i_1)
            for col, ref in zip(got, want):
                # values below the double range underflow to zero
                assert abs(col[i] - ref) <= 1e-13 * abs(ref) + 1e-300, (n,)


@pytest.mark.parametrize("model, b", PLANE_COLUMN_CASES + [
    (models.euler_plane(), 0.4), (models.euler_disc(2.0), 0.7),
    (models.qgsw_disc(2.0, 2.0), 0.5),
    (models.euler_annulus(0.1, 10.0), 0.2), (models.euler_exterior(0.3), 0.5),
], ids=lambda v: getattr(v, "variant", str(v)))
def test_array_calls_equal_scalar_calls(model, b):
    ns = COLUMN_MODES
    cols = [models.closed_lambda(model, ns, b, b),
            models.closed_lambda(model, ns, b, 1.0)]
    scalars = [[models.closed_lambda(model, [n], b, b) for n in ns],
               [models.closed_lambda(model, [n], b, 1.0) for n in ns]]
    if b < 1.0:
        cols += list(models.closed_p(model, ns, b))
        scalars += [list(p) for p in zip(*(models.closed_p(model, [n], b)
                                           for n in ns))]
    for col, ref in zip(cols, scalars):
        assert all(r.shape == (1,) for r in ref)
        np.testing.assert_allclose(col, np.concatenate(ref), rtol=1e-12,
                                   atol=1e-300)


def test_overflow_cases_are_finite():
    from vstates import dispersion
    assert np.isfinite(models.gsqg_capital_lambda([171], 1.0, 0.5)).all()
    assert np.isfinite(dispersion.dispersion_point(
        models.qgsw_plane(2.0), [128], 0.01).delta).all()
    # a vstate threshold job of the benchmark: min_fold tries modes to 640
    ns = np.arange(641)
    assert np.isfinite(models.gsqg_capital_lambda(ns, 0.999709, 0.5)).all()


def test_plane_models_have_no_smooth_part():
    assert [c.tolist() for c in models.closed_p(models.euler_plane(), [3],
                                                0.5)] == [[0.0]] * 3
    for model in (models.euler_plane(), models.qgsw_plane(2.0),
                  models.custom_convolution(cmkernel.gsqg_power(0.5))):
        assert models.k1_point(model, 0.5, 0.3 + 0.1j) == (0.0, 0j)


@pytest.mark.parametrize("model", [models.qgsw_disc(2.0, 2.0),
                                   models.gsqg_disc(0.5, 2.0)],
                         ids=lambda m: m.variant)
def test_k1_point_refuses_a_k1_but_the_green_series(model):
    # the point route has only the log kernel's Green series; on the
    # other discs it gave that series' value instead of the model's K1
    with pytest.raises(ValueError, match=repr(model.variant)):
        models.k1_point(model, 0.5, 0.3 + 0.2j)


def test_k1_series_is_private():
    # K1 is read at a point or over the patch, never through its series
    assert "k1_series" not in models.__all__
    assert {"k1_point", "k1_patch"} <= set(models.__all__)


def test_k1_symmetry():
    for model in (models.euler_disc(3.0), models.euler_annulus(0.2, 5.0)):
        x, y = 0.5 * cmath.exp(0.3j), 0.8 * cmath.exp(-1.1j)
        assert models.k1_point(model, x, y)[0] == pytest.approx(
            models.k1_point(model, y, x)[0], rel=1e-12)
        # rotation invariance
        rot = cmath.exp(0.7j)
        assert models.k1_point(model, rot * x, rot * y)[0] == pytest.approx(
            models.k1_point(model, x, y)[0], rel=1e-12)


@pytest.mark.parametrize("model", [
    models.euler_disc(2.0),
    models.euler_annulus(0.1, 10.0),
    models.euler_exterior(0.1),
])
def test_k1_grad_matches_finite_differences(model):
    x, y = 0.6 * cmath.exp(0.4j), 0.9 * cmath.exp(-0.8j)
    g = models.k1_point(model, x, y)[1]
    h = 1e-6
    fd_re = (models.k1_point(model, x + h, y)[0]
             - models.k1_point(model, x - h, y)[0]) / (2 * h)
    fd_im = (models.k1_point(model, x + 1j * h, y)[0]
             - models.k1_point(model, x - 1j * h, y)[0]) / (2 * h)
    assert g.real == pytest.approx(fd_re, abs=1e-8)
    assert g.imag == pytest.approx(fd_im, abs=1e-8)


@pytest.mark.parametrize("model, radii", [
    # q = rho t / R^2 for the disc, R^2 / (rho t) for the exterior; the
    # last pair of each sits at q >= 0.9, where the series runs ~360 terms
    (models.euler_disc(2.0), [(0.3, 1.2), (1.0, 1.0), (1.5, 1.8),
                              (1.9, 1.9)]),
    (models.euler_exterior(0.3), [(0.9, 2.0), (0.5, 0.6), (0.35, 0.4),
                                  (0.3154, 0.3154)]),
])
def test_k1_matches_image_log_kernel(model, radii):
    r = model.params["r"]
    for rho, t in radii:
        for dang in (0.0, 0.4, 2.5):
            x, y = rho * cmath.exp(0.3j + 1j * dang), t * cmath.exp(0.3j)
            f = r - x * y.conjugate() / r
            want = math.log(abs(f)) / (2.0 * math.pi)
            want_grad = (-y.conjugate() / r / f).conjugate() / (2.0 * math.pi)
            val, grad = models.k1_point(model, x, y)
            assert abs(val - want) < 1e-13
            assert abs(grad - want_grad) < 1e-13


def test_annulus_c_frak_closed_form():
    r1, r2, b = 0.1, 10.0, 0.5
    want = ((-(b * b / 2.0) * math.log(b) - (1.0 - b * b) / 4.0
             - ((1.0 - b * b) / 2.0) * math.log(r2)) / math.log(r1 / r2))
    assert oracles.annulus_c_frak(r1, r2, b) == pytest.approx(want, rel=1e-15)


def test_annulus_c_frak_against_kernel_quadrature():
    # c_frak = b^2 V^1 with V^1 assembled from the radial average of the
    # smooth-kernel gradient over the inner circle against the patch
    r1, r2, b = 0.3, 4.0, 0.5
    model = models.euler_annulus(r1, r2)
    v1 = dispersion.dispersion_point(model, [1], b).v1
    gl_x, gl_w = np.polynomial.legendre.leggauss(64)
    rho = 0.5 * (1.0 + b) + 0.5 * (1.0 - b) * gl_x
    wts = 0.5 * (1.0 - b) * gl_w * rho

    def angular(eta):
        vals = np.zeros_like(eta)
        for r, w in zip(rho, wts):
            for i, e in enumerate(np.atleast_1d(eta)):
                g = models.k1_point(model, b + 0j,
                                    r * cmath.exp(1j * float(e)))[1]
                vals[i] += w * g.real
        return vals

    # d/drho of int int K1(rho e^{i theta}, y) dA(y) at rho = b equals b V^1
    flux = periodic_trapezoid(angular, tol=1e-11, n0=32, n_max=256)
    assert flux / b == pytest.approx(v1, rel=1e-8)


# ---------------------------------------------------------------------------
# summation identities and series-vs-closed routes
# ---------------------------------------------------------------------------

def test_qgsw_summation_identity_samples():
    samples = [(0.9, 0.4, 1.0), (0.7, 0.7, 2.0), (0.5, 0.2, 0.5),
               (0.95, 0.9, 3.0), (0.8, 0.6, 1.0)]
    for x, y, e in samples:
        series, closed = models.qgsw_disc_identity(x, y, e, truncation=500)
        assert abs(series - closed) < 1e-6


def test_qgsw_identity_input_validation():
    with pytest.raises(ValueError):
        models.qgsw_disc_identity(0.4, 0.9, 1.0)   # needs Y <= X


def test_sneddon_series_matches_integral_form():
    sets = [(1, 1, 1, 1.5, 0.6, 0.6), (2, 2, 2, 1.5, 0.8, 0.8),
            (1, 1, 1, 1.25, 0.4, 0.9)]
    for bi, gi, n, q, a, bb in sets:
        series = models.sneddon_series(bi, gi, n, q, a, bb, truncation=2000)
        closed = models.sneddon_integral(bi, gi, n, q, a, bb)
        assert abs(series - closed) < 1e-5


# vstate verify's Sneddon sets, and the (x, y, eps) samples of its
# summation identity
_VERIFY_SNEDDON = [(1, 1, 1, 1.5, 0.6, 0.6), (2, 2, 2, 1.5, 0.8, 0.8),
                   (1, 1, 1, 1.25, 0.4, 0.9)]
_VERIFY_IDENTITY = [(0.9, 0.4, 1.0), (0.7, 0.7, 2.0), (0.5, 0.2, 0.5),
                    (0.95, 0.9, 3.0), (0.8, 0.6, 1.0)]


def _power_free(fun, e, lo, hi):
    # int_lo^hi fun(x) dx for fun ~ (x - lo)^e at lo, e > -1, by mpmath
    # after x = lo + (hi - lo) v^m, m = 1/(e + 1), which removes the power
    import mpmath
    m = 1 / (e + 1)
    return mpmath.quad(lambda v: fun(lo + (hi - lo) * v ** m) * (hi - lo)
                       * m * v ** (m - 1), [0, 1])


@pytest.mark.parametrize("bi, gi, n, q, a, b", _VERIFY_SNEDDON)
def test_sneddon_integral_against_mpmath(bi, gi, n, q, a, b):
    # the node sum against mpmath at 20 digits: the same hypergeometric
    # term plus the integral, whose rho^(1-q+beta+gamma-2n) at 0 is taken
    # out by a change of variable
    import mpmath
    with mpmath.workdps(20):
        a_, b_, q_ = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(q)
        f = lambda r: (r ** (1 - q_) * mpmath.besseli(bi, a_ * r)
                       * mpmath.besseli(gi, b_ * r) * mpmath.besselk(n, r)
                       / mpmath.besseli(n, r))
        integral = (_power_free(f, 1 - q_ + bi + gi - 2 * n, 0, 1)
                    + mpmath.quad(f, [1, 4, 16, 64, mpmath.inf]))
        jterm = (a_ ** bi * mpmath.gamma(1 + (bi + gi - q_) / 2)
                 * mpmath.rgamma((gi - bi + q_) / 2)
                 / (2 ** q_ * b_ ** (2 + bi - q_) * mpmath.gamma(bi + 1))
                 * mpmath.hyp2f1(1 + (bi + gi - q_) / 2,
                                 1 + (bi - gi - q_) / 2, bi + 1,
                                 a_ * a_ / (b_ * b_)))
        want = jterm + (mpmath.sin(mpmath.pi / 2 * (bi + gi - 2 * n - q_))
                        / mpmath.pi * integral)
    got = models.sneddon_integral(bi, gi, n, q, a, b)
    assert abs(got - float(want)) <= 1e-12


@pytest.mark.parametrize("n, k_start, q, eps", sorted(
    {(n, 2001, q, None) for _, _, n, q, _, _ in _VERIFY_SNEDDON}
    | {(0, 501, 2.0, eps) for _, _, eps in _VERIFY_IDENTITY}, key=str))
def test_mcmahon_tail_sum_against_mpmath(n, k_start, q, eps):
    # the tails of verify's series, x^-q for Sneddon and 1/(x^2 + eps^2)
    # for the identity: the integral over k > k_start - 1/2 in w = lo/k,
    # where it is w^(q-2) times a smooth function, plus the same
    # derivative correction
    import mpmath
    weight = ((lambda x: x ** -q) if eps is None
              else (lambda x: 1.0 / (x * x + eps * eps)))
    with mpmath.workdps(30):
        def g(k):
            beta = (k + mpmath.mpf(n) / 2 - mpmath.mpf(1) / 4) * mpmath.pi
            x = beta - (4 * n * n - 1) / (8 * beta)
            return x ** -mpmath.mpf(q) if eps is None else 1 / (x * x + eps ** 2)

        lo, h = mpmath.mpf(k_start) - mpmath.mpf(1) / 2, mpmath.mpf("1e-3")
        want = (_power_free(lambda w: g(lo / w) * lo / w ** 2, q - 2, 0, 1)
                + (g(lo + h) - g(lo - h)) / (2 * h) / 24)
    got = models._mcmahon_tail_sum(n, k_start, weight, q)
    assert got == pytest.approx(float(want), rel=1e-12)


def test_sneddon_admissibility_window():
    with pytest.raises(ValueError):
        models.sneddon_series(1, 1, 1, 0.5, 0.5, 0.6)   # q <= 1
    with pytest.raises(ValueError):
        models.sneddon_series(1, 1, 1, 1.5, 0.7, 0.6)   # a > b


@pytest.mark.parametrize("eps,r", [(1.0, 2.0), (2.0, 1.5), (0.5, 3.0)])
@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("b", [0.3, 0.7])
def test_qgsw_disc_series_p_converges_to_closed_form(eps, r, n, b):
    # the QGSW disc Green function has the closed radial coefficients
    # p_{n,x} = -(K_n(eps R)/I_n(eps R)) I_n(eps x)^2 and
    # p-tilde_{n,b} = -(K_n(eps R)/I_n(eps R)) I_n(eps b) I_n(eps);
    # the zero series approaches them like 1/truncation^2
    ratio = sp.kv(n, eps * r) / sp.iv(n, eps * r)
    i_b, i_1 = sp.iv(n, eps * b), sp.iv(n, eps)
    want = -ratio * np.array([i_b * i_b, i_1 * i_1, i_b * i_1])
    model = models.qgsw_disc(eps, r)
    err_500, err_4000 = (
        np.max(np.abs(np.array(oracles.series_p(model, n, b, truncation=t))
                      - want))
        for t in (500, 4000))
    assert err_4000 <= 2e-7
    assert err_500 >= 20.0 * err_4000


def test_qgsw_disc_v_terms_closed_vs_series():
    for eps, r, b in ((1.0, 2.0, 0.5), (2.0, 1.5, 0.3), (0.5, 3.0, 0.7)):
        closed = dispersion.dispersion_point(models.qgsw_disc(eps, r), [1], b)
        series = oracles.qgsw_disc_v_series(eps, r, b, truncation=500)
        assert closed.v1 == pytest.approx(series[0], abs=1e-5)
        assert closed.v2 == pytest.approx(series[1], abs=1e-5)
        assert closed.v2 < 0.0
        assert closed.v1 - closed.v2 > 0.0


def test_gsqg_disc_v_sign_grid():
    for beta in (0.3, 0.7):
        for r in (1.5, 3.0):
            for b in (0.3, 0.6, 0.9):
                p = dispersion.dispersion_point(models.gsqg_disc(beta, r),
                                                [1], b)
                assert p.v2 < 0.0
                assert p.v1 - p.v2 > 0.0


def test_gsqg_disc_large_domain_recovers_plane():
    beta, b = 0.5, 0.5
    disc = dispersion.dispersion_point(models.gsqg_disc(beta, 50.0), [1], b)
    plane = dispersion.dispersion_point(models.gsqg_plane(beta), [1], b)
    assert abs(disc.v1 - plane.v1) < 1e-4
    assert abs(disc.v2 - plane.v2) < 1e-4


GSQG_DISC_GRID = [(beta, r, b) for beta in (0.2, 0.5, 0.8)
                  for r in (1.1, 2.0) for b in (0.3, 0.8)]


@pytest.mark.parametrize("beta, r, b", GSQG_DISC_GRID)
def test_gsqg_disc_closed_p_against_sneddon_route(beta, r, b):
    # the node sum of QGSW-disc closed forms against the Sneddon integrals
    # of oracles.series_p, mode by mode; the two agree to 1.4e-14 on this
    # grid
    model = models.gsqg_disc(beta, r)
    ns = np.arange(1, 6)
    got = np.array(models.closed_p(model, ns, b))
    want = np.array([oracles.series_p(model, int(n), b) for n in ns]).T
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("beta, r, b", [(0.5, 2.0, 0.5), (0.2, 1.1, 0.8),
                                        (0.8, 4.0, 0.3)])
def test_gsqg_disc_c_terms_against_mpmath(beta, r, b):
    # Balakrishnan's integral (2/pi) sin(pi beta/2) int rho^(beta-1)
    # c_QgswDisc(rho) d rho, with unscaled Bessel functions at 20 digits;
    # past rho = s + 40/(R - 1) the integrand is below exp(-80) of its size
    import mpmath
    got = models.c_terms(models.gsqg_disc(beta, r), b)
    with mpmath.workdps(20):
        def c_qgsw(rho, tilde):
            k = mpmath.besselk(0, rho * r) / mpmath.besseli(0, rho * r)
            i_b, i_1 = mpmath.besseli(1, rho * b), mpmath.besseli(1, rho)
            if tilde:
                return -k * i_1 * (i_1 - b * i_b)
            return -k * i_b * (i_1 / b - i_b)

        s = max(1.0, 1.0 / (r - 1.0))
        cuts = [0, 1, s, s + 40.0 / (r - 1.0)]
        for tilde in (False, True):
            want = (2 / mpmath.pi * mpmath.sin(mpmath.pi * beta / 2)
                    * mpmath.quad(lambda x: x ** (beta - 1)
                                  * c_qgsw(x, tilde), sorted(set(cuts))))
            assert abs(got[tilde] - want) <= 1e-12 * abs(want), tilde


@pytest.mark.parametrize("beta, r, b", [(0.5, 2.0, 0.9), (0.2, 1.1, 0.5),
                                        (0.8, 4.0, 0.3)])
def test_gsqg_disc_columns_finite_and_never_positive(beta, r, b):
    # every mode to 256 is finite; some underflow to 0.0 at R = 4, so the
    # check is "never positive", not "negative"
    model = models.gsqg_disc(beta, r)
    cols = np.array(models.closed_p(model, np.arange(1, 257), b))
    assert np.isfinite(cols).all() and (cols <= 0.0).all()
    assert all(c < 0.0 for c in models.c_terms(model, b))


def test_euler_disc_p_terms_closed_values():
    r, b, n = 2.0, 0.5, 3
    model = models.euler_disc(r)
    p_nb, p_n1, pt_nb = (c[0] for c in models.closed_p(model, [n], b))
    assert p_nb == pytest.approx(-(b * b / r ** 2) ** n / (2 * n), rel=1e-14)
    assert p_n1 == pytest.approx(-r ** (-2 * n) / (2 * n), rel=1e-14)
    assert pt_nb == pytest.approx(-(b / r ** 2) ** n / (2 * n), rel=1e-14)


def test_euler_plane_v_constants():
    p = dispersion.dispersion_point(models.euler_plane(), [1], 0.5)
    assert p.v1 == 0.0
    assert p.v2 == pytest.approx((0.25 - 1.0) / 2.0, rel=1e-15)


def test_exterior_v_constants():
    p = dispersion.dispersion_point(models.euler_exterior(0.1), [1], 0.5)
    assert p.v1 == pytest.approx((1.0 - 0.25) / (2.0 * 0.25), rel=1e-14)
    assert p.v2 == 0.0
