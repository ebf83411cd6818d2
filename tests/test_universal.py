"""Universal trigonometric integrals: oracles, bounds and limits."""

import ast
import importlib
import inspect
import math
import pathlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vstates import cmkernel, universal

import oracles


def _phi_oracle(n, x):
    # direct high-precision quadrature of the defining integral
    f = lambda eta: mpmath.e ** (-2 * x * mpmath.sin(eta / 2)) * mpmath.cos(n * eta)
    with mpmath.workdps(30):
        return float(mpmath.quad(f, [0, mpmath.pi, 2 * mpmath.pi]))


@pytest.mark.parametrize("n,x", [(1, 0.5), (1, 3.0), (2, 1.0), (5, 10.0),
                                 (8, 40.0), (3, 200.0)])
def test_phi_n_against_quadrature_oracle(n, x):
    assert universal.phi_n([n], x)[0] == pytest.approx(_phi_oracle(n, x),
                                                       rel=1e-11, abs=1e-13)


def test_phi_n_edge_cases():
    assert universal.phi_n([3], 0.0)[0] == 0.0
    with pytest.raises(ValueError):
        universal.phi_n([0], 1.0)
    with pytest.raises(ValueError):
        universal.phi_n([1], -1.0)


def test_phi_n_rows_equal_single_modes():
    # one row per mode, each the value of phi_n at that mode alone
    ns = np.arange(1, 129)
    x = np.array([0.0, 1e-3, 0.5, 2.0, 17.0, 80.0, 300.0])
    rows = universal.phi_n(ns, x)
    assert rows.shape == (128, 7)
    for n, row in zip(ns.tolist(), rows):
        assert np.array_equal(row, universal.phi_n([n], x)[0])
    # one x gives one entry per mode
    assert universal.phi_n(ns, 2.0).tolist() == [
        universal.phi_n([n], 2.0)[0] for n in ns.tolist()]
    with pytest.raises(ValueError):
        universal.phi_n(np.array([1, 0]), 1.0)


@given(st.integers(1, 30), st.floats(1e-3, 300.0))
@settings(max_examples=80, deadline=None)
def test_phi_n_two_sided_bounds(n, x):
    val = universal.phi_n([n], x)[0]
    base = x / (n * n + x * x)
    lo = 8.0 * n * n / (4.0 * n * n + 1.0) * base
    hi = 8.0 * n * n / (4.0 * n * n - 1.0) * base
    # the upper bound is attained in the x -> 0 limit, so leave room for
    # floating-point noise of the quadrature
    slack = 1e-12
    assert lo - slack <= val <= hi + slack


@given(st.integers(1, 20), st.floats(0.05, 80.0))
@settings(max_examples=60, deadline=None)
def test_phi_difference_bounds(n, x):
    diff = universal.phi_n([n], x)[0] - universal.phi_n([n + 1], x)[0]
    base = ((2 * n + 1.0) * x
            / ((n * n + x * x) * ((n + 1.0) ** 2 + x * x)))
    assert base <= diff + 1e-13
    assert diff <= 8.0 * base + 1e-13


def test_phi_n_ode_residual():
    # phi_n'' + phi_n'/x - 4(1 + n^2/x^2) phi_n = -8/x
    h = 1e-4
    for n, x in ((1, 0.7), (2, 2.0), (4, 5.0)):
        f0, f_plus, f_minus = (universal.phi_n([n], v)[0]
                               for v in (x, x + h, x - h))
        fp = (f_plus - f_minus) / (2 * h)
        fpp = (f_plus - 2 * f0 + f_minus) / (h * h)
        res = fpp + fp / x - 4.0 * (1.0 + n * n / (x * x)) * f0 + 8.0 / x
        assert abs(res) < 1e-4


def test_phi_1_derivative_at_zero():
    h = 1e-5
    assert universal.phi_n([1], h)[0] / h == pytest.approx(8.0 / 3.0,
                                                           abs=1e-4)


@pytest.mark.parametrize("b", [0.3, 0.9])
def test_phi_nb_rows_equal_single_modes(b):
    # one row per mode, each the value of phi_nb at that mode alone: the
    # modes share the exponential tables, each row starts at its own 4n
    # nodes and stops on its own
    ns = np.array([1, 2, 16, 17, 33, 64, 65, 128, 3])
    x = np.array([0.0, 1e-3, 0.5, 2.0, 17.0, 80.0, 300.0])
    rows = universal.phi_nb(ns, b, x)
    assert rows.shape == (9, 7)
    for n, row in zip(ns.tolist(), rows):
        assert np.array_equal(row, universal.phi_nb([n], b, x)[0])
    assert universal.phi_nb(ns, b, 2.0).tolist() == [
        universal.phi_nb([n], b, 2.0)[0] for n in ns.tolist()]
    with pytest.raises(ValueError):
        universal.phi_nb(np.array([1, 0]), b, 1.0)
    # n = 2^18 starts at 2^20 nodes; one more mode would start at the cap
    with pytest.raises(ValueError, match="phi_nb requires n <= 262144"):
        universal.phi_nb(np.array([1, (1 << 18) + 1]), b, 1.0)


def test_trapezoid_rows_start_and_stop_on_their_own():
    # rows with a corner at eta = 0 never agree and run to the cap, the
    # smooth row stops early; each equals the call with its n0 alone
    funs = [lambda eta: np.exp(-np.abs(np.sin(eta / 2.0))) * np.cos(eta),
            lambda eta: np.exp(np.cos(eta)),
            lambda eta: np.abs(np.sin(eta / 2.0)) * np.cos(3 * eta)]
    n0 = [128, 64, 256]
    rows = universal.periodic_trapezoid(
        lambda eta, live: (funs[i](eta) for i in live), n0=n0, n_max=512)
    assert rows == [universal.periodic_trapezoid(f, n0=n, n_max=512)
                    for f, n in zip(funs, n0)]
    # a row that starts at the cap would be summed once and never checked
    calls = []
    for start in (512, [128, 1024]):
        with pytest.raises(ValueError, match="n0 < n_max = 512"):
            universal.periodic_trapezoid(calls.append, n0=start, n_max=512)
    assert calls == []


def test_phi_nb_reduces_to_phi_n_at_b_one():
    for n, x in ((1, 0.5), (3, 2.0), (6, 10.0)):
        # at b = 1 the integrand of phi_nb has the same corner as phi_n but
        # is evaluated by the trapezoid rule, which stalls around 1e-11
        assert universal.phi_nb([n], 1.0, x)[0] == pytest.approx(
            universal.phi_n([n], x)[0], rel=1e-9, abs=1e-10)


@given(st.integers(1, 10), st.floats(0.1, 0.95), st.floats(0.01, 40.0))
@settings(max_examples=60, deadline=None)
def test_phi_nb_positive_below_exponential_envelope(n, b, x):
    val = universal.phi_nb([n], b, x)[0]
    assert 0.0 < val <= 2.0 * math.pi * math.exp(-(1.0 - b) * x) + 1e-14


def test_phi_nb_strictly_decreasing_in_n():
    for b in (0.2, 0.5, 0.8, 1.0):
        for x in (0.5, 2.0, 10.0, 50.0):
            vals = [universal.phi_nb([n], b, x)[0] for n in range(1, 12)]
            assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_rodrigues_form_matches_phi_1b():
    for b, x in ((0.3, 1.0), (0.5, 4.0), (0.9, 0.7)):
        assert universal.phi_1b_closed(b, x) == pytest.approx(
            universal.phi_nb([1], b, x)[0], rel=1e-9, abs=1e-12)


def test_small_b_limit_of_phi_1b():
    # (1/b) phi_{1,b}(x) -> pi x e^{-x}
    x = 2.0
    want = math.pi * x * math.exp(-x)
    for b, tol in ((1e-2, 2e-2), (1e-3, 2e-3)):
        got = universal.phi_nb([1], b, x)[0] / b
        assert abs(got - want) < tol * want


def test_psi_half_positive_on_grid():
    xs = np.linspace(0.1, 20.0, 100)
    vals = [universal.psi_b(0.5, x) for x in xs]
    assert min(vals) > 0.0
    assert universal.psi_b(0.5, 0.0) == 0.0


def test_psi_prime_zero_inner_integral():
    deriv, inner = oracles.psi_b_prime0(0.5)
    # independent oracle for I(b) = int_{-1}^1 sqrt((1-y^2)/(1+b^2-2by)) dy
    f = lambda y: mpmath.sqrt((1 - y ** 2) / (1.25 - y))
    with mpmath.workdps(30):
        want = float(mpmath.quad(f, [-1, 1]))
    assert inner == pytest.approx(want, rel=1e-10)
    assert deriv == pytest.approx((8.0 / 3.0) * 1.5 - 2.5 * inner, rel=1e-12)


def test_psi_prime_zero_small_x_slope():
    # Psi_b(x)/x near 0 approaches Psi_b'(0)
    b = 0.5
    deriv, _ = oracles.psi_b_prime0(b)
    slope = universal.psi_b(b, 1e-4) / 1e-4
    assert slope == pytest.approx(deriv, abs=1e-3)


def test_periodic_trapezoid_spectral():
    got = universal.periodic_trapezoid(lambda t: np.exp(np.cos(t)))
    with mpmath.workdps(30):
        want = 2.0 * math.pi * float(mpmath.besseli(0, 1))
    assert got == pytest.approx(want, rel=1e-13)


def test_gauss_rule_is_cached_and_read_only():
    gx, gw = universal._gauss_rule(24)
    assert universal._gauss_rule(24)[0] is gx
    with pytest.raises(ValueError):
        gx[0] = 0.0
    with pytest.raises(ValueError):
        gw[0] = 0.0


def test_leggauss_is_called_only_in_gauss_rule():
    # each Gauss rule is an eigenvalue solve; the package takes every
    # Gauss-Legendre and Gauss-Jacobi rule from the cache of _gauss_rule,
    # which builds the Jacobi rules itself: scipy's roots_jacobi is called
    # nowhere
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "vstates"
    inside, outside = {"leggauss(": 0, "roots_jacobi(": 0}, []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        spans = [(node.lineno, node.end_lineno)
                 for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_gauss_rule"]
        for lineno, line in enumerate(text.splitlines(), 1):
            for name in (name for name in inside if name in line):
                if any(lo <= lineno <= hi for lo, hi in spans):
                    inside[name] += 1
                else:
                    outside.append(f"{path.name}:{lineno}")
    assert outside == []
    assert inside == {"leggauss(": 1, "roots_jacobi(": 0}


def test_dispersion_names_no_density_family():
    # the one quadrature route of a custom measure, its node rule over
    # Measure.support() and Measure.density, lies behind models.closed_lambda;
    # dispersion reads neither the measure nor the universal functions, and
    # only models imports scipy's quadrature
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "vstates"
    text = (src / "dispersion.py").read_text()
    for name in ("euler_flat", "gsqg_power", "qgsw_shifted", "truncated_low",
                 "truncated_high", "family", "support()", "density",
                 "_node_sums", "phi_n", "phi_nb", "psi_b"):
        assert name not in text
    for path in sorted(src.glob("*.py")):
        if path.name != "models.py":
            text = path.read_text()
            assert "scipy.integrate" not in text, path.name
            assert "import integrate" not in text, path.name


@pytest.mark.parametrize("name", ["specfun", "cmkernel", "universal",
                                  "models", "dispersion", "contour"])
def test_all_lists_exactly_the_public_functions_and_classes(name):
    module = importlib.import_module(f"vstates.{name}")
    public = {key for key, value in vars(module).items()
              if not key.startswith("_")
              and (inspect.isfunction(value) or inspect.isclass(value))
              and value.__module__ == module.__name__}
    listed = {key for key in module.__all__
              if inspect.isfunction(getattr(module, key))
              or inspect.isclass(getattr(module, key))}
    assert listed == public


def test_gauss_jacobi_rule_is_cached_and_integrates_its_weight():
    gx, gw = universal._gauss_rule(32, 0.5)
    assert universal._gauss_rule(32, 0.5)[0] is gx
    with pytest.raises(ValueError):
        gw[0] = 0.0
    # int_{-1}^{1} (1 + t)^a t^2 dt, exact for a rule of order 32
    want = 2 ** 1.5 * (4 / 3.5 - 4 / 2.5 + 1 / 1.5)
    assert float(np.sum(gw * gx ** 2)) == pytest.approx(want, rel=1e-14)


def _jacobi_exponents() -> list[float]:
    # every a != 0 the package passes to _gauss_rule(32, a): the endpoint
    # exponent and the tail -b of Measure.support() for the measures of the
    # tests and the benchmark, and the endpoint and tail exponents of
    # Sneddon's integral and of the McMahon tail at vstate verify's sets
    # and on the gSQG disc test route (q = 2 - beta)
    support = [cmkernel.gsqg_power(beta).support() for beta in (0.5, 0.6)]
    support.append(cmkernel.qgsw_shifted(2.0).support())
    exps = {e for _, _, a, b in support for e in (a, -b)}
    sneddon = [(1, 1, 1, 1.5), (2, 2, 2, 1.5), (1, 1, 1, 1.25)]
    sneddon += [(n, n, n, 2.0 - beta) for n in (1, 2) for beta in (0.2, 0.5)]
    exps |= {e for bi, gi, n, q in sneddon
             for e in (1.0 - q + bi + gi - 2 * n, q - 2.0)}
    return sorted(exps - {0.0})


@pytest.mark.parametrize("a", _jacobi_exponents())
def test_gauss_jacobi_rule_matches_roots_jacobi(a):
    # the numpy Golub-Welsch rule against scipy's, whose nodes it matches
    # to rounding (worst 2.2e-16).  scipy's weights, from P_31 P_32' by its
    # hypergeometric route, are themselves off the exact ones by up to
    # 1.7e-12 relative on these exponents, so they are met to 2e-12; the
    # exact weights, at the nodes refined at 40 digits, are met to 2e-13
    # (worst 8.3e-14, at a = 0.6)
    from scipy.special import roots_jacobi
    gx, gw = universal._gauss_rule(32, a)
    sx, sw = roots_jacobi(32, 0.0, a)
    assert np.max(np.abs(gx - sx)) <= 1e-15
    assert np.max(np.abs(gw / sw - 1.0)) <= 2e-12
    with mpmath.workdps(40):
        am = mpmath.mpf(a)
        for x, w in zip(gx, gw):
            x = mpmath.mpf(x)
            for _ in range(3):
                slope = (33 + am) / 2 * mpmath.jacobi(31, 1, am + 1, x)
                x -= mpmath.jacobi(32, 0, am, x) / slope
            # Gauss-Jacobi weight for (0, a), from P_33 and P_32' at x
            exact = -(2 ** am * (66 + am) / (33 * (33 + am))
                      / (mpmath.jacobi(33, 0, am, x) * slope))
            assert abs(float(w / exact - 1)) <= 2e-13


@pytest.mark.parametrize("a", [-0.9, -0.5, 0.5, 0.9])
def test_gauss_jacobi_rule_is_exact_on_polynomials(a):
    # int_{-1}^{1} (1 + t)^a t^k dt for k <= 63, exact for order 32, from
    # the binomial sum over (s - 1)^k, s = 1 + t, at 90 digits; the worst
    # error is 6.8e-15 mu0, at a = -0.9
    gx, gw = universal._gauss_rule(32, a)
    mu0 = 2.0 ** (a + 1.0) / (a + 1.0)
    with mpmath.workdps(90):
        am = mpmath.mpf(a)
        for k in range(64):
            want = mpmath.fsum(mpmath.binomial(k, j) * (-1) ** (k - j)
                               * 2 ** (am + j + 1) / (am + j + 1)
                               for j in range(k + 1))
            assert abs(float(np.sum(gw * gx ** k) - want)) <= 2e-14 * mu0


@pytest.mark.parametrize("n", [64, 128, 256])
def test_phi_nb_at_high_modes_against_mpmath(n):
    # on a level of n or 2n trapezoid nodes cos(n eta) is constant; starting
    # there, two aliased levels agreed and the doubling stopped at the mean
    for b in (0.5, 0.9):
        for x in (0.1, 1.0):
            f = lambda eta: (mpmath.exp(-x * mpmath.sqrt(
                1 + b * b - 2 * b * mpmath.cos(eta))) * mpmath.cos(n * eta))
            with mpmath.workdps(20):
                want = 2 * mpmath.quad(f, mpmath.linspace(0, mpmath.pi,
                                                          n // 4 + 1),
                                       method="gauss-legendre")
            assert universal.phi_nb([n], b, x)[0] == pytest.approx(
                float(want), rel=0.0, abs=1e-14)


_XS = np.array([0.0, 0.05, 0.5, 1.0, 2.5, 7.0, 20.0, 60.0, 150.0, 300.0])


@pytest.mark.parametrize("b", [0.2, 0.5, 0.9, 1.0])
def test_array_calls_match_scalar_calls(b):
    cases = [lambda x: universal.phi_n([3], x)[0],
             lambda x: universal.phi_nb([2], b, x)[0]]
    if b < 1.0:
        cases.append(lambda x: universal.psi_b(b, x))
    for fun in cases:
        got = fun(_XS)
        assert got.shape == _XS.shape and got[0] == 0.0
        want = np.array([fun(float(x)) for x in _XS])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, abs(want)))
    assert universal.phi_nb([1], b, 0.0)[0] == 0.0


def _plain_trapezoid(f, n_max):
    # the node-doubling recurrence with one unchunked sum per level
    m, h = 64, 2.0 * np.pi / 64
    total = np.sum(f(np.arange(m) * h), axis=-1) * h
    while m < n_max:
        mid = np.arange(m) * h + 0.5 * h
        total = 0.5 * total + np.sum(f(mid), axis=-1) * (0.5 * h)
        m, h = 2 * m, 0.5 * h
    return total


@pytest.mark.parametrize("x,n_max", [(np.linspace(0.0, 20.0, 201), 1 << 12),
                                     (np.array([1.6]), 1 << 20)])
def test_trapezoid_chunks_keep_integrand_arrays_under_the_cap(x, n_max):
    # b = 1 puts a corner at eta = 0, so the sum never converges and runs
    # to n_max; the last levels are wider than the cap.  At x = 1.6 the
    # four chunk sums of the widest level, added in a row instead of
    # pairwise, would change the last bit of the result
    rows, xs = x.size, x[:, None]
    sizes = []

    def integrand(eta):
        vals = np.exp(-2.0 * xs * np.abs(np.sin(eta / 2.0)))
        vals *= np.cos(2 * eta)
        sizes.append(vals.size)
        return vals

    got = universal.periodic_trapezoid(integrand, n_max=n_max)
    assert max(sizes) <= universal._TRAPEZOID_CHUNK
    assert rows * n_max // 2 > universal._TRAPEZOID_CHUNK
    want = _plain_trapezoid(integrand, n_max)
    if rows == 1:  # chunk sums are added as numpy adds one long row
        assert got == want
    else:
        assert np.max(np.abs(got - want)) < 1e-13


def _calls_and_loops():
    # per source file: the function around each _phi_gauss call, and the
    # function around each loop that doubles a counter (*= 2 or <<= 1)
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "vstates"
    calls, loops = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]

        def owner(node):
            around = [f for f in funcs
                      if f.lineno <= node.lineno <= f.end_lineno]
            if not around:
                return "<module>"
            return min(around, key=lambda f: f.end_lineno - f.lineno).name

        for node in ast.walk(tree):
            func = getattr(node, "func", None)  # a Name or an Attribute
            if getattr(func, "id", getattr(func, "attr", "")) == "_phi_gauss":
                calls.append(f"{path.name}:{owner(node)}")
            if isinstance(node, (ast.While, ast.For)) and any(
                    isinstance(s, ast.AugAssign)
                    and isinstance(s.value, ast.Constant)
                    and (isinstance(s.op, ast.Mult) and s.value.value == 2
                         or isinstance(s.op, ast.LShift)
                         and s.value.value == 1)
                    for s in ast.walk(node)):
                loops.append(f"{path.name}:{owner(node)}")
    return calls, loops


def test_one_doubling_loop_per_universal_function():
    # phi_n's order doubling and periodic_trapezoid's node doubling are the
    # only adaptive loops; a private batch copy of either fails here
    calls, loops = _calls_and_loops()
    assert set(calls) == {"universal.py:phi_n"}
    assert sorted(loops) == ["universal.py:periodic_trapezoid",
                             "universal.py:phi_n"]
