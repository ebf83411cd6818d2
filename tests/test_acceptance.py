"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with -s to see the per-criterion lines."""

import math
import time

import numpy as np
import pytest

from vstates import cmkernel, contour, dispersion, models, universal

import oracles


def _report(num: int, label: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {tag} {label} {detail}".rstrip())
    assert ok, f"criterion {num}: {label} {detail}"


def test_criterion_01_euler_spectrum_via_measure_quadrature():
    start = time.monotonic()
    custom = models.custom_convolution(cmkernel.euler_flat())
    worst = 0.0
    for b in (0.3, 0.5, 0.8):
        for n in range(1, 11):
            row = dispersion.spectral_row(custom, [n], b)
            worst = max(worst,
                        abs(row.lam_nb[0] - 1.0 / (2 * n)) / (1.0 / (2 * n)),
                        abs(row.lamt_nb[0] - b ** n / (2 * n))
                        / (b ** n / (2 * n)))
    elapsed = time.monotonic() - start
    _report(1, "Euler spectrum, quadrature route",
            worst < 1e-7 and elapsed < 10.0,
            f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_dispersion_degenerate_and_split_points():
    p3, p4 = (dispersion.dispersion_point(models.euler_plane(), [n], 0.5)
              for n in (3, 4))
    half = math.sqrt(63.0) / 128.0
    ok = (abs(p3.delta[0]) < 1e-12
          and abs(p3.omega_plus[0] - 0.1875) < 1e-9
          and abs(p3.omega_minus[0] - 0.1875) < 1e-9
          and abs(p4.delta[0] - 63.0 / 4096.0) < 1e-9
          and abs(p4.omega_plus[0] - (0.1875 + half)) < 1e-9
          and abs(p4.omega_minus[0] - (0.1875 - half)) < 1e-9)
    _report(2, "degenerate point and split roots", ok,
            f"(Delta_3 = {p3.delta[0]:.2e}, Delta_4 = {p4.delta[0]:.10f})")


def test_criterion_03_phi_bounds_grid():
    start = time.monotonic()
    ns = range(1, 21)
    xs = np.geomspace(1e-2, 300.0, 30)
    slack = 1e-12     # the upper bound is attained in the x -> 0 limit
    ok = True
    for n in ns:
        for x in xs:
            val = universal.phi_n([n], float(x))[0]
            base = x / (n * n + x * x)
            lo = 8.0 * n * n / (4.0 * n * n + 1.0) * base
            hi = 8.0 * n * n / (4.0 * n * n - 1.0) * base
            if not (lo - slack <= val <= hi + slack):
                ok = False
    elapsed = time.monotonic() - start
    _report(3, "phi two-sided bounds on 20x30 grid",
            ok and elapsed < 30.0, f"({elapsed:.1f}s)")


def test_criterion_04_phi_nb_strict_decrease():
    # for small b the coefficients decay like b^n, so the n = 20 comparison
    # sits below double-precision quadrature noise (~1e-16); evaluate the
    # defining integral in extended precision instead
    import mpmath

    def phi_nb_mp(n, b, x):
        f = lambda eta: (mpmath.e ** (-x * mpmath.sqrt(1 + b * b
                                                       - 2 * b * mpmath.cos(eta)))
                         * mpmath.cos(n * eta))
        with mpmath.workdps(40):
            return 2 * mpmath.quad(f, [0, mpmath.pi])

    ok = True
    for b in (0.2, 0.5, 0.8, 1.0):
        for x in (1.0, 5.0, 20.0):
            vals = [phi_nb_mp(n, b, x) for n in range(1, 22)]
            if not all(u > v for u, v in zip(vals, vals[1:])):
                ok = False
            # extended precision agrees with the library evaluator where
            # the latter is resolvable
            lib = universal.phi_nb([1], b, x)[0]
            if abs(lib - float(vals[0])) > 1e-10 * max(1.0, abs(lib)):
                ok = False
    _report(4, "strict decrease of phi_{n,b} in n", ok)


def test_criterion_05_psi_positivity_and_inner_integral():
    xs = np.linspace(20.0 / 200.0, 20.0, 200)
    psi_min = min(universal.psi_b(0.5, float(x)) for x in xs)
    _, inner = oracles.psi_b_prime0(0.5)
    ok = psi_min > 0.0 and abs(inner - 1.52) < 0.01
    _report(5, "Psi_{0.5} positivity and inner integral", ok,
            f"(min Psi {psi_min:.3e}, I(0.5) = {inner:.4f})")


def test_criterion_06_qgsw_summation_identity():
    start = time.monotonic()
    samples = [(0.9, 0.4, 1.0), (0.7, 0.7, 2.0), (0.5, 0.2, 0.5),
               (0.95, 0.9, 3.0), (0.8, 0.6, 1.0)]
    worst = 0.0
    for x, y, e in samples:
        series, closed = models.qgsw_disc_identity(x, y, e)
        worst = max(worst, abs(series - closed))
    elapsed = time.monotonic() - start
    _report(6, "Bessel-zero summation identity (K=500)",
            worst < 1e-6 and elapsed < 20.0,
            f"(max err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_07_sneddon_formula():
    sets = [(1, 1, 1, 1.5, 0.6, 0.6), (2, 2, 2, 1.5, 0.8, 0.8),
            (1, 1, 1, 1.25, 0.4, 0.9)]
    worst = max(abs(models.sneddon_series(bi, gi, n, q, a, b)
                    - models.sneddon_integral(bi, gi, n, q, a, b))
                for bi, gi, n, q, a, b in sets)
    _report(7, "dual Bessel summation formula", worst < 1e-5,
            f"(max err {worst:.2e})")


def test_criterion_08_qgsw_disc_v_terms():
    worst = 0.0
    signs_ok = True
    for eps, r in ((1.0, 2.0), (2.0, 1.5)):
        for b in (0.3, 0.5, 0.7):
            closed = dispersion.dispersion_point(models.qgsw_disc(eps, r),
                                                 [1], b)
            series = oracles.qgsw_disc_v_series(eps, r, b, truncation=500)
            worst = max(worst, abs(closed.v1 - series[0]),
                        abs(closed.v2 - series[1]))
            signs_ok = signs_ok and closed.v2 < 0.0 and closed.v1 > closed.v2
    _report(8, "QGSW disc velocity constants", worst < 1e-5 and signs_ok,
            f"(max closed-vs-series err {worst:.2e})")


def test_criterion_09_gsqg_disc_signs_and_plane_limit():
    signs_ok = True
    for beta in (0.3, 0.7):
        for r in (1.5, 3.0):
            for b in (0.3, 0.6, 0.9):
                p = dispersion.dispersion_point(models.gsqg_disc(beta, r),
                                                [1], b)
                signs_ok = signs_ok and p.v2 < 0.0 and p.v1 - p.v2 > 0.0
    disc = dispersion.dispersion_point(models.gsqg_disc(0.5, 50.0), [1], 0.5)
    plane = dispersion.dispersion_point(models.gsqg_plane(0.5), [1], 0.5)
    limit_err = max(abs(disc.v1 - plane.v1), abs(disc.v2 - plane.v2))
    _report(9, "gSQG disc signs and large-domain limit",
            signs_ok and limit_err < 1e-4, f"(limit err {limit_err:.2e})")


def test_criterion_10_annulus_threshold_dual_route():
    model = models.euler_annulus(0.1, 10.0)
    thresholds_agree = True
    for b in (0.3, 0.5, 0.8):
        direct = dispersion.min_fold(model, b)[0]
        closed = next(n for n in range(1, 100)
                      if dispersion.annulus_fold_inequality(model, b, [n])[0])
        thresholds_agree = thresholds_agree and direct == closed
    # c_frak closed form vs Gauss-Legendre quadrature of its defining
    # radial integral int_b^1 B_0(r) r dr
    b = 0.5
    green = oracles.AnnulusGreenCoefficients(0.1, 10.0)
    gx, gw = np.polynomial.legendre.leggauss(48)
    r = 0.5 * (1 + b) + 0.5 * (1 - b) * gx
    quad = float(np.sum(0.5 * (1 - b) * gw
                        * np.array([green.b0(v) for v in r]) * r))
    cf_err = abs(quad - oracles.annulus_c_frak(0.1, 10.0, b))
    _report(10, "annulus threshold and c_frak",
            thresholds_agree and cf_err < 1e-12,
            f"(c_frak err {cf_err:.2e})")


def test_criterion_11_contour_jacobian():
    start = time.monotonic()
    worst = 0.0
    for model in (models.euler_plane(), models.euler_annulus(0.1, 10.0)):
        b, m, n_modes = 0.5, 4, 8
        omega = 0.3
        jac = contour.jacobian(model,
                               contour.trivial_state(b, m, n_modes, omega))
        for k in range(1, n_modes + 1):
            n = k * m
            point = dispersion.dispersion_point(model, [n], b)
            target = -n * point.q(omega)[..., 0]
            i = [k - 1, n_modes + k - 1]
            block = jac[np.ix_(i, i)]
            worst = max(worst, float(np.max(np.abs(block - target))
                                     / np.max(np.abs(target))))
    elapsed = time.monotonic() - start
    _report(11, "contour Jacobian vs multiplier blocks",
            worst < 1e-4 and elapsed < 120.0,
            f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_12_branch_tangent():
    b, m = 0.5, 5
    ok = True
    detail = []
    for branch in ("+", "-"):
        pt = dispersion.dispersion_point(models.euler_plane(), [m], b)
        omega0, kvec = dispersion.kernel_root(pt, branch)
        s = 1e-4
        pts = contour.branch_continue(models.euler_plane(), b, m,
                                      branch=branch, s_max=s, steps=1,
                                      n_modes=8)
        st = pts[-1]
        theta = st.theta_grid()
        r1, r2 = st.r_values(theta)
        want1 = kvec[0] * np.cos(m * theta)
        want2 = kvec[1] * np.cos(m * theta)
        num = np.sqrt(np.mean((r1 / s - want1) ** 2 + (r2 / s - want2) ** 2))
        rel = num / np.linalg.norm(kvec)
        ok = ok and rel < 1e-2 and abs(st.omega - omega0) < 1e-3
        detail.append(f"{branch}: tangent {rel:.2e}, "
                      f"dOmega {abs(st.omega - omega0):.2e}")
    _report(12, "branch tangent at s = 1e-4", ok, "(" + "; ".join(detail) + ")")


def test_criterion_13_monotonicity_scan():
    ok = True
    detail = []
    for model, name in ((models.euler_plane(), "EulerPlane"),
                        (models.qgsw_plane(2.0), "QgswPlane"),
                        (models.euler_annulus(0.1, 10.0), "EulerAnnulus")):
        rep = dispersion.monotonicity_scan(model, 0.5, 20, 101)
        lo = -max(rep.v1, rep.v2)
        hi = -min(rep.v1, rep.v2)
        # roots converge into the limits -V^1, -V^2
        tail_gap = min(rep.omega_minus[-1] - lo, hi - rep.omega_plus[-1])
        head_gap = min(rep.omega_minus[0] - lo, hi - rep.omega_plus[0])
        ok = ok and rep.ok and 0.0 < tail_gap < head_gap
        detail.append(f"{name}: {'ok' if rep.ok else rep.first_violation}")
    _report(13, "monotone orderings over n in [20, 120]", ok,
            "(" + "; ".join(detail) + ")")
