"""Contour-dynamics discretization, linearization checks and branches."""

import ast
import math
import pathlib
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from vstates import cmkernel, contour, dispersion, models

import oracles


EULER = models.euler_plane()


def _state(b=0.5, m=4, n=8, omega=0.0):
    return contour.trivial_state(b, m, n, omega)


# ---------------------------------------------------------------------------
# state and geometry
# ---------------------------------------------------------------------------

def test_state_validation():
    with pytest.raises(ValueError):
        contour.PerturbationState(b=0.5, m=0, n_modes=4,
                                  a1=np.zeros(4), a2=np.zeros(4))
    with pytest.raises(ValueError):
        contour.PerturbationState(b=1.5, m=3, n_modes=4,
                                  a1=np.zeros(4), a2=np.zeros(4))
    with pytest.raises(ValueError):
        contour.PerturbationState(b=0.5, m=3, n_modes=4,
                                  a1=np.zeros(3), a2=np.zeros(4))


def test_grid_size():
    st = _state(m=4, n=8)
    assert st.grid_size == 4 * 8 * 4
    assert len(st.theta_grid()) == st.grid_size


def test_radius_positivity_enforced():
    st = _state(b=0.3)
    bad = replace(st, a1=st.a1 + np.array([0.1] + [0.0] * 7))
    with pytest.raises(contour.GeometryError):
        bad.radii(bad.theta_grid())


def test_curve_intersection_detected():
    st = _state(b=0.9)
    bad = replace(st, a1=st.a1 + np.array([0.12] + [0.0] * 7))
    with pytest.raises(contour.GeometryError):
        contour.eval_f0(EULER, bad)


def test_domain_violation_detected():
    model = models.euler_annulus(0.45, 1.2)
    st = _state(b=0.5)
    bad = replace(st, a2=st.a2 + np.array([0.25] + [0.0] * 7))
    with pytest.raises(contour.GeometryError):
        contour.eval_f0(model, bad)


@pytest.mark.parametrize("model, b, a1, a2, message", [
    # m = 2, one mode: the radii peak at theta = 0 as sqrt(b^2 + 2 a1) and
    # sqrt(1 + 2 a2)
    (models.euler_disc(1.2), 0.5, 0.0, 0.25,
     "outer boundary reaches 1.2247 >= R2 = 1.2 (by 2.5e-02)"),
    (models.euler_annulus(0.45, 1.6), 0.5, -0.03, 0.0,
     "inner boundary reaches 0.43589 <= R1 = 0.45 (by 1.4e-02)"),
    (models.euler_annulus(0.3, 1.2), 0.5, 0.0, 0.25,
     "outer boundary reaches 1.2247 >= R2 = 1.2 (by 2.5e-02)"),
    (models.euler_exterior(0.45), 0.5, -0.03, 0.0,
     "inner boundary reaches 0.43589 <= R1 = 0.45 (by 1.4e-02)"),
    (EULER, 0.9, 0.12, 0.0, "boundary curves intersect (by 2.5e-02)"),
], ids=["disc", "annulus-inner", "annulus-outer", "exterior", "intersect"])
def test_geometry_error_names_constraint_and_margin(model, b, a1, a2,
                                                    message):
    st = contour.PerturbationState(b=b, m=2, n_modes=1, a1=[a1], a2=[a2])
    with pytest.raises(contour.GeometryError, match=re.escape(message)):
        contour.eval_f0(model, st)


def test_unsupported_model_rejected():
    # the K1 area term covers the Green series only, and K0 the log, power
    # and Bessel kernels
    for model in (models.gsqg_disc(0.5, 2.0), models.qgsw_disc(2.0, 2.0),
                  models.custom_convolution(cmkernel.gsqg_power(0.5))):
        with pytest.raises(ValueError, match="not supported"):
            contour.eval_f0(model, _state())


def test_boundary_export_circles_at_zero():
    st = _state(b=0.4)
    inner, outer = contour.boundary_export(st, samples=64)
    assert np.max(np.abs(np.abs(inner) - 0.4)) < 1e-14
    assert np.max(np.abs(np.abs(outer) - 1.0)) < 1e-14


# ---------------------------------------------------------------------------
# the functional at the trivial state
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [
    EULER, models.gsqg_plane(0.5), models.qgsw_plane(2.0),
    models.euler_disc(2.0), models.euler_annulus(0.1, 10.0),
    models.euler_exterior(0.1)])
def test_annulus_is_equilibrium(model):
    st = _state(omega=0.25)
    f01, f02 = contour.eval_f0(model, st)
    # stream function constant on each circle
    assert np.std(f01) < 1e-12
    assert np.std(f02) < 1e-12
    assert contour.eval_f(model, st).norm() < 1e-12


@pytest.mark.parametrize("eps", [1e-3, 0.01, 0.1, 0.5, 2.0, 6.0])
@pytest.mark.parametrize("b", [0.3, 0.6])
@pytest.mark.parametrize("m, n_modes", [(3, 8), (5, 4)])
def test_qgsw_annulus_stream_matches_mode_0_bessel_values(eps, b, m, n_modes):
    # psi of the annulus under K0(eps |x|)/(2 pi), from its mode-0 Bessel
    # expansion, at 40 digits
    import mpmath
    from mpmath import besseli, besselk
    with mpmath.workdps(40):
        e, bb = mpmath.mpf(eps), mpmath.mpf(b)
        outer = besselk(0, e) * (besseli(1, e) - bb * besseli(1, e * bb)) / e
        inner = besseli(0, e * bb) * (bb * besselk(1, e * bb)
                                      - besselk(1, e)) / e
    f01, f02 = contour.eval_f0(models.qgsw_plane(eps),
                               contour.trivial_state(b, m, n_modes))
    assert np.max(np.abs(f01 - float(inner))) < 1e-12
    assert np.max(np.abs(f02 - float(outer))) < 1e-12


@pytest.mark.parametrize("model, b, scale", [
    pytest.param(models.euler_disc(2.0), 0.6, 1.0, id="model0"),
    pytest.param(models.euler_exterior(0.3), 0.6, 1.0, id="model1"),
    pytest.param(models.euler_annulus(0.3, 1.6), 0.6, 1.0, id="model2"),
    # perturbations of about 1e-4 where the largest term ratio q is about
    # 0.90, and the series runs 364-380 terms
    pytest.param(models.euler_exterior(0.3), 0.3163, 0.005,
                 id="high-q-exterior"),
    pytest.param(models.euler_disc(1.05), 0.6, 0.005, id="high-q-disc")])
def test_k1_area_term_off_the_annulus(model, b, scale):
    # the K0 parts of the bounded and plane Euler models agree, so the
    # differences of eval_f0 and eval_f are the K1 stream and its residual;
    # the brute-force sum (`oracles.k1_green`) uses the state's own eta
    # trapezoid and 40-node radial Gauss per column; m = 2 keeps the k = 2
    # mode, whose radial integral is the logarithmic case, and m = 3 has no
    # k = 2 mode
    for m in (2, 3):
        st = replace(_state(b=b, m=m, n=6, omega=0.2),
                     a1=scale * np.array([0.02, -0.02, 0.015, 0.01, 0, 0]),
                     a2=scale * np.array([-0.02, 0.015, 0.0, 0.02, 0, 0]))
        eta = st.theta_grid()
        ra, rb = st.radii(eta)
        gx, gw = np.polynomial.legendre.leggauss(40)
        t = 0.5 * (ra + rb)[:, None] + 0.5 * (rb - ra)[:, None] * gx
        wts = (0.5 * (rb - ra)[:, None] * gw * t
               * (2.0 * np.pi / len(eta))).ravel()
        y = (t * np.exp(1j * eta)[:, None]).ravel()
        d1, d2 = st.r_derivatives(eta)
        sines = np.sin(np.outer(st.m * np.arange(1, st.n_modes + 1), eta))
        f0_model = contour.eval_f0(model, st)
        f0_plane = contour.eval_f0(EULER, st)
        f_k1 = (contour.eval_f(model, st).stacked()
                - contour.eval_f(EULER, st).stacked())
        want_f = []
        for i, (r, dr) in enumerate(((ra, d1), (rb, d2))):
            z = r * np.exp(1j * eta)
            val, grad = oracles.k1_green(model, z, y)
            got = f0_model[i] - f0_plane[i]
            assert np.max(np.abs(got - val @ wts)) < 1e-13
            zp = (dr / r + 1j * r) * np.exp(1j * eta)
            want_f.append((2.0 / len(eta))
                          * sines @ np.real((grad @ wts) * np.conj(zp)))
        assert np.max(np.abs(f_k1 - np.concatenate(want_f))) < 1e-13


def test_f0_even_symmetry():
    # cosine perturbations keep F0 even in theta
    st = _state()
    pert = replace(st, a1=st.a1 + 0.01 * np.eye(8)[0],
                   a2=st.a2 + 0.005 * np.eye(8)[1])
    f01, f02 = contour.eval_f0(EULER, pert)
    for f in (f01, f02):
        assert np.max(np.abs(f - np.roll(f[::-1], 1))) < 1e-12


def test_residual_vector_shape_and_norm():
    st = _state(omega=0.1)
    pert = replace(st, a2=st.a2 + 0.01 * np.eye(8)[0])
    res = contour.eval_f(EULER, pert)
    assert len(res.s1) == len(res.s2) == 8
    assert res.norm() > 0
    assert len(res.stacked()) == 16


@pytest.mark.parametrize("model", [
    EULER, models.gsqg_plane(0.5), models.qgsw_plane(2.0),
    models.euler_disc(2.0), models.euler_exterior(0.3),
    models.euler_annulus(0.1, 10.0)], ids=lambda m: m.variant)
def test_stream_derivative_matches_velocity(model):
    # the stream route (eval_f0) and the velocity route of eval_f share one
    # K0 boundary integral; d/dtheta psi(w) = Re(grad psi . conj(w')) ties
    # their kernel factors together for each kernel kind
    st = replace(_state(b=0.6, m=4, n=8),
                 a1=np.r_[0.015, -0.01, 0.005, 0.002, [0.0] * 4],
                 a2=np.r_[-0.02, 0.01, 0.004, -0.003, [0.0] * 4])
    size = st.grid_size
    data = contour._boundary_data(model, st)
    velocity = contour._boundary_field(model, data, size, stream=False)
    k = np.fft.fftfreq(size, d=1.0 / size)
    k[size // 2] = 0.0
    for f0, u, wp in zip(contour.eval_f0(model, st), velocity,
                         (data[5], data[6])):
        df0 = np.fft.ifft(1j * k * np.fft.fft(f0)).real
        assert np.max(np.abs(df0 - np.real(u * np.conj(wp)))) < 1e-7


@pytest.mark.parametrize("m", [2, 5])
@pytest.mark.parametrize("model", [
    EULER, models.gsqg_plane(0.5), models.qgsw_plane(2.0),
    models.euler_disc(2.0), models.euler_exterior(0.3),
    models.euler_annulus(0.1, 10.0)])
def test_eval_f_on_the_cell_matches_full_grid_projection(model, m):
    # eval_f evaluates F on theta in [0, pi/m] only; the oracle evaluates
    # the velocity at every grid point and projects over the whole grid
    st = replace(_state(b=0.6, m=m, n=4, omega=0.2),
                 a1=np.array([0.015, -0.01, 0.005, 0.002]),
                 a2=np.array([-0.02, 0.01, 0.004, -0.003]))
    eta = st.theta_grid()
    ra, rb = st.radii(eta)
    d1, d2 = st.r_derivatives(eta)
    u1, u2 = contour._boundary_field(model, contour._boundary_data(model, st),
                                     st.grid_size, stream=False)
    kk = st.m * np.arange(1, st.n_modes + 1)
    want = []
    for r, dr, u in ((ra, d1, u1), (rb, d2, u2)):
        zp = (dr / r + 1j * r) * np.exp(1j * eta)
        f = st.omega * dr + np.real(u * np.conj(zp))
        want.append((2.0 / len(eta)) * np.sin(np.outer(kk, eta)) @ f)
    got = contour.eval_f(model, st).stacked()
    assert np.max(np.abs(got - np.concatenate(want))) < 1e-13


def _closed_weights(size, weight, beta):
    # Fourier coefficients of |2 sin(u/2)|^{-beta}, the Gamma ratio
    # 2 pi G(1-beta) G(k+beta/2) / (G(beta/2) G(1-beta/2) G(k+1-beta/2))
    # to 40 digits, or of log(2|sin(u/2)|), -pi/|k| with zero mean
    k = np.abs(np.fft.fftfreq(size, d=1.0 / size)).astype(int)
    if weight == "log":
        return np.array([-math.pi / j if j else 0.0 for j in k])
    with mpmath.workdps(40):
        a = mpmath.mpf(beta) / 2
        pref = (2 * mpmath.pi * mpmath.gamma(1 - 2 * a)
                / (mpmath.gamma(a) * mpmath.gamma(1 - a)))
        table = [float(pref * mpmath.gamma(j + a) / mpmath.gamma(j + 1 - a))
                 for j in range(k.max() + 1)]
    return np.array(table)[k]


@pytest.mark.parametrize("size", [40, 160])
@pytest.mark.parametrize("weight, beta", [("log", 0.0), ("power", 0.5)])
def test_circulant_row_sum_is_the_spectral_product(size, weight, beta):
    rng = np.random.default_rng(size)
    w_hat = _closed_weights(size, weight, beta)
    for rows in (size, size // 8 + 1):
        s = (rng.standard_normal((rows, size))
             + 1j * rng.standard_normal((rows, size)))
        _, circ = contour._singular_tables(
            size, rows, beta if weight == "power" else None)
        want = np.diagonal(np.fft.ifft(np.fft.fft(s, axis=1) * w_hat,
                                       axis=1))
        assert np.max(np.abs((s * circ).sum(axis=1) - want)) < 1e-12


@pytest.mark.parametrize("size", [128, 320])
@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
def test_power_weight_circulant_is_accurate(size, beta):
    # the circulant's first row against the ifft of 40-digit weights
    _, circ = contour._singular_tables(size, 1, beta)
    want = np.fft.ifft(_closed_weights(size, "power", beta)).real
    want = want[-np.arange(size) % size]
    assert np.max(np.abs(circ[0] - want)) < 1e-14 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# linearization against the dispersion multipliers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [
    EULER, models.gsqg_plane(0.5), models.qgsw_plane(2.0),
    models.euler_disc(2.0), models.euler_exterior(0.1)])
def test_fd_jacobian_matches_multiplier_blocks(model):
    b, m, n_modes, omega = 0.5, 4, 4, 0.2
    jac = contour.jacobian(model, _state(b, m, n_modes, omega))
    assert jac.shape == (2 * n_modes, 2 * n_modes + 1)
    for k in (1, 2, 3):
        n = k * m
        point = dispersion.dispersion_point(model, [n], b)
        target = -n * point.q(omega)[..., 0]
        i = [k - 1, n_modes + k - 1]
        block = jac[np.ix_(i, i)]
        rel = np.max(np.abs(block - target)) / np.max(np.abs(target))
        assert rel < 1e-6


def test_jacobian_omega_column_is_exact():
    # at a converged branch point, far enough out that r' is not small
    st = contour.branch_continue(EULER, 0.5, 5, s_max=0.3, steps=1,
                                 n_modes=8)[-1]
    h = 1e-7
    rp, rm = (contour.eval_f(EULER, replace(st, omega=st.omega + d)).stacked()
              for d in (h, -h))
    col = contour.jacobian(EULER, st)[:, -1]
    assert np.max(np.abs(col)) > 1e-2
    assert np.max(np.abs(col - (rp - rm) / (2.0 * h))) < 1e-9


def test_branch_point_costs_one_eval_f_per_iteration(monkeypatch):
    # the preconditioner needs no eval_f, and `jacobian` is not called:
    # nine mixed iterations, then the accepted residual
    calls = []
    eval_f = contour.eval_f
    monkeypatch.setattr(contour, "eval_f",
                        lambda *args: calls.append(1) or eval_f(*args))

    def no_jacobian(*args):
        raise AssertionError("branch_continue called jacobian")
    monkeypatch.setattr(contour, "jacobian", no_jacobian)
    pts = contour.branch_continue(EULER, 0.5, 5, s_max=0.3, steps=1,
                                  n_modes=8)
    assert len(calls) == 10
    assert [st.iterations for st in pts] == [0, 10]


@pytest.mark.parametrize("model", [
    EULER, models.gsqg_plane(0.5), models.qgsw_plane(2.0),
    models.euler_disc(2.0), models.euler_exterior(0.1)])
def test_preconditioner_is_the_bordered_jacobian_at_the_annulus(model):
    b, m, n_modes, omega = 0.5, 4, 4, 0.2
    n = n_modes
    row = np.zeros(2 * n + 1)
    row[[0, n]] = [0.3, -0.7]
    point = dispersion.dispersion_point(model, m * np.arange(1, n + 1), b)
    u = np.append(np.zeros(2 * n), omega)
    pre = contour._preconditioner(point, row, u)
    want = np.vstack([contour.jacobian(model, _state(b, m, n, omega)), row])
    assert np.max(np.abs(pre - want)) < 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("model", [
    EULER, models.qgsw_plane(2.0), models.euler_disc(2.0)],
    ids=lambda model: model.variant)
def test_corrector_reconverges_a_prolonged_state(model, monkeypatch):
    # a point accepted at 8 modes, zero-padded to 16, is a guess that the
    # corrector at 16 modes accepts within a few eval_f calls, with Omega
    # all but unchanged: one corrector call certifies a point on a finer grid
    b, m, n = 0.5, 5, 16
    st = contour.branch_continue(model, b, m, s_max=0.3, steps=1,
                                 n_modes=8)[-1]
    point = dispersion.dispersion_point(model, m * np.arange(1, n + 1), b)
    _, kvec = dispersion.kernel_root(point, "+")
    row = np.zeros(2 * n + 1)
    row[[0, n]] = kvec / (kvec @ kvec)
    pad = np.zeros(n - 8)
    u = np.concatenate([st.a1, pad, st.a2, pad, [st.omega]])
    calls = []
    eval_f = contour.eval_f
    monkeypatch.setattr(contour, "eval_f",
                        lambda *args: calls.append(1) or eval_f(*args))
    got_u, got = contour._correct(model, point, _state(b, m, n), row, st.s, u)
    assert len(calls) == got.iterations <= 4
    assert abs(got.omega - st.omega) <= 1e-12
    assert got.s == st.s and got.n_modes == n
    assert np.array_equal(got_u, np.concatenate([got.a1, got.a2,
                                                 [got.omega]]))
    assert got.residual == eval_f(model, got).norm() < 1e-11


def test_anderson_loop_lives_only_in_the_corrector():
    # the mixing least squares and the preconditioner are called only in
    # `_correct`, and `branch_continue` evaluates no residual itself: a
    # later predictor reuses the corrector instead of copying its loop
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "vstates"
    callers = {"np.linalg.lstsq": set(), "_preconditioner": set(),
               "eval_f": set()}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in tree.body:
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and ast.unparse(node.func) in callers):
                    callers[ast.unparse(node.func)].add(
                        (path.name, getattr(func, "name", "<module>")))
    assert callers["np.linalg.lstsq"] == {("contour.py", "_correct")}
    assert callers["_preconditioner"] == {("contour.py", "_correct")}
    assert ("contour.py", "branch_continue") not in callers["eval_f"]


def test_contour_takes_its_kernel_formulas_from_models():
    # contour integrates what `models` hands it: the K0 factors, the
    # singular weights and the K1 patch term; it imports no kernel formula
    # and reads no kind of K0 or K1
    path = pathlib.Path(contour.__file__)
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
    assert "cmkernel" not in imported
    assert imported["models"] == {"KernelModel", "k1_patch",
                                  "singular_weights"}
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    assert not read & {"k0", "k1", "measure_obj"}


def _dense_newton_branch(model, b, m, s_max, steps, n_modes):
    # the reference: Newton on `jacobian` bordered by the amplitude row,
    # from the same secant predictor, to a residual at rounding level
    omega0, kvec = dispersion.kernel_root(
        dispersion.dispersion_point(model, [m], b), "+")
    n = n_modes
    row = np.zeros(2 * n + 1)
    row[[0, n]] = kvec / (kvec @ kvec)
    u = np.append(np.zeros(2 * n), omega0)
    u_prev = u.copy()
    u_prev[[0, n]] -= s_max / steps * kvec
    out = []
    for s in np.linspace(0.0, s_max, steps + 1)[1:]:
        cur = 2.0 * u - u_prev
        for _ in range(4):
            st = contour.PerturbationState(b=b, m=m, n_modes=n, a1=cur[:n],
                                           a2=cur[n:2 * n], omega=cur[2 * n])
            res = np.append(contour.eval_f(model, st).stacked(), row @ cur - s)
            jac = np.vstack([contour.jacobian(model, st), row])
            cur = cur - np.linalg.solve(jac, res)
        u_prev, u = u, cur
        out.append(cur)
    return out


@pytest.mark.parametrize("model", [EULER, models.euler_disc(2.0)])
def test_branch_matches_dense_newton(model):
    b, m, s_max, steps, n_modes = 0.5, 5, 0.8, 8, 8
    pts = contour.branch_continue(model, b, m, s_max=s_max, steps=steps,
                                  n_modes=n_modes)
    want = _dense_newton_branch(model, b, m, s_max, steps, n_modes)
    for st, ref in zip(pts[1:], want):
        got = np.concatenate([st.a1, st.a2, [st.omega]])
        assert np.max(np.abs(got - ref)) < 1e-10
        assert st.residual == contour.eval_f(model, st).norm() < 1e-11


def test_fd_jacobian_off_mode_coupling_vanishes():
    # perturbing mode m must not excite mode 2m at linear order
    st = _state(0.5, 4, 4, 0.2)
    eps = 1e-5
    rp = contour.eval_f(EULER, replace(st, a1=st.a1 + eps * np.eye(4)[0]))
    rm = contour.eval_f(EULER, replace(st, a1=st.a1 - eps * np.eye(4)[0]))
    col1 = (rp.s1 - rm.s1) / (2 * eps)
    assert np.max(np.abs(col1[1:])) < 1e-8 * abs(col1[0])


def test_scalar_f0_linearization_rows():
    # d F0[0] h for h = (0, cos(n eta)): row 1 carries the cross coefficient
    # lamt + pt, row 2 carries V^2 + lam_n1 + p_n1
    model = models.euler_annulus(0.1, 10.0)
    b, m, n_modes = 0.5, 4, 4
    st = _state(b, m, n_modes)
    theta = st.theta_grid()
    f01, f02 = contour.eval_f0(model, st)
    eps = 1e-6
    n = m
    row = dispersion.spectral_row(model, [n], b)
    v2 = dispersion.dispersion_point(model, [1], b).v2
    g1, g2 = contour.eval_f0(model, replace(st, a2=st.a2 + eps * np.eye(4)[0]))
    c1 = 2.0 * np.mean((g1 - f01) / eps * np.cos(n * theta))
    c2 = 2.0 * np.mean((g2 - f02) / eps * np.cos(n * theta))
    assert c1 == pytest.approx(row.lamt_nb[0] + row.pt_nb[0], abs=1e-6)
    assert c2 == pytest.approx(v2 + row.lam_n1[0] + row.p_n1[0], abs=1e-6)


# ---------------------------------------------------------------------------
# branch continuation
# ---------------------------------------------------------------------------

def test_branch_requires_simple_eigenvalue():
    with pytest.raises(ValueError):
        contour.branch_continue(EULER, 0.5, 3, s_max=1e-2, steps=10,
                                n_modes=8)   # degenerate fold


@pytest.mark.parametrize("bad, name", [
    ({"steps": 0}, "steps >= 1"), ({"steps": -2}, "steps >= 1"),
    ({"m": 0}, "m >= 1"), ({"n_modes": 0}, "n_modes >= 1"),
    ({"s_max": 0.0}, "s_max != 0"), ({"s_max": np.nan}, "a finite s_max"),
    ({"s_max": np.inf}, "a finite s_max")],
    ids=["0", "-2", "m-0", "n_modes-0", "s_max-0", "s_max-nan", "s_max-inf"])
def test_branch_refuses_fewer_than_one_step(bad, name, monkeypatch):
    # steps < 1, m < 1, n_modes < 1 and an s_max that is 0 or not finite
    # are each refused by name before any spectrum is computed
    def no_spectrum(*args, **kwargs):
        raise AssertionError("computed before the argument check")
    monkeypatch.setattr(dispersion, "kernel_root", no_spectrum)
    monkeypatch.setattr(dispersion, "dispersion_point", no_spectrum)
    with pytest.raises(ValueError, match=f"branch_continue needs {name}"):
        contour.branch_continue(EULER, 0.5, **{
            "m": 5, "s_max": 0.1, "steps": 3, "n_modes": 8, **bad})


@pytest.mark.parametrize("branch", ["+", "-"])
def test_branch_tangent_and_speed(branch):
    b, m = 0.5, 5
    omega0, kvec = dispersion.kernel_root(
        dispersion.dispersion_point(EULER, [m], b), branch)
    pts = contour.branch_continue(EULER, b, m, branch=branch,
                                  s_max=4e-4, steps=4, n_modes=8)
    # the first point is the annulus at the dispersion root
    st0 = pts[0]
    assert st0.s == 0.0 and st0.omega == omega0
    assert not st0.a1.any() and not st0.a2.any()
    st = pts[1]
    # the first point sits on the grid, at s_max / steps
    s = st.s
    assert s == 1e-4
    got = np.array([st.a1[0], st.a2[0]])
    rel = np.linalg.norm(got - s * kvec) / np.linalg.norm(s * kvec)
    assert rel < 1e-4
    assert abs(st.omega - omega0) < 1e-4
    # every accepted point is an equilibrium of the discretized functional
    for st_i in pts:
        assert contour.eval_f(EULER, st_i).norm() < 1e-10


def test_branch_states_nontrivial_and_m_fold():
    pts = contour.branch_continue(EULER, 0.5, 5, branch="+",
                                  s_max=1e-3, steps=2, n_modes=8)
    st = pts[-1]
    assert abs(st.a1[0]) > 0 or abs(st.a2[0]) > 0
    inner, outer = contour.boundary_export(st)
    size = len(inner)
    shift = size // 5      # rotation by 2 pi / m maps the curve to itself
    rot = np.exp(2j * np.pi / 5)
    assert np.max(np.abs(inner - np.roll(inner, -shift) / rot)) < 1e-12


def test_branch_error_reports_progress():
    # driving the amplitude far beyond the local branch breaks the geometry
    with pytest.raises(contour.BranchError) as err:
        contour.branch_continue(EULER, 0.5, 5, branch="+", s_max=3.0,
                                steps=3, n_modes=8)
    assert isinstance(err.value.points, list)
    # the message names the cause: here the geometry check's text
    assert "boundary curves intersect (by 4.6e-03)" in str(err.value)
    # the annulus, then the small-amplitude prefix that still converged
    # before the failure
    assert len(err.value.points) >= 2
    assert err.value.points[0].s == 0.0


# ---------------------------------------------------------------------------
# branch oracles that need no reference data
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [
    models.euler_plane(), models.qgsw_plane(2.0), models.gsqg_plane(0.5),
    models.euler_disc(2.0), models.euler_exterior(0.3),
    models.euler_annulus(0.1, 10.0)], ids=lambda model: model.variant)
def test_branch_at_negative_amplitude_is_the_branch_turned_by_pi_over_m(
        model):
    # turning a V-state by pi/m maps the amplitude s to -s: the cosine
    # coefficient a_k of mode k m changes by (-1)^k and Omega is unchanged.
    # The turn shifts the grid by whole points, so each iterate of the
    # -s_max branch mirrors that of the +s_max branch to rounding
    b, m = 0.6, 5
    plus, minus = (contour.branch_continue(model, b, m, s_max=s_max, steps=4,
                                           n_modes=8)
                   for s_max in (0.05, -0.05))
    sign = (-1.0) ** np.arange(1, 9)
    assert [q.s for q in minus] == [-p.s for p in plus]
    for p, q in zip(plus, minus):
        assert abs(q.omega - p.omega) < 1e-12
        assert np.max(np.abs(q.a1 - sign * p.a1)) < 1e-14
        assert np.max(np.abs(q.a2 - sign * p.a2)) < 1e-14
        assert q.iterations == p.iterations


def test_branch_speed_starts_quadratically_from_the_root():
    # Omega is even in s, so (Omega(s) - Omega^+)/s^2 tends to a limit: the
    # gaps between its values at s = 0.04, 0.02, 0.01, 0.005 shrink by 4
    pts = contour.branch_continue(EULER, 0.5, 5, branch="+", s_max=0.04,
                                  steps=8, n_modes=8)
    omega0 = pts[0].omega
    quotient = np.array([(st.omega - omega0) / st.s ** 2
                         for st in pts[1:]])[[7, 3, 1, 0]]
    gaps = np.abs(np.diff(quotient))
    assert np.all(gaps[:-1] / gaps[1:] > 3.5)
    assert np.all(gaps[:-1] / gaps[1:] < 4.5)
    assert gaps[0] < 2e-6
    assert quotient[-1] == pytest.approx(-0.020095, abs=1e-6)


def test_grid_tables_are_built_once_and_read_only():
    # eval_f's trig tables are cached per (grid size, m, n_modes) and
    # read-only; the state's methods build theirs from the same helpers
    st = contour.PerturbationState(b=0.5, m=3, n_modes=5,
                                   a1=0.01 * np.arange(1, 6),
                                   a2=-0.02 * np.arange(1, 6))
    tables = contour._grid_tables(st.grid_size, st.m, st.n_modes)
    assert contour._grid_tables(st.grid_size, st.m, st.n_modes) is tables
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0.0
