"""Dispersion relation: spectral rows, discriminants, fold selection."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate

from vstates import cli, cmkernel, dispersion, models

import oracles


EULER = models.euler_plane()


def test_spectral_row_validation():
    with pytest.raises(ValueError):
        dispersion.spectral_row(EULER, [0], 0.5)
    with pytest.raises(ValueError):
        dispersion.spectral_row(models.euler_exterior(0.3), [3], 0.2)


def test_euler_row_closed_values():
    row = dispersion.spectral_row(EULER, [4], 0.5)
    assert row.lam_nb[0] == pytest.approx(1.0 / 8.0, rel=1e-15)
    assert row.lamt_nb[0] == pytest.approx(0.5 ** 4 / 8.0, rel=1e-15)
    assert row.p_nb[0] == row.p_n1[0] == row.pt_nb[0] == 0.0
    assert row.source == "closed-form"


def test_euler_degenerate_and_stable_points():
    # n = 3, b = 0.5: double root Omega = 0.1875, Delta = 0
    p3 = dispersion.dispersion_point(EULER, [3], 0.5)
    assert abs(p3.delta[0]) < 1e-12
    assert p3.classification[0] == "degenerate"
    assert p3.omega_plus[0] == pytest.approx(0.1875, abs=1e-9)
    # n = 4, b = 0.5: Delta = 63/4096, roots 0.1875 +/- sqrt(63)/128
    p4 = dispersion.dispersion_point(EULER, [4], 0.5)
    assert p4.delta[0] == pytest.approx(63.0 / 4096.0, abs=1e-12)
    assert p4.classification[0] == "stable"
    assert p4.a_nb[0] == pytest.approx(1.0 / 8.0, rel=1e-14)
    assert p4.b_nb[0] == pytest.approx(1.0 / 4.0, rel=1e-14)
    half = math.sqrt(63.0) / 128.0
    assert p4.omega_plus[0] == pytest.approx(0.1875 + half, abs=1e-12)
    assert p4.omega_minus[0] == pytest.approx(0.1875 - half, abs=1e-12)


def test_vieta_relations():
    for model in (EULER, models.qgsw_plane(1.5),
                  models.euler_annulus(0.1, 10.0)):
        p = dispersion.dispersion_point(model, [5], 0.5)
        off = p.row.lamt_nb[0] + p.row.pt_nb[0]
        assert p.omega_plus[0] + p.omega_minus[0] == pytest.approx(
            p.a_nb[0] + p.b_nb[0], rel=1e-12)
        assert p.omega_plus[0] * p.omega_minus[0] == pytest.approx(
            p.a_nb[0] * p.b_nb[0] + off * off, rel=1e-10)


def test_unstable_classification_exists_for_small_folds():
    # Euler annulus has negative discriminant at low modes for fat annuli
    found = False
    model = models.euler_annulus(0.1, 10.0)
    for b in (0.85, 0.9, 0.95):
        p = dispersion.dispersion_point(model, [1], b)
        if p.delta[0] < -dispersion.DEGENERACY_TOL:
            assert np.isnan(p.omega_plus[0])
            assert p.classification[0] == "unstable"
            found = True
    assert found


def test_off_diagonal_vanishes_at_large_n():
    rows = [dispersion.spectral_row(EULER, [n], 0.5) for n in (10, 20, 40)]
    offs = [abs(r.lamt_nb[0] + r.pt_nb[0]) for r in rows]
    assert offs[0] > offs[1] > offs[2]
    assert offs[2] < 1e-12


def test_custom_measure_rows_match_closed_forms():
    pairs = [
        (models.custom_convolution(cmkernel.euler_flat()), EULER),
        (models.custom_convolution(cmkernel.gsqg_power(0.5)),
         models.gsqg_plane(0.5)),
        (models.custom_convolution(cmkernel.qgsw_shifted(1.0)),
         models.qgsw_plane(1.0)),
    ]
    ns = np.array([1, 3, 7, 32, 128])
    for custom, closed in pairs:
        for b in (0.2, 0.5, 0.9):
            rq = dispersion.spectral_row(custom, ns, b)
            rc = dispersion.spectral_row(closed, ns, b)
            assert rq.source == "quadrature"
            for key in ("lam_nb", "lam_n1", "lamt_nb"):
                np.testing.assert_allclose(getattr(rq, key), getattr(rc, key),
                                           rtol=0.0, atol=1e-12)


def test_v_constants_euler():
    p = dispersion.dispersion_point(EULER, [1], 0.5)
    assert p.v1 == 0.0
    assert p.v2 == pytest.approx(-0.375, rel=1e-14)


def test_delta_inf_two_routes_agree():
    for model in (EULER, models.qgsw_plane(2.0)):
        p = dispersion.dispersion_point(model, [1], 0.5)
        direct = (p.v1 - p.v2) ** 2
        via_psi = oracles.delta_inf_via_psi(model, 0.5)
        assert direct == pytest.approx(via_psi, abs=1e-12)


def test_delta_inf_is_velocity_gap_squared(tmp_path):
    # the delta_inf column of `vstate threshold` is (V^1 - V^2)^2
    model = models.euler_annulus(0.1, 10.0)
    p = dispersion.dispersion_point(model, [1], 0.5)
    assert cli.main(["threshold", "--model", "EulerAnnulus", "--param",
                     "r1=0.1", "--param", "r2=10", "--b", "0.5",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "threshold.csv").read_text().splitlines()
    header, row = (line.split(",") for line in lines[-2:])
    assert float(row[header.index("delta_inf")]) == pytest.approx(
        (p.v1 - p.v2) ** 2, rel=1e-14)


def test_gsqg_disc_point_calls_no_quad_and_builds_one_rule(monkeypatch):
    # the gSQG disc's p and c are node sums of QGSW-disc closed forms: a
    # dispersion point over modes 1..4 calls no scipy quad, and the node
    # rule is built once per (beta, R), whatever b and the modes
    def no_quad(*args, **kwargs):
        raise AssertionError("scipy quad called")

    monkeypatch.setattr(models._integrate, "quad", no_quad)
    models._subordination_rule.cache_clear()
    model = models.gsqg_disc(0.5, 2.0)
    for b in (0.4321, 0.7):
        for n in range(1, 5):
            dispersion.dispersion_point(model, [n], b)
        dispersion.dispersion_point(model, np.arange(1, 5), b)
    assert models._subordination_rule.cache_info().misses == 1


V_MODELS = [EULER, models.gsqg_plane(0.5), models.qgsw_plane(2.0),
            models.euler_disc(2.0), models.gsqg_disc(0.5, 2.0),
            models.qgsw_disc(2.0, 2.0), models.euler_annulus(0.1, 10.0),
            models.euler_exterior(0.3),
            models.custom_convolution(cmkernel.gsqg_power(0.5))]


@pytest.mark.parametrize("model", V_MODELS, ids=[m.variant for m in V_MODELS])
def test_v_constants_are_the_mode_1_combination_of_a_column(model):
    # V^1 = lambda_{1,b} - lambda-tilde_{1,b}/b + c_b and
    # V^2 = -lambda_{1,1} + b lambda-tilde_{1,b} + c-tilde_b, read off the
    # first entry of a column of modes 1..4
    for b in (0.4, 0.7):
        row = dispersion.spectral_row(model, np.arange(1, 5), b)
        want = (row.lam_nb[0] - row.lamt_nb[0] / b + row.c_b,
                -row.lam_n1[0] + b * row.lamt_nb[0] + row.ct_b)
        p = dispersion.dispersion_point(model, [1], b)
        assert (p.v1, p.v2) == want


def test_custom_column_calls_no_quad(monkeypatch):
    # lambda, lambda-tilde and the Psi_b route of Delta_inf are node sums
    # over the whole half-line: no scipy quad anywhere
    def no_quad(*args, **kwargs):
        raise AssertionError("scipy quad called")

    monkeypatch.setattr(scipy.integrate, "quad", no_quad)
    for mu in (cmkernel.gsqg_power(0.5), cmkernel.qgsw_shifted(2.0),
               cmkernel.truncated_high(None, 1000.0, 1.0)):
        model = models.custom_convolution(mu)
        dispersion.dispersion_point(model, np.arange(1, 5), 0.5)
        oracles.delta_inf_via_psi(model, 0.5)


def _exact_moment(mu):
    # int dmu/(1 + x)^2 in closed form, or by mpmath in x = eps cosh(u)
    import mpmath
    lo, hi, _, _ = mu.support()
    if mu.family == "euler_flat":
        return 1.0 / (2.0 * math.pi)
    if mu.family == "gsqg_power":
        beta = mu.params["beta"]
        return (cmkernel.c_beta(beta) / math.gamma(beta)
                * math.pi * beta / math.sin(math.pi * beta))
    if mu.family == "truncated_low":
        return hi / (1.0 + hi)
    if mu.family == "truncated_high":
        return 1.0 / (1.0 + lo)
    with mpmath.workdps(30):
        return float(mpmath.quad(
            lambda u: lo * mpmath.cosh(u) / (2 * mpmath.pi)
            / (1 + lo * mpmath.cosh(u)) ** 2, [0, 1, 5, mpmath.inf]))


NODE_MEASURES = [cmkernel.euler_flat(),
                 *(cmkernel.gsqg_power(beta)
                   for beta in (0.05, 0.5, 0.95, 0.999)),
                 *(cmkernel.qgsw_shifted(eps) for eps in (0.3, 2.0)),
                 *(cmkernel.truncated_low(None, x) for x in (2.0, 1000.0)),
                 *(cmkernel.truncated_high(None, x, 1.0)
                   for x in (2.0, 1000.0))]


@pytest.mark.parametrize("mu", NODE_MEASURES,
                         ids=lambda mu: "-".join([mu.family, *map(
                             "{:g}".format, mu.params.values())]))
def test_measure_nodes_integrate_a_moment_over_the_half_line(mu):
    # the one node rule: atoms, graded panels with a Gauss-Jacobi end panel
    # at lo, and a Gauss-Jacobi panel in w = top/x beyond the cut
    want = _exact_moment(mu)
    for x_cut in (3.0, 300.0):
        xs, ws = cmkernel._measure_nodes(mu, x_cut)
        got = float(np.sum(ws / (1.0 + xs) ** 2))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("x_star", [3.0, 1000.0, 1e5])
def test_truncated_pair_sums_to_the_flat_closed_forms(x_star):
    # with f = 1 the low and high halves of the flat density sum to
    # lambda = pi/n at every scale and lambda-tilde = pi b^n/n; a step past
    # the cut of lambda (300/scale) counts as much as one before it
    ns = np.array([1, 2, 5, 17, 64, 128])
    pair = (cmkernel.truncated_low(None, x_star),
            cmkernel.truncated_high(None, x_star, 1.0))
    for scale in (1.0, 0.3):
        got = sum(models.closed_lambda(models.custom_convolution(mu), ns,
                                       scale, scale) for mu in pair)
        np.testing.assert_allclose(got, math.pi / ns, rtol=0.0, atol=1e-11)
    b = 0.3
    got = sum(models.closed_lambda(models.custom_convolution(mu), ns, b, 1.0)
              for mu in pair)
    np.testing.assert_allclose(got, math.pi * b ** ns / ns, rtol=0.0,
                               atol=1e-11)


# (model, n_max): every row of the closed-form models is cheap, the
# quadrature models are checked on the low modes only
BATCH_CASES = [
    (EULER, 128), (models.gsqg_plane(0.5), 128), (models.qgsw_plane(2.0), 128),
    (models.euler_disc(2.0), 128), (models.euler_annulus(0.1, 10.0), 128),
    (models.euler_exterior(0.3), 128), (models.gsqg_disc(0.5, 2.0), 12),
    (models.qgsw_disc(2.0, 2.0), 12),
    (models.custom_convolution(cmkernel.truncated_low(None, 2.0)), 32),
    (models.custom_convolution(cmkernel.gsqg_power(0.5)), 32),
    (models.custom_convolution(cmkernel.qgsw_shifted(2.0)), 32)]
# the last two custom measures are named by their family
BATCH_IDS = [m.variant for m, _ in BATCH_CASES[:-2]] + [
    "CustomConvolution-gsqg_power", "CustomConvolution-qgsw_shifted"]


def _equals_column(one, many, j: int) -> bool:
    # a row or point of one mode equals entry j of the columns of many, its
    # row included, with NaN roots equal
    def same(u, v):
        if isinstance(u, dispersion.SpectralRow):
            return _equals_column(u, v, j)
        if isinstance(u, np.ndarray):
            return np.array_equal(u, v[j:j + 1],
                                  equal_nan=u.dtype.kind == "f")
        return u == v

    return all(same(getattr(one, f.name), getattr(many, f.name))
               for f in dataclasses.fields(one))


@pytest.mark.parametrize("model,n_max", BATCH_CASES, ids=BATCH_IDS)
def test_dispersion_points_equal_single_points(model, n_max):
    # column j of an array call equals the call on [n_j] alone, bit for
    # bit, its row included
    ns = np.arange(1, n_max + 1)
    for b in (0.4, 0.7):
        points = dispersion.dispersion_point(model, ns, b)
        for j, n in enumerate(ns.tolist()):
            assert _equals_column(dispersion.dispersion_point(model, [n], b),
                                  points, j)


@pytest.mark.parametrize("model,n_max", BATCH_CASES, ids=BATCH_IDS)
def test_spectral_row_columns_equal_scalar_rows(model, n_max):
    # column j of a spectral_row array call equals the row of [n_j] alone,
    # bit for bit
    ns = np.arange(1, n_max + 1)
    for b in (0.4, 0.7):
        rows = dispersion.spectral_row(model, ns, b)
        for j, n in enumerate(ns.tolist()):
            assert _equals_column(dispersion.spectral_row(model, [n], b),
                                  rows, j)


def test_custom_column_builds_measure_nodes_once_per_coefficient(
        monkeypatch):
    # lam_nb, lam_n1 and lamt_nb each build their nodes once for all modes,
    # and V^1, V^2 come from the mode-1 column
    calls = []
    measure_nodes = cmkernel._measure_nodes

    def counting_nodes(*args, **kwargs):
        calls.append(args)
        return measure_nodes(*args, **kwargs)

    monkeypatch.setattr(cmkernel, "_measure_nodes", counting_nodes)
    model = models.custom_convolution(cmkernel.truncated_low(None, 2.0))
    dispersion.dispersion_point(model, np.arange(1, 5), 0.5)
    assert len(calls) == 3


def _counting_points(monkeypatch):
    # the modes of each dispersion_point call, one list per call
    calls = []
    dispersion_point = dispersion.dispersion_point

    def counting_point(model, modes, b):
        calls.append(np.atleast_1d(modes).tolist())
        return dispersion_point(model, modes, b)

    monkeypatch.setattr(dispersion, "dispersion_point", counting_point)
    return calls


def _block_modes(folds, k_max=10):
    return sorted({k * m for m in folds for k in range(1, k_max + 1)})


def test_min_fold_one_call_per_block_of_folds(monkeypatch):
    # closed forms: blocks of folds 1-8, 9-16, 17-32, 33-64, each one
    # call on its distinct modes km; a custom measure: one fold per call
    calls = _counting_points(monkeypatch)
    assert dispersion.min_fold(EULER, 0.5)[0] == 4
    assert calls == [_block_modes(range(1, 9))]
    calls.clear()
    assert dispersion.min_fold(EULER, 0.88)[0] == 12
    assert calls == [_block_modes(folds) for folds in (
        range(1, 9), range(9, 17))]
    calls.clear()
    assert dispersion.min_fold(EULER, 0.98, k_max=2)[0] is None
    assert calls == [_block_modes(range(lo, hi + 1), 2) for lo, hi in (
        (1, 8), (9, 16), (17, 32), (33, 64))]
    calls.clear()
    custom = models.custom_convolution(cmkernel.truncated_low(None, 2.0))
    assert dispersion.min_fold(custom, 0.6, k_max=3)[0] == 5
    assert calls == [[m, 2 * m, 3 * m] for m in range(1, 6)]


def test_min_fold_raises_for_a_non_finite_mode_past_the_accepted_fold(
        monkeypatch):
    # EulerExterior(0.3) at b = 0.5 takes fold 1, whose modes are 1..10;
    # mode 70 belongs to fold 7 alone, yet the block 1-8 computes it
    model = models.euler_exterior(0.3)
    assert dispersion.min_fold(model, 0.5)[0] == 1
    closed_lambda = models.closed_lambda

    def nan_at_mode_70(model, n, y, x):
        out = np.array(closed_lambda(model, n, y, x), dtype=float)
        out[np.asarray(n) == 70] = np.nan
        return out

    monkeypatch.setattr(models, "closed_lambda", nan_at_mode_70)
    with pytest.raises(ArithmeticError, match=r"at n = 70, b = 0\.5"):
        dispersion.min_fold(model, 0.5)


def _sequential_min_fold(model, b, k_max):
    # the fold-by-fold scan that min_fold's blocks replaced, kept as its
    # reference: (m or None, V^1, V^2), V from the first fold
    tol, v = dispersion.DEGENERACY_TOL, None
    for m in range(1, dispersion._FOLD_CAP + 1):
        p = dispersion.dispersion_point(model, np.arange(m, k_max * m + 1, m),
                                        b)
        if not abs(p.v1 - p.v2) > tol:  # b outside S: no fold
            return (None, p.v1, p.v2)
        v = v or (p.v1, p.v2)
        d_inf = (p.v1 - p.v2) ** 2
        if (p.delta <= tol).any():
            continue
        omegas = np.sort(np.concatenate([p.omega_plus, p.omega_minus,
                                         [-p.v1, -p.v2]]))
        if np.any(np.diff(omegas) <= tol):  # a collision of two roots
            continue
        if d_inf <= 4.0 * tol or np.any(np.diff(abs(p.delta[-5:] - d_inf))
                                        >= 0.0):
            continue
        if dispersion.has_closed_fold(model) and not np.all(
                dispersion.annulus_fold_inequality(model, b, p.n)):
            raise RuntimeError(
                "closed fold inequality disagrees with the Delta scan")
        return (m, *v)
    return (None, *v)


def _outcome(scan, *args):
    try:
        return scan(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("model", [m for m, _ in BATCH_CASES[:8]],
                         ids=BATCH_IDS[:8])
def test_block_scan_equals_the_sequential_scan(model):
    # the same fold, or the same None, and the same V bit for bit, on 40 b
    # over the admissible interval and k_max = 2, 5, 10
    for b in np.linspace(model.domain[0] + 0.02, 0.98, 40).tolist():
        for k_max in (2, 5, 10):
            want = _outcome(_sequential_min_fold, model, b, k_max)
            assert _outcome(dispersion.min_fold, model, b, k_max) == want


def test_non_finite_coefficient_names_model_mode_and_b(monkeypatch, tmp_path,
                                                       capsys):
    closed_lambda = models.closed_lambda

    def nan_at_mode_7(model, n, y, x):
        out = np.array(closed_lambda(model, n, y, x), dtype=float)
        out[np.asarray(n) == 7] = np.nan
        return out

    monkeypatch.setattr(models, "closed_lambda", nan_at_mode_7)
    with pytest.raises(ArithmeticError,
                       match=r"lam_nb for EulerPlane at n = 7, b = 0\.5"):
        dispersion.dispersion_point(EULER, np.arange(1, 11), 0.5)
    code = cli.main(["spectra", "--model", "EulerPlane", "--b", "0.5",
                     "--n", "1:10", "--out", str(tmp_path)])
    assert code == 1
    assert "EulerPlane at n = 7, b = 0.5" in capsys.readouterr().err
    # min_fold at b = 0.5 reaches mode 7 with the first candidate fold
    code = cli.main(["threshold", "--model", "EulerPlane", "--b", "0.5",
                     "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("b", [0.0, 1.0, 1.2])
def test_custom_v_constants_checks_b_before_any_quadrature(monkeypatch, b):
    # at b = 1 the trapezoid of phi_{n,b} would double to ~4 GB; the guards
    # make a regression fail here instead of allocating
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature reached for an inadmissible b")

    monkeypatch.setattr(models, "phi_n", no_quadrature)
    monkeypatch.setattr(models, "phi_nb", no_quadrature)
    model = models.custom_convolution(cmkernel.truncated_low(None, 2.0))
    with pytest.raises(ValueError, match="outside the admissible interval"):
        dispersion.dispersion_point(model, [1], b)


@pytest.mark.parametrize("model,n_max", BATCH_CASES, ids=BATCH_IDS)
def test_points_take_v_from_their_mode_1_row(model, n_max):
    # V^1, V^2 are the mode-1 combination of the row's first column; a
    # point whose modes do not start at 1, such as the folds m (1..k) of
    # min_fold and branch_continue, adds that column to its own row and
    # drops it again, and gets the same V bit for bit
    b = 0.5
    base = dispersion.dispersion_point(model, np.arange(1, n_max + 1), b)
    row = base.row
    assert (base.v1, base.v2) == (
        row.lam_nb[0] - row.lamt_nb[0] / b + row.c_b,
        -row.lam_n1[0] + b * row.lamt_nb[0] + row.ct_b)
    assert np.array_equal(base.a_nb, -base.v1 + row.lam_nb + row.p_nb)
    for modes in (3 * np.arange(1, 11), [n_max], [2, 1]):
        point = dispersion.dispersion_point(model, modes, b)
        assert type(point.v1) is float and type(point.v2) is float
        assert (point.v1, point.v2) == (base.v1, base.v2)
        assert point.n.tolist() == list(modes)
        assert point.row.n.tolist() == list(modes)


def test_non_finite_mode_1_coefficient_names_n_1(monkeypatch):
    # V comes from mode 1 even when the point does not ask for it, so a
    # non-finite mode-1 coefficient is named there
    closed_lambda = models.closed_lambda

    def nan_at_mode_1(model, n, y, x):
        out = np.array(closed_lambda(model, n, y, x), dtype=float)
        out[(np.asarray(n) == 1) & (y != x)] = np.nan  # lambda-tilde only
        return out

    monkeypatch.setattr(models, "closed_lambda", nan_at_mode_1)
    with pytest.raises(ArithmeticError,
                       match=r"lamt_nb for EulerPlane at n = 1, b = 0\.5"):
        dispersion.dispersion_point(EULER, [4, 8], 0.5)


def test_s_membership():
    # b is in the admissible set S when the velocity gap is nonzero
    for b in (0.3, 0.9):
        p = dispersion.dispersion_point(EULER, [1], b)
        assert abs(p.v1 - p.v2) > dispersion.DEGENERACY_TOL


def test_min_fold_euler_plane():
    assert dispersion.min_fold(EULER, 0.5)[0] == 4


def test_min_fold_refuses_k_max_below_two():
    # k_max = 1 scans mode m alone and compares no gaps, so it would
    # accept m = 1 for QgswPlane(2) at b = 0.5, where Delta_2 < 0
    qgsw = models.qgsw_plane(2.0)
    assert dispersion.dispersion_point(qgsw, [2], 0.5).delta[0] < 0.0
    assert dispersion.min_fold(qgsw, 0.5, k_max=2)[0] == 3
    for k_max in (1, 0):
        with pytest.raises(ValueError, match="k_max"):
            dispersion.min_fold(qgsw, 0.5, k_max=k_max)


def test_min_fold_dual_route_annulus():
    model = models.euler_annulus(0.1, 10.0)
    for b in (0.3, 0.5, 0.8):
        m = dispersion.min_fold(model, b)[0]
        # closed-inequality route must flip exactly at m
        assert dispersion.annulus_fold_inequality(model, b, [m])[0]
        if m > 1:
            assert not dispersion.annulus_fold_inequality(model, b, [m - 1])[0]


def test_min_fold_dual_route_exterior():
    model = models.euler_exterior(0.1)
    m = dispersion.min_fold(model, 0.5)[0]
    assert dispersion.annulus_fold_inequality(model, 0.5, [m])[0]
    assert m == 1


@pytest.mark.parametrize("model", [
    models.euler_exterior(0.1), models.euler_exterior(0.3),
    models.euler_exterior(0.6), models.euler_annulus(0.1, 10.0),
    models.euler_annulus(0.3, 4.0), models.euler_annulus(0.6, 1.3)])
def test_fold_inequality_is_the_sign_of_delta(model):
    # the exterior is the R2 -> inf limit of the annulus inequality; an
    # exterior formula with +(r/b)^2n in place of -(r/b)^2n fails here.
    # The narrow annulus (0.6, 1.3) is where the (R1/R2)^2n terms matter.
    r1 = model.domain[0]
    for b in np.linspace(r1, 1.0, 102)[1:-1]:
        for n in range(1, 41):
            delta = dispersion.dispersion_point(model, [n], b).delta[0]
            if abs(delta) < 1e-8:
                continue
            assert dispersion.annulus_fold_inequality(model, b, [n])[0] == (
                delta > 0), (b, n, delta)


def test_fold_inequality_wrong_model():
    with pytest.raises(ValueError):
        dispersion.annulus_fold_inequality(EULER, 0.5, [3])
    with pytest.raises(ValueError):
        dispersion.annulus_fold_inequality(models.euler_disc(2.0), 0.5, [3])


@pytest.mark.parametrize("model", [
    EULER, models.qgsw_plane(2.0), models.euler_annulus(0.1, 10.0)])
def test_monotonicity_scan_high_modes(model):
    report = dispersion.monotonicity_scan(model, 0.5, 20, 30)
    assert report.ok, f"violation at n = {report.first_violation}"
    # roots approach the limits -V^1, -V^2 monotonically from inside
    lo = -max(report.v1, report.v2)
    hi = -min(report.v1, report.v2)
    gap_first = min(report.omega_minus[0] - lo, hi - report.omega_plus[0])
    gap_last = min(report.omega_minus[-1] - lo, hi - report.omega_plus[-1])
    assert 0.0 < gap_last < gap_first


def test_q_matrix_singular_at_roots():
    p = dispersion.dispersion_point(EULER, [4], 0.5)
    for omega in (p.omega_plus[0], p.omega_minus[0]):
        q = p.q(omega)[..., 0]
        assert abs(np.linalg.det(q)) < 1e-14


def test_kernel_vector_spans_nullspace():
    for branch in ("+", "-"):
        p = dispersion.dispersion_point(EULER, [5], 0.5)
        omega, vec = dispersion.kernel_root(p, branch)
        assert omega == (p.omega_plus if branch == "+" else p.omega_minus)[0]
        q = p.q(omega)[..., 0]
        assert np.max(np.abs(q @ vec)) < 1e-12
        assert np.linalg.norm(vec) > 0


@pytest.mark.parametrize("m", [5, 22, 30])
@pytest.mark.parametrize("branch", ["+", "-"], ids=["plus", "minus"])
def test_kernel_vector_keeps_its_length_at_high_folds(m, branch):
    # on the - branch Omega ~ A, so Q's first row (Omega - A, off) shrinks
    # with off ~ b^m; the vector comes from the longer row, whose norm is at
    # least |A - B|/2 at a simple root
    p = dispersion.dispersion_point(EULER, [m], 0.5)
    omega, vec = dispersion.kernel_root(p, branch)
    norm = np.linalg.norm(vec)
    assert np.linalg.norm(p.q(omega)[..., 0] @ vec) <= 1e-12 * norm
    assert norm >= 0.5 * abs(p.a_nb[0] - p.b_nb[0])


def test_kernel_vector_rejects_degenerate():
    with pytest.raises(ValueError):
        dispersion.kernel_root(dispersion.dispersion_point(EULER, [3], 0.5),
                               "+")


def test_classify_shortcut():
    assert dispersion.dispersion_point(EULER, [4], 0.5).classification[0] \
        == "stable"
    assert dispersion.dispersion_point(EULER, [2], 0.5).classification[0] \
        == "degenerate"
