"""Command-line front-end: exit codes, CSV schema, config handling."""

import os
import subprocess
import sys

import numpy as np
import pytest

from vstates import cli, dispersion, universal


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def test_spectra_basic(tmp_path):
    out = str(tmp_path)
    code = run_cli(["spectra", "--model", "EulerPlane", "--b", "0.5",
                    "--n", "1:10", "--out", out])
    assert code == 0
    meta, header, rows = read_csv(os.path.join(out, "spectra.csv"))
    assert header[0] == "n"
    assert len(rows) == 10
    row4 = rows[3]
    assert row4[header.index("n")] == "4"
    assert float(row4[header.index("delta")]) == pytest.approx(
        63.0 / 4096.0, abs=1e-12)
    assert row4[header.index("source")] == "closed-form"


@pytest.mark.parametrize("variant, params, source", [
    ("GsqgDisc", ["beta=0.5", "r=2"], "closed-form/p-quadrature"),
    ("QgswDisc", ["eps=2", "r=2"], "closed-form")])
def test_spectra_source_names_the_p_route(tmp_path, variant, params, source):
    # the gSQG disc's p comes from Sneddon integrals, the QGSW disc's is
    # closed like its lambdas
    args = ["spectra", "--model", variant, "--b", "0.5", "--n", "1:3",
            "--out", str(tmp_path)]
    for item in params:
        args += ["--param", item]
    assert run_cli(args) == 0
    _, header, rows = read_csv(os.path.join(str(tmp_path), "spectra.csv"))
    assert {r[header.index("source")] for r in rows} == {source}


def test_spectra_fifteen_significant_digits(tmp_path):
    out = str(tmp_path)
    run_cli(["spectra", "--model", "EulerPlane", "--b", "0.5", "--n", "3:3",
             "--out", out])
    _, header, rows = read_csv(os.path.join(out, "spectra.csv"))
    lam = rows[0][header.index("lambda_nb")]
    assert lam == "0.166666666666667"


def test_rerun_is_bit_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        run_cli(["spectra", "--model", "QgswPlane", "--param", "eps=1.0",
                 "--b", "0.3,0.5", "--n", "1:5", "--out", out])
    with open(os.path.join(a, "spectra.csv"), "rb") as f1, \
            open(os.path.join(b, "spectra.csv"), "rb") as f2:
        assert f1.read() == f2.read()


def test_usage_errors_exit_2(tmp_path):
    out = str(tmp_path)
    assert run_cli(["spectra", "--model", "EulerPlane", "--b", "0.5",
                    "--n", "", "--out", out]) == 2
    assert run_cli(["spectra", "--model", "NoSuchModel", "--b", "0.5",
                    "--n", "1:3", "--out", out]) == 2
    assert run_cli(["spectra", "--b", "0.5", "--n", "1:3",
                    "--out", out]) == 2             # model missing
    assert run_cli(["spectra", "--model", "EulerExterior", "--param", "r=0.3",
                    "--b", "0.1", "--n", "1:3",
                    "--out", out]) == 2             # b outside the model range
    assert run_cli(["branch", "--model", "EulerPlane", "--b", "0.5",
                    "--m", "3", "--out", out]) == 2  # degenerate fold


def test_config_file_and_flag_override(tmp_path):
    conf = tmp_path / "run.ini"
    conf.write_text("model = EulerDisc\nparam.r = 2\nb = 0.5\nn = 1:4\n")
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert run_cli(["spectra", "--config", str(conf), "--out", out1]) == 0
    _, header, rows = read_csv(os.path.join(out1, "spectra.csv"))
    assert len(rows) == 4
    assert float(rows[0][header.index("b")]) == 0.5
    # flags override file values
    assert run_cli(["spectra", "--config", str(conf), "--b", "0.7",
                    "--out", out2]) == 0
    _, header, rows = read_csv(os.path.join(out2, "spectra.csv"))
    assert float(rows[0][header.index("b")]) == 0.7


def test_missing_config_file():
    assert run_cli(["spectra", "--config", "/nonexistent.ini"]) == 2


def test_universal_table(tmp_path):
    out = str(tmp_path)
    code = run_cli(["universal", "--b", "0.5", "--x-max", "20",
                    "--x-points", "21", "--out", out])
    assert code == 0
    _, header, rows = read_csv(os.path.join(out, "universal_b0.5.csv"))
    assert header == ["x", "phi_1", "phi_1_b", "psi_b"]
    # x = 0 row is all zeros
    assert all(float(v) == 0.0 for v in rows[0])
    # Psi_{0.5} positive on (0, 20]
    psi = [float(r[3]) for r in rows[1:]]
    assert min(psi) > 0.0


def test_universal_multiple_b(tmp_path):
    out = str(tmp_path)
    code = run_cli(["universal", "--b", "0.3,0.7", "--x-max", "5",
                    "--x-points", "6", "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "universal_b0.3.csv"))
    assert os.path.exists(os.path.join(out, "universal_b0.7.csv"))


def test_universal_builds_each_gauss_rule_once(tmp_path, monkeypatch):
    orders = []
    leggauss = np.polynomial.legendre.leggauss

    def counting_leggauss(order):
        orders.append(order)
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
    universal._gauss_rule.cache_clear()
    assert run_cli(["universal", "--out", str(tmp_path)]) == 0
    assert orders and len(orders) == len(set(orders))


def test_spectra_computes_v_constants_once_per_b(tmp_path, monkeypatch):
    calls = []
    v_constants = dispersion.v_constants

    def counting_v(model, b):
        calls.append(b)
        return v_constants(model, b)

    monkeypatch.setattr(dispersion, "v_constants", counting_v)
    code = run_cli(["spectra", "--model", "GsqgPlane", "--param", "beta=0.5",
                    "--b", "0.3,0.6", "--n", "1:32", "--out", str(tmp_path)])
    assert code == 0
    assert calls == [0.3, 0.6]


def test_threshold_computes_v_constants_once_per_b(tmp_path, monkeypatch):
    calls = []
    v_constants = dispersion.v_constants

    def counting_v(model, b):
        calls.append((model.variant, b))
        return v_constants(model, b)

    monkeypatch.setattr(dispersion, "v_constants", counting_v)
    bs = [0.3, 0.5, 0.8]
    for argv in (["--model", "EulerAnnulus", "--param", "r1=0.1",
                  "--param", "r2=10"],
                 ["--model", "QgswPlane", "--param", "eps=2"]):
        calls.clear()
        code = run_cli(["threshold", *argv, "--b", "0.3,0.5,0.8",
                        "--out", str(tmp_path)])
        assert code == 0
        assert [b for _, b in calls] == bs


def test_write_csv_formats_each_column(tmp_path):
    path = tmp_path / "table.csv"
    cli.write_csv(str(path), {"command": "test", "b": 0.5},
                  ["none", "flag", "int", "np_int", "float", "text", "omega"],
                  [[None, 7], [True, False], [3, 12], np.array([4, 5]),
                   [0.1 + 0.2, -0.0], ["closed-form", "quadrature"],
                   np.ma.array([0.25, 1.0 / 3.0], mask=[True, False])])
    assert path.read_text() == (
        "# command = test\n"
        "# b = 0.5\n"
        "none,flag,int,np_int,float,text,omega\n"
        ",true,3,4,0.3,closed-form,\n"
        "7,false,12,5,-0,quadrature,0.333333333333333\n")


def test_threshold_annulus_dual_route(tmp_path):
    out = str(tmp_path)
    code = run_cli(["threshold", "--model", "EulerAnnulus",
                    "--param", "r1=0.1", "--param", "r2=10",
                    "--b", "0.3,0.5,0.8", "--out", out])
    assert code == 0
    _, header, rows = read_csv(os.path.join(out, "threshold.csv"))
    for row in rows:
        assert row[header.index("found")] == "true"
        assert row[header.index("in_s")] == "true"
        assert row[header.index("min_fold")] == row[
            header.index("closed_threshold")]


def test_threshold_exterior_values(tmp_path):
    out = str(tmp_path)
    code = run_cli(["threshold", "--model", "EulerExterior",
                    "--param", "r=0.1", "--b", "0.5", "--out", out])
    assert code == 0
    _, header, rows = read_csv(os.path.join(out, "threshold.csv"))
    assert float(rows[0][header.index("v1")]) == pytest.approx(1.5)
    assert float(rows[0][header.index("v2")]) == 0.0
    assert rows[0][header.index("in_s")] == "true"


def test_threshold_exterior_fold_matches_closed_route(tmp_path):
    out = str(tmp_path)
    code = run_cli(["threshold", "--model", "EulerExterior",
                    "--param", "r=0.3", "--b", "0.52", "--out", out])
    assert code == 0
    _, header, rows = read_csv(os.path.join(out, "threshold.csv"))
    assert rows[0][header.index("min_fold")] == "1"
    assert rows[0][header.index("closed_threshold")] == "1"


def test_spectra_annulus_high_modes_near_inner_boundary(tmp_path):
    # (r2^2/b)^n overflowed here before the closed forms were scaled
    out = str(tmp_path)
    code = run_cli(["spectra", "--model", "EulerAnnulus", "--param", "r1=0.1",
                    "--param", "r2=10", "--b", "0.2", "--n", "1:128",
                    "--out", out])
    assert code == 0
    _, header, rows = read_csv(os.path.join(out, "spectra.csv"))
    assert len(rows) == 128
    assert all(np.isfinite(float(row[header.index("delta")])) for row in rows)


def test_qgsw_disc_reaches_high_bessel_orders(tmp_path, capsys):
    # the p series of modes n >= 25 runs over the zeros of J_n for such n
    model = ["--model", "QgswDisc", "--param", "eps=2", "--param", "r=2",
             "--b", "0.5"]
    out = str(tmp_path)
    assert run_cli(["spectra", *model, "--n", "1:40", "--out", out]) == 0
    assert run_cli(["threshold", *model, "--out", out]) == 0
    assert "no convergence" not in capsys.readouterr().err
    _, header, rows = read_csv(os.path.join(out, "spectra.csv"))
    assert len(rows) == 40
    assert all(np.isfinite(float(row[header.index("p_nb")])) for row in rows)


def test_qgsw_disc_large_eps_r_does_not_overflow(tmp_path):
    # eps R = 800 overflows an unscaled I_0(eps R) in the K1 constants
    assert run_cli(["spectra", "--model", "QgswDisc", "--param", "eps=400",
                    "--param", "r=2", "--b", "0.5", "--n", "1:3",
                    "--out", str(tmp_path)]) == 0


def test_gsqg_disc_threshold_and_high_modes(tmp_path):
    # the fold scan at b = 0.9 reaches modes past 70, and every cell of
    # modes 1..256 is finite
    model = ["--model", "GsqgDisc", "--param", "beta=0.5", "--param", "r=2"]
    out = str(tmp_path)
    assert run_cli(["threshold", *model, "--b", "0.9", "--out", out]) == 0
    _, header, rows = read_csv(os.path.join(out, "threshold.csv"))
    assert rows[0][header.index("found")] == "true"
    assert int(rows[0][header.index("min_fold")]) >= 1
    assert run_cli(["spectra", *model, "--b", "0.5", "--n", "1:256",
                    "--out", out]) == 0
    _, header, rows = read_csv(os.path.join(out, "spectra.csv"))
    assert len(rows) == 256
    numeric = [k for k, name in enumerate(header)
               if name not in ("source", "classification", "omega_plus",
                               "omega_minus")]
    assert all(np.isfinite(float(row[k])) for row in rows for k in numeric)


def test_verify_passes(tmp_path):
    out = str(tmp_path)
    assert run_cli(["verify", "--out", out]) == 0
    _, header, rows = read_csv(os.path.join(out, "verify.csv"))
    assert all(r[header.index("passed")] == "true" for r in rows)


def test_branch_outputs(tmp_path):
    out = str(tmp_path)
    code = run_cli(["branch", "--model", "EulerPlane", "--b", "0.5",
                    "--m", "5", "--branch", "-", "--s-max", "4e-4",
                    "--steps", "2", "--out", out])
    assert code == 0
    meta, header, rows = read_csv(os.path.join(out, "branch.csv"))
    assert header[:2] == ["s", "omega"]
    assert float(rows[0][0]) == 0.0
    # Omega(0) equals the bifurcation eigenvalue and drifts O(s)
    from vstates import dispersion, models
    pt = dispersion.dispersion_point(models.euler_plane(), 5, 0.5)
    assert float(rows[0][1]) == pytest.approx(pt.omega_minus, abs=1e-12)
    drift = abs(float(rows[-1][1]) - float(rows[0][1]))
    assert drift < 10.0 * float(rows[-1][0])
    # boundary file for s = 0 holds exact circles
    _, bh, brows = read_csv(os.path.join(out, "boundary_000.csv"))
    r_in = [np.hypot(float(r[1]), float(r[2])) for r in brows]
    assert max(abs(v - 0.5) for v in r_in) < 1e-13


def test_branch_numerical_failure_exit_1(tmp_path):
    out = str(tmp_path)
    code = run_cli(["branch", "--model", "EulerPlane", "--b", "0.5",
                    "--m", "5", "--s-max", "3.0", "--steps", "3",
                    "--out", out])
    assert code == 1
    meta, _, rows = read_csv(os.path.join(out, "branch.csv"))
    assert "warning" in meta
    assert len(rows) >= 1    # the converged prefix is still recorded


def test_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "vstates.cli", "spectra",
                           "--model", "EulerPlane", "--b", "0.5",
                           "--n", "1:2", "--out", "/tmp/vstate-entry-test"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
