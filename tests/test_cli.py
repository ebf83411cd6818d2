"""Command-line front-end: exit codes, CSV schema, config handling."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from vstates import cli, contour, dispersion, models, universal


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


def test_main_builds_one_parser_per_process(tmp_path):
    cli._parser.cache_clear()
    for b in ("0.3", "0.5", "0.7"):
        assert run_cli(["spectra", "--model", "EulerPlane", "--b", b,
                        "--n", "1:2", "--out", str(tmp_path / b)]) == 0
    assert cli._parser.cache_info().misses == 1
    # the public builder still returns a new parser
    assert cli.build_parser() is not cli.build_parser()


def test_param_of_one_call_stays_out_of_the_next(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli(["spectra", "--model", "GsqgPlane", "--param", "beta=0.5",
                    "--b", "0.5", "--n", "1:2", "--out", a]) == 0
    assert run_cli(["spectra", "--model", "EulerPlane", "--b", "0.5",
                    "--n", "1:2", "--out", b]) == 0
    meta_a, _, _ = read_csv(os.path.join(a, "spectra.csv"))
    meta_b, _, _ = read_csv(os.path.join(b, "spectra.csv"))
    assert meta_a["param.beta"] == "0.5"
    assert not [key for key in meta_b if key.startswith("param.")]


def test_usage_errors_leave_the_next_call_unchanged(tmp_path):
    args = ["spectra", "--model", "QgswPlane", "--param", "eps=1.0",
            "--b", "0.5", "--n", "1:3", "--out"]
    first = str(tmp_path / "first")
    assert run_cli(args + [first]) == 0
    # one call the parser refuses, then one that main refuses
    with pytest.raises(SystemExit) as exc:
        run_cli(["spectra", "--model", "EulerPlane", "--m", "two",
                 "--param", "beta=0.5", "--out", str(tmp_path / "bad")])
    assert exc.value.code == 2
    assert run_cli(["spectra", "--model", "EulerPlane", "--param", "beta",
                    "--b", "0.5", "--n", "1:3",
                    "--out", str(tmp_path / "bad")]) == 2
    again = str(tmp_path / "again")
    assert run_cli(args + [again]) == 0
    with open(os.path.join(first, "spectra.csv"), "rb") as f1, \
            open(os.path.join(again, "spectra.csv"), "rb") as f2:
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


_CUSTOM = ["spectra", "--model", "CustomConvolution", "--param"]
_ATOMS = "error: bad model spec: atoms needs x:m pairs,"


@pytest.mark.parametrize("args, message", [
    (["spectra", "--model", "EulerDisc", "--param", "r=nan"], None),
    (["spectra", "--model", "QgswPlane", "--param", "eps=inf"], None),
    (["spectra", "--model", "EulerPlane", "--param", "beta=3"], None),
    (_CUSTOM + ["family=truncated_low", "--param", "x_star=nan"], None),
    (_CUSTOM + ["family=truncated_low", "--param", "x_star=0"], None),
    (_CUSTOM + ["family=truncated_high", "--param", "x_star=2", "--param",
                "gamma=-1"], None),
    (_CUSTOM + ["atoms=nan:1"], None),
    (_CUSTOM + ["atoms=1"], f"{_ATOMS} got '1'"),
    (_CUSTOM + ["atoms=1:2:3"], f"{_ATOMS} got '1:2:3'"),
    (_CUSTOM + ["atoms=2:1, a:2"], f"{_ATOMS} got 'a:2'"),
    (_CUSTOM + ["family=truncated_low", "--param", "x_star=2", "--param",
                "amplitude=-1"], None),
    (_CUSTOM + ["family=euler_flat", "--param", "beta=0.5"], None),
    (["spectra", "--model", "EulerDisc"], None),
    (["branch", "--model", "EulerPlane", "--m", "5", "--s-max", "nan"],
     "error: branch_continue needs a finite s_max"),
    (["universal", "--x-max", "inf"], "error: universal needs x_max > 0"),
    (["universal", "--fold", "262145", "--x-points", "2"],
     "error: phi_nb requires n <= 262144, got 262145"),
    (["universal", "--fold", "0"], "error: phi_nb requires n >= 1"),
    (["branch", "--model", "EulerPlane", "--m", "5", "--steps", "0"],
     "error: branch_continue needs steps >= 1"),
    (["branch", "--model", "EulerPlane", "--m", "5", "--steps", "-2"],
     "error: branch_continue needs steps >= 1"),
    (["threshold", "--model", "QgswPlane", "--param", "eps=2", "--k-max",
      "1"], "error: min_fold needs k_max >= 2"),
    (["threshold", "--model", "EulerPlane", "--k-max", "0"],
     "error: min_fold needs k_max >= 2"),
    (["branch", "--model", "EulerPlane", "--m", "0"],
     "error: branch_continue needs m >= 1"),
    (["branch", "--model", "EulerPlane", "--m", "5", "--modes", "0"],
     "error: branch_continue needs n_modes >= 1"),
    (["branch", "--model", "EulerPlane", "--m", "5", "--s-max", "0",
      "--steps", "3"], "error: branch_continue needs s_max != 0"),
    (["branch", "--model", "QgswDisc", "--param", "eps=2", "--param", "r=2",
      "--m", "5"], "error: contour dynamics not supported for 'QgswDisc'"),
    (["branch", "--model", "GsqgDisc", "--param", "beta=0.5", "--param",
      "r=2", "--m", "5"],
     "error: contour dynamics not supported for 'GsqgDisc'"),
    (["branch", "--model", "CustomConvolution", "--param",
      "family=gsqg_power", "--param", "beta=0.5", "--m", "5"],
     "error: contour dynamics not supported for 'CustomConvolution'"),
], ids=["r-nan", "eps-inf", "unused-beta", "x_star-nan", "x_star-0",
        "gamma-negative", "atom-nan", "atom-no-mass", "atom-three-parts",
        "atom-not-a-number", "amplitude-negative", "flat-beta",
        "r-missing", "s_max-nan", "x_max-inf", "fold-past-node-cap", "fold-0",
        "steps-0", "steps-negative",
        "k_max-1", "k_max-0", "m-0", "modes-0", "s_max-0", "branch-QgswDisc",
        "branch-GsqgDisc", "branch-CustomConvolution"])
def test_bad_model_specs_are_usage_errors(tmp_path, capsys, args, message):
    # every bad parameter is refused before the output directory is made
    modes = ["--n", "1:3"] if args[0] == "spectra" else []
    out = tmp_path / "out"
    assert run_cli(args + ["--b", "0.5", *modes, "--out", str(out)]) == 2
    assert not out.exists()
    assert (message or "error: bad model spec") in capsys.readouterr().err


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


@pytest.mark.parametrize("command, options", [
    ("branch", {"model": "EulerPlane", "b": "0.5", "m": "5", "branch": "-",
                "s_max": "4e-4", "steps": "2", "modes": "4"}),
    ("threshold", {"model": "EulerPlane", "b": "0.4,0.6", "k_max": "3"}),
    ("universal", {"b": "0.5", "fold": "2", "x_max": "5", "x_points": "11"}),
])
def test_config_file_gives_every_option_as_its_flag(tmp_path, command,
                                                    options):
    conf = tmp_path / "run.ini"
    conf.write_text("".join(f"{key} = {val}\n"
                            for key, val in options.items()))
    flags = [item for key, val in options.items()
             for item in (f"--{key.replace('_', '-')}", val)]
    from_file, from_flags = tmp_path / "file", tmp_path / "flags"
    assert run_cli([command, "--config", str(conf),
                    "--out", str(from_file)]) == 0
    assert run_cli([command, *flags, "--out", str(from_flags)]) == 0
    names = sorted(p.name for p in from_file.iterdir())
    assert names and names == sorted(p.name for p in from_flags.iterdir())
    for name in names:
        assert ((from_file / name).read_bytes()
                == (from_flags / name).read_bytes())


def test_missing_config_file():
    assert run_cli(["spectra", "--config", "/nonexistent.ini"]) == 2


@pytest.mark.parametrize("args", [
    ["verify", "--b", "0.5"],
    ["verify", "--model", "EulerPlane"],
    ["spectra", "--model", "EulerPlane", "--b", "0.5", "--n", "1:3",
     "--m", "3"],
    ["spectra", "--model", "EulerPlane", "--b", "0.5", "--n", "1:3",
     "--k-max", "3"],
    ["universal", "--n", "1:3"],
    ["universal", "--model", "EulerPlane"],
    ["threshold", "--model", "EulerPlane", "--b", "0.5", "--m", "3"],
    ["threshold", "--model", "EulerPlane", "--b", "0.5", "--n", "1:3"],
    ["branch", "--model", "EulerPlane", "--b", "0.5", "--m", "5",
     "--s-max", "4e-4", "--steps", "1", "--n", "1:3"],
    ["universal", "--m", "3"],
], ids=["verify-b", "verify-model", "spectra-m", "spectra-k_max",
        "universal-n", "universal-model", "threshold-m", "threshold-n",
        "branch-n", "universal-m"])
def test_each_command_refuses_the_options_it_does_not_read(tmp_path, capsys,
                                                           args):
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("args", [
    ["threshold", "--model", "EulerPlane", "--b", "0.5", "--k", "3"],
    ["branch", "--model", "EulerPlane", "--b", "0.5", "--m", "5",
     "--s-max", "4e-4", "--st", "2"],
    ["spectra", "--mod", "EulerPlane", "--b", "0.5", "--n", "1:3"],
], ids=["threshold-k", "branch-st", "spectra-mod"])
def test_abbreviated_flags_are_refused(tmp_path, args):
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("command, text, flag", [
    ("spectra", "model = EulerPlane\nb = 0.5\nn = 1:3\nk_max = 3\n",
     "--k-max"),
    ("threshold", "model = EulerPlane\nb = 0.5\nn = 1:3\n", "--n"),
    ("universal", "b = 0.5\nfold = 2\nmodel = EulerPlane\n", "--model"),
    ("branch", "model = EulerPlane\nb = 0.5\nm = 5\ns_max = 4e-4\n"
     "stpes = 1\n", "--stpes"),
    ("threshold", "model = EulerPlane\nb = 0.5\nk = 3\n", "--k"),
    ("verify", "[run]\nb = 0.5\n", "--b"),
    ("spectra", "model = EulerPlane\nb = 0.5\nn = 1:3\nconfig = x.ini\n",
     "--config"),
], ids=["spectra-k_max", "threshold-n", "universal-model", "branch-stpes",
        "threshold-k", "verify-b", "spectra-config"])
def test_config_keys_the_command_does_not_take_exit_2(tmp_path, capsys,
                                                      command, text, flag):
    conf = tmp_path / "run.ini"
    conf.write_text(text)
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(conf), "--out", str(out)]) == 2
    assert (f"error: {conf}: {command} takes no {flag}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "model = EulerPlane\nb = 0.5\nn = 1:3\nb = 0.6\n",
    "model = EulerPlane\nb = 0.5\nn = 1:3\nsteps\n",
    None,
], ids=["duplicate-key", "no-equals", "directory"])
def test_unreadable_config_files_exit_2(tmp_path, capsys, text):
    conf = tmp_path / "run.ini"
    if text is None:
        conf.mkdir()
    else:
        conf.write_text(text)
    out = tmp_path / "out"
    assert run_cli(["spectra", "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(conf) in err
    assert not out.exists()


@pytest.mark.parametrize("text, line", [
    ("model = EulerPlane\nb = 0.5\nn = 1:3\nb = 0.6\n", 4),
    ("model = EulerPlane\nb = 0.5\nn 1:3\n", 3),
    ("[run]\n# b : 3\n; n 2\n\nmodel = EulerPlane\nb: 0.5\n", 6),
    ("model = EulerPlane\nB = 0.5\nb = 0.6\n", 3),
], ids=["duplicate-key", "no-equals", "colon", "duplicate-in-other-case"])
def test_config_errors_name_the_line_of_the_file(tmp_path, capsys, text,
                                                 line):
    # the line as the file numbers it, and `=` as the only delimiter: the
    # line `n 1:3` is refused as it stands, not read as key `n 1`
    conf = tmp_path / "run.ini"
    conf.write_text(text)
    out = tmp_path / "out"
    assert run_cli(["spectra", "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    bad = text.splitlines()[line - 1]
    assert err == (f"error: {conf}, line {line}: expected a new "
                   f"key = value, got {bad!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("key, message", [
    ("steps = two", "argument --steps: invalid int value: 'two'"),
    ("s_max = tiny", "argument --s-max: invalid float value: 'tiny'"),
    ("branch = x", "argument --branch: invalid choice: 'x' "
                   "(choose from '+', '-')"),
], ids=["steps", "s_max", "branch"])
def test_config_values_the_flag_refuses_name_the_file(tmp_path, capsys, key,
                                                      message):
    conf = tmp_path / "t2.ini"
    conf.write_text(f"model = EulerPlane\nb = 0.5\nm = 5\n{key}\n")
    out = tmp_path / "out"
    assert run_cli(["branch", "--config", str(conf), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {conf}: {message}\n"
    assert not out.exists()


def test_an_out_that_names_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert run_cli(["spectra", "--model", "EulerPlane", "--b", "0.5",
                    "--n", "1:3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert out.read_text() == ""


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


def test_universal_bad_b_writes_nothing(tmp_path, capsys):
    # every b is checked before the first table is written
    out = str(tmp_path / "out")
    code = run_cli(["universal", "--b", "0.5,1.5", "--x-max", "5",
                    "--x-points", "11", "--out", out])
    assert code == 2
    assert "universal needs b in (0, 1)" in capsys.readouterr().err
    assert not os.path.exists(out) or os.listdir(out) == []


def test_universal_names_each_b_to_the_precision_of_its_cells(tmp_path):
    # b values that agree to six digits get a file and a `# b` line each
    out = str(tmp_path)
    code = run_cli(["universal", "--b", "0.1234561,0.1234562", "--x-max",
                    "5", "--x-points", "6", "--out", out])
    assert code == 0
    assert sorted(os.listdir(out)) == ["universal_b0.1234561.csv",
                                       "universal_b0.1234562.csv"]
    for b in ("0.1234561", "0.1234562"):
        meta, _, _ = read_csv(os.path.join(out, f"universal_b{b}.csv"))
        assert meta["b"] == b


def test_metadata_keeps_the_inputs_to_fifteen_digits(tmp_path):
    # x_max, a branch's b and s_max, and a model's description print with
    # %.15g, as the cells do, not to six digits
    out = str(tmp_path)
    assert run_cli(["universal", "--b", "0.5", "--x-max", "5.0000001",
                    "--x-points", "3", "--out", out]) == 0
    meta, _, rows = read_csv(os.path.join(out, "universal_b0.5.csv"))
    assert meta["x_max"] == "5.0000001" == rows[-1][0]
    assert run_cli(["branch", "--model", "EulerPlane", "--b", "0.5000001",
                    "--m", "5", "--modes", "4", "--s-max", "0.0012345678",
                    "--steps", "1", "--out", out]) == 0
    meta, _, _ = read_csv(os.path.join(out, "branch.csv"))
    assert (meta["b"], meta["s_max"]) == ("0.5000001", "0.0012345678")
    assert (models.gsqg_plane(0.1234567).describe()
            == "GsqgPlane(beta=0.1234567)")


def test_universal_refuses_b_values_of_one_file_name(tmp_path, capsys):
    # 0.5 and its float neighbour print alike to 15 digits: refused before
    # either table is written
    out = str(tmp_path / "out")
    code = run_cli(["universal", "--b", "0.5,0.5000000000000001",
                    "--x-max", "5", "--x-points", "6", "--out", out])
    assert code == 2
    assert ("universal needs distinct b values, got 0.5,0.5"
            in capsys.readouterr().err)
    assert not os.path.exists(out)


def test_universal_refuses_a_fold_past_the_node_cap_before_any_phi(
        tmp_path, capsys, monkeypatch):
    # phi_nb refuses the fold before phi_n evaluates the x grid
    def no_phi_n(*args, **kwargs):
        raise AssertionError("phi_n evaluated")

    monkeypatch.setattr(universal, "phi_n", no_phi_n)
    assert run_cli(["universal", "--fold", "262145",
                    "--out", str(tmp_path)]) == 2
    assert ("error: phi_nb requires n <= 262144, got 262145"
            in capsys.readouterr().err)


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


def _mode_1_points(monkeypatch):
    # the b of each dispersion_point call on mode 1 alone, the call that
    # reads V^1, V^2 by themselves
    calls, point = [], dispersion.dispersion_point

    def counting_point(model, n, b):
        if np.atleast_1d(n).tolist() == [1]:
            calls.append(b)
        return point(model, n, b)

    monkeypatch.setattr(dispersion, "dispersion_point", counting_point)
    return calls


def test_spectra_takes_v_from_its_rows(tmp_path, monkeypatch):
    # V^1, V^2 come from the mode-1 column of each b's row: no separate
    # mode-1 point
    calls = _mode_1_points(monkeypatch)
    code = run_cli(["spectra", "--model", "GsqgPlane", "--param", "beta=0.5",
                    "--b", "0.3,0.6", "--n", "1:32", "--out", str(tmp_path)])
    assert code == 0
    assert calls == []


def test_threshold_takes_v_from_the_fold_scan(tmp_path, monkeypatch):
    # V^1, V^2 come from min_fold's first block of folds, also when no fold
    # is found: no separate mode-1 point, and the same values
    point = dispersion.dispersion_point
    calls = _mode_1_points(monkeypatch)
    for argv, found in ((["--model", "EulerAnnulus", "--param", "r1=0.1",
                          "--param", "r2=10", "--b", "0.3,0.5,0.8"], "true"),
                        (["--model", "QgswPlane", "--param", "eps=2",
                          "--b", "0.3,0.5,0.8"], "true"),
                        (["--model", "EulerPlane", "--b", "0.98",
                          "--k-max", "2"], "false")):
        code = run_cli(["threshold", *argv, "--out", str(tmp_path)])
        assert code == 0
        assert calls == []
        meta, header, rows = read_csv(os.path.join(tmp_path,
                                                   "threshold.csv"))
        model = cli._model(cli._parser().parse_args(
            ["threshold", *argv]))[0]
        for row in rows:
            assert row[header.index("found")] == found
            want = point(model, [1], float(row[0]))
            assert [float(row[header.index(k)]) for k in ("v1", "v2")] == [
                float("%.15g" % v) for v in (want.v1, want.v2)]


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
    meta, header, rows = read_csv(os.path.join(out, "threshold.csv"))
    assert "warning" not in meta
    for row in rows:
        assert row[header.index("found")] == "true"
        assert row[header.index("in_s")] == "true"
        assert row[header.index("min_fold")] == row[
            header.index("closed_threshold")]


def test_threshold_names_the_b_without_a_fold(tmp_path, capsys):
    # at b = 0.995 no fold m <= 64 passes the scan; the row is still a
    # valid answer, so the run exits 0 and names that b in one warning
    out = str(tmp_path)
    code = run_cli(["threshold", "--model", "EulerAnnulus",
                    "--param", "r1=0.1", "--param", "r2=10",
                    "--b", "0.5,0.995", "--out", out])
    assert code == 0
    meta, header, rows = read_csv(os.path.join(out, "threshold.csv"))
    assert [row[header.index("found")] for row in rows] == ["true", "false"]
    warning = "no fold m <= 64 satisfies the conditions at b = 0.995"
    assert meta["warning"] == warning
    assert f"# warning = {warning}\n" in capsys.readouterr().err


def test_unconverged_rho_rule_reaches_the_metadata(tmp_path, capsys):
    # at beta = 0.01, R = 2 no two orders of the gSQG disc's rho rule agree
    # to 1e-12: the rows are written, exit 0, and the note goes to the CSV
    # metadata and stderr of every table of the model, after any warning
    # of the command itself, and never as a Python warning
    out = str(tmp_path)
    model = ["--model", "GsqgDisc", "--param", "beta=0.01", "--param", "r=2"]
    note = ("gSQG disc rho rule at beta = 0.01, R = 2 is not converged to "
            "1e-12 at order 128")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["spectra", *model, "--b", "0.5", "--n", "1:4",
                        "--out", out]) == 0
        assert run_cli(["threshold", *model, "--b", "0.5,0.995",
                        "--out", out]) == 0
    meta = read_csv(os.path.join(out, "spectra.csv"))[0]
    assert meta["warning"] == note
    meta, header, rows = read_csv(os.path.join(out, "threshold.csv"))
    if rows[1][header.index("found")] == "false":
        note += "; no fold m <= 64 satisfies the conditions at b = 0.995"
    assert meta["warning"] == note
    assert f"# warning = {note}\n" in capsys.readouterr().err


@pytest.mark.parametrize("args, spec", [
    (["threshold", "--model", "EulerPlane", "--b", ","], "b specification ','"),
    (["spectra", "--model", "EulerPlane", "--b", ",", "--n", "1:3"],
     "b specification ','"),
    (["spectra", "--model", "EulerPlane", "--b", "0.5", "--n", ","],
     "n specification ','"),
    (["spectra", "--model", "EulerPlane", "--b", "0.5", "--n", "3:1"],
     "n specification '3:1'"),
    (["universal", "--b", ","], "b specification ','"),
], ids=["threshold-b", "spectra-b", "spectra-n", "spectra-n-range",
        "universal-b"])
def test_empty_value_lists_are_usage_errors(tmp_path, capsys, args, spec):
    # a list with no values is refused, naming its option, before the
    # output directory is made
    out = tmp_path / "out"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: cannot parse {spec}\n"


def test_threshold_flags_a_b_outside_s(tmp_path, capsys):
    # V^1 - V^2 -> 0 as b -> 1: at b = 1 - 1e-11 the gap is below the
    # degeneracy tolerance, so that row reads in_s and found false, the
    # warning names it, and the row at b = 0.5 is written as well
    out = str(tmp_path)
    code = run_cli(["threshold", "--model", "EulerDisc", "--param", "r=2",
                    "--b", "0.5,0.99999999999", "--out", out])
    assert code == 0
    meta, header, rows = read_csv(os.path.join(out, "threshold.csv"))
    assert [row[header.index("in_s")] for row in rows] == ["true", "false"]
    assert [row[header.index("found")] for row in rows] == ["true", "false"]
    assert rows[1][header.index("min_fold")] == ""
    warning = ("no fold m <= 64 satisfies the conditions at "
               "b = 0.99999999999")
    assert meta["warning"] == warning
    assert f"# warning = {warning}\n" in capsys.readouterr().err


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


def test_custom_gsqg_spectra_match_the_closed_model(tmp_path):
    # the node rule of the power-law measure against the closed gSQG forms,
    # n = 1..128: before it the far-field model of phi_n was off by 2e-4 on
    # lambda_nb and 18 on delta at n = 128
    tables = []
    for name, model in (("custom", ["--model", "CustomConvolution",
                                    "--param", "family=gsqg_power",
                                    "--param", "beta=0.5"]),
                        ("closed", ["--model", "GsqgPlane",
                                    "--param", "beta=0.5"])):
        out = str(tmp_path / name)
        assert run_cli(["spectra", *model, "--b", "0.5", "--n", "1:128",
                        "--out", out]) == 0
        tables.append(read_csv(os.path.join(out, "spectra.csv"))[1:])
    (header, custom), (_, closed) = tables
    assert len(custom) == len(closed) == 128
    for key in ("lambda_nb", "lambda_n1", "lambda_tilde_nb", "delta"):
        i = header.index(key)
        np.testing.assert_allclose([float(r[i]) for r in custom],
                                   [float(r[i]) for r in closed],
                                   rtol=0.0, atol=1e-11)


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


def test_verify_fails_on_a_wrong_bessel_smooth_factor(tmp_path, monkeypatch):
    # the contour-jacobian suite evaluates the QGSW plane kernel too: a
    # relative error of 1e-6 in its smooth self-interaction factor fails it
    factors = models.KernelModel.k0_factors

    def scaled(model, d, g, stream):
        sing, smooth = factors(model, d, g, stream)
        if model.k0[0] == "bessel" and smooth is not None:
            smooth = smooth * (1.0 + 1e-6)
        return sing, smooth

    monkeypatch.setattr(models.KernelModel, "k0_factors", scaled)
    out = str(tmp_path)
    assert run_cli(["verify", "--out", out]) == 1
    _, header, rows = read_csv(os.path.join(out, "verify.csv"))
    failed = {r[0] for r in rows if r[header.index("passed")] == "false"}
    assert failed == {"contour-jacobian"}


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
    pt = dispersion.dispersion_point(models.euler_plane(), [5], 0.5)
    assert float(rows[0][1]) == pytest.approx(pt.omega_minus[0], abs=1e-12)
    drift = abs(float(rows[-1][1]) - float(rows[0][1]))
    assert drift < 10.0 * float(rows[-1][0])
    # per-point diagnostics close the row: the eval_f calls that accepted
    # the point and its residual then, both 0 at the annulus
    assert header[-2:] == ["iterations", "residual"]
    assert len(header) == 2 + 2 * 8 + 2
    assert [int(r[-2]) for r in rows] == [0] + [
        st.iterations for st in contour.branch_continue(
            models.euler_plane(), 0.5, 5, "-", s_max=4e-4, steps=2,
            n_modes=8)[1:]]
    assert float(rows[0][-1]) == 0.0
    assert all(int(r[-2]) > 0 and float(r[-1]) < 1e-11
               for r in rows[1:])
    # boundary file for s = 0 holds exact circles
    _, bh, brows = read_csv(os.path.join(out, "boundary_000.csv"))
    r_in = [np.hypot(float(r[1]), float(r[2])) for r in brows]
    assert max(abs(v - 0.5) for v in r_in) < 1e-13


def test_branch_row_is_a_complete_state(tmp_path):
    # a row of branch.csv holds the whole state: rebuilt from its 15-digit
    # cells, it solves the discretized problem to the residual it records
    out = str(tmp_path)
    assert run_cli(["branch", "--model", "EulerPlane", "--b", "0.5",
                    "--m", "5", "--modes", "8", "--s-max", "0.3",
                    "--steps", "3", "--out", out]) == 0
    meta, header, rows = read_csv(os.path.join(out, "branch.csv"))
    model = models.model_from_dict({"variant": meta["model"]})
    assert len(rows) == 4
    for row in rows:
        vals = [float(c) for c in row]
        st = contour.PerturbationState(
            b=float(meta["b"]), m=int(meta["m"]), n_modes=8, a1=vals[2:10],
            a2=vals[10:18], omega=vals[1], s=vals[0])
        res = contour.eval_f(model, st).norm()
        assert res < 1e-11
        assert abs(res - vals[header.index("residual")]) <= 1e-15


def test_branch_numerical_failure_exit_1(tmp_path, capsys):
    out = str(tmp_path)
    code = run_cli(["branch", "--model", "EulerPlane", "--b", "0.5",
                    "--m", "5", "--s-max", "3.0", "--steps", "3",
                    "--out", out])
    assert code == 1
    meta, _, rows = read_csv(os.path.join(out, "branch.csv"))
    assert "warning" in meta
    assert len(rows) >= 1    # the converged prefix is still recorded
    # the step to s = 2 makes the boundaries cross, and both say so
    cause = ("continuation failed at s = 2: boundary curves intersect "
             "(by 4.6e-03)")
    assert cause in meta["warning"]
    assert cause in capsys.readouterr().err


def test_branch_messages_give_s_to_fifteen_digits(tmp_path, capsys):
    # the warning's last converged s is the last s cell, and the failure
    # names its s to the digits of the cells as well
    out = str(tmp_path)
    code = run_cli(["branch", "--model", "EulerPlane", "--b", "0.5",
                    "--m", "5", "--s-max", "2.5", "--steps", "3",
                    "--out", out])
    assert code == 1
    meta, _, rows = read_csv(os.path.join(out, "branch.csv"))
    assert rows[-1][0] == "0.833333333333333"
    assert meta["warning"].startswith(
        "continuation stopped early: last converged s = 0.833333333333333; "
        "continuation failed at s = 1.66666666666667: ")
    assert "continuation failed at s = 1.66666666666667: " in (
        capsys.readouterr().err)


def test_universal_unconverged_phi_n_exits_1(tmp_path, capsys, monkeypatch):
    # a row that has not converged at the order cap is a numerical failure,
    # never a written cell
    monkeypatch.setattr(universal, "_phi_gauss",
                        lambda ns, xs, order: np.full((len(ns), xs.size),
                                                      float(order)))
    code = run_cli(["universal", "--fold", "3", "--x-max", "2",
                    "--x-points", "3", "--out", str(tmp_path)])
    assert code == 1
    assert ("numerical failure: phi_n has not converged at n = 3, x = 0 "
            "with 192-point Gauss panels") in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "vstates.cli", "spectra",
                           "--model", "EulerPlane", "--b", "0.5",
                           "--n", "1:2", "--out", "/tmp/vstate-entry-test"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
