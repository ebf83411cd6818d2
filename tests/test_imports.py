"""Import policy: every model and command runs on numpy alone, so no
command loads scipy.special, runs scipy.integrate or loads scipy.linalg;
`src/` names scipy only where it registers scipy.integrate for a tracer;
and neither the import nor the Euler commands load numpy.ma.

Each case runs in a fresh interpreter, since the test process itself has
imported scipy long before."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

_EULER = {
    "EulerPlane": [],
    "EulerDisc": ["--param", "r=2"],
    "EulerAnnulus": ["--param", "r1=0.1", "--param", "r2=10"],
    "EulerExterior": ["--param", "r=0.3"],
}


def _run(code: str) -> dict:
    # runs code in a fresh interpreter; it prints one JSON line, read back
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


# source of scipy.special, of the scipy.integrate submodules, present only
# once that lazy module has run, and of scipy.linalg, in sys.modules
_SCIPY_LOADED = ("sorted(m for m in sys.modules if m.startswith("
                 "('scipy.special', 'scipy.integrate.', 'scipy.linalg')))")


def _cli_runs(argvs: list[list[str]], out: str) -> dict:
    return _run(f"""
import contextlib, io, json, sys
from vstates import cli
codes = []
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv + ["--out", {out!r}]))
print(json.dumps({{"codes": codes, "scipy": {_SCIPY_LOADED}}}))
""")


@pytest.mark.parametrize("variant", sorted(_EULER))
def test_euler_commands_run_no_scipy(variant, tmp_path):
    model = ["--model", variant] + _EULER[variant]
    b = "0.6" if variant == "EulerExterior" else "0.5"
    result = _cli_runs([
        ["spectra", *model, "--b", b, "--n", "1:16"],
        ["threshold", *model, "--b", b],
        ["branch", *model, "--b", b, "--m", "5", "--modes", "4",
         "--s-max", "0.01", "--steps", "1"],
    ], str(tmp_path))
    assert result == {"codes": [0, 0, 0], "scipy": []}


def test_universal_runs_no_scipy(tmp_path):
    result = _cli_runs([["universal", "--b", "0.3,0.7"]], str(tmp_path))
    assert result == {"codes": [0], "scipy": []}


@pytest.mark.parametrize("spec", [
    {"variant": "QgswPlane", "eps": "2"},
    {"variant": "GsqgPlane", "beta": "0.5"},
    {"variant": "GsqgDisc", "beta": "0.5", "r": "2"},
    {"variant": "QgswDisc", "eps": "2", "r": "2"},
    {"variant": "CustomConvolution", "family": "gsqg_power", "beta": "0.5"},
], ids=lambda spec: spec["variant"])
def test_building_a_scipy_kernel_loads_scipy(spec):
    # the kernels that once computed with scipy.special: building the model
    # and computing a row with it loads none of scipy.special,
    # scipy.integrate or scipy.linalg
    result = _run(f"""
import json, sys
from vstates import dispersion, models
model = models.model_from_dict({spec!r})
dispersion.dispersion_point(model, [1, 2, 3], 0.5)
print(json.dumps({{"after": {_SCIPY_LOADED}}}))
""")
    assert result == {"after": []}


def test_no_command_runs_scipy_integrate_or_linalg(tmp_path):
    # every kind of model built, then every command: the special functions,
    # the custom measure's Gauss-Jacobi rules and verify's quadratures and
    # Bessel zeros come from numpy, so no scipy.special, no scipy.integrate
    # submodule and no scipy.linalg appears in sys.modules
    models = {
        "QgswPlane": ["--param", "eps=2"],
        "GsqgPlane": ["--param", "beta=0.5"],
        "GsqgDisc": ["--param", "beta=0.5", "--param", "r=2"],
        "QgswDisc": ["--param", "eps=2", "--param", "r=2"],
        "CustomConvolution": ["--param", "family=qgsw_shifted",
                              "--param", "eps=2"],
    }
    argvs = []
    for variant, params in models.items():
        model = ["--model", variant, *params]
        argvs += [["spectra", *model, "--b", "0.5", "--n", "1:16"],
                  ["threshold", *model, "--b", "0.6"]]
        if variant.endswith("Plane"):  # the models branch supports
            argvs.append(["branch", *model, "--b", "0.5", "--m", "5",
                          "--modes", "4", "--s-max", "0.01", "--steps", "1"])
    argvs += [["spectra", "--model", "CustomConvolution", "--param",
               "family=gsqg_power", "--param", "beta=0.5", "--b", "0.5",
               "--n", "1:4"], ["verify"], ["universal", "--b", "0.5"]]
    result = _cli_runs(argvs, str(tmp_path))
    assert result == {"codes": [0] * len(argvs), "scipy": []}


def test_src_names_scipy_only_in_the_integrate_registration():
    # outside docstrings and comments, the one mention of scipy in the
    # package is the scipy.integrate registration of models, which a span
    # tracer looks up in sys.modules
    found = []
    for path in sorted((ROOT / "src" / "vstates").glob("*.py")):
        tree = ast.parse(path.read_text())
        docs = {id(node.body[0].value) for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef,
                                     ast.FunctionDef))
                and ast.get_docstring(node) is not None}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and id(node) not in docs:
                text = node.value
            elif isinstance(node, ast.Name):
                text = node.id
            elif isinstance(node, ast.Attribute):
                text = node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                text = " ".join([getattr(node, "module", None) or ""]
                                + [a.name for a in node.names])
            else:
                continue
            if "scipy" in str(text):
                found.append((path.name, text))
    assert found == [("models.py", "scipy.integrate")]


def test_commands_run_where_scipy_is_not_installed(tmp_path):
    # scipy is a test dependency only: with it blocked, the import of cli
    # registers no scipy.integrate and a QGSW and an Euler command succeed
    result = _run(f"""
import contextlib, io, json, sys
sys.modules["scipy"] = None
from vstates import cli, models
codes = []
for argv in (["spectra", "--model", "QgswPlane", "--param", "eps=2",
              "--b", "0.5", "--n", "1:8"],
             ["threshold", "--model", "EulerDisc", "--param", "r=2",
              "--b", "0.5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv + ["--out", {str(tmp_path)!r}]))
print(json.dumps({{"codes": codes, "integrate": models._integrate,
                  "scipy": sorted(m for m in sys.modules
                                  if m.startswith("scipy."))}}))
""")
    assert result == {"codes": [0, 0], "integrate": None, "scipy": []}


def test_cli_import_registers_what_a_tracer_looks_up():
    # the modules whose functions a tracer wraps are in sys.modules after
    # the import, scipy.integrate as a module not run yet
    result = _run(f"""
import json, sys
import vstates.cli
print(json.dumps({{"present": [m in sys.modules for m in (
    "scipy.integrate", "numpy.fft", "numpy.polynomial.legendre")],
    "scipy": {_SCIPY_LOADED}}}))
""")
    assert result == {"present": [True, True, True], "scipy": []}


def test_cli_and_euler_commands_load_no_numpy_ma(tmp_path):
    # the CSV writer takes masks only from its callers' masked arrays, and
    # the fold scan dedupes its modes without np.unique, which loads it
    argvs = [["spectra", "--model", "EulerPlane", "--b", "0.5", "--n", "1:16"],
             ["threshold", "--model", "EulerPlane", "--b", "0.5"],
             ["branch", "--model", "EulerPlane", "--b", "0.5", "--m", "5",
              "--modes", "4", "--s-max", "0.01", "--steps", "1"]]
    result = _run(f"""
import contextlib, io, json, sys
import vstates.cli
loaded = ["numpy.ma" in sys.modules]
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = vstates.cli.main(argv + ["--out", {str(tmp_path)!r}])
    loaded.append([code, "numpy.ma" in sys.modules])
print(json.dumps(loaded))
""")
    assert result == [False, [0, False], [0, False], [0, False]]
