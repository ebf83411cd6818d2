"""Import policy: the Euler family and the universal functions run on
numpy alone, every other kernel loads scipy.special when its model is
built, and no command runs scipy.integrate or scipy.linalg.

Each case runs in a fresh interpreter, since the test process itself has
imported scipy long before."""

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


# source of the scipy.special and scipy.integrate submodules, present only
# once those lazy modules have run, and of scipy.linalg, in sys.modules
_SCIPY_LOADED = ("sorted(m for m in sys.modules if m.startswith("
                 "('scipy.special.', 'scipy.integrate.', 'scipy.linalg')))")


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
    # scipy.special runs while the model is built, not in its first job;
    # scipy.integrate and scipy.linalg, which no model computes with, do not
    result = _run(f"""
import json, sys
from vstates import models
before = {_SCIPY_LOADED}
models.model_from_dict({spec!r})
after = {_SCIPY_LOADED}
print(json.dumps({{"before": before, "after": after}}))
""")
    assert result["before"] == []
    assert result["after"]
    assert all(m.startswith("scipy.special.") for m in result["after"])


def test_no_command_runs_scipy_integrate_or_linalg(tmp_path):
    # every kind of model built, then every command: the custom measure's
    # Gauss-Jacobi rules and verify's quadratures come from numpy, so no
    # scipy.integrate submodule and no scipy.linalg appears in sys.modules
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
    assert result["codes"] == [0] * len(argvs)
    assert result["scipy"]
    assert all(m.startswith("scipy.special.") for m in result["scipy"])


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
