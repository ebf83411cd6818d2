"""Special-function layer, checked against mpmath and scipy oracles.

The Bessel-zero tables of the disc series (`models._cached_zeros`) are
checked here too.
"""

import ast
import pathlib

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from vstates import models, specfun

mpmath.mp.dps = 30


@pytest.mark.parametrize("n", [0, 1, 3, 64, 128, 500, 2000])
def test_bessel_ik_vs_mpmath(n):
    # I_n(y) K_n(x), a scalar mode and the same mode inside a column;
    # products below 1e-290 underflow to 0 and are skipped
    for y, x in ((0.2, 0.2), (0.2, 1.0), (1.0, 5.0), (5.0, 5.0), (3.0, 50.0),
                 (50.0, 50.0), (0.5, 400.0), (400.0, 400.0), (40.0, 80.0)):
        want = mpmath.besseli(n, y) * mpmath.besselk(n, x)
        if want < 1e-290:
            continue
        got = specfun.bessel_ik(n, y, x)
        assert isinstance(got, float)
        assert got == pytest.approx(float(want), rel=5e-14)
        assert specfun.bessel_ik(np.array([0, n]), y, x)[1] == got


def test_bessel_zero_interlacing():
    z0 = models._cached_zeros(0, 20)
    z1 = models._cached_zeros(1, 20)
    assert np.all(z0[:-1] < z1[:-1])
    assert np.all(z1[:-1] < z0[1:])


def test_bessel_zero_spacing_approaches_pi():
    zeros = models._cached_zeros(2, 60)
    gaps = np.diff(zeros)[-10:]
    assert np.max(np.abs(gaps - np.pi)) < 1e-3


@pytest.mark.parametrize("n", [25, 64, 128])
def test_bessel_zeros_of_high_orders(n):
    # the QGSW disc spectra reach these orders; each zero annihilates J_n
    zeros = models._cached_zeros(n, 500)
    assert zeros.shape == (500,)
    assert np.all(np.diff(zeros) > 0)
    assert np.max(np.abs(sp.jv(n, zeros))) < 1e-13


def test_cached_zeros_are_shared_and_read_only():
    zeros = models._cached_zeros(3, 40)
    assert models._cached_zeros(3, 40) is zeros
    with pytest.raises(ValueError):
        zeros[0] = 0.0


def test_jn_zeros_is_called_only_in_cached_zeros():
    # the package takes every table of Bessel zeros from _cached_zeros
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "vstates"
    inside, outside = 0, []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        spans = [(node.lineno, node.end_lineno)
                 for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_cached_zeros"]
        for lineno, line in enumerate(text.splitlines(), 1):
            if "jn_zeros(" not in line:
                continue
            if any(lo <= lineno <= hi for lo, hi in spans):
                inside += 1
            else:
                outside.append(f"{path.name}:{lineno}")
    assert outside == []
    assert inside == 1
