"""The CSV writer: every float cell is '%.15g' % x of its double, made by
one numpy pass for the whole table with Python's '%.15g' as the fallback,
and the table equals the per-cell writer's of `oracles`."""

import math
import struct
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from vstates import cli

import oracles


def _numpy(values):
    return cli._format_floats(np.array(values, dtype=float)).tolist()


def _python(values):
    return ["%.15g" % x for x in values]


# every double, by its bit pattern: subnormals, +-0, nan and +-inf included
_DOUBLES = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


@given(st.lists(st.one_of(_DOUBLES, st.floats()), min_size=1, max_size=64))
@settings(max_examples=400, deadline=None)
def test_format_floats_equals_python_on_all_doubles(values):
    assert _numpy(values) == _python(values)


@given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=64),
       st.integers(-30, 30))
@settings(max_examples=200, deadline=None)
def test_format_floats_equals_python_on_table_scales(values, k):
    # the range of dispersion tables, where nearly every cell is fast
    values = [v * 10.0 ** k for v in values]
    assert _numpy(values) == _python(values)


def _hard_cases() -> list[float]:
    powers = [float(f"1e{k}") for k in range(-20, 21)]
    cases = powers + [math.nextafter(p, 0.0) for p in powers]
    cases += [999999999999999.5, 5e-324, -5e-324, 1.7976931348623157e308,
              -1.7976931348623157e308, 2.2250738858072014e-308, 0.0, -0.0,
              math.nan, math.inf, -math.inf, 1e-290, 1e290, 9.5, 0.5]
    # the 16th significant digit exactly 5: exact ties (integers and binary
    # fractions) and the doubles nearest decimal ones
    ties = [1234567890123455.0, 1000000000000005.0, 8999999999999995.0,
            123456789012345.5, 12345678901234.25, 999999999999999.5]
    near = [float(f"{m}5e{k}") for m in (123456789012345, 100000000000000,
                                         999999999999999)
            for k in range(-40, 41, 7)]
    cases += ties + near
    return cases + [-x for x in cases]


def test_format_floats_on_the_hard_cases():
    cases = _hard_cases()
    assert _numpy(cases) == _python(cases)
    # one at a time too: each cell's route is its own
    assert [_numpy([x])[0] for x in cases] == _python(cases)


def test_format_floats_on_near_ties():
    # doubles whose scaled fraction lies within about 1e-4 of 1/2, found by
    # a scan of 10^6: some round to exactly 1/2 in long double although
    # they are no ties, and only the tie margin sends them to Python
    rng = np.random.default_rng(30)
    x = (rng.uniform(1.0, 10.0, 10 ** 6)
         * 10.0 ** rng.integers(-40, 40, 10 ** 6))
    y = x.astype(np.longdouble) * (
        np.longdouble(10) ** (14 - np.floor(np.log10(x))))
    near = x[np.abs((y - np.floor(y)).astype(float) - 0.5) < 1e-4].tolist()
    assert len(near) > 100
    assert _numpy(near) == _python(near)


def test_powers_of_ten_are_correctly_rounded():
    # the tie margin assumes each scale 10^k within eps/2 of its value
    half_eps = Fraction(float(np.finfo(np.longdouble).eps)) / 2
    for k, p in zip(range(-280, 311), cli._POW10):
        exact = Fraction(10) ** k
        assert abs(Fraction(*p.as_integer_ratio()) - exact) <= exact * half_eps


def test_write_csv_equals_the_per_cell_writer(tmp_path):
    rng = np.random.default_rng(7)
    floats = rng.standard_normal(6) * 10.0 ** rng.integers(-30, 30, 6)
    columns = [
        [True, False, True, True, False, False],
        [3, 12, -4, 0, 7, 10 ** 20],
        np.arange(6, dtype=np.int64),
        [np.int64(k) for k in range(6)],
        [None] * 6,
        [None, 0.5, None, 2.0, -0.0, None],
        [0.25] * 6,
        np.full(6, -1.5),
        [0.0, -0.0, 0.0, 0.0, -0.0, 0.0],  # equal, so one constant cell
        floats.tolist(),
        floats * 3.0,
        np.array([1e-5, 1e15, 1e16, 123456.0, 0.1, 1e-300]),
        np.array([math.nan, math.inf, -math.inf, 5e-324, 1.0, -2.0]),
        [math.nan, None, 1.5, math.nan, None, 2.5],
        np.ma.array(floats, mask=[True, False, False, True, False, False]),
        np.where([True, False] * 3, None, floats),
        ["closed-form", "quadrature"] * 3,
        np.array(["stable", "unstable", "degenerate"] * 2),
    ]
    header = [f"c{i}" for i in range(len(columns))]
    meta = {"command": "test", "b": "0.5"}
    cli.write_csv(str(tmp_path / "numpy.csv"), meta, header, columns)
    oracles.write_csv_per_cell(str(tmp_path / "python.csv"), meta, header,
                               columns)
    text = (tmp_path / "numpy.csv").read_text()
    assert text == (tmp_path / "python.csv").read_text()
    assert text.splitlines()[3].split(",")[5] == ""

