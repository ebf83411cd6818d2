"""Batch front-end for the spectral and contour computations.

Commands
    spectra     dispersion tables over (n, b) grids
    universal   samples of phi_n, phi_{n,b} and Psi_b (figure data)
    threshold   per-b symmetry threshold and velocity-gap table
    verify      identity suites (series vs closed forms, Jacobian checks)
    branch      bifurcation-branch continuation plus boundary curves

Each command takes only the options it reads; abbreviated flags are
refused.  A config file (flat INI-style text) is the flags it spells:
`key = val` is --key val and `param.key = val` is --param key=val; they
go ahead of the command line's flags, which therefore win, and a key the
command does not take exits 2.  Output is plain CSV with '#'-prefixed
metadata lines, 15 significant digits, deterministic across reruns; each
table goes through `_write`, which echoes its warning and prints its path.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import os
import sys

import numpy as np

from . import models, dispersion, contour, universal

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """Bad configuration or flags; maps to exit code 2."""


def _require(args: argparse.Namespace, key: str):
    value = getattr(args, key)
    if value in (None, ""):
        raise UsageError(f"missing required option '{key}'")
    return value


def _model(args: argparse.Namespace) -> tuple[models.KernelModel, dict]:
    """The model of --model and --param, and its metadata lines."""
    params = {}
    for item in args.param:
        if "=" not in item:
            raise UsageError(f"--param needs KEY=VAL, got {item!r}")
        key, val = item.split("=", 1)
        params[key.strip()] = val.strip()
    try:
        model = models.model_from_dict(
            {"variant": _require(args, "model"), **params})
    except ValueError as exc:
        raise UsageError(f"bad model spec: {exc}") from exc
    meta = {"model": args.model,
            **{f"param.{key}": params[key] for key in sorted(params)}}
    _warn(meta, models.model_warning(model))
    return model, meta


def _warn(meta: dict, text: str | None) -> None:
    """Add text to the metadata warning, after any warning already there."""
    if text:
        meta["warning"] = "; ".join(filter(None, (meta.get("warning"), text)))


def _list(args: argparse.Namespace, key: str, kind=float) -> list:
    """A list of floats, '0.5' | '0.2,0.3' | 'lo:hi:count' (inclusive
    linspace), or with kind=int of ints, '4' | '1,2,5' | 'lo:hi'
    (inclusive); not empty."""
    text = _require(args, key).strip()
    try:
        if ":" not in text:
            values = [kind(tok) for tok in text.split(",") if tok.strip()]
        elif kind is int:
            lo, hi = text.split(":")
            values = list(range(int(lo), int(hi) + 1))
        else:
            lo, hi, count = text.split(":")
            values = np.linspace(float(lo), float(hi), int(count)).tolist()
        if not values:
            raise ValueError
    except ValueError as exc:
        raise UsageError(f"cannot parse {key} specification {text!r}") from exc
    return values


def _config_flags(path: str, command: str) -> list[str]:
    """The flags a config file spells: `key = val` is --key=val, with
    underscores as dashes, and `param.key = val` is --param=key=val.  Blank,
    comment (# or ;) and [section] lines are skipped; any other line but a
    new `key = val`, a key the command does not take and a value its flag
    refuses are usage errors naming the file."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    entries = {}
    for lineno, line in enumerate(lines, 1):
        key, eq, val = map(str.strip, line.partition("="))
        if key[:1] in ("#", ";") or not eq and key[:1] in ("", "["):
            continue
        if not key or not eq or key.lower() in entries:
            raise UsageError(f"{path}, line {lineno}: expected a new "
                             f"key = value, got {line.strip()!r}")
        entries[key.lower()] = val
    flags = [f"--param={key[6:]}={val}" if key.startswith("param.") else
             f"--{key.replace('_', '-')}={val}"
             for key, val in entries.items()]
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            unknown = _parser().parse_known_args([command, *flags])[1]
    except SystemExit:  # argparse refused a value: name the file instead
        raise UsageError(f"{path}: " + err.getvalue().rsplit("error: ")[-1]
                         .strip()) from None
    unknown += [flag for flag in flags if flag.startswith("--config=")]
    if unknown:
        raise UsageError(f"{path}: {command} takes no "
                         f"{unknown[0].split('=')[0]}")
    return flags


# ---------------------------------------------------------------------------
# float cells: '%.15g' of a whole table in one numpy pass
# ---------------------------------------------------------------------------
#
# A cell x with decimal exponent e = floor(log10|x|) is scaled to
# y = |x| 10^(14 - e) in long double, and its 15 significant digits are y
# rounded to an integer.  The power is parsed, so correctly rounded, and
# the product rounds once: y is within eps y of the exact product (eps of
# the long double).  A cell is taken where its fraction lies farther from
# 1/2 than twice that bound, plus the double rounding of the fraction, and
# y lies in [1e14, 1e15); its digits are then laid out by a template of
# the %g rules.  Every other cell (a near-tie, a log10 one off, 0, nan,
# inf, |x| outside [1e-290, 1e290)) gets Python's '%.15g'.

# 10^k for k in [-280, 310], at index 294 - e for the scale 10^(14 - e)
_POW10 = np.array([np.longdouble(f"1e{k}") for k in range(-280, 311)])
_TIE = 2.0 * float(np.finfo(np.longdouble).eps)
# the three digits of each chunk c = 0..999 of a 15-digit integer, and, at
# 1000 j + c, the digit count to the last nonzero digit when chunk j is c
_CHUNK_DIGITS = (np.arange(1000)[:, None] // [100, 10, 1] % 10
                 + ord("0")).astype(np.uint8)
_CHUNK_AT = 1000 * np.arange(5)[:, None]
_CHUNK_SIG = np.where(  # 3j + 3 less the trailing zeros of c, 0 for c = 0
    np.arange(1000) > 0, 3 * np.arange(1, 6)[:, None]
    - (np.arange(1000) % 10 == 0) - (np.arange(1000) % 100 == 0), 0).ravel()
_THOUSANDS = (10.0 ** np.arange(15, -1, -3))[:, None]
# the sign and three digits of each exponent, at e + 300
_EXPONENT = np.hstack([
    np.where(np.arange(-300, 301)[:, None] < 0, ord("-"), ord("+")),
    abs(np.arange(-300, 301)[:, None]) // [100, 10, 1] % 10 + ord("0")
]).astype(np.uint8)
# what a template picks from a cell's source row: 15 digits, the marks
# '.', '0', '-', 'e', the exponent's sign and digits, and NUL padding
_SOURCE = 24
_MARKS = np.frombuffer(b".0-e", dtype=np.uint8)
_WIDTH = 22  # '-1.23456789012345e-100'


def _layout(e: int, sig: int, neg: bool) -> list[int]:
    """The source columns of the %g text of a cell with exponent e and sig
    significant digits: fixed notation for -4 <= e < 15, else d.ddde+XX,
    trailing zeros and a bare point dropped."""
    cols = [17] if neg else []
    if e < -4 or e >= 15:
        cols += [0] + ([15, *range(1, sig)] if sig > 1 else [])
        cols += [18, 19, *range(20 if abs(e) >= 100 else 21, 23)]
    elif e < 0:
        cols += [16, 15] + [16] * (-e - 1) + list(range(sig))
    else:
        cols += list(range(e + 1))
        cols += [15, *range(e + 1, sig)] if sig > e + 1 else []
    return cols + [_SOURCE - 1] * (_WIDTH - len(cols))


# templates at 32 c + 2 sig + neg, by the class c of the exponent: e + 4
# in fixed notation, 19 for two exponent digits and 20 for three
_LAYOUTS = np.array([_layout(e, sig, neg) for e in [*range(-4, 15), 15, 100]
                     for sig in range(16) for neg in (False, True)],
                    dtype=np.intp)
_CLASS = np.array([32 * (e + 4 if -4 <= e < 15 else 19 + (abs(e) >= 100))
                   for e in range(-300, 301)])


def _format_floats(values: np.ndarray) -> np.ndarray:
    """'%.15g' % x of each x of a 1-d float64 array, as a str array."""
    size = values.size
    mag = np.abs(values)
    fast = (mag >= 1e-290) & (mag < 1e290)
    mag[~fast] = 1.0
    e = np.floor(np.log10(mag)).astype(np.intp)
    y = mag.astype(np.longdouble) * _POW10[294 - e]
    floor = np.floor(y.astype(float))
    frac = (y - floor).astype(float)  # exact in long double
    fast &= ((np.abs(frac - 0.5) > _TIE * floor + 1e-15)
             & (floor >= 1e14) & (floor < 1e15))
    digits = floor + (frac > 0.5)  # the 15 digits as one integer
    carry = digits == 1e15  # rounded up to the next power of 10
    digits[carry] = 1e14
    e += carry
    # its five 3-digit chunks: floor(digits / 10^3k) is exact below 2^50
    thousands = np.floor(digits / _THOUSANDS)
    chunks = (thousands[1:] - 1000.0 * thousands[:-1]).astype(np.intp)
    sig = np.take(_CHUNK_SIG, chunks + _CHUNK_AT).max(axis=0)
    source = np.empty((size, _SOURCE), dtype=np.uint8)
    source[:, :15] = np.take(_CHUNK_DIGITS, chunks.T, axis=0).reshape(size, 15)
    source[:, 15:19] = _MARKS
    source[:, 19:23] = np.take(_EXPONENT, e + 300, axis=0)
    source[:, 23] = 0
    at = np.take(_LAYOUTS, np.take(_CLASS, e + 300) + 2 * sig
                 + np.signbit(values), axis=0)
    at += np.arange(0, _SOURCE * size, _SOURCE)[:, None]
    text = np.take(source, at).astype(np.uint32).view(f"U{_WIDTH}")[:, 0]
    slow = np.flatnonzero(~fast)
    text[slow] = ["%.15g" % x for x in values[slow].tolist()]
    return text


def _column_cells(column):
    """The cells of one column as text: true/false for booleans, str for
    the rest, and an empty cell for None or a masked entry; a constant
    column is formatted once.  A column of floats comes back instead as its
    values and the indices of its empty cells, for the table's numpy pass;
    only an exact ndarray skips the list route, so no mask is dropped."""
    if type(column) is np.ndarray and column.dtype.kind == "f" and column.size:
        first = column.flat[0]
        if (column == first).all():
            return ["%.15g" % first] * column.size
        return column, []
    values = column.tolist() if hasattr(column, "tolist") else list(column)
    first = next((v for v in values if v is not None), None)
    if first is None:
        return [""] * len(values)
    if isinstance(first, bool):
        fmt = {True: "true", False: "false"}.__getitem__
    else:
        fmt = "%.15g".__mod__ if isinstance(first, float) else str
    if values.count(first) == len(values):
        return [fmt(first)] * len(values)
    if isinstance(first, float):
        floats = np.array(values, dtype=float)  # None gives nan
        nan = np.flatnonzero(np.isnan(floats)).tolist()
        blank = [i for i in nan if values[i] is None]
        floats[blank] = 1.0  # a cell the numpy pass takes, then emptied
        return floats, blank
    return ["" if v is None else fmt(v) for v in values]


def write_csv(path: str, metadata: dict, header: list[str],
              columns: list) -> None:
    """Write one table given as columns, each a sequence or array with one
    entry per row.  The float cells of all columns are formatted in one
    numpy pass, each exactly '%.15g' % x."""
    cells = [_column_cells(column) for column in columns]
    floats = [i for i, c in enumerate(cells) if isinstance(c, tuple)]
    if floats:
        text = _format_floats(np.concatenate([cells[i][0] for i in floats],
                                             dtype=float))
        for i, col in zip(floats, text.reshape(len(floats), -1)):
            col[cells[i][1]] = ""
            cells[i] = col.tolist()
    lines = [f"# {key} = {metadata[key]}" for key in metadata]
    lines.append(",".join(header))
    lines += map(",".join, zip(*cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write(args: argparse.Namespace, name: str, meta: dict,
           header: list[str], columns: list) -> None:
    """Write one table of a command as the file `name` under --out: a
    metadata warning goes to stderr first, as its '# warning = ...' line,
    then the CSV is written and its path printed."""
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use output directory {args.out}: "
                         f"{exc.strerror}") from exc
    path = os.path.join(args.out, name)
    if "warning" in meta:
        print(f"# warning = {meta['warning']}", file=sys.stderr)
    write_csv(path, meta, header, columns)
    print(path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectra(args: argparse.Namespace) -> int:
    model, model_meta = _model(args)
    bs, ns = _list(args, "b"), _list(args, "n", int)
    header = ["n", "b", "lambda_nb", "lambda_n1", "lambda_tilde_nb",
              "p_nb", "p_n1", "p_tilde_nb", "c_b", "c_tilde_b", "source",
              "a_nb", "b_nb", "delta", "omega_plus", "omega_minus",
              "classification"]
    blocks = []
    for b in bs:
        p = dispersion.dispersion_point(model, np.array(ns), b)
        r, k = p.row, len(ns)
        # no root where the discriminant is negative: an empty cell
        omega = [np.where(p.delta < 0.0, None, w)
                 for w in (p.omega_plus, p.omega_minus)]
        blocks.append([p.n, [b] * k, r.lam_nb, r.lam_n1, r.lamt_nb, r.p_nb,
                       r.p_n1, r.pt_nb, [r.c_b] * k, [r.ct_b] * k,
                       [r.source] * k, p.a_nb, p.b_nb, p.delta, *omega,
                       p.classification])
    columns = [np.concatenate(parts) if isinstance(parts[0], np.ndarray)
               else sum(parts, []) for parts in zip(*blocks)]
    _write(args, "spectra.csv", {"command": "spectra", **model_meta,
                                 "b": args.b, "n": args.n}, header, columns)
    return 0


def cmd_universal(args: argparse.Namespace) -> int:
    n, x_max, points = args.fold, args.x_max, args.x_points
    bs = _list(args, "b")
    if points < 2 or not 0.0 < x_max < math.inf:
        raise UsageError("universal needs x_max > 0 and x_points >= 2")
    if not all(0.0 < b < 1.0 for b in bs):
        raise UsageError("universal needs b in (0, 1)")
    # each b names its file with the precision of the CSV cells
    names = [f"{b:.15g}" for b in bs]
    if len(set(names)) < len(names):
        raise UsageError("universal needs distinct b values, got "
                         + ",".join(names))
    xs = np.linspace(0.0, x_max, points)
    header = ["x", f"phi_{n}", f"phi_{n}_b", "psi_b"]
    for b, name in zip(bs, names):
        phi_b = universal.phi_nb([n], b, xs)[0]  # refuses a bad fold first
        columns = [xs, universal.phi_n([n], xs)[0], phi_b,
                   universal.psi_b(b, xs)]
        _write(args, f"universal_b{name}.csv",
               {"command": "universal", "fold": n, "b": name,
                "x_max": f"{x_max:.15g}", "x_points": points}, header, columns)
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    (model, model_meta), bs = _model(args), _list(args, "b")
    header = ["b", "min_fold", "delta_inf", "v1", "v2", "in_s", "found"]
    closed_check = dispersion.has_closed_fold(model)
    if closed_check:
        header.append("closed_threshold")
    rows = []
    for b in bs:
        fold, v1, v2 = dispersion.min_fold(model, b, args.k_max)
        row = [b, fold, (v1 - v2) ** 2, v1, v2,
               abs(v1 - v2) > dispersion.DEGENERACY_TOL, fold is not None]
        if closed_check:
            row.append(_closed_threshold(model, b))
        rows.append(row)
    meta = {"command": "threshold", **model_meta, "b": args.b}
    missing = ", ".join(f"{b:.15g}" for b, fold, *_ in rows if fold is None)
    if missing:  # valid rows (found false), named in a warning
        _warn(meta, f"no fold m <= {dispersion._FOLD_CAP} satisfies the "
                    f"conditions at b = {missing}")
    _write(args, "threshold.csv", meta, header, list(zip(*rows)))
    return 0


def _closed_threshold(model: models.KernelModel, b: float) -> int | None:
    ns = np.arange(1, 201)
    hits = ns[dispersion.annulus_fold_inequality(model, b, ns)]
    return int(hits[0]) if hits.size else None


def cmd_verify(args: argparse.Namespace) -> int:
    suites = []

    # Bessel-zero summation identity for the shifted kernel on the disc
    samples = [(0.9, 0.4, 1.0), (0.7, 0.7, 2.0), (0.5, 0.2, 0.5),
               (0.95, 0.9, 3.0), (0.8, 0.6, 1.0)]
    err = max(abs(s - c) for s, c in
              (models.qgsw_disc_identity(x, y, e)
               for x, y, e in samples))
    suites.append(("qgsw-summation-identity", err, 1e-6))

    # closed forms vs measure quadrature for the flat-measure kernel
    from .cmkernel import euler_flat
    closed = models.euler_plane()
    custom = models.custom_convolution(euler_flat())
    rc, rq = (dispersion.spectral_row(mdl, np.arange(1, 8), 0.5)
              for mdl in (closed, custom))
    err = float(max(np.max(abs(getattr(rc, k) - getattr(rq, k)))
                    for k in ("lam_nb", "lam_n1", "lamt_nb")))
    suites.append(("closed-vs-quadrature", err, 1e-11))

    # dual-Bessel summation against the hypergeometric-plus-integral form
    sets = [(1, 1, 1, 1.5, 0.6, 0.6), (2, 2, 2, 1.5, 0.8, 0.8),
            (1, 1, 1, 1.25, 0.4, 0.9)]
    err = max(abs(models.sneddon_series(bi, gi, n, q, a, bb)
                  - models.sneddon_integral(bi, gi, n, q, a, bb))
              for bi, gi, n, q, a, bb in sets)
    suites.append(("dual-bessel-summation", err, 1e-5))

    # the finite-difference Jacobian of the contour functional at the
    # annulus, on the three plane kernels: its (k, n_modes + k) blocks vs
    # the dispersion multipliers
    b, m, n_modes, omega = 0.5, 4, 4, 0.3
    ks, err = np.arange(1, n_modes + 1), 0.0
    for model in (models.euler_plane(), models.gsqg_plane(0.5),
                  models.qgsw_plane(2.0)):
        jac = contour.jacobian(model,
                               contour.trivial_state(b, m, n_modes, omega))
        point = dispersion.dispersion_point(model, m * ks, b)
        for k in ks.tolist():
            target = -k * m * point.q(omega)[:, :, k - 1]
            i = [k - 1, n_modes + k - 1]
            block = jac[np.ix_(i, i)]
            err = max(err, float(np.max(np.abs(block - target))
                                 / np.max(np.abs(target))))
    suites.append(("contour-jacobian", err, 1e-8))

    rows = []
    failed = False
    for name, err, tol in suites:
        ok = err < tol
        failed = failed or not ok
        rows.append([name, err, tol, ok])
        print(f"{name}: {'PASS' if ok else 'FAIL'} "
              f"(max error {err:.3e}, tolerance {tol:g})")
    _write(args, "verify.csv", {"command": "verify"},
           ["suite", "max_error", "tolerance", "passed"], list(zip(*rows)))
    return 1 if failed else 0


def cmd_branch(args: argparse.Namespace) -> int:
    (model, model_meta), bs = _model(args), _list(args, "b")
    if len(bs) != 1:
        raise UsageError("branch expects a single b value")
    b, m, n_modes = bs[0], _require(args, "m"), args.modes
    partial = None
    try:
        table = contour.branch_continue(model, b, m, branch=args.branch,
                                        s_max=args.s_max, steps=args.steps,
                                        n_modes=n_modes)
    except contour.BranchError as exc:
        table = exc.points
        partial = str(exc)

    header = (["s", "omega"]
              + [f"a1_{k}" for k in range(1, n_modes + 1)]
              + [f"a2_{k}" for k in range(1, n_modes + 1)]
              + ["iterations", "residual"])
    columns = list(zip(*([st.s, st.omega, *st.a1, *st.a2, st.iterations,
                          st.residual] for st in table)))
    meta = {"command": "branch", **model_meta, "b": f"{b:.15g}",
            "m": m, "branch": args.branch, "s_max": f"{args.s_max:.15g}",
            "steps": args.steps, "modes": n_modes}
    if partial:
        _warn(meta, f"continuation stopped early: last converged "
                    f"s = {table[-1].s:.15g}; {partial}")
    _write(args, "branch.csv", meta, header, columns)
    for idx, st in enumerate(table):
        inner, outer = contour.boundary_export(st)
        _write(args, f"boundary_{idx:03d}.csv",
               {"command": "branch", "s": "%.15g" % st.s},
               ["theta", "x_inner", "y_inner", "x_outer", "y_outer"],
               [st.theta_grid(), inner.real, inner.imag, outer.real,
                outer.imag])
    return 1 if partial else 0


_COMMANDS = {
    "spectra": cmd_spectra,
    "universal": cmd_universal,
    "threshold": cmd_threshold,
    "verify": cmd_verify,
    "branch": cmd_branch,
}


# the options of each command besides --config and --out: flag and the
# keyword arguments of its add_argument
_MODEL_OPTIONS = {
    "--model": dict(help="model variant name"),
    "--param": dict(action="append", default=[], metavar="KEY=VAL",
                    help="model parameter, repeatable"),
    "--b": dict(help="b values: single, comma list, or lo:hi:count"),
}
_OPTIONS = {
    "spectra": {**_MODEL_OPTIONS, "--n": dict(
        help="mode range: single, comma list, or lo:hi")},
    "universal": {"--b": dict(default="0.5", help="b values, as for spectra"),
                  "--fold": dict(type=int, default=1),
                  "--x-max": dict(type=float, default=20.0),
                  "--x-points": dict(type=int, default=201)},
    "threshold": {**_MODEL_OPTIONS, "--k-max": dict(type=int, default=10)},
    "verify": {},
    "branch": {**_MODEL_OPTIONS,
               "--m": dict(type=int, help="fold symmetry"),
               "--branch": dict(default="+", choices=["+", "-"]),
               "--s-max": dict(type=float, default=1e-3),
               "--steps": dict(type=int, default=8),
               "--modes": dict(type=int, default=8)},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vstate", allow_abbrev=False,
        description="Spectral tables, thresholds and bifurcation branches "
                    "for doubly connected rotating patches.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", default=".", help="output directory")
        for flag, kwargs in _OPTIONS[name].items():
            p.add_argument(flag, **kwargs)
    return parser


# the parser of main, built once per process; parse_args leaves it as it was
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.config is not None:
            # the file's flags go first, so the command line's win
            argv = sys.argv[1:] if argv is None else argv
            args = _parser().parse_args(
                [argv[0], *_config_flags(args.config, args.command),
                 *argv[1:]])
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (contour.GeometryError, np.linalg.LinAlgError, ArithmeticError,
            RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
