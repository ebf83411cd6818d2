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
metadata lines, 15 significant digits, deterministic across reruns.
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
import numpy.ma

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
    return model, {"model": args.model,
                   **{f"param.{key}": params[key] for key in sorted(params)}}


def _float_list(args: argparse.Namespace, key: str) -> list[float]:
    """'0.5' | '0.2,0.3' | 'lo:hi:count' (inclusive linspace), not empty."""
    text = _require(args, key).strip()
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            values = np.linspace(float(lo), float(hi), int(count)).tolist()
        else:
            values = [float(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise ValueError
    except ValueError as exc:
        raise UsageError(f"cannot parse {key} specification {text!r}") from exc
    return values


def _int_list(args: argparse.Namespace, key: str) -> list[int]:
    """'4' | '1,2,5' | 'lo:hi' (inclusive), not empty."""
    text = _require(args, key).strip()
    try:
        if ":" in text:
            lo, hi = text.split(":")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(tok) for tok in text.split(",") if tok.strip()]
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


def _column_format(column) -> tuple[str, list]:
    """Row-format field and values of one column: '%.15g' for floats, and
    text for the rest, with true/false for booleans and an empty cell for
    None or a masked entry.  A constant column is formatted once."""
    values = column.tolist() if hasattr(column, "tolist") else list(column)
    first = next((v for v in values if v is not None), None)
    if first is None:
        return "%s", [""] * len(values)
    if isinstance(first, bool):
        fmt = {True: "true", False: "false"}.__getitem__
    else:
        fmt = "%.15g".__mod__ if isinstance(first, float) else str
    if values.count(first) == len(values):
        return "%s", [fmt(first)] * len(values)
    if isinstance(first, float) and None not in values:
        return "%.15g", values
    return "%s", ["" if v is None else fmt(v) for v in values]


def write_csv(path: str, metadata: dict, header: list[str],
              columns: list) -> None:
    """Write one table given as columns, each a sequence or array with one
    entry per row; the format of each field is chosen per column."""
    fields, values = zip(*map(_column_format, columns))
    lines = [f"# {key} = {metadata[key]}" for key in metadata]
    lines.append(",".join(header))
    lines += map(",".join(fields).__mod__, zip(*values))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _out_dir(args: argparse.Namespace) -> str:
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use output directory {args.out}: "
                         f"{exc.strerror}") from exc
    return args.out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectra(args: argparse.Namespace) -> int:
    model, model_meta = _model(args)
    bs, ns = _float_list(args, "b"), _int_list(args, "n")
    header = ["n", "b", "lambda_nb", "lambda_n1", "lambda_tilde_nb",
              "p_nb", "p_n1", "p_tilde_nb", "c_b", "c_tilde_b", "source",
              "a_nb", "b_nb", "delta", "omega_plus", "omega_minus",
              "classification"]
    columns = [[] for _ in header]
    for b in bs:
        p = dispersion.dispersion_point(model, np.array(ns), b)
        r = p.row
        no_root, k = p.delta < 0.0, len(ns)
        block = [p.n, [b] * k, r.lam_nb, r.lam_n1, r.lamt_nb, r.p_nb,
                 r.p_n1, r.pt_nb, [r.c_b] * k, [r.ct_b] * k, [r.source] * k,
                 p.a_nb, p.b_nb, p.delta,
                 np.ma.array(p.omega_plus, mask=no_root),
                 np.ma.array(p.omega_minus, mask=no_root), p.classification]
        for column, values in zip(columns, block):
            column += values if isinstance(values, list) else values.tolist()
    path = os.path.join(_out_dir(args), "spectra.csv")
    meta = {"command": "spectra", **model_meta, "b": args.b, "n": args.n}
    write_csv(path, meta, header, columns)
    print(path)
    return 0


def cmd_universal(args: argparse.Namespace) -> int:
    n, x_max, points = args.fold, args.x_max, args.x_points
    bs = _float_list(args, "b")
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
        path = os.path.join(_out_dir(args), f"universal_b{name}.csv")
        write_csv(path, {"command": "universal", "fold": n, "b": name,
                         "x_max": f"{x_max:g}", "x_points": points},
                  header, columns)
        print(path)
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    (model, model_meta), bs = _model(args), _float_list(args, "b")
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
    path = os.path.join(_out_dir(args), "threshold.csv")
    meta = {"command": "threshold", **model_meta, "b": args.b}
    missing = ", ".join(f"{b:.15g}" for b, fold, *_ in rows if fold is None)
    if missing:  # valid rows (found false), named in a warning
        meta["warning"] = (f"no fold m <= {dispersion._FOLD_CAP} satisfies "
                           f"the conditions at b = {missing}")
        print(f"# warning = {meta['warning']}", file=sys.stderr)
    write_csv(path, meta, header, list(zip(*rows)))
    print(path)
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
              (models.qgsw_disc_identity(x, y, e, truncation=500)
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
    err = max(abs(models.sneddon_series(bi, gi, n, q, a, bb, truncation=2000)
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
    path = os.path.join(_out_dir(args), "verify.csv")
    write_csv(path, {"command": "verify"},
              ["suite", "max_error", "tolerance", "passed"], list(zip(*rows)))
    print(path)
    return 1 if failed else 0


def cmd_branch(args: argparse.Namespace) -> int:
    (model, model_meta), bs = _model(args), _float_list(args, "b")
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
    columns = list(zip(*([s, st.omega, *st.a1, *st.a2, st.iterations,
                          st.residual] for s, st in table)))
    meta = {"command": "branch", **model_meta, "b": f"{b:g}",
            "m": m, "branch": args.branch, "s_max": f"{args.s_max:g}",
            "steps": args.steps, "modes": n_modes}
    if partial:
        meta["warning"] = (f"continuation stopped early: last converged "
                          f"s = {table[-1][0]:g}; {partial}")
    out = _out_dir(args)
    write_csv(os.path.join(out, "branch.csv"), meta, header, columns)
    print(os.path.join(out, "branch.csv"))
    for idx, (s, st) in enumerate(table):
        inner, outer = contour.boundary_export(st)
        path = os.path.join(out, f"boundary_{idx:03d}.csv")
        write_csv(path, {"command": "branch", "s": "%.15g" % s},
                  ["theta", "x_inner", "y_inner", "x_outer", "y_outer"],
                  [st.theta_grid(), inner.real, inner.imag, outer.real,
                   outer.imag])
    if partial:
        print(partial, file=sys.stderr)
        return 1
    return 0


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
    except (contour.GeometryError, contour.BranchError,
            np.linalg.LinAlgError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
