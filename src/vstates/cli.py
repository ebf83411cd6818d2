"""Batch front-end for the spectral and contour computations.

Commands
    spectra     dispersion tables over (n, b) grids
    universal   samples of phi_n, phi_{n,b} and Psi_b (figure data)
    threshold   per-b symmetry threshold and velocity-gap table
    verify      identity suites (series vs closed forms, Jacobian checks)
    branch      bifurcation-branch continuation plus boundary curves

Configuration is flat INI-style text; every key has a matching command-line
flag and flags override file values.  Output is plain CSV with '#'-prefixed
metadata lines, 15 significant digits, deterministic across reruns.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys

import numpy as np

from . import models, dispersion, contour, universal

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """Bad configuration or flags; maps to exit code 2."""


def _require(cfg: dict, key: str):
    if cfg.get(key) in (None, ""):
        raise UsageError(f"missing required option '{key}'")
    return cfg[key]


def _model(cfg: dict) -> models.KernelModel:
    spec = {"variant": _require(cfg, "model"), **cfg.get("params", {})}
    try:
        return models.model_from_dict(spec)
    except ValueError as exc:
        raise UsageError(f"bad model spec: {exc}") from exc


def _b_values(cfg: dict) -> list[float]:
    return _parse_float_list(str(_require(cfg, "b")), "b")


def _parse_float_list(text: str, name: str) -> list[float]:
    """'0.5' | '0.2,0.3' | 'lo:hi:count' (inclusive linspace)."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            count = int(count)
            if count < 1:
                raise ValueError
            return [float(x) for x in np.linspace(float(lo), float(hi), count)]
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse {name} specification {text!r}") from exc


def _parse_int_list(text: str, name: str) -> list[int]:
    """'4' | '1,2,5' | 'lo:hi' (inclusive)."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse {name} specification {text!r}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    with open(path) as fh:
        text = fh.read()
    if not text.lstrip().startswith("["):
        text = "[run]\n" + text
    parser.read_string(text)
    out: dict = {}
    params: dict = {}
    for section in parser.sections():
        for key, val in parser.items(section):
            if key.startswith("param."):
                params[key[len("param."):]] = val
            else:
                out[key] = val
    if params:
        out["params"] = params
    return out


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


def _out_dir(cfg: dict) -> str:
    out = str(cfg.get("out", "."))
    os.makedirs(out, exist_ok=True)
    return out


def _model_metadata(cfg: dict) -> dict:
    meta = {"model": cfg.get("model", "")}
    params = cfg.get("params", {})
    for key in sorted(params):
        meta[f"param.{key}"] = params[key]
    return meta


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectra(cfg: dict) -> int:
    model = _model(cfg)
    bs = _b_values(cfg)
    ns = _parse_int_list(str(_require(cfg, "n")), "n")
    if not ns:
        raise UsageError("empty n range")
    header = ["n", "b", "lambda_nb", "lambda_n1", "lambda_tilde_nb",
              "p_nb", "p_n1", "p_tilde_nb", "c_b", "c_tilde_b", "source",
              "a_nb", "b_nb", "delta", "omega_plus", "omega_minus",
              "classification"]
    columns = [[] for _ in header]
    for b in bs:
        p = dispersion.dispersion_point(model, np.array(ns), b)
        r = p.row
        source = _source_text(r.source)
        no_root, k = p.delta < 0.0, len(ns)
        block = [p.n, [b] * k, r.lam_nb, r.lam_n1, r.lamt_nb, r.p_nb,
                 r.p_n1, r.pt_nb, [r.c_b] * k, [r.ct_b] * k, [source] * k,
                 p.a_nb, p.b_nb, p.delta,
                 np.ma.array(p.omega_plus, mask=no_root),
                 np.ma.array(p.omega_minus, mask=no_root), p.classification]
        for column, values in zip(columns, block):
            column += values if isinstance(values, list) else values.tolist()
    path = os.path.join(_out_dir(cfg), "spectra.csv")
    meta = {"command": "spectra", **_model_metadata(cfg),
            "b": cfg.get("b"), "n": cfg.get("n")}
    write_csv(path, meta, header, columns)
    print(path)
    return 0


def _source_text(source: dict) -> str:
    # the lambda route, "closed-form" or "quadrature", plus the p route
    # where p is neither zero nor closed: "closed-form/p-quadrature"
    text = "closed-form" if source["lambda"] == "closed" else source["lambda"]
    return text if source["p"] in ("zero", "closed") else \
        f"{text}/p-{source['p']}"


def cmd_universal(cfg: dict) -> int:
    n = int(cfg.get("fold", 1))
    bs = _parse_float_list(str(cfg.get("b", "0.5")), "b")
    x_max = float(cfg.get("x_max", 20.0))
    points = int(cfg.get("x_points", 201))
    if points < 2 or not 0.0 < x_max < math.inf:
        raise UsageError("universal needs x_max > 0 and x_points >= 2")
    if not all(0.0 < b < 1.0 for b in bs):
        raise UsageError("universal needs b in (0, 1)")
    xs = np.linspace(0.0, x_max, points)
    out = _out_dir(cfg)
    header = ["x", f"phi_{n}", f"phi_{n}_b", "psi_b"]
    for b in bs:
        columns = [xs, universal.phi_n(n, xs), universal.phi_nb(n, b, xs),
                   universal.psi_b(b, xs)]
        path = os.path.join(out, f"universal_b{b:g}.csv")
        write_csv(path, {"command": "universal", "fold": n, "b": f"{b:g}",
                         "x_max": f"{x_max:g}", "x_points": points},
                  header, columns)
        print(path)
    return 0


def cmd_threshold(cfg: dict) -> int:
    model = _model(cfg)
    bs = _b_values(cfg)
    k_max = int(cfg.get("k_max", 10))
    header = ["b", "min_fold", "delta_inf", "v1", "v2", "in_s", "found"]
    closed_check = dispersion.has_closed_fold(model)
    if closed_check:
        header.append("closed_threshold")
    rows = []
    for b in bs:
        v1, v2 = dispersion.v_constants(model, b)
        try:
            fold = dispersion.min_fold(model, b, k_max=k_max)
            found = True
        except dispersion.FoldNotFound:
            fold, found = None, False
        row = [b, fold, (v1 - v2) ** 2, v1, v2,
               abs(v1 - v2) > dispersion.DEGENERACY_TOL, found]
        if closed_check:
            row.append(_closed_threshold(model, b))
        rows.append(row)
    path = os.path.join(_out_dir(cfg), "threshold.csv")
    meta = {"command": "threshold", **_model_metadata(cfg), "b": cfg.get("b")}
    write_csv(path, meta, header, list(zip(*rows)))
    print(path)
    return 0


def _closed_threshold(model: models.KernelModel, b: float) -> int | None:
    ns = np.arange(1, 201)
    hits = ns[dispersion.annulus_fold_inequality(model, b, ns)]
    return int(hits[0]) if hits.size else None


def cmd_verify(cfg: dict) -> int:
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
    path = os.path.join(_out_dir(cfg), "verify.csv")
    write_csv(path, {"command": "verify"},
              ["suite", "max_error", "tolerance", "passed"], list(zip(*rows)))
    print(path)
    return 1 if failed else 0


def cmd_branch(cfg: dict) -> int:
    model = _model(cfg)
    bs = _b_values(cfg)
    if len(bs) != 1:
        raise UsageError("branch expects a single b value")
    b = bs[0]
    m = int(_require(cfg, "m"))
    branch = str(cfg.get("branch", "+"))
    if branch not in ("+", "-"):
        raise UsageError("branch selector must be '+' or '-'")
    s_max = float(cfg.get("s_max", 1e-3))
    if not math.isfinite(s_max):
        raise UsageError(f"branch needs a finite s_max, got {s_max}")
    steps = int(cfg.get("steps", 8))
    n_modes = int(cfg.get("modes", 8))
    out = _out_dir(cfg)
    partial = None
    try:
        table = contour.branch_continue(model, b, m, branch=branch,
                                        s_max=s_max, steps=steps,
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
    meta = {"command": "branch", **_model_metadata(cfg), "b": f"{b:g}",
            "m": m, "branch": branch, "s_max": f"{s_max:g}", "steps": steps,
            "modes": n_modes}
    if partial:
        meta["warning"] = (f"continuation stopped early: last converged "
                          f"s = {table[-1][0]:g}; {partial}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vstate",
        description="Spectral tables, thresholds and bifurcation branches "
                    "for doubly connected rotating patches.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--model", default=None, help="model variant name")
        p.add_argument("--param", action="append", default=None,
                       metavar="KEY=VAL", help="model parameter, repeatable")
        p.add_argument("--b", default=None,
                       help="b values: single, comma list, or lo:hi:count")
        p.add_argument("--n", default=None,
                       help="mode range: single, comma list, or lo:hi")
        p.add_argument("--m", default=None, type=int, help="fold symmetry")
        p.add_argument("--out", default=None, help="output directory")
        if name == "universal":
            p.add_argument("--fold", default=None, type=int)
            p.add_argument("--x-max", dest="x_max", default=None, type=float)
            p.add_argument("--x-points", dest="x_points", default=None,
                           type=int)
        if name == "threshold":
            p.add_argument("--k-max", dest="k_max", default=None, type=int)
        if name == "branch":
            p.add_argument("--branch", default=None, choices=["+", "-"])
            p.add_argument("--s-max", dest="s_max", default=None, type=float)
            p.add_argument("--steps", default=None, type=int)
            p.add_argument("--modes", default=None, type=int)
    return parser


# the parser of main, built once per process; parse_args leaves it as it was
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    flag_values = {key: val for key, val in vars(args).items()
                   if key not in ("command", "config", "param")}
    try:
        file_values = _load_config(args.config)
        if args.param:
            params = dict(file_values.get("params", {}))
            for item in args.param:
                if "=" not in item:
                    raise UsageError(f"--param needs KEY=VAL, got {item!r}")
                key, val = item.split("=", 1)
                params[key.strip()] = val.strip()
            flag_values["params"] = params
        cfg = {**file_values, **{key: val for key, val in flag_values.items()
                                 if val is not None}}
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (dispersion.FoldNotFound, contour.GeometryError,
            contour.BranchError, np.linalg.LinAlgError, ArithmeticError,
            RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
