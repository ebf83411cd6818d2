"""Output checks for benchmark jobs.

Every check is an invariant of the written table or a route independent of
the one that produced it; none compares a job with its own earlier output.
Each check function takes the job, its output directory and the imported
``vstates`` modules, and returns a list of failure descriptions (empty when
the output is correct).
"""

from __future__ import annotations

import math
import os

# tolerance of `vstate verify` for closed forms against measure quadrature
FAMILY_TOL = 1e-7
# residual that every accepted branch state must meet on its own grid
RESIDUAL_TOL = 1e-10
# |Omega(s_1) - Omega_pm| <= OMEGA_SLOPE * s_1 at the first branch point
OMEGA_SLOPE = 1.0
# the CLI writes 15 significant digits; identities hold to this relative size
ROUNDING = 1e-12


def read_csv(path: str) -> tuple[dict, list[str], list[list[str]]]:
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
    return meta, header or [], rows


def non_finite(out_dir: str) -> list[str]:
    """Any NaN or inf written to a CSV is a failure."""
    bad = []
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".csv"):
            continue
        _, _, rows = read_csv(os.path.join(out_dir, name))
        for row in rows:
            if any(cell.lower() in ("nan", "inf", "-inf") for cell in row):
                bad.append(f"non-finite value in {name}")
                break
    return bad


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= ROUNDING * scale + 1e-300


def _row_dict(header: list[str], row: list[str]) -> dict:
    return dict(zip(header, row))


def _family_model(vs, job: dict):
    """Built-in closed-form model whose convolution kernel equals the job's
    custom measure, or None when the measure has no built-in family."""
    spec = job["model"]
    if spec["variant"] != "CustomConvolution":
        return None
    if spec.get("family") == "qgsw_shifted":
        return vs.models.qgsw_plane(float(spec["eps"]))
    if spec.get("family") == "gsqg_power":
        return vs.models.gsqg_plane(float(spec["beta"]))
    return None


def check_spectra(job: dict, out_dir: str, vs) -> list[str]:
    _, header, rows = read_csv(os.path.join(out_dir, "spectra.csv"))
    bad = []
    lo, hi = (int(t) for t in job["n"].split(":"))
    if len(rows) != hi - lo + 1:
        bad.append(f"spectra has {len(rows)} rows, expected {hi - lo + 1}")
    family = _family_model(vs, job)
    tol = vs.dispersion.DEGENERACY_TOL
    for raw in rows:
        r = _row_dict(header, raw)
        if any(r[k].lower() in ("nan", "inf", "-inf") for k in r):
            continue  # reported by non_finite
        a, b = float(r["a_nb"]), float(r["b_nb"])
        off = float(r["lambda_tilde_nb"]) + float(r["p_tilde_nb"])
        delta = float(r["delta"])
        scale = (abs(a) + abs(b)) ** 2 + 4.0 * off * off
        if not _close(delta, (a - b) ** 2 - 4.0 * off * off, scale):
            bad.append(f"n={r['n']}: Delta != (A-B)^2 - 4 off^2")
        want = ("stable" if delta > tol else
                "unstable" if delta < -tol else "degenerate")
        if r["classification"] != want:
            bad.append(f"n={r['n']}: classification {r['classification']}"
                       f" for Delta={delta:.3e}")
        if delta >= 0.0:
            root = math.sqrt(delta) / 2.0
            size = abs(a) + abs(b) + root
            for key, sign in (("omega_plus", 1.0), ("omega_minus", -1.0)):
                if r[key] == "" or not _close(
                        float(r[key]), (a + b) / 2 + sign * root, size):
                    bad.append(f"n={r['n']}: {key} is not a root")
        if family is not None:
            bad += _family_match(vs, family, r)
    return bad


def _family_match(vs, model, r: dict) -> list[str]:
    n, b = int(r["n"]), float(r["b"])
    point = vs.dispersion.dispersion_point(model, n, b)
    want = {"lambda_nb": point.row.lam_nb, "lambda_n1": point.row.lam_n1,
            "lambda_tilde_nb": point.row.lamt_nb, "a_nb": point.a_nb,
            "b_nb": point.b_nb}
    return [f"n={n}: {key} differs from {model.variant} closed form by "
            f"{abs(float(r[key]) - val):.2e}"
            for key, val in want.items()
            if not abs(float(r[key]) - val) <= FAMILY_TOL]


def check_threshold(job: dict, out_dir: str, vs) -> list[str]:
    _, header, rows = read_csv(os.path.join(out_dir, "threshold.csv"))
    if len(rows) != 1:
        return [f"threshold has {len(rows)} rows, expected 1"]
    r = _row_dict(header, rows[0])
    if any(r[k].lower() in ("nan", "inf", "-inf") for k in r):
        return []  # reported by non_finite
    bad = []
    v1, v2, dinf = float(r["v1"]), float(r["v2"]), float(r["delta_inf"])
    if not _close(dinf, (v1 - v2) ** 2, (abs(v1) + abs(v2)) ** 2):
        bad.append("delta_inf != (V1 - V2)^2")
    in_s = abs(v1 - v2) > vs.dispersion.DEGENERACY_TOL
    if r["in_s"] != ("true" if in_s else "false"):
        bad.append("in_s disagrees with |V1 - V2|")
    if (r["found"] == "true") != (r["min_fold"] != ""):
        bad.append("found disagrees with min_fold")
    return bad


def check_universal(job: dict, out_dir: str, vs) -> list[str]:
    b = job["b"]
    path = os.path.join(out_dir, f"universal_b{b:g}.csv")
    meta, header, rows = read_csv(path)
    bad = []
    if len(rows) != int(meta["x_points"]):
        bad.append(f"universal has {len(rows)} rows")
    for raw in rows:
        r = _row_dict(header, raw)
        x, val = float(r["x"]), float(r["phi_1_b"])
        ref = vs.universal.phi_1b_closed(b, x)
        if not abs(val - ref) <= 1e-10 * max(1.0, abs(ref)):
            bad.append(f"x={x:g}: phi_1b differs from the closed n=1 form "
                       f"by {abs(val - ref):.2e}")
    return bad


def check_verify(job: dict, out_dir: str, vs) -> list[str]:
    _, header, rows = read_csv(os.path.join(out_dir, "verify.csv"))
    bad = [f"verify suite {r[0]} failed" for r in rows
           if _row_dict(header, r)["passed"] != "true"]
    if not rows:
        bad.append("verify wrote no suites")
    return bad


def branch_states(job: dict, out_dir: str, vs) -> list:
    """(s, PerturbationState) for every row of branch.csv."""
    _, header, rows = read_csv(os.path.join(out_dir, "branch.csv"))
    modes = job["modes"]
    states = []
    for raw in rows:
        vals = [float(c) for c in raw]
        a1 = vals[2:2 + modes]
        a2 = vals[2 + modes:2 + 2 * modes]
        states.append((vals[0], vs.contour.PerturbationState(
            b=job["b"], m=job["m"], n_modes=modes, a1=a1, a2=a2,
            omega=vals[1], s=vals[0])))
    return states


def job_model(vs, job: dict):
    return vs.models.model_from_dict(job["model"])


def branch_residuals(job: dict, out_dir: str, vs, refine: bool = False
                     ) -> list[tuple[float, float]]:
    """eval_f norms of the accepted states; with refine, on the state
    zero-padded to twice as many modes (a finer grid)."""
    model = job_model(vs, job)
    out = []
    for s, st in branch_states(job, out_dir, vs)[1:]:
        if refine:
            pad = [0.0] * st.n_modes
            st = vs.contour.PerturbationState(
                b=st.b, m=st.m, n_modes=2 * st.n_modes,
                a1=list(st.a1) + pad, a2=list(st.a2) + pad,
                omega=st.omega, s=st.s)
        out.append((s, vs.contour.eval_f(model, st).norm()))
    return out


def check_branch(job: dict, out_dir: str, vs) -> list[str]:
    meta, _, rows = read_csv(os.path.join(out_dir, "branch.csv"))
    bad = []
    if "warning" in meta:
        bad.append(f"branch warning: {meta['warning']}")
    if len(rows) != job["steps"] + 1:
        bad.append(f"branch accepted {len(rows) - 1} of {job['steps']} steps")
        return bad
    boundaries = [n for n in os.listdir(out_dir) if n.startswith("boundary_")]
    if len(boundaries) != len(rows):
        bad.append(f"{len(boundaries)} boundary files for {len(rows)} states")
    for s, res in branch_residuals(job, out_dir, vs):
        if not res <= RESIDUAL_TOL:
            bad.append(f"s={s:g}: residual {res:.2e} above {RESIDUAL_TOL:g}")
    model = job_model(vs, job)
    point = vs.dispersion.dispersion_point(model, job["m"], job["b"])
    omega0 = point.omega_plus if job["branch"] == "+" else point.omega_minus
    s1, omega1 = float(rows[1][0]), float(rows[1][1])
    if not abs(omega1 - omega0) <= OMEGA_SLOPE * s1:
        bad.append(f"first point Omega {omega1:.6g} is "
                   f"{abs(omega1 - omega0):.2e} from the dispersion Omega "
                   f"{omega0:.6g} at s={s1:g}")
    return bad


CHECKS = {
    "spectra": check_spectra,
    "threshold": check_threshold,
    "universal": check_universal,
    "verify": check_verify,
    "branch": check_branch,
}


def check_job(job: dict, out_dir: str, vs) -> list[str]:
    """All failures of one successful job's output."""
    try:
        return non_finite(out_dir) + CHECKS[job["command"]](job, out_dir, vs)
    except Exception as exc:  # a check that cannot run fails the job
        return [f"check raised {type(exc).__name__}: {exc}"]
