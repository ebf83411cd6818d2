"""Job lists of the three workloads, generated from the workload seed.

A job is one ``vstate`` command line for one model and one b value.  The
seed draws only the b values; everything else is fixed here, so the same
seed always gives the same job list.
"""

from __future__ import annotations

import random

# variant, CLI parameters
EULER_PLANE = ("EulerPlane", {})
QGSW_PLANE = ("QgswPlane", {"eps": "2"})
GSQG_PLANE = ("GsqgPlane", {"beta": "0.5"})
EULER_DISC = ("EulerDisc", {"r": "2"})
EULER_ANNULUS = ("EulerAnnulus", {"r1": "0.1", "r2": "10"})
EULER_EXTERIOR = ("EulerExterior", {"r": "0.3"})
GSQG_DISC = ("GsqgDisc", {"beta": "0.5", "r": "2"})
QGSW_DISC = ("QgswDisc", {"eps": "2", "r": "2"})
CUSTOM_TRUNCATED = ("CustomConvolution",
                    {"family": "truncated_low", "x_star": "2"})
CUSTOM_QGSW = ("CustomConvolution", {"family": "qgsw_shifted", "eps": "2"})
CUSTOM_GSQG = ("CustomConvolution", {"family": "gsqg_power", "beta": "0.5"})

# branch jobs: model, b range, fold, modes, s_max, steps
BRANCH_PLANE = (
    (EULER_PLANE, (0.45, 0.55), 5, 8, 0.3, 1),
    (QGSW_PLANE, (0.45, 0.55), 5, 8, 0.3, 1),
    (GSQG_PLANE, (0.45, 0.55), 5, 8, 0.3, 1),
)
BRANCH_BOUNDED = (
    (EULER_DISC, (0.45, 0.55), 5, 4, 0.05, 1),
    (EULER_EXTERIOR, (0.55, 0.65), 5, 4, 0.01, 1),
    (EULER_ANNULUS, (0.45, 0.55), 5, 3, 0.001, 1),
)

# closed-form tables: b values per model, one per equal stratum of the
# model's admissible interval, each with a spectra and a threshold job
CLOSED_MODELS = (EULER_PLANE, QGSW_PLANE, GSQG_PLANE, EULER_DISC,
                 EULER_ANNULUS, EULER_EXTERIOR)
CLOSED_STRATA = 40
CLOSED_MODES = "1:128"

# quadrature tables: model, b range, b count, modes
QUADRATURE_SPECTRA = (
    (CUSTOM_TRUNCATED, (0.2, 0.8), 1, "1:4"),
    (CUSTOM_QGSW, (0.2, 0.8), 1, "1:4"),
    (CUSTOM_GSQG, (0.2, 0.8), 1, "1:4"),
    (GSQG_DISC, (0.2, 0.8), 2, "1:4"),
    (QGSW_DISC, (0.2, 0.8), 2, "1:8"),
)
UNIVERSAL_B = ((0.2, 0.8), 1)

WORKLOADS = ("branch_plane", "branch_bounded", "tables")


def admissible(variant: str, params: dict) -> tuple[float, float]:
    """Open b interval on which the model's spectra are defined."""
    if variant == "EulerAnnulus":
        return (float(params["r1"]), 1.0)
    if variant == "EulerExterior":
        return (float(params["r"]), 1.0)
    return (0.0, 1.0)


def _model_args(model) -> list[str]:
    variant, params = model
    args = ["--model", variant]
    for key, val in params.items():
        args += ["--param", f"{key}={val}"]
    return args


def _job(command: str, model, b: float | None, extra: list[str],
         **info) -> dict:
    argv = [command]
    if model is not None:
        argv += _model_args(model)
    if b is not None:
        argv += ["--b", repr(b)]
    job = {"command": command, "argv": argv + extra, "b": b,
           "model": None if model is None else
           {"variant": model[0], **model[1]}}
    job.update(info)
    return job


def _uniform(rng: random.Random, lo: float, hi: float, count: int
             ) -> list[float]:
    """`count` values, one drawn uniformly from each equal stratum."""
    width = (hi - lo) / count
    return [round(lo + width * (k + rng.random()), 6) for k in range(count)]


def _strictly_inside(values: list[float], lo: float, hi: float) -> list[float]:
    # rounding may land on an endpoint of an open interval
    return [min(max(v, lo + 1e-6), hi - 1e-6) for v in values]


def _branch_jobs(rng: random.Random, table) -> list[dict]:
    jobs = []
    for model, (lo, hi), m, modes, s_max, steps in table:
        (b,) = _uniform(rng, lo, hi, 1)
        jobs.append(_job("branch", model, b,
                         ["--m", str(m), "--modes", str(modes),
                          "--s-max", repr(s_max), "--steps", str(steps)],
                         m=m, modes=modes, s_max=s_max, steps=steps,
                         branch="+"))
    return jobs


def _closed_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for model in CLOSED_MODELS:
        lo, hi = admissible(*model)
        bs = _strictly_inside(_uniform(rng, lo, hi, CLOSED_STRATA), lo, hi)
        for b in bs:
            jobs.append(_job("spectra", model, b, ["--n", CLOSED_MODES],
                             n=CLOSED_MODES))
            jobs.append(_job("threshold", model, b, []))
    return jobs


def _quadrature_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for model, (lo, hi), count, modes in QUADRATURE_SPECTRA:
        for b in _uniform(rng, lo, hi, count):
            jobs.append(_job("spectra", model, b, ["--n", modes], n=modes))
    (lo, hi), count = UNIVERSAL_B
    for b in _uniform(rng, lo, hi, count):
        jobs.append(_job("universal", None, b, []))
    jobs.append(_job("verify", None, None, []))
    return jobs


def build(workload: str, seed: int) -> list[dict]:
    """The job list of `workload` for `seed`, each job with a unique id."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "branch_plane":
        jobs = _branch_jobs(rng, BRANCH_PLANE)
    elif workload == "branch_bounded":
        jobs = _branch_jobs(rng, BRANCH_BOUNDED)
    elif workload == "tables":
        # one workload, not two: the host's speed drifts over minutes, and
        # only the longer runs that fewer workloads allow average it out
        jobs = _closed_jobs(rng) + _quadrature_jobs(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for idx, job in enumerate(jobs):
        job["id"] = f"{idx:03d}-{job['command']}"
    return jobs


def model_specs(jobs: list[dict]) -> list[dict]:
    """Distinct model specs of a job list, in first-use order."""
    out: list[dict] = []
    for job in jobs:
        if job["model"] is not None and job["model"] not in out:
            out.append(job["model"])
    return out
