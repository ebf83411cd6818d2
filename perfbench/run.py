"""Benchmark of the vstates command-line workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the workload's job list in a fresh interpreter
(``worker.py``), so lazy caches start cold as in a user's ``vstate`` run.
Repetitions repeat until about S seconds have passed; ``wall_s`` is their
mean and the other end-to-end metrics are medians over them.  Outputs are
checked after timing has stopped, and every job's output digest must agree
across the repetitions of one run.

With ``--trace 1`` untraced and traced repetitions alternate; the traced
ones time calls into each module (``spans.py``) and give the per-layer
metrics, and the run adds an ``eval_f`` probe table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
the run (machine, repetitions, job verdicts) goes to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types

# one BLAS thread, here and in the workers: the matrices are small, and a
# second thread only spins on the host's other core, where it measures
# whatever else runs there
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(BENCH_DIR, "runs")

sys.path.insert(0, BENCH_DIR)
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# a run must end well inside the 180 s limit, checks and probe included
RUN_LIMIT_S = 150.0
# eval_f probe: (grid label, fold m, modes); grid size is 4 * m * modes
PROBE_GRIDS = (("N128", 4, 8), ("N320", 5, 16))
PROBE_MODELS = (workloads.EULER_PLANE, workloads.GSQG_PLANE,
                workloads.QGSW_PLANE, workloads.EULER_DISC,
                workloads.EULER_EXTERIOR, workloads.EULER_ANNULUS)
PROBE_B = 0.5
PROBE_BUDGET_S = 0.25
# interpreters per run that only set up, for more set-up samples
SETUP_SAMPLES = 1
# repetitions of the job list per run, at least
MIN_REPS = 3

# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def _loadavg() -> list[float]:
    return [round(v, 2) for v in os.getloadavg()]


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it reports one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_probe_ms() -> float:
    """Median time of a fixed mix of single-threaded interpreter and numpy
    work, so that changes in the host's speed between runs show."""
    import numpy as np

    vec = np.linspace(0.0, 1.0, 100_000)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i % 7
        for _ in range(20):
            vec = np.cos(vec)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def machine_record() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
            "loadavg_before": _loadavg(), "probe_ms": machine_probe_ms()}


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def run_rep(work: str, index: int | str, jobs: list[dict], traced: bool,
            timeout: float) -> dict:
    """One repetition of the job list in a fresh interpreter."""
    rep_dir = os.path.join(work, f"rep{index}")
    os.makedirs(rep_dir)
    spec_jobs = []
    for job in jobs:
        out = os.path.join(rep_dir, job["id"])
        spec_jobs.append({"argv": job["argv"] + ["--out", out], "out": out})
    spec = {"src": SRC, "trace": traced,
            "spans_path": os.path.join(rep_dir, "spans.bin"),
            "models": workloads.model_specs(jobs), "jobs": spec_jobs}
    spec_path = os.path.join(rep_dir, "spec.json")
    result_path = os.path.join(rep_dir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path,
             result_path], capture_output=True, text=True, timeout=timeout)
        error = None if proc.returncode == 0 else (
            f"worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    except subprocess.TimeoutExpired:
        error = f"worker timed out after {timeout:.0f} s"
    rep = {"index": index, "traced": traced, "dir": rep_dir,
           "spans_path": spec["spans_path"], "error": error,
           "elapsed_s": time.perf_counter() - t0}
    if error is None:
        with open(result_path) as fh:
            rep.update(json.load(fh))
        rep["digests"] = [
            _digest(os.path.join(rep_dir, job["id"]))
            if os.path.isdir(os.path.join(rep_dir, job["id"])) else None
            for job in jobs]
    return rep


def setup_samples(work: str, start: float) -> list[float]:
    """Set-up times of interpreters that run no job.  A first, discarded
    one warms the file cache and the bytecode cache."""
    out = []
    for idx in range(SETUP_SAMPLES + 1):
        timeout = max(10.0, RUN_LIMIT_S - (time.perf_counter() - start))
        rep = run_rep(work, f"setup{idx}", [], False, timeout)
        if rep["error"] is not None:
            raise RuntimeError(rep["error"])
        if idx:
            out.append(rep["setup_s"])
    return out


def run_reps(work: str, jobs: list[dict], seconds: float, trace: bool,
             start: float) -> list[dict]:
    """Repeat the job list until the next repetition would end after
    `seconds`, at least MIN_REPS times.  When tracing, untraced and traced
    repetitions alternate."""
    reps: list[dict] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        elapsed = time.perf_counter() - start
        timeout = max(10.0, RUN_LIMIT_S - elapsed - 20.0)
        rep = run_rep(work, len(reps), jobs, traced, timeout)
        reps.append(rep)
        if rep["error"] is not None:
            break
        elapsed = time.perf_counter() - start
        longest = max(r["elapsed_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + longest > seconds:
            break
        # very slow repetitions: keep time for the checks and the probe
        if elapsed + 2.0 * longest > RUN_LIMIT_S * 0.6:
            break
    return reps


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _import_vstates() -> types.SimpleNamespace:
    sys.path.insert(0, SRC)
    from vstates import cmkernel, contour, dispersion, models, universal
    return types.SimpleNamespace(cmkernel=cmkernel, contour=contour,
                                 dispersion=dispersion, models=models,
                                 universal=universal)


def _signature(outcome: dict) -> str | None:
    if outcome["status"] == "ok":
        return None
    first = outcome["message"].splitlines()[-1] if outcome["message"] else ""
    return f"{outcome['status']}: {first}"


def _known(job: dict, failure: str, inventory: list[dict]) -> bool:
    for entry in inventory:
        lo, hi = entry["b"]
        if (entry["command"] == job["command"]
                and entry["model"] == job["model"]
                and job["b"] is not None and lo <= job["b"] <= hi
                and entry["failure"] in failure):
            return True
    return False


def verdicts(jobs: list[dict], reps: list[dict], vs,
             inventory: list[dict]) -> list[dict]:
    """Per job: its failure text (or None) and whether the inventory knows
    it, plus how many repetitions failed.  Checks use the first
    repetition's output; later repetitions must reproduce it exactly."""
    first = reps[0]
    out = []
    for idx, job in enumerate(jobs):
        outcome = first["jobs"][idx]
        failure = _signature(outcome)
        if failure is None:
            problems = checks.check_job(
                job, os.path.join(first["dir"], job["id"]), vs)
            if problems:
                failure = "check: " + "; ".join(problems[:3])
        known = failure is not None and _known(job, failure, inventory)
        failed_reps = len(reps) if failure is not None else 0
        drift = []
        for rep in reps[1:]:
            same = (rep["jobs"][idx]["status"] == outcome["status"]
                    and rep["digests"][idx] == first["digests"][idx])
            if not same:
                drift.append(rep["index"])
        if failure is None:
            failed_reps += len(drift)
        out.append({"id": job["id"], "argv": job["argv"], "failure": failure,
                    "known": known, "failed_reps": failed_reps,
                    "nondeterministic_reps": drift})
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _branch_diagnostics(jobs: list[dict], rep: dict, vs) -> dict:
    points, res, refined = 0, 0.0, 0.0
    for job in jobs:
        if job["command"] != "branch":
            continue
        out_dir = os.path.join(rep["dir"], job["id"])
        if not os.path.exists(os.path.join(out_dir, "branch.csv")):
            continue
        plain = checks.branch_residuals(job, out_dir, vs)
        fine = checks.branch_residuals(job, out_dir, vs, refine=True)
        points += len(plain)
        res = max([res] + [r for _, r in plain])
        refined = max([refined] + [r for _, r in fine])
    return {"points": points, "residual_max": res, "refined_max": refined}


def eval_f_probe(vs) -> dict[str, float]:
    """ms per eval_f call at the trivial state, per model and grid."""
    out = {}
    for variant, params in PROBE_MODELS:
        model = vs.models.model_from_dict({"variant": variant, **params})
        for label, m, modes in PROBE_GRIDS:
            state = vs.contour.trivial_state(PROBE_B, m, modes)
            times = []
            spent = time.perf_counter()
            while not times or (len(times) < 5 and time.perf_counter() - spent
                                < PROBE_BUDGET_S):
                t0 = time.perf_counter()
                vs.contour.eval_f(model, state)
                times.append(time.perf_counter() - t0)
            out[f"contour.eval_f.ms_per_call.{variant}.{label}"] = (
                statistics.median(times) * 1e3)
    return out


def _layer_values(summary: dict) -> dict[str, float]:
    sp = summary["spans"]

    def calls(*names):
        return float(sum(sp.get(n, {}).get("calls", 0) for n in names))

    def self_s(*names):
        return sum(sp.get(n, {}).get("self_s", 0.0) for n in names)

    def distinct(name):
        n = calls(name)
        return summary["distinct"].get(name, 0) / n if n else 1.0

    bessel = ("specfun.bessel_j", "specfun.bessel_jp", "specfun.bessel_i",
              "specfun.bessel_k")
    vals = {
        "contour.eval_f.calls": calls("contour.eval_f"),
        "contour.eval_f.self_s": self_s("contour.eval_f"),
        "contour.branch_continue.self_s": self_s("contour.branch_continue"),
        "dispersion.v_constants.calls": calls("dispersion.v_constants"),
        "dispersion.v_constants.distinct_ratio":
            distinct("dispersion.v_constants"),
        "specfun.bessel.calls": calls(*bessel),
        "specfun.bessel.self_s": self_s(*bessel),
        "models.series_p.self_s": self_s("models.series_p"),
        "models.sneddon_integral.self_s": self_s("models.sneddon_integral"),
        "cmkernel.spectral_integral.calls":
            calls("cmkernel.spectral_integral"),
        "cmkernel.Measure.density.calls": calls("cmkernel.Measure.density"),
        "numpy.fft.calls": calls("numpy.fft.fft", "numpy.fft.ifft"),
        "cli.write_csv.calls": calls("cli.write_csv"),
        "cli.write_csv.self_s": self_s("cli.write_csv"),
    }
    for name in ("dispersion.dispersion_point", "dispersion.spectral_row",
                 "dispersion.min_fold", "models.closed_lambda",
                 "models.closed_tilde_lambda", "models.closed_p",
                 "specfun.hyp2f1", "specfun.bessel_zeros", "scipy.quad",
                 "universal.phi_n", "universal.phi_nb", "universal.psi_b",
                 "numpy.leggauss", "models.v1_v2", "models.c_terms"):
        vals[f"{name}.calls"] = calls(name)
        vals[f"{name}.self_s"] = self_s(name)
    for name in ("models.v1_v2", "models.c_terms"):
        vals[f"{name}.distinct_ratio"] = distinct(name)
    for command in ("spectra", "universal", "threshold", "verify", "branch"):
        vals[f"cli.{command}.s"] = sp.get(f"cli.cmd_{command}", {}).get(
            "total_s", 0.0)
    return vals


def layer_metrics(jobs: list[dict], reps: list[dict], vs) -> dict[str, float]:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    per_rep = [_layer_values(spans.summarize(r["spans_path"])) for r in traced]
    vals = {k: statistics.median(v[k] for v in per_rep) for k in per_rep[0]}
    vals["cli.write_csv.bytes"] = float(
        statistics.median(r["write_bytes"] for r in traced))
    diag = _branch_diagnostics(jobs, reps[0], vs)
    vals["contour.points_accepted"] = float(diag["points"])
    points = diag["points"]
    vals["contour.eval_f_per_point"] = (
        vals["contour.eval_f.calls"] / points if points else 0.0)
    vals["contour.residual_max"] = diag["residual_max"]
    vals["contour.refined_residual_max"] = diag["refined_max"]
    vals["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    vals["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0)
    vals.update(eval_f_probe(vs))
    return vals


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, jobs: list[dict], work: str,
            start: float, record: dict) -> dict:
    """Run, check and score the workload; fills `record`, returns the
    result object of the last output line."""
    with open(os.path.join(BENCH_DIR, "known_failures.json")) as fh:
        inventory = json.load(fh)["entries"]
    setups = setup_samples(work, start)
    reps = run_reps(work, jobs, args.seconds, bool(args.trace), start)
    broken = [r["error"] for r in reps if r["error"] is not None]
    if broken:
        raise RuntimeError(broken[0])
    vs = _import_vstates()
    verdict = verdicts(jobs, reps, vs, inventory)
    plain = [r for r in reps if not r["traced"]]
    attempted = len(jobs) * len(reps)
    failed_all = sum(v["failed_reps"] for v in verdict)
    failed_unknown = sum(v["failed_reps"] for v in verdict if not v["known"])
    if args.trace:
        values = layer_metrics(jobs, reps, vs)
        values["machine.probe_ms"] = record["machine"]["probe_ms"]
        last = [r for r in reps if r["traced"]][-1]
        shutil.copyfile(last["spans_path"], os.path.join(
            RUNS_DIR, f"{args.workload}-spans.bin"))
    else:
        values = {
            # the mean, not the median: the host's speed drifts within a
            # run, and the mean follows the drift smoothly where a median
            # of a few repetitions jumps between fast and slow phases
            "wall_s": statistics.mean(r["wall_s"] for r in plain),
            "setup_s": statistics.median(
                setups + [r["setup_s"] for r in plain]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "pass_frac": (attempted - failed_all) / attempted,
        }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    record["machine"]["loadavg_after"] = _loadavg()
    record["setup_only_s"] = setups
    record["reps"] = [{"index": r["index"], "traced": r["traced"],
                       "elapsed_s": r["elapsed_s"], "setup_s": r["setup_s"],
                       "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
                       "peak_rss_mb": r["peak_rss_mb"],
                       "job_s": [round(j["seconds"], 4) for j in r["jobs"]]}
                      for r in reps]
    record["jobs"] = verdict
    record["fail_frac"] = {"failed": failed_all, "attempted": attempted,
                           "known": failed_all - failed_unknown}
    return {"correct": failed_unknown == 0, "attempted": attempted,
            "failed": failed_unknown, "metrics": metrics}


def report(record: dict, result: dict, record_path: str) -> None:
    mach, frac = record["machine"], record["fail_frac"]
    plain = [r for r in record["reps"] if not r["traced"]]
    print(f"workload {record['workload']}  seed {record['seed']}  jobs "
          f"{len(record['jobs'])}  reps {len(plain)} plain + "
          f"{len(record['reps']) - len(plain)} traced")
    print(f"machine  nproc {mach['nproc']}  python {mach['python']}  numpy "
          f"{mach['numpy']}  scipy {mach['scipy']}  blas_threads "
          f"{mach['blas_threads']}  probe {mach['probe_ms']:.1f} ms  loadavg "
          f"{mach['loadavg_before']} -> {mach['loadavg_after']}")
    print("wall_s per rep  " + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    print("setup_s samples " + " ".join(
        f"{v:.3f}" for v in record["setup_only_s"]
        + [r["setup_s"] for r in plain]))
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {frac['failed']}/{frac['attempted']} = "
          f"{frac['failed'] / frac['attempted']:.4f} ratio (known failures "
          f"{frac['known']}, unexpected {result['failed']})")
    for v in record["jobs"]:
        if v["failure"] is not None and not v["known"]:
            print(f"  FAILED {v['id']}: {' '.join(v['argv'])}: {v['failure']}")
        if v["nondeterministic_reps"]:
            print(f"  NONDETERMINISTIC {v['id']}: reps "
                  f"{v['nondeterministic_reps']} differ from rep 0")
    print(f"record {os.path.relpath(record_path, ROOT)}")


def _terminate(signum, _frame):
    # turn SIGTERM into an exception, so that the running worker is killed
    # and waited for and the work directory is removed
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vstates", "cli.py")):
        print(f"error: no vstates package under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record()}
    jobs = workloads.build(args.workload, args.seed)
    os.makedirs(RUNS_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=RUNS_DIR)
    try:
        result = measure(args, jobs, work, start, record)
    except RuntimeError as exc:  # a worker crashed or ran out of time
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["metrics"] = result["metrics"]
    record_path = os.path.join(
        RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    report(record, result, record_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
