"""Run one repetition of a workload's job list in this (fresh) interpreter.

    python3 worker.py SPEC.json RESULT.json

SPEC holds the source directory, the job list and whether to trace.  The
worker times the import of ``vstates.cli`` plus building the workload's
models (set-up), then each job as one ``vstates.cli.main(argv)`` call, the
path a ``vstate ...`` command takes.  It writes timings, per-job outcomes,
peak memory and CPU time to RESULT, and the span table next to it when
tracing.  Output checks are made by the caller, after timing has stopped.

Files the CLI opens for writing are kept in memory while a job is timed and
written to the job's directory once its timer has stopped: creating small
files on a shared disk varies in time far more than the computation does,
and would drown it.  The CSV text is still built inside the timed call.
"""

import builtins
import contextlib
import io
import json
import os
import resource
import sys
import time


class _HeldFile(io.StringIO):
    """A file opened for writing; its text goes to `held` when closed."""

    def __init__(self, path: str, held: dict[str, str]):
        super().__init__()
        self._path, self._held = path, held

    def close(self) -> None:
        if not self.closed:
            self._held[self._path] = self.getvalue()
        super().close()


def _holding_open(held: dict[str, str]):
    def open_(path, mode="r", *args, **kwargs):
        if "w" in mode:
            return _HeldFile(os.fspath(path), held)
        return builtins.open(path, mode, *args, **kwargs)
    return open_


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import vstates.cli as cli
    from vstates import models
    for model_spec in spec["models"]:
        models.model_from_dict(model_spec)
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    held: dict[str, str] = {}
    cli.open = _holding_open(held)
    outcomes = []
    written = 0
    for job in spec["jobs"]:
        os.makedirs(job["out"])
        out, err = io.StringIO(), io.StringIO()
        cpu0 = time.process_time()
        tj = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(job["argv"])
            status = "ok" if rc == 0 else f"exit {rc}"
            message = err.getvalue().strip()
        except Exception as exc:  # a crash of one job must not end the rep
            status = "raise"
            message = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - tj
        cpu_s = time.process_time() - cpu0
        for path, text in held.items():
            with open(path, "w") as fh:
                written += fh.write(text)
        held.clear()
        outcomes.append({"status": status, "message": message[-400:],
                         "seconds": seconds, "cpu_s": cpu_s})

    if tracer is not None:
        tracer.uninstall()
        tracer.save(spec["spans_path"])

    result = {"setup_s": setup_s,
              "wall_s": sum(o["seconds"] for o in outcomes),
              "cpu_s": sum(o["cpu_s"] for o in outcomes),
              "write_bytes": written,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "jobs": outcomes}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
