"""Span tracer that times calls into each layer of the vstates package.

The tracer replaces functions with timing wrappers from the outside; the
package itself is not modified.  Several modules bind functions of other
modules under their own names (``dispersion.phi_n`` is ``universal.phi_n``,
``models.bessel_i`` is ``specfun.bessel_i``, ``contour.c_beta`` is
``cmkernel.c_beta``), so every module global that holds a traced function is
rebound, not only the defining module's attribute.

Each call records one span (name, parent span, start, end) in flat arrays
kept in memory; ``Tracer.save`` writes them out once the run has ended and
``summarize`` turns a saved span table into per-name call counts and self
times (span duration minus the time covered by its direct child spans).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# vstates modules whose public functions are traced, in import order
PACKAGE_MODULES = ("specfun", "cmkernel", "universal", "models",
                   "dispersion", "contour", "cli")

# functions outside the package, traced where the package calls them:
# (module, attribute, span name)
EXTERNAL = (
    ("scipy.integrate", "quad", "scipy.quad"),
    ("numpy.polynomial.legendre", "leggauss", "numpy.leggauss"),
    ("numpy.fft", "fft", "numpy.fft.fft"),
    ("numpy.fft", "ifft", "numpy.fft.ifft"),
)


def _model_b_key(model, b, *_args, **_kwargs):
    return (model.variant, tuple(sorted(model.params.items())),
            id(model.measure_obj) if model.measure_obj is not None else None,
            float(b))


# spans whose argument tuples are recorded, to measure repeated work
DISTINCT_KEYS = {
    "dispersion.v_constants": _model_b_key,
    "models.v1_v2": _model_b_key,
    "models.c_terms": _model_b_key,
}


class Tracer:
    """Timing wrappers plus the in-memory span table they fill."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.keys: dict[str, set] = {}
        self._restore: list[tuple] = []  # (setter, key, original value)

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        key_fn = DISTINCT_KEYS.get(name)
        if key_fn is not None:
            seen = self.keys.setdefault(name, set())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_fn is not None:
                seen.add(key_fn(*args, **kwargs))
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- installation -----------------------------------------------------

    def _targets(self) -> dict[int, object]:
        """id(original) -> wrapper for every traced callable (the wrapper
        holds the original, so the ids stay unique)."""
        targets: dict[int, object] = {}
        for short in PACKAGE_MODULES:
            mod = sys.modules[f"vstates.{short}"]
            for attr, value in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != mod.__name__):
                    continue
                targets[id(value)] = self.wrap(f"{short}.{attr}", value)
        for mod_name, attr, name in EXTERNAL:
            value = getattr(sys.modules[mod_name], attr)
            targets[id(value)] = self.wrap(name, value)
        return targets

    def _rebind(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner.__setitem__, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((functools.partial(setattr, owner), key,
                                  getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        """Rebind every module global that holds a traced function, and
        every value of a module-level dict (such as a command table)."""
        targets = self._targets()
        package = [sys.modules[f"vstates.{m}"] for m in PACKAGE_MODULES]
        external = [sys.modules[m] for m, _, _ in EXTERNAL]
        for mod in package + external:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets:
                    self._rebind(mod, attr, targets[id(value)])
                elif isinstance(value, dict) and mod in package:
                    for key, item in list(value.items()):
                        if id(item) in targets:
                            self._rebind(value, key, targets[id(item)])
        measure = sys.modules["vstates.cmkernel"].Measure
        self._rebind(measure, "density", self.wrap(
            "cmkernel.Measure.density", measure.__dict__["density"]))

    def uninstall(self) -> None:
        for setter, key, value in reversed(self._restore):
            setter(key, value)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the span table: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "count": len(self.span_start),
                  "distinct": {k: len(v) for k, v in self.keys.items()}}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


def load(path: str) -> tuple[dict, dict]:
    """Read a span table written by ``Tracer.save``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        arrays = {}
        for key, code in (("name", "i"), ("parent", "i"), ("start", "d"),
                          ("end", "d")):
            arr = array(code)
            arr.fromfile(fh, count)
            arrays[key] = arr
    return header, arrays


def summarize(path: str) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    import numpy as np

    header, arrays = load(path)
    names = header["names"]
    name = np.frombuffer(arrays["name"], dtype=np.int32)
    parent = np.frombuffer(arrays["parent"], dtype=np.int32)
    dur = (np.frombuffer(arrays["end"], dtype=np.float64)
           - np.frombuffer(arrays["start"], dtype=np.float64))
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_time = dur - child
    size = len(names)
    calls = np.bincount(name, minlength=size)
    total = np.bincount(name, weights=dur, minlength=size)
    own = np.bincount(name, weights=self_time, minlength=size)
    out = {n: {"calls": int(calls[i]), "total_s": float(total[i]),
               "self_s": float(own[i])} for i, n in enumerate(names)}
    return {"spans": out, "distinct": header["distinct"],
            "span_count": len(dur)}
