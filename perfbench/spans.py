"""Span recording around conelab's public functions, from outside the package.

A wrapper replaces a function at every conelab namespace that binds it (for
example ``label_arrays`` in both ``faces`` and ``lifting``), so calls made
through a module attribute and calls made through a ``from ... import`` name
are both recorded. The scipy solvers are wrapped per calling module instead,
which keeps the four oracle LPs of ``faces`` apart from the membership LPs of
``linalg``.

Spans live in memory as ``[name, start, end, parent]`` and are summarised once,
when the op ends: per name, the call count, the total time and the self time
(total minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (span name, module, attribute); the wrapper goes to every conelab namespace
# that holds the same function object.
TARGETS = (
    ("construction.sample_body", "conelab.construction", "sample_body"),
    ("construction.homogenize", "conelab.construction", "homogenize"),
    ("construction.ruling_data", "conelab.construction", "ruling_data"),
    ("faces.label_arrays", "conelab.faces", "label_arrays"),
    ("faces.param_distances", "conelab.faces", "param_distances"),
    ("faces.verify_exposure", "conelab.faces", "verify_exposure"),
    ("faces.build_catalogue", "conelab.faces", "build_catalogue"),
    ("lifting.verify_cone_exposure", "conelab.lifting", "verify_cone_exposure"),
    ("linalg.conic_membership", "conelab.linalg", "conic_membership"),
    ("niceness.shift_profile", "conelab.niceness", "shift_profile"),
    ("niceness.refined_cone", "conelab.niceness", "refined_cone"),
    ("niceness.nice3d_ingredients", "conelab.niceness", "nice3d_ingredients"),
    ("meshes.build_mesh", "conelab.meshes", "build_mesh"),
    ("meshes.write_obj", "conelab.meshes", "write_obj"),
    ("reporting.write_json", "conelab.reporting", "write_json"),
    ("reporting.write_sweep_csv", "conelab.reporting", "write_sweep_csv"),
)

# Foreign solvers, wrapped only in the namespace named by the span.
FOREIGN_TARGETS = (
    ("faces.linprog", "conelab.faces", "linprog"),
    ("linalg.linprog", "conelab.linalg", "linprog"),
    ("linalg.nnls", "conelab.linalg", "nnls"),
    ("linalg.lsq_linear", "conelab.linalg", "lsq_linear"),
)

WRITERS = ("reporting.write_json", "reporting.write_sweep_csv", "meshes.write_obj")


class Recorder:
    """Spans and counters of one op."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn):
        on_result = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.count(f"{name}:{type(exc).__name__}")
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target; returns the targets this version lacks."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "conelab" or n.startswith("conelab."))]
        missing = []
        for name, module, attr in TARGETS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for name, module, attr in FOREIGN_TARGETS:
            mod = sys.modules.get(module)
            original = getattr(mod, attr, None)
            if original is None:
                missing.append(name)
                continue
            setattr(mod, attr, self.wrap(name, original))
        return missing

    def summary(self):
        """Per span name: calls, total_s and self_s; plus the counters."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        layers = {}
        for (name, start, end, _), inner in zip(self.spans, child_s):
            row = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return {"spans": layers, "counters": dict(self.counters)}


def _exposure_result(counter):
    def hook(rec, args, kwargs, report):
        if not report.passed:
            rec.count(counter)
    return hook


def _verdict(rec, args, kwargs, result):
    rec.count("linalg.verdicts")


def _profiled(rec, args, kwargs, result):
    cone = args[0] if args else kwargs["cone"]
    rec.count("niceness.generators_profiled", len(cone.generators))


def _triangles(rec, args, kwargs, mesh):
    rec.count("meshes.triangles", len(mesh.triangles))


def _bytes_out(rec, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    rec.count("reporting.bytes_out", os.path.getsize(path))


_RESULT_HOOKS = {
    "faces.verify_exposure": _exposure_result("faces.failed_reports"),
    "lifting.verify_cone_exposure": _exposure_result("lifting.failed_reports"),
    "linalg.conic_membership": _verdict,
    "niceness.shift_profile": _profiled,
    "meshes.build_mesh": _triangles,
    **{name: _bytes_out for name in WRITERS},
}
