"""Per-layer spans recorded from outside the program.

The tracer rebinds public names of the ``pinkhorn`` modules to timing
wrappers: a module global is rebound where the caller looks it up (so
``kl_terms`` called from ``solvers`` and from ``otx`` are separate layers),
and constructors and ``ConstraintSystem.dots`` are wrapped on their class.
Each call leaves one span (name, start, end, parent, job); spans stay in
memory and are written out when the run ends.  Nothing under ``src/`` is
edited.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

# label -> (defining module, attribute, modules whose global is rebound;
# "" is the package namespace the benchmark calls through)
FUNCTIONS = {
    "cli.read_matrix_csv": ("cli", "read_matrix_csv", ("cli",)),  # also reached via read_vector_csv
    "cli.read_system_csv": ("cli", "read_system_csv", ("cli",)),
    "cli.write_matrix_csv": ("cli", "write_matrix_csv", ("cli",)),
    "cli.write_vector_csv": ("cli", "write_vector_csv", ("cli",)),
    "cli.write_telemetry_csv": ("cli", "write_telemetry_csv", ("cli",)),
    "kernel.log_sum_exp": ("kernel", "log_sum_exp", ("solvers",)),
    "kernel.kl_terms": ("kernel", "kl_terms", ("solvers",)),  # greenkhorn selection, smd telemetry
    "otx.kl_terms": ("kernel", "kl_terms", ("otx",)),  # OT telemetry objective
    "otx.as_constraint_system": ("otx", "as_constraint_system", ("otx", "solvers", "")),
    "otx.round_to_feasible": ("otx", "round_to_feasible", ("cli",)),
    "otx.transport_cost": ("otx", "transport_cost", ("cli",)),
    "solvers.sinkhorn": ("solvers", "sinkhorn", ("solvers",)),
    "solvers.greenkhorn": ("solvers", "greenkhorn", ("solvers",)),
    "solvers.pinkhorn": ("solvers", "pinkhorn", ("solvers",)),
    "solvers.acc_pinkhorn": ("solvers", "acc_pinkhorn", ("solvers",)),
    "solvers.smd": ("solvers", "solve_smd", ("solvers", "cli", "")),
}
# label -> (module, class, method)
METHODS = {
    "otx.OTProblem": ("otx", "OTProblem", "__init__"),
    "penalty.ConstraintSystem": ("penalty", "ConstraintSystem", "__init__"),
    "projection.Hyperplane": ("projection", "Hyperplane", "__init__"),
    "penalty.dots": ("penalty", "ConstraintSystem", "dots"),
}


class Tracer:
    """Installs the wrappers on a loaded ``pinkhorn`` and records spans."""

    def __init__(self, pk):
        self.pk = pk
        self.labels: list[str] = ["job", "setup"]  # root spans
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job: list[int] = []
        self.stack = [-1]
        self.job_id = -1
        self.job_keys: list[str] = []
        self.bytes: dict[str, int] = {}
        self.iterations: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def run_job(self, key: str, call, root: str = "job"):
        """Run one job (or the set-up) under a root span; returns the call's result."""
        self.job_keys.append(key)
        self.job_id = len(self.job_keys) - 1
        i = self._open(self.labels.index(root))
        try:
            return call()
        finally:
            self._close(i)

    def _wrap(self, label: str, fn):
        nid = len(self.labels)
        self.labels.append(label)
        after = _AFTER.get(label) or (_after_solver if label.startswith("solvers.") else None)
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if label.startswith("solvers."):
                    tracer.failed[label] = tracer.failed.get(label, 0) + 1
                raise
            finally:
                tracer._close(i)
            if after is not None:
                after(tracer, label, args, result)
            return result

        return wrapper

    # -- installation

    def _set(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _module(self, short: str):
        return self.pk if short == "" else getattr(self.pk, short)

    def install(self) -> None:
        for label, (mod, attr, sites) in FUNCTIONS.items():
            original = getattr(self._module(mod), attr)
            wrapper = self._wrap(label, original)
            for site in sites:
                module = self._module(site)
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{site or 'pinkhorn'}.{attr} is not {mod}.{attr}")
                self._set(module, attr, wrapper)
        for label, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(self._module(mod), cls_name)
            self._set(cls, attr, self._wrap(label, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    # -- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "job": np.asarray(self.job, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, labels=np.array(self.labels), job_keys=np.array(self.job_keys), **self.arrays())

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, s and self_s per label; self time excludes traced children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros(dur.size)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        calls = np.bincount(a["name"], minlength=len(self.labels))
        s = np.bincount(a["name"], weights=dur, minlength=len(self.labels))
        self_s = np.bincount(a["name"], weights=own, minlength=len(self.labels))
        return {
            label: {"calls": int(calls[k]), "s": float(s[k]), "self_s": float(self_s[k])}
            for k, label in enumerate(self.labels)
        }

    def metrics(self, names, overhead_s: float, overhead_share: float) -> dict[str, float]:
        """Values of the per-layer metrics ``names`` (``label.quantity``)."""
        totals = self.layer_totals()
        out = {"trace.overhead_s": overhead_s, "trace.overhead_share": overhead_share}
        for metric in names:
            if metric in out:
                continue
            label, quantity = metric.rsplit(".", 1)
            t = totals[label]  # every listed layer is one the tracer wraps
            if quantity in t:
                out[metric] = t[quantity]
            elif quantity == "mb":
                out[metric] = self.bytes.get(label, 0) / 1e6
            elif quantity == "iterations":
                out[metric] = self.iterations.get(label, 0)
            elif quantity == "failed":
                out[metric] = self.failed.get(label, 0)
            elif quantity == "ms_per_iter":
                its = self.iterations.get(label, 0)
                out[metric] = t["s"] * 1e3 / its if its else 0.0
            else:
                raise ValueError(f"no quantity {quantity!r} for layer {label!r}")
        return {metric: out[metric] for metric in names}


def _add(table: dict, label: str, n: int) -> None:
    table[label] = table.get(label, 0) + n


def _after_solver(tracer: Tracer, label: str, args, report) -> None:
    _add(tracer.iterations, label, report.iterations)
    if report.stop_reason != "converged":
        _add(tracer.failed, label, 1)


def _after_read(tracer: Tracer, label: str, args, result) -> None:
    _add(tracer.bytes, label, os.path.getsize(args[0]))


def _after_lse(tracer: Tracer, label: str, args, result) -> None:
    # computed bytes: one float64 read per element reduced
    _add(tracer.bytes, label, 8 * np.size(args[0]))


_AFTER = {
    "cli.read_matrix_csv": _after_read,
    "cli.write_matrix_csv": _after_read,  # the file just written
    "kernel.log_sum_exp": _after_lse,
}
