"""Seeded closed-loop benchmark of pinkhorn: time to tolerance per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense_scaling --seed 1 --seconds 20 --trace 0

One process runs one job at a time.  With ``--trace 0`` it times whole
passes over the workload's job list, each after one set-up round, until
``--seconds`` have passed and at least MIN_PASSES are done; it checks every
job's output and prints the end-to-end metrics, each job and the set-up
counting with their median round, scaled to a fixed host speed (see
``host_probe``).  With ``--trace 1`` it times one pass
untraced and one pass traced, prints the per-layer metrics and the tracing
overhead, and writes the spans to ``.perfbench/``.  Metric names and units
come from ``BENCHMARK.json``.  The last line of standard output is always
the result object; the lines before it record the environment and per-job
detail.
"""

import os

BLAS_THREADS = 1  # at most nproc; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_PASSES = 5
TAIL_BEYOND = 10  # solve_ms_tail is the job time with this many jobs beyond it
PROBE_NOMINAL_S = 1e-3  # host_probe's time at the host speed the metrics are scaled to


@dataclass
class Record:
    key: str
    wall_s: float
    reason: str
    problem: str | None
    expect: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Converged and passed the output check."""
        return self.reason == "converged" and self.problem is None

    @property
    def unexpected(self) -> bool:
        """Failed other than as documented."""
        return self.problem is not None or not (self.ok or self.reason in self.expect)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric_units(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def git_state() -> dict:
    """Commit of the checkout and whether its tree differs; unknown outside git."""

    def git(*args):
        # the ceiling keeps git from reporting a repository that encloses the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True).stdout

    try:
        return {"git_commit": git("rev-parse", "HEAD").strip(), "git_dirty": bool(git("status", "--porcelain").strip())}
    except (OSError, subprocess.SubprocessError):
        return {"git_commit": "unknown", "git_dirty": None}


def environment(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": BLAS_THREADS},
        **git_state(),
        "seed": seed,
    }


def load_pinkhorn():
    """Import pinkhorn (and its cli) from this checkout afresh."""
    for name in [m for m in sys.modules if m == "pinkhorn" or m.startswith("pinkhorn.")]:
        del sys.modules[name]
    pk = importlib.import_module("pinkhorn")
    importlib.import_module("pinkhorn.cli")
    if Path(pk.__file__).resolve().parent != SRC / "pinkhorn":
        raise RuntimeError(f"imported pinkhorn from {pk.__file__}, not from {SRC}")
    return pk


def setup_round(wl, raw):
    """Import pinkhorn afresh and build every job's input object; returns (s, pk, objs)."""
    t0 = time.perf_counter()
    pk = load_pinkhorn()
    objs = wl.build(pk, raw)
    return time.perf_counter() - t0, pk, objs


def host_probe(np):
    """A timer for a fixed task of the benchmark's own, to gauge the host's speed.

    The host is shared: the same work runs up to 1.5x slower for seconds to
    minutes at a time, often longer than a run, so no statistic over one
    run's repeats removes it.  The task mixes the two kinds of work pinkhorn does, small
    dense log-sum-exp steps and interpreter-bound Python, and runs before
    every job.  A run's times are scaled by PROBE_NOMINAL_S over the probe's
    median, which reads them at the host speed where the probe takes
    PROBE_NOMINAL_S.  The probe does not touch pinkhorn, so a change to the
    program moves the scaled times as it moves the raw ones.
    """
    cost = np.random.default_rng(0).random((60, 60))

    def probe() -> float:
        t0 = time.perf_counter()
        kernel = np.exp(-cost / 0.1)
        v = np.zeros(60)
        for _ in range(60):
            u = -np.log(kernel @ np.exp(v))
            v = -np.log(kernel.T @ np.exp(u))
        acc = 0
        for i in range(8000):
            acc += i * i
        return time.perf_counter() - t0

    return probe


def run_job(job, runner=None) -> Record:
    t0 = time.perf_counter()
    try:
        result = runner(job.key, job.call) if runner else job.call()
    except Exception as exc:  # a raising solver is a failed job, not a crashed run
        wall = time.perf_counter() - t0
        return Record(job.key, wall, "exception", f"{type(exc).__name__}: {exc}", job.expect)
    wall = time.perf_counter() - t0
    try:
        reason, problem = job.check(result)
    except (OSError, ValueError, KeyError) as exc:
        reason, problem = "unchecked", f"output check raised {type(exc).__name__}: {exc}"
    return Record(job.key, wall, reason, problem, job.expect)


def nearest_rank(sorted_values, pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def by_key(records) -> dict[str, list[Record]]:
    out: dict[str, list[Record]] = {}
    for r in records:
        out.setdefault(r.key, []).append(r)
    return out


def tail_rank(n_jobs: int) -> int:
    """1-based rank of solve_ms_tail among the sorted job times."""
    if n_jobs <= TAIL_BEYOND:
        raise ValueError(f"{n_jobs} jobs leave no rank with {TAIL_BEYOND} jobs beyond it")
    return n_jobs - TAIL_BEYOND


def end_to_end(records, setup_times, scale: float) -> dict:
    """The end-to-end metrics over the run's jobs.

    Every job ran once per pass and counts with its median pass, the set-up
    with its median round; every time is multiplied by ``scale`` (see
    host_probe).  A job that failed in any pass is a failed job; it misses
    every latency figure (sorts as infinitely slow).
    """
    jobs = by_key(records).values()
    typical = [scale * statistics.median(r.wall_s for r in rs) for rs in jobs]
    ok = [all(r.ok for r in rs) for rs in jobs]
    lat = sorted(t * 1e3 if good else math.inf for t, good in zip(typical, ok))
    values = {
        "solves_per_s": sum(ok) / sum(typical),
        "solve_ms_p50": nearest_rank(lat, 50),
        "solve_ms_tail": lat[tail_rank(len(lat)) - 1],
        "error_rate": sum(not r.ok for r in records) / len(records),
        "setup_s": scale * statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": values[k] if math.isfinite(values[k]) else None, "unit": u} for k, u in metric_units("end_to_end")}


def job_summary(records) -> dict:
    return {
        key: {
            "n": len(rs),
            "best_ms": round(min(r.wall_s for r in rs) * 1e3, 3),
            "median_ms": round(statistics.median(r.wall_s for r in rs) * 1e3, 3),
            "stop_reasons": sorted({r.reason for r in rs}),
            "problems": sorted({r.problem for r in rs if r.problem}),
        }
        for key, rs in by_key(records).items()
    }


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pinkhorn" / "__init__.py").is_file():
        print(f"error: no pinkhorn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        raw = wl.generate(args.seed, str(workdir))
        generate_s = time.perf_counter() - t0
        # the first round is the run's cold import; the jobs use its objects
        setup_s, pk, objs = setup_round(wl, raw)
        t0 = time.perf_counter()
        jobs = wl.prepare(pk, raw, objs, str(workdir))
        reference_s = time.perf_counter() - t0
        rank = tail_rank(len(jobs))
        emit({"env": environment(np, args.seed), "workload": wl.name, "jobs_per_pass": len(jobs),
              "generate_s": generate_s, "reference_s": reference_s,
              "tail_rank": rank, "tail_percentile": 100 * rank / len(jobs)})
        if args.trace:
            records, metrics = traced(pk, jobs, args, lambda: wl.build(pk, raw))
        else:
            records, pass_s, setup_times, probe_s = [], [], [setup_s], []
            probe = host_probe(np)
            cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
            t_start = time.perf_counter()
            while len(pass_s) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
                if cpus:  # passes take turns on the CPUs, so one the host slows for a whole run holds back only its own
                    os.sched_setaffinity(0, {cpus[len(pass_s) % len(cpus)]})
                if pass_s:  # spread the set-up rounds over the run, as the passes are
                    setup_times.append(setup_round(wl, raw)[0])
                batch = []
                for job in jobs:
                    probe_s.append(probe())
                    batch.append(run_job(job))
                records += batch
                pass_s.append(sum(r.wall_s for r in batch))
            scale = PROBE_NOMINAL_S / statistics.median(probe_s)
            metrics = end_to_end(records, setup_times, scale)
            emit({"pass_s": pass_s, "setup_s": setup_times, "jobs": len(records),
                  "probe_median_s": statistics.median(probe_s), "scale": scale,
                  "measure_s": time.perf_counter() - t_start})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit({"job_detail": job_summary(records)})
    failed = sum(r.unexpected for r in records)
    emit({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics})
    return 0


def traced(pk, jobs, args, build):
    """One untraced pass, then a traced build and a traced pass.

    Per-layer metrics come from the traced part; the overhead compares the
    two passes.
    """
    from tracing import Tracer

    untraced = [run_job(job) for job in jobs]
    tracer = Tracer(pk)
    tracer.install()
    try:
        tracer.run_job("setup", build, root="setup")
        traced_records = [run_job(job, tracer.run_job) for job in jobs]
    finally:
        tracer.uninstall()
    base = sum(r.wall_s for r in untraced)
    overhead = sum(r.wall_s for r in traced_records) - base
    tracer.save(str(OUT / f"spans-{args.workload}-seed{args.seed}.npz"))
    units = metric_units("per_layer")
    values = tracer.metrics([name for name, _ in units], overhead, overhead / base)
    return untraced + traced_records, {k: {"value": values[k], "unit": u} for k, u in units}


if __name__ == "__main__":
    sys.exit(main())
