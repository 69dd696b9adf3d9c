"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed 1] [--workloads cli_roundtrip,dense_scaling,coordinate]

Checks, per workload:

* the same seed generates byte-identical inputs (arrays and files);
* the confirmation seed recorded in ``record.json`` generates different,
  equally reproducible inputs;
* two traced runs with the same seed report identical counts (calls,
  iterations, failures and computed megabytes);

and once, that every metric the prediction table in ``record.json`` names
is one that ``BENCHMARK.json`` defines.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "MB")


def digest(obj, workdir: str, h=None) -> str:
    """Hash of generated inputs; files under ``workdir`` hash by name and content."""
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(str(k).encode())
            digest(obj[k], workdir, h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for v in obj:
            digest(v, workdir, h)
    elif isinstance(obj, str) and obj.startswith(workdir):
        h.update(os.path.relpath(obj, workdir).encode())
        h.update(Path(obj).read_bytes())
    else:
        h.update(repr(obj).encode())
    return h.hexdigest()


def input_digest(wl, seed: int, tag: str) -> str:
    workdir = str(ROOT / ".perfbench" / f"selftest-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return digest(wl.generate(seed, workdir), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"traced run of {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"traced run of {workload} failed its output checks")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}


def prediction_problems(record: dict) -> list[str]:
    """Names in record.json's prediction table that BENCHMARK.json does not define."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    methods = {name.split(".")[1] for name in per_layer if name.startswith("solvers.")}
    problems = []
    for row in record["predictions"]:
        for layer in row["layer"]:
            names = {layer.replace("<method>", m) for m in methods}
            problems += [f"prediction names unknown layer metric {n}" for n in sorted(names - per_layer)]
        problems += [f"prediction names unknown end-to-end metric {n}" for n in row["moves"] if n not in end_to_end]
    return problems


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    record = json.loads((HERE / "record.json").read_text())
    ap = argparse.ArgumentParser(description="benchmark self-test")
    ap.add_argument("--seed", type=int, default=record["seeds"]["tuning"][0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args(argv)
    confirm = record["seeds"]["confirm"]
    failures = prediction_problems(record)
    for name in args.workloads.split(","):
        wl = WORKLOADS[name]
        first, again = input_digest(wl, args.seed, "a"), input_digest(wl, args.seed, "b")
        if first != again:
            failures.append(f"{name}: seed {args.seed} inputs differ between two generations")
        other, other_again = input_digest(wl, confirm, "c"), input_digest(wl, confirm, "d")
        if other != other_again or other == first:
            failures.append(f"{name}: confirmation seed {confirm} inputs are not distinct and reproducible")
        counts = [traced_counts(name, args.seed) for _ in range(2)]
        diff = {k: (counts[0][k], counts[1].get(k)) for k in counts[0] if counts[0][k] != counts[1].get(k)}
        if diff:
            failures.append(f"{name}: traced counts differ between runs: {diff}")
        print(f"{name}: inputs {first[:12]}, confirm {other[:12]}, {len(counts[0])} counts compared", flush=True)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
