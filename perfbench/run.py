"""Benchmark entry point.

    python3 perfbench/run.py --workload rank1_small --seed 1 --seconds 30 --trace 0

Runs the workload in a fresh Python process with BLAS pinned to one thread
and the package imported from ./src, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
the end-to-end ones; setup_s is the median of SETUP_SAMPLES set-ups, each in
its own process.  With --trace 1 one traced process reports the per-layer
metrics and writes its spans under perfbench/out/.  Failure causes go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("rank1_small", "rank1_large", "decompose")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# A second OpenBLAS thread doubles CPU time inside eigh at N <= 64 and gains
# no wall time; the variables must be set before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# merge_terms keys a dict by bytes; a fixed hash seed keeps its layout, and
# with it the decomposition time, the same from run to run.
HASH_ENV = {"PYTHONHASHSEED": "0"}


class WorkerFailed(Exception):
    pass


def run_worker(args, deadline: float, extra=()) -> dict:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **BLAS_ENV, **HASH_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    cmd = [
        sys.executable, "-B", str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("workload process ran past the deadline")
    if proc.returncode != 0:
        raise WorkerFailed(f"workload process exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "cpstensor" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
            res = run_worker(args, deadline, ["--trace-out", str(trace_out)])
        else:
            setups = [
                run_worker(args, deadline, ["--setup-only"])["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            res = run_worker(args, deadline)
            res["metrics"]["setup_s"] = statistics.median(setups + [res["metrics"]["setup_s"]])
    except WorkerFailed as exc:
        print(str(exc), file=sys.stderr)
        return 3

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in res["metrics"].items()}

    print(json.dumps({
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
