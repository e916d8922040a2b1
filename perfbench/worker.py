"""One workload in its own process: set up, warm up, run whole rounds, check.

Started by run.py, which pins BLAS to one thread and puts the package source
on the path before this process loads numpy.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

import numpy as np

import checks
import workloads
from cpstensor.errors import CpsTensorError
from tracer import OP, Tracer


def timed_phase(ops, seconds: float, seed: int, tracer: Tracer | None) -> dict:
    """Run whole rounds of ops until about `seconds` of operation time is
    spent; check each output right after its operation, off the clock."""
    rng = np.random.default_rng([seed, 1])
    passed: list[float] = []
    failures: Counter = Counter()
    wrong: list[str] = []
    attempted = 0
    op_time = 0.0
    while True:
        round_start = op_time
        for op in ops:
            span = tracer.open(OP) if tracer else -1
            t0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a failed operation is counted, the run goes on
                out, err = None, exc
                if not isinstance(exc, CpsTensorError):
                    traceback.print_exc()  # not one of the package's own errors: show where
            dt = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
            op_time += dt
            attempted += 1
            if err is None:
                try:
                    op.check(op.view(out), rng)
                except workloads.NotCertified as exc:
                    err = exc
                except checks.CheckFailed as exc:
                    err = exc
                    wrong.append(f"{op.label}: {exc}")
            out = None  # freed before the next operation, so peak RSS does not depend on order
            if err is None:
                passed.append(dt)
            else:
                failures[f"{op.label}: {type(err).__name__}"] += 1
        if op_time + (op_time - round_start) / 2 >= seconds:
            break
    return {
        "attempted": attempted,
        "failed": attempted - len(passed),
        "passed_times": passed,
        "op_time": op_time,
        "failures": dict(failures),
        "wrong": wrong,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at process launch")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out", help="write spans here and report per-layer metrics")
    args = p.parse_args(argv)

    ops, warm = workloads.build(args.workload, args.seed)
    for op in warm:
        try:
            op.run()
        except CpsTensorError:  # the order-6 decompositions fail today; see README
            pass
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
        if tracer.missing:
            print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    res = timed_phase(ops, args.seconds, args.seed, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for cause, count in sorted(res.pop("failures").items()):
        print(f"failed x{count}: {cause}", file=sys.stderr)
    for line in res["wrong"]:
        print(f"wrong output: {line}", file=sys.stderr)
    passed = res.pop("passed_times")
    if not passed:
        print("no operation passed; nothing to measure", file=sys.stderr)
        return 1
    ops_per_s = len(passed) / res.pop("op_time")
    if tracer:
        tracer.uninstall()
        metrics = tracer.metrics()
        metrics["trace.ops_per_s"] = ops_per_s
        tracer.save(args.trace_out)
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "op_s_p50": statistics.median(passed),
            "peak_rss_mb": peak_rss_mb,
        }
    print(json.dumps({**res, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
