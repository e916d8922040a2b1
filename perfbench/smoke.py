"""Smoke test of the benchmark itself, with no timing gate.

    python3 perfbench/smoke.py

For each workload it runs the warm-up pass (one operation per problem shape,
the smallest sizes) and bundled US instance a, and requires every output to
pass its check.  It then corrupts each output (lambda shifted by 1e-3, a
doubled clutter power, a wrong published value, the largest decomposition term
dropped, complex coefficients) and requires the check to reject it.  Last,
a traced pass over the same operations must report a non-zero value for
every per-layer metric of the layers the workload calls.  Exits 1 on the
first broken expectation.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from cpstensor import applications as ap  # noqa: E402
from cpstensor.errors import TermBudgetExceeded  # noqa: E402
from tracer import OP, Tracer  # noqa: E402

# The order-6 decompositions raise TermBudgetExceeded today (see README).
KNOWN_FAILING = {"dec2o6": TermBudgetExceeded}
LAYERS = {
    "rank1_small": ("rank_one.", "linalg.", "tensor.", "reshaping.", "applications."),
    "rank1_large": ("rank_one.", "linalg.", "tensor.", "reshaping."),
    "decompose": ("decompose.",),
}


def fail(message: str) -> None:
    print(f"SMOKE FAIL: {message}")
    sys.exit(1)


def corruptions(values: dict):
    """(description, corrupted copy) pairs that a sound check must reject."""
    if "lam" in values:
        yield "lambda + 1e-3", dict(values, lam=values["lam"] + 1e-3)
    if "scenario" in values:
        sc = values["scenario"]
        first = dataclasses.replace(sc.patches[0], power=2 * sc.patches[0].power)
        wrong = dataclasses.replace(sc, patches=(first,) + sc.patches[1:])
        yield "clutter power doubled", dict(values, scenario=wrong)
    if values.get("published"):
        other = "b" if values["published"] == "a" else "a"
        yield "published value of the other instance", dict(values, published=other)
    if "coeffs" in values:
        d = values["entries"].ndim // 2
        weight = np.abs(values["coeffs"]) * np.linalg.norm(values["vectors"], axis=1) ** (2 * d)
        keep = np.arange(len(weight)) != int(np.argmax(weight))
        yield "largest term dropped", dict(
            values, coeffs=values["coeffs"][keep], vectors=values["vectors"][keep]
        )
        yield "complex coefficients", dict(values, coeffs=values["coeffs"] * (1 + 1e-3j))


def smoke_ops(name: str) -> list[workloads.Op]:
    _, warm = workloads.build(name, seed=0)
    if name == "rank1_small":
        warm.append(workloads.us_op("useig a", "us2", ap.useig_benchmark("a"), "a"))
    return warm


def check_ops(name: str, ops, rng) -> None:
    for op in ops:
        expected = KNOWN_FAILING.get(op.shape)
        try:
            out = op.run()
        except Exception as exc:
            if expected and isinstance(exc, expected):
                print(f"  {op.label}: raises {type(exc).__name__} as documented")
                continue
            fail(f"{name} / {op.label} raised {type(exc).__name__}: {exc}")
        values = op.view(out)
        try:
            op.check(values, rng)
        except checks.CheckFailed as exc:
            fail(f"{name} / {op.label}: sound output rejected: {exc}")
        rejected = []
        for what, bad in corruptions(values):
            try:
                op.check(bad, rng)
            except checks.CheckFailed:
                rejected.append(what)
                continue
            fail(f"{name} / {op.label}: check accepted corrupted output ({what})")
        print(f"  {op.label}: passes; rejects {', '.join(rejected)}")


def check_trace(name: str, ops) -> None:
    tracer = Tracer()
    tracer.install()
    try:
        for op in ops:
            span = tracer.open(OP)
            try:
                op.run()
            except TermBudgetExceeded:
                pass
            finally:
                tracer.close(span)
    finally:
        tracer.uninstall()
    if tracer.missing:
        fail(f"traced functions absent from the package: {tracer.missing}")
    metrics = tracer.metrics()
    zero = [k for k, v in metrics.items() if k.startswith(LAYERS[name]) and not v > 0]
    if zero:
        fail(f"{name}: per-layer metrics read 0 on a layer the workload calls: {zero}")
    print(f"  traced: {sum(1 for k in metrics if k.startswith(LAYERS[name]))} per-layer metrics non-zero")


def main() -> int:
    rng = np.random.default_rng(0)
    for name in workloads.WORKLOADS:
        print(name)
        ops = smoke_ops(name)
        check_ops(name, ops, rng)
        check_trace(name, ops)
    print("SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
