"""Command-line interface.

Commands: validate, decompose, matricize, rank1, useig, experiment.
Single-object results are JSON; experiment batches are CSV rows
(instance_seed, size, method, certified, objective, lambda, eigen_residual,
iterations, wall_ms) plus a human summary table on stderr.

Exit codes: 0 success/certified, 2 uncertified, 3 input-structure or usage
error, 4 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import applications as ap
from . import decompose as dc
from . import rank_one as r1
from . import reshaping as rs
from . import tensor as tz
from .errors import CpsTensorError, InputError, ParseError, Uncertified

EXIT_OK = 0
EXIT_UNCERTIFIED = 2
EXIT_STRUCTURE = 3
EXIT_SOLVER = 4

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, output: str | None, indent: int | None = None) -> None:
    """Write payload as strict JSON, with null for each NaN or infinite number,
    which JSON cannot hold."""

    def strict(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        if isinstance(value, dict):
            return {key: strict(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [strict(item) for item in value]
        return value

    _emit(json.dumps(strict(payload), indent=indent, allow_nan=False) + "\n", output)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so they exit 3 like any other bad input:
    argparse's own exit status 2 would read as "uncertified"."""

    def error(self, message):
        raise ParseError(message)


def _ranged(cast, domain: str, ok):
    """An argparse type: the text cast by `cast`, required to satisfy `ok`."""

    def convert(text: str):
        with contextlib.suppress(ValueError):
            value = cast(text)
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")

    return convert


_NONNEG_FLOAT = _ranged(float, "a finite number >= 0", lambda v: 0.0 <= v < math.inf)
_POSITIVE_FLOAT = _ranged(float, "a finite number > 0", lambda v: 0.0 < v < math.inf)
_POSITIVE_INT = _ranged(int, "at least 1", lambda v: v >= 1)
_NONNEG_INT = _ranged(int, "at least 0", lambda v: v >= 0)
_SIZES = _ranged(
    lambda text: [int(s) for s in text.split(",")],
    "comma-separated integers of at least 2",
    lambda sizes: min(sizes) >= 2,
)


def _load_scenario(path: str) -> ap.RadarScenario:
    """The radar scenario of a JSON file; the --scenario type."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ap.scenario_from_config(json.load(fh))
    except (KeyError, TypeError, ValueError, ParseError) as exc:  # JSONDecodeError: ValueError
        raise ParseError(f"bad scenario file {path}: {type(exc).__name__}: {exc}") from None


def _solve(model: r1.MatrixModel, method: str, rho, max_iter: int) -> r1.SolveReport:
    if method == "sdp":
        return r1.solve_sdp(model, max_iter=max_iter)
    return r1.solve_nuclear(model, rho=rho, max_iter=max_iter)


def cmd_validate(args) -> int:
    t = args.tensor
    report = {
        "n": t.n,
        "d": t.order,
        "symmetric": tz.is_symmetric(t),
        "ps": False,
        "cps": False,
        "hermitian_part_norm": None,
        "skew_part_norm": None,
    }
    if t.order % 2 == 0:
        report["ps"] = tz.is_ps(t)
        report["cps"] = tz.is_cps(t)
        if report["ps"]:
            report["hermitian_part_norm"] = tz.hermitian_part(t).norm()
            report["skew_part_norm"] = tz.skew_part(t).norm()
    _emit_json(report, args.output, indent=2)
    return EXIT_OK


def cmd_decompose(args) -> int:
    t = args.tensor
    terms = dc.cps_decompose(t)
    recon = tz.assemble(terms, t.n, t.half)
    residual = float(np.linalg.norm(recon.entries - t.entries))
    payload = {
        "terms": [
            {"lambda": term.coeff, "a": [[z.real, z.imag] for z in term.vector]}
            for term in terms
        ],
        "residual": residual,
        "term_count": len(terms),
    }
    _emit_json(payload, args.output)
    if residual > max(dc.TOL_DECOMP * t.norm(), 1e-12):
        return EXIT_SOLVER
    return EXIT_OK


def cmd_matricize(args) -> int:
    t = args.tensor
    pi = args.pi or rs.canonical_pi(t.half)
    m = rs.matricize_pi(t, pi)
    payload = {
        "pi": list(pi),
        "size": m.shape[0],
        "matrix": [[[z.real, z.imag] for z in row] for row in m],
    }
    _emit_json(payload, args.output)
    return EXIT_OK


def cmd_rank1(args) -> int:
    model = r1.build_matrix_model(args.tensor, args.pi)
    report = _solve(model, args.model, args.rho, args.max_iter)
    _emit_json(report.to_dict(), args.output)
    if report.stop_reason == "diverged":
        print("error: the ADMM iterates diverged; the model may be unbounded", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK if report.certified else EXIT_UNCERTIFIED


def cmd_useig(args) -> int:
    try:
        result = ap.us_eigen(
            args.tensor, retries=args.retries, eps=args.eps, seed=args.seed,
            max_iter=args.max_iter,
        )
    except Uncertified as exc:
        _emit_json({"error": str(exc)}, args.output)
        return EXIT_UNCERTIFIED
    payload = {
        "lambda": result.value,
        "vector": [[v.real, v.imag] for v in result.vector],
        "objective": result.report.objective,
        "eigen_residual": result.report.eigen_res,
        "attempts": len(result.attempts),
        "iterations": result.report.iterations,
    }
    _emit_json(payload, args.output)
    return EXIT_OK


def _solve_instance(task) -> dict:
    """One experiment instance; module-level so process pools can pickle it."""
    kind, size, method, seed, rho, max_iter, scenario = task
    t0 = time.perf_counter()
    lam = math.nan
    try:
        if kind == "useig":
            z = ap.useig_benchmark("a" if size == 1 else "b")
            result = ap.us_eigen(z, retries=5, eps=1e-4, seed=seed, max_iter=max_iter)
            report, lam = result.report, result.value
        else:
            if kind == "random":
                t, sign = ap.random_cps(size, seed), 1.0
            else:  # radar: the form's minimum is the largest eigenvalue of -T
                if scenario is None:
                    scenario = ap.default_scenario(size, s0_seed=seed)
                else:
                    scenario = dataclasses.replace(scenario, s0_seed=seed)
                radar = ap.radar_tensor(scenario)
                t, sign = tz.DenseTensor(radar.n, radar.order, -radar.entries), -1.0
            report = _solve(r1.build_matrix_model(t), method, rho, max_iter)
            if report.eigenpair is not None:
                lam = sign * report.eigenpair.value.real
        certified = int(report.certified)
        objective = report.objective
        eig_res = report.eigen_res
        iterations = report.iterations
        error = ""
    except CpsTensorError as exc:
        certified, objective, eig_res, iterations = 0, math.nan, math.inf, 0
        error = f"{type(exc).__name__}: {exc}"
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return {
        "instance_seed": seed,
        "size": size,
        "method": method,
        "certified": certified,
        "objective": objective,
        "lambda": lam,
        "eigen_residual": eig_res,
        "iterations": iterations,
        "wall_ms": wall_ms,
        "error": error,
    }


@contextlib.contextmanager
def _one_blas_thread_for_children():
    """Pin BLAS (OpenBLAS, OpenMP or MKL) to one thread in the processes
    spawned inside the block, so parallel instances do not oversubscribe the
    cores.  This process loaded its BLAS already and keeps its threads."""
    saved = {key: os.environ[key] for key in BLAS_THREAD_VARS if key in os.environ}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for key in BLAS_THREAD_VARS:
            del os.environ[key]
        os.environ.update(saved)


def cmd_experiment(args) -> int:
    sizes, scenario, instances = args.sizes, args.scenario, args.instances
    methods = ["sdp", "nuclear"] if args.model == "both" else [args.model]
    if args.name == "useig":  # the two bundled benchmarks, one instance each
        sizes, methods, instances = [1, 2], ["sdp"], 1
    elif args.name == "radar" and scenario is not None:
        sizes = [scenario.n]  # the file fixes the code length
    sizes = sizes or ([4, 6, 8] if args.name == "random" else [5])
    tasks = [
        (args.name, size, method, args.seed + k, args.rho, args.max_iter, scenario)
        for size in sizes
        for method in methods
        for k in range(instances)
    ]

    if args.jobs > 1:
        spawn = multiprocessing.get_context("spawn")
        with _one_blas_thread_for_children(), ProcessPoolExecutor(
            max_workers=args.jobs, mp_context=spawn
        ) as pool:
            rows = list(pool.map(_solve_instance, tasks))
    else:
        rows = [_solve_instance(task) for task in tasks]
    rows.sort(key=lambda r: (r["size"], r["method"], r["instance_seed"]))

    buf = io.StringIO()
    writer = csv.writer(buf)
    header = [
        "instance_seed", "size", "method", "certified",
        "objective", "lambda", "eigen_residual", "iterations", "wall_ms",
    ]
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [
                row["instance_seed"], row["size"], row["method"], row["certified"],
                f"{row['objective']:.6g}", f"{row['lambda']:.6g}",
                f"{row['eigen_residual']:.6g}", row["iterations"],
                f"{row['wall_ms']:.6g}",
            ]
        )
    _emit(buf.getvalue(), args.output)

    for row in rows:
        if row["error"]:
            print(f"instance {row['instance_seed']} failed: {row['error']}", file=sys.stderr)
    # summary table in the shape of the published efficiency tables
    print("size,method,rank_one_pct,mean_cpu_s", file=sys.stderr)
    for size in sorted({r["size"] for r in rows}):
        for method in sorted({r["method"] for r in rows}):
            cell = [r for r in rows if r["size"] == size and r["method"] == method]
            if not cell:
                continue
            pct = 100.0 * sum(r["certified"] for r in cell) / len(cell)
            cpu = sum(r["wall_ms"] for r in cell) / len(cell) / 1000.0
            print(f"{size},{method},{pct:.0f},{cpu:.3f}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cpstensor",
        description="Conjugate partial-symmetric tensor toolkit",
    )
    parser.add_argument("--output", help="write the result to this path instead of stdout")
    parser.add_argument("--seed", type=_NONNEG_INT, default=0, help="master seed")
    parser.add_argument("--jobs", type=_POSITIVE_INT, default=1, help="parallel instances")
    sub = parser.add_subparsers(dest="command", required=True)
    hide = argparse.SUPPRESS  # subcommand duplicates must not clobber globals

    p = sub.add_parser("validate", help="report structure predicates of a tensor file")
    p.add_argument("tensor", type=tz.load_tensor)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("decompose", help="rank-one CPS decomposition")
    p.add_argument("tensor", type=tz.load_tensor)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("matricize", help="pi-matricization of a tensor file")
    p.add_argument("tensor", type=tz.load_tensor)
    p.add_argument(
        "--pi", type=rs.parse_permutation, help="comma-separated permutation, e.g. 1,3,4,2"
    )
    p.set_defaults(func=cmd_matricize)

    p = sub.add_parser("rank1", help="best rank-one approximation / largest eigenvalue")
    p.add_argument("tensor", type=tz.load_tensor)
    p.add_argument("--model", choices=["sdp", "nuclear"], default="sdp")
    p.add_argument("--rho", type=_POSITIVE_FLOAT, default=None, help="nuclear penalty weight")
    p.add_argument("--pi", type=rs.parse_permutation, help="comma-separated permutation")
    p.add_argument("--max-iter", dest="max_iter", type=_POSITIVE_INT, default=r1.MAX_ITER)
    p.add_argument("--seed", type=_NONNEG_INT, default=hide)
    p.set_defaults(func=cmd_rank1)

    p = sub.add_parser("useig", help="largest US-eigenvalue of a symmetric tensor")
    p.add_argument("tensor", type=tz.load_tensor)
    p.add_argument("--retries", type=_NONNEG_INT, default=0)
    p.add_argument("--eps", type=_NONNEG_FLOAT, default=1e-4)
    p.add_argument("--seed", type=_NONNEG_INT, default=hide)
    p.add_argument("--max-iter", dest="max_iter", type=_POSITIVE_INT, default=r1.MAX_ITER)
    p.set_defaults(func=cmd_useig)

    p = sub.add_parser("experiment", help="batch experiments emitting CSV")
    p.add_argument("name", choices=["radar", "random", "useig"])
    p.add_argument("--sizes", type=_SIZES,
                   help="comma-separated sizes (random: n list, radar: code lengths)")
    p.add_argument("--instances", type=_POSITIVE_INT, default=20)
    p.add_argument("--model", choices=["sdp", "nuclear", "both"], default="both")
    p.add_argument("--rho", type=_POSITIVE_FLOAT, default=None)
    p.add_argument("--scenario", type=_load_scenario, help="radar scenario JSON file")
    p.add_argument("--seed", type=_NONNEG_INT, default=hide)
    p.add_argument("--jobs", type=_POSITIVE_INT, default=hide)
    p.add_argument("--max-iter", dest="max_iter", type=_POSITIVE_INT, default=r1.MAX_ITER)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except Uncertified as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except CpsTensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
