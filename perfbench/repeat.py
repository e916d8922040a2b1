"""Repeat the benchmark over several seeds and print each metric's spread.

    python3 perfbench/repeat.py                       # all workloads, seeds 1-10
    python3 perfbench/repeat.py --workloads decompose --seeds 1-5
    python3 perfbench/repeat.py --trace               # also traced runs, paired

For every workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound in BENCHMARK.json; a spread above a third of the bound is
flagged.  setup_s is exempt from the spread rule.  With --trace each seed's
untraced run is followed by a traced run, and the tracing overhead is the
median of untraced ops_per_s / traced trace.ops_per_s - 1.  Raw results go to
perfbench/out/repeat-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    t_start = time.monotonic()
    for seed in seeds:
        for w in workloads:
            runs[w].append(run_once(w, seed, args.seconds, 0))
            if args.trace:
                traced[w].append(run_once(w, seed, args.seconds, 1))
            print(f"[{time.monotonic() - t_start:6.0f} s] {w} seed {seed} done", file=sys.stderr, flush=True)

    for w in workloads:
        print(f"\n{w}: {len(runs[w])} runs")
        shares = {(r["failed"], r["attempted"]) for r in runs[w]}
        exact = {r["failed"] / r["attempted"] for r in runs[w]}
        print(f"  failed/attempted: {sorted(shares)} -> shares {sorted(exact)}")
        print(f"  correct in every run: {all(r['correct'] for r in runs[w])}")
        print(f"  {'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs[w]])
            flag = "" if name == "setup_s" or sp <= bound / 3 else "  <- above bound/3"
            print(f"  {name:<34}{med:12.5g}{q1:12.5g}{q3:12.5g}{sp:9.3f}{bound:7.2f}{flag}")
        if args.trace:
            for name in traced[w][0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in traced[w]]
                med, q1, q3, sp = spread(vals)
                same = "  (exactly equal)" if len(set(vals)) == 1 else ""
                print(f"  {name:<34}{med:12.5g}{q1:12.5g}{q3:12.5g}{sp:9.3f}{same}")
            over = [
                u["metrics"]["ops_per_s"]["value"] / t["metrics"]["trace.ops_per_s"]["value"] - 1
                for u, t in zip(runs[w], traced[w])
            ]
            print(f"  tracing overhead (median of {len(over)} pairs): {100 * statistics.median(over):.1f} %")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seeds": seeds, "seconds": args.seconds, "runs": runs, "traced": traced}))
    print(f"\nraw results: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
