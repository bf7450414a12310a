"""Run the benchmark once per seed and report each metric's quartile spread.

    python3 perfbench/spread.py --workload verify-default --seeds 1-10 [--trace 0] [--out FILE]

Run from the root of a checkout.  Runs ``perfbench/run.py`` one seed at a
time with ``run_seconds`` from ``BENCHMARK.json``, then prints, for every
metric, the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread ``(Q3 - Q1) / median``, next to the metric's bound.
``--out`` also writes the per-seed values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    runs = {}
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, {result['failed']} failed", flush=True)
            return 1
        runs[seed] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[seed].items()
                                         if bounds.get(k)), flush=True)

    summary = {}
    for name in next(iter(runs.values())):
        summary[name] = summarize([r[name] for r in runs.values()])
        s = summary[name]
        bound = bounds.get(name)
        print(f"{name:28s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
              f"spread {s['spread']:.3f}" + (f"  bound {bound}" if bound else ""))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "trace": args.trace, "runs": runs,
                       "summary": summary}, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
