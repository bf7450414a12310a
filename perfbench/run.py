"""multiform benchmark: one command, every metric, correctness gated.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/multiform``.  The program
is driven from outside, through its public functions, in a closed loop: one
client, each call starting when the previous one returns.  Every pass and
every set-up sample runs in a fresh process (``perfbench/worker.py``) with
one BLAS thread.

``--trace 0`` runs SETUP_ONLY_PROCESSES set-up-only processes, then as many
passes as fit in ``--seconds`` at the workload's nominal pass time (at least
one), and prints the end-to-end metrics as medians.  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics: entry times
from the untraced pass, layer metrics from the traced one.

Each run writes its full record -- environment stamp, sample counts, every
check with its max_residual, per-pass times -- to
``.perfbench_out/<workload>-seed<N>-trace<T>.json`` (spans of a traced pass
next to it).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when one failed or raised, 2 on a usage error or
when the checkout holds no ``src/multiform``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import SCENARIO_NAMES, WORKLOADS  # noqa: E402

SETUP_ONLY_PROCESSES = 4  # each pass process gives one more set-up sample
RUN_LIMIT_S = 170.0  # every run must end well inside 180 s
OUT_DIR = ".perfbench_out"


def _usage(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _child_env(root: str) -> dict:
    # One client, one thread.  With a second BLAS thread every large product
    # also waits on the other core, so the pass time depends on the load of
    # both shared cores instead of one.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Starts worker processes one at a time and collects their records."""

    def __init__(self, args, root: str):
        self.args = args
        self.env = _child_env(root)
        self.t_start = time.perf_counter()

    def worker(self, mode: str, trace_path: str | None = None) -> dict:
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            mode,
            "--workload",
            self.args.workload,
            "--seed",
            str(self.args.seed),
        ]
        if trace_path:
            cmd += ["--trace", trace_path]
        left = RUN_LIMIT_S - (time.perf_counter() - self.t_start)
        # run() kills the child on timeout and waits for it to end
        proc = subprocess.run(
            cmd, env=self.env, capture_output=True, text=True, timeout=max(left, 1.0)
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict[str, str]:
    """Declared metric name -> unit, in BENCHMARK.json order."""
    with open("BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def end_to_end_names() -> list[str]:
    """Every metric run_untraced reports."""
    return ["setup_s", "pass_s", "peak_rss_mb", "check_pass_ratio"]


def per_layer_names() -> list[str]:
    """Every metric run_traced reports."""
    from tracer import Recorder, layer_metrics, summarize

    entries = [f"verify.{name}_s" for name in SCENARIO_NAMES] + ["solve_s"]
    return entries + list(layer_metrics(summarize(Recorder()), checks=0)) + ["trace.overhead_ratio"]


def entry_times(rec: dict) -> dict[str, list[float]]:
    """Wall time of each run_scenario call and of each manufactured solve."""
    times = {f"verify.{name}_s": [rec["scenario_s"][name]] for name in SCENARIO_NAMES}
    times["solve_s"] = rec["solve_s"]
    return times


def _outcomes(rec: dict) -> list[tuple]:
    return [(c["scenario"], c["name"], c["pass"]) for c in rec["checks"]]


def run_untraced(launcher: Launcher, seconds: float) -> tuple[dict, dict]:
    setups = [launcher.worker("setup") for _ in range(SETUP_ONLY_PROCESSES)]
    n_passes = WORKLOADS[launcher.args.workload].passes(seconds)
    passes = [launcher.worker("pass") for _ in range(n_passes)]
    setup_samples = [r["setup_s"] for r in setups + passes]
    checks = [c for p in passes for c in p["checks"]]
    failed = sum(not c["pass"] for c in checks)
    values = {
        "setup_s": setup_samples,
        "pass_s": [p["pass_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    metrics = {k: statistics.median(v) for k, v in values.items()}
    metrics["check_pass_ratio"] = (len(checks) - failed) / len(checks)
    for p in passes:
        for k, v in entry_times(p).items():
            values.setdefault(k, []).extend(v)
    record = {
        "env": passes[0]["env"],
        "samples": {k: len(v) for k, v in values.items()},
        "values": values,
        "checks": passes[0]["checks"],
        "residuals_repeat": all(p["checks"] == passes[0]["checks"] for p in passes),
        "errors": [e for p in passes for e in p["errors"]],
        "attempted": len(checks),
        "failed": failed,
    }
    return metrics, record


def run_traced(launcher: Launcher, span_path: str) -> tuple[dict, dict]:
    from tracer import layer_metrics

    plain = launcher.worker("pass")
    traced = launcher.worker("pass", trace_path=span_path)
    summary = traced["trace"]
    metrics = layer_metrics(summary, checks=len(traced["checks"]))
    metrics["trace.overhead_ratio"] = traced["pass_s"] / plain["pass_s"]
    # entry-point wall times come from the untraced pass
    metrics.update({k: statistics.median(v) for k, v in entry_times(plain).items()})

    # self-test: self times are non-negative and add up to the traced pass
    layer_sum = sum(summary["layers"].values())
    gap = traced["pass_s"] - layer_sum
    allowed = max(traced["pass_s"] - plain["pass_s"], 0.01 * traced["pass_s"])
    consistent = summary["min_self_s"] > -1e-6 and -1e-6 <= gap <= allowed
    same_outcomes = _outcomes(plain) == _outcomes(traced)
    checks = plain["checks"] + traced["checks"]
    failed = sum(not c["pass"] for c in checks)
    failed += (not consistent) + (not same_outcomes)
    record = {
        "env": traced["env"],
        "untraced_pass_s": plain["pass_s"],
        "traced_pass_s": traced["pass_s"],
        "layer_self_s": summary["layers"],
        "layer_sum_gap_s": gap,
        "layer_sum_consistent": consistent,
        "outcomes_match": same_outcomes,
        "residuals_match": plain["checks"] == traced["checks"],
        "groups": summary["groups"],
        "spans": summary["spans"],
        "span_file": span_path,
        "checks": traced["checks"],
        "errors": plain["errors"] + traced["errors"],
        "attempted": len(checks) + 2,
        "failed": failed,
    }
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        _usage(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        _usage("--seed must be a non-negative integer")
    if not args.seconds > 0:
        _usage("--seconds must be positive")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "multiform", "__init__.py")):
        _usage("run from the root of a multiform checkout (no src/multiform here)")

    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    launcher = Launcher(args, root)
    if args.trace:
        metrics, record = run_traced(launcher, base + "-spans.npz")
        kind = "per_layer"
    else:
        metrics, record = run_untraced(launcher, args.seconds)
        kind = "end_to_end"

    declared = _declared(kind)
    if sorted(metrics) != sorted(declared):
        raise RuntimeError(f"metric names differ from BENCHMARK.json {kind}: {sorted(metrics)}")
    record.update(
        workload=args.workload,
        sizes=WORKLOADS[args.workload].sizes(),
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        run_wall_s=time.perf_counter() - launcher.t_start,
        metrics=metrics,
    )
    with open(base + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in declared.items()},
    }
    print(json.dumps({"env": record["env"], "sizes": record["sizes"], "seed": args.seed}))
    if "samples" in record:
        print(json.dumps({"samples": record["samples"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
