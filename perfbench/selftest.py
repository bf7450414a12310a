"""Self-test of the benchmark itself (not of multiform).

    python3 perfbench/selftest.py        # from the root of a checkout

Checks, in about half a minute:

1. ``BENCHMARK.json`` has the required keys, names, units and bounds, and
   the metric names the benchmark computes equal the names it declares;
2. the tracer rebinds every alias of every wrapped function -- names
   imported into other modules, ``sta.PRODUCT_KERNELS``, the package's
   re-exports -- and ``uninstall`` restores the originals;
3. a small traced pass of all nine scenarios gives every layer a non-zero
   call count, non-negative self times, and self times that add up to the
   traced wall time;
4. the correctness gate fails a NaN residual and a raising scenario;
5. ``run.py`` exits non-zero without printing a result in a directory that
   holds only ``BENCHMARK.json`` and ``perfbench``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import SCENARIO_NAMES, Workload, build_inputs, run_pass  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_manifest() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }, sorted(bench)
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)), "names must be unique"
    assert all(NAME.match(n) for n in names), names
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher"), m
        assert UNIT.match(m["unit"]), m
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"]), m
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()), "setup_s needs the largest bound"

    from run import end_to_end_names, per_layer_names
    from workloads import WORKLOADS

    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert end_to_end_names() == [m["name"] for m in bench["end_to_end"]]
    assert per_layer_names() == [m["name"] for m in bench["per_layer"]]
    print("ok  manifest and metric names")


def check_aliases() -> None:
    import multiform
    from multiform import fields, gauge, lagrangian, lattice, scenarios, sta
    from tracer import Tracer

    def aliases() -> dict:
        return {
            "scenarios.ele_residual_flat": scenarios.ele_residual_flat,
            "fields.outermorphism_matrix": fields.outermorphism_matrix,
            "gauge.del_expr_kind": gauge.del_expr_kind,
            "lagrangian.gauge_del_expr": lagrangian.gauge_del_expr,
            "multiform.solve_maxwell": multiform.solve_maxwell,
            "PRODUCT_KERNELS['gp']": sta.PRODUCT_KERNELS["gp"],
            "FieldExpr.sample": fields.FieldExpr.sample,
        }

    originals = aliases()
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unbound_references() == []
        for key, fn in aliases().items():
            assert getattr(fn, "__wrapped_original__", None) is originals[key], key
        assert lattice.solve_maxwell is multiform.solve_maxwell
    finally:
        tracer.uninstall()
    assert aliases() == originals
    print("ok  tracer rebinds every alias and restores them")


def check_traced_pass() -> None:
    from tracer import Tracer, layer_metrics, summarize

    tiny = Workload(
        nominal_pass_s=1.0,
        overrides={name: {"points": 3, "lattice_n": 4} for name in SCENARIO_NAMES},
        solve_n=4,
    )
    inputs = build_inputs(tiny, seed=0)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        result = run_pass(tiny, inputs)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert all(c["pass"] for c in result["checks"]), result["errors"]
    summary = summarize(tracer.rec)
    metrics = layer_metrics(summary, checks=len(result["checks"]))
    zero = [
        k for k, v in metrics.items() if v <= 0 and not k.endswith("errors")
    ]
    assert not zero, f"layers that read zero: {zero}"
    assert summary["min_self_s"] > -1e-6
    total = sum(summary["layers"].values())
    assert 0.97 * wall <= total <= wall, (total, wall)
    print(f"ok  traced pass: {summary['spans']} spans, self times sum to "
          f"{total:.3f} of {wall:.3f} s")


def check_gate() -> None:
    from workloads import _check

    assert not _check("s", "c", float("nan"), 1.0, True)["pass"]
    assert not _check("s", "c", float("inf"), 1.0, True)["pass"]
    assert _check("s", "c", 0.5, 1.0, True)["pass"]
    broken = Workload(
        nominal_pass_s=1.0,
        overrides={"maxwell-flat": {"points": 1}},
        solve_n=4,
    )
    inputs = build_inputs(broken, seed=0)
    inputs.configs = [c for c in inputs.configs if c.scenario == "maxwell-flat"]
    result = run_pass(broken, inputs)
    raised = [c for c in result["checks"] if c["name"] == "raised"]
    assert len(raised) == 1 and not raised[0]["pass"] and result["errors"]
    print("ok  correctness gate fails NaN residuals and raising scenarios")


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-default",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  bare directory exits {proc.returncode} without a result")


def main() -> int:
    check_manifest()
    check_aliases()
    check_gate()
    check_traced_pass()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
