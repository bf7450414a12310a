"""Workload definitions, input construction and one timed pass.

Every workload runs all nine ``multiform verify`` scenarios through
``scenarios.run_scenario`` (so every end-to-end metric and every layer is
exercised on every workload) and then the periodic manufactured Maxwell
solve.  Workloads differ in the sizes of their focus scenarios; the other
scenarios run at the CLI defaults.

This module imports nothing from numpy or multiform at import time, so a
worker can start its set-up clock before those imports.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field

# the order of multiform.scenarios.SCENARIOS; checked against it at run time
SCENARIO_NAMES = (
    "algebra",
    "identities-flat",
    "identities-gauge",
    "derivatives",
    "maxwell-flat",
    "dirac-flat",
    "maxwell-gauge",
    "dirac-gauge",
    "lattice-maxwell",
)

CLI_DEFAULTS = {"points": 100, "lattice_n": 8}

# tolerance of the scenario's own manufactured-solution check
SOLVE_TOL = 1e-8
SOLVE_CHECK_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    nominal_pass_s: float  # pass wall time on 2 cores, one BLAS thread; sets passes per run
    overrides: dict = field(default_factory=dict)  # scenario -> config fields
    solve_n: int = 8
    solve_repeats: int = 1

    def passes(self, seconds: float) -> int:
        """Passes that fit in a run of the given length, at least one."""
        return max(1, int(seconds // self.nominal_pass_s))

    def sizes(self) -> dict:
        """Per-scenario (points, lattice_n) and the solve size, for the stamp."""
        return {
            "scenarios": {
                name: {**CLI_DEFAULTS, **self.overrides.get(name, {})} for name in SCENARIO_NAMES
            },
            "solve_n": self.solve_n,
            "solve_repeats": self.solve_repeats,
        }


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    # what `multiform verify` users run: per-call overhead and tree building
    "verify-default": Workload(nominal_pass_s=18.0, solve_n=8, solve_repeats=5),
    # the only workload where the lattice operator and solver carry weight
    "lattice-n16": Workload(
        nominal_pass_s=28.0,
        overrides={"lattice-maxwell": {"lattice_n": 16}},
        solve_n=16,
        solve_repeats=2,
    ),
}


@dataclass
class Inputs:
    configs: list
    lattice: object
    current: object
    manufactured: object


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """The ScenarioConfigs and the manufactured periodic current."""
    import numpy as np

    from multiform import lattice, scenarios

    if tuple(scenarios.SCENARIOS) != SCENARIO_NAMES:
        raise RuntimeError(f"scenario list changed: {list(scenarios.SCENARIOS)}")
    configs = []
    for name, sizes in workload.sizes()["scenarios"].items():
        cfg = scenarios.ScenarioConfig(name, seed=seed, **sizes)
        cfg.validate()
        configs.append(cfg)

    # the lattice-maxwell scenario's manufactured solution, A* = cos(x1) g2
    n = workload.solve_n
    lat = lattice.Lattice(np.zeros(4), 2 * np.pi * np.ones(4), n, "periodic")
    astar = np.zeros(lat.shape + (16,))
    astar[..., 4] = np.cos(lat.coords()[..., 1])
    jc = lattice.maxwell_operator(lat)(astar)
    current = lattice.LatticeField(lat, frozenset({1}), jc)
    return Inputs(configs, lat, current, astar)


def _check(scenario: str, name: str, residual: float, tol: float, passed: bool) -> dict:
    # a NaN or infinite residual never counts as a pass
    ok = bool(passed) and math.isfinite(residual) and residual <= tol
    return {
        "scenario": scenario,
        "name": name,
        "max_residual": residual,
        "tolerance": tol,
        "pass": ok,
    }


def run_pass(workload: Workload, inputs: Inputs) -> dict:
    """One closed-loop pass: every scenario, then the manufactured solves."""
    import numpy as np

    from multiform import lattice, scenarios

    scenario_s, solve_s, checks, errors = {}, [], [], []
    for cfg in inputs.configs:
        t0 = time.perf_counter()
        try:
            report = scenarios.run_scenario(cfg)
        except Exception:  # a raising scenario is a failed check, not a crash
            scenario_s[cfg.scenario] = time.perf_counter() - t0
            errors.append(traceback.format_exc())
            checks.append(_check(cfg.scenario, "raised", math.nan, 0.0, False))
            continue
        scenario_s[cfg.scenario] = time.perf_counter() - t0
        for c in report.checks:
            checks.append(_check(cfg.scenario, c.name, c.max_residual, c.tolerance, c.passed))

    name = f"manufactured-solve-n{workload.solve_n}"
    norm = float(np.linalg.norm(inputs.manufactured))
    for _ in range(workload.solve_repeats):
        t0 = time.perf_counter()
        try:
            A = lattice.solve_maxwell(inputs.lattice, inputs.current, tol=SOLVE_TOL)
        except Exception:
            solve_s.append(time.perf_counter() - t0)
            errors.append(traceback.format_exc())
            checks.append(_check("solve", name, math.nan, SOLVE_CHECK_TOL, False))
            continue
        solve_s.append(time.perf_counter() - t0)
        rel = float(np.linalg.norm(A.comps - inputs.manufactured)) / norm
        checks.append(_check("solve", name, rel, SOLVE_CHECK_TOL, True))
    return {"scenario_s": scenario_s, "solve_s": solve_s, "checks": checks, "errors": errors}
