"""End-to-end scenario runs at reduced sizes, plus fixed-seed instances."""

import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from multiform import scenarios
from multiform.fields import worst_of
from multiform.scenarios import SCENARIOS, ScenarioConfig, list_scenarios, run_scenario

FAST = {
    "algebra": {},
    "identities-flat": {"points": 25},
    "identities-gauge": {"points": 20},
    "derivatives": {"points": 25},
    "maxwell-flat": {"points": 12},
    "dirac-flat": {"points": 12},
    "maxwell-gauge": {"points": 8},
    "dirac-gauge": {"points": 8},
    "lattice-maxwell": {"lattice_n": 6},
}

# every check of every scenario, in report order; tolerance overrides name them
CHECK_NAMES = {
    "algebra": [
        "anticommutation", "contraction-duality", "associativity",
        "reversion-and-scalar-product", "product-decomposition",
        "outermorphism-multiplicativity", "contraction-transport", "adjoint-extension",
        "determinant-consistency",
    ],
    "identities-flat": [
        "identity-flat-lc", "identity-flat-op", "identity-flat-gp", "gradient-splits",
        "gauss-linear", "gauss-quadratic-convergence",
    ],
    "identities-gauge": [
        "identity-gauge-rotor-lc", "identity-gauge-rotor-op", "identity-gauge-rotor-gp",
        "identity-gauge-pushforward-lc", "identity-gauge-pushforward-op",
        "identity-gauge-pushforward-gp", "construction-agreement", "spinor-identities-rotor",
        "spinor-identity-arbitrary-omega", "spinor-gradient-split", "flat-limit",
    ],
    "derivatives": [
        "mvderiv-square", "mvderiv-pairing", "mvderiv-sandwich",
        "structural-vs-finite-difference",
    ],
    "maxwell-flat": [
        "plane-wave-residual", "residual-two-paths", "variation-vs-fd", "decomposition",
    ],
    "dirac-flat": [
        "candidate-substitution", "free-spinor-residual", "decomposition",
        "unit-spinor-density",
    ],
    "maxwell-gauge": [
        "transported-plane-wave-residual", "flat-degeneration", "residual-two-paths",
        "decomposition",
    ],
    "dirac-gauge": [
        "transported-spinor-residual", "transported-first-order-equation",
        "flat-degeneration", "decomposition",
    ],
    "lattice-maxwell": [
        "gradient-residual-duality", "gradient-vs-fd", "discrete-gauss",
        "residual-convergence-order", "manufactured-solution", "solver-relative-residual",
        "dirichlet-trivial-solution", "uniform-current-residual",
    ],
}


def test_listing_matches_registry():
    rows = list_scenarios()
    assert len(rows) == 9
    assert [name for name, _ in rows] == list(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes(name):
    cfg = ScenarioConfig(scenario=name, seed=1, **FAST[name])
    report = run_scenario(cfg)
    assert [c.name for c in report.checks] == CHECK_NAMES[name]
    failing = [c.name for c in report.checks if not c.passed]
    assert report.passed, f"{name} failed: {failing}"
    assert all(c.max_residual <= c.tolerance for c in report.checks)


@pytest.mark.parametrize("points", [1, 2])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes_at_small_point_counts(name, points):
    report = run_scenario(ScenarioConfig(scenario=name, points=points, lattice_n=4))
    assert [c.name for c in report.checks] == CHECK_NAMES[name]
    failing = [c.name for c in report.checks if not c.passed]
    assert report.passed, f"{name} failed at {points} points: {failing}"


def test_identities_flat_at_spec_size():
    cfg = ScenarioConfig(scenario="identities-flat", seed=42, points=100)
    report = run_scenario(cfg)
    assert report.passed
    for check in report.checks:
        if check.name.startswith("identity-flat"):
            assert check.max_residual <= 1e-8


def test_lattice_scenario_convergence_record():
    cfg = ScenarioConfig(scenario="lattice-maxwell", seed=0, lattice_n=6)
    report = run_scenario(cfg)
    rec = {c.name: c for c in report.checks}["residual-convergence-order"]
    # the record stores |order - 2|; the order itself must sit in [1.8, 2.2]
    assert rec.max_residual <= 0.2 and rec.passed


def test_run_scenario_writes_report(tmp_path):
    out = os.path.join(tmp_path, "report.json")
    cfg = ScenarioConfig(scenario="derivatives", seed=5, points=10, out=out)
    report = run_scenario(cfg)
    with open(out) as fh:
        ondisk = json.load(fh)
    assert ondisk["pass"] == report.passed
    assert ondisk["config"]["out"] == out


def test_tolerance_override_can_fail_a_check():
    cfg = ScenarioConfig(
        scenario="derivatives",
        seed=5,
        points=10,
        tolerances={"mvderiv-square": 1e-300},
    )
    report = run_scenario(cfg)
    assert not report.passed
    rec = {c.name: c for c in report.checks}["mvderiv-square"]
    assert not rec.passed and rec.tolerance == 1e-300


def test_tolerance_naming_no_check_is_refused_before_any_report(tmp_path):
    out = os.path.join(tmp_path, "report.json")
    cfg = ScenarioConfig(scenario="algebra", tolerances={"anticommutaton": 1.0}, out=out)
    with pytest.raises(scenarios.ConfigError, match="anticommutaton"):
        run_scenario(cfg)
    assert not os.path.exists(out)


@pytest.mark.parametrize("tolerances", [[("associativity", 1.0)], "associativity", 1.0])
def test_tolerances_that_are_not_a_mapping_are_refused(tolerances):
    with pytest.raises(ValueError, match="tolerances must map check names"):
        run_scenario(ScenarioConfig(scenario="algebra", tolerances=tolerances))


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        run_scenario(ScenarioConfig(scenario="nope"))
    with pytest.raises(ValueError):
        run_scenario(ScenarioConfig(scenario="algebra", points=0))


def test_nan_after_finite_residual_fails_the_check(monkeypatch):
    # the identity checks return one float per call, decomposition_check a
    # (variation, residual) pair of arrays of rows
    variations = np.array([0.5, 0.5, 0.5])
    cases = [
        ("identities-flat", "check_identity_flat", "identity-flat-lc", 1e-12, math.nan),
        ("identities-gauge", "check_identity_gauge", "identity-gauge-rotor-lc", 1e-12, math.nan),
        ("dirac-flat", "decomposition_check", "decomposition",
         (variations, np.array([1e-12, 1e-12, 1e-12])),
         (variations, np.array([1e-12, math.nan, 1e-12]))),
    ]
    for scenario, function, check, finite, nan in cases:
        residuals = iter([finite] + [nan] * 100)
        with monkeypatch.context() as patch:
            patch.setattr(scenarios, function, lambda *args, **kw: next(residuals))
            report = run_scenario(ScenarioConfig(scenario=scenario, seed=1, points=4))
        rec = {c.name: c for c in report.checks}[check]
        assert math.isnan(rec.max_residual) and not rec.passed and not report.passed, scenario


def test_worst_of_ranks_nan_above_everything():
    assert worst_of(0.0, 2.0, 1.0) == 2.0
    for values in [(0.0, math.nan), (math.nan, 1.0), (math.inf, math.nan, 3.0)]:
        assert math.isnan(worst_of(*values))


# node evaluations at the CLI defaults, seed 3.  In the order below, the counts
# are 4,854 / 10,118 / 10,465 / 14,050 / 15,484 / 2,930 / 3,053.  The oracles sample
# each stencil as one batch; per-point oracles (18,105 / 39,398 / 18,819
# evaluations) would exceed the first three bounds.  The identity scenarios
# evaluate the gauge background's kept trees once per point set; without them
# identities-gauge made 42,295.  identities-flat's bound keeps about 20%
# headroom.  The others sit 1.5-5% over their counts, under the 7,380 /
# 10,378 / 12,433 / 14,326 / 3,193 read while the derivative check evaluated
# each tree in calls of its own, variation-vs-fd's finite-difference oracle
# sampled each perturbed field and its curl in calls of their own, and a
# rotor background built R g_mu R~ once per entry of h (16 trees, not 4) and
# the spinor identity built Rev(psi) and Rev(phi) once per mu.  dirac-flat's
# bound sits 1.5% over its count
NODE_EVALUATION_BOUNDS = {
    "derivatives": 5100,
    "maxwell-flat": 10300,
    "maxwell-gauge": 10700,
    "identities-gauge": 14300,
    "identities-flat": 18600,
    "dirac-gauge": 3000,
    "dirac-flat": 3100,
}


# tracemalloc peaks in MiB at seed 1 and the CLI defaults, with about 20%
# headroom over 8.2, 9.7 and 8.7 MiB, the peaks when roots and nodes read by
# more than one parent kept their last value between calls; with values that
# live for one evaluation call and only leaves and handed-out trees keeping
# one, they read 6.0, 5.9 and 8.0 MiB (10.4, 15.4 and 11.6 MiB when every
# derivative kept its value and the lattice aggregate was 16-wide; 19.8 and
# 23.3 MiB for the first two when every node kept its value).  lattice-maxwell
# reads 6.1 MiB once each lattice field stores only the blades of its grades,
# so its bound is 20% over that, under the 8.0 MiB of 16-wide fields.  Run
# alone it reads 6.8 MiB: the shared position() leaf keeps its last value
# between calls, and a run that starts with that slot empty counts the
# 4096-row block it leaves there in its peak; filling the leaf with one
# 4096-row sample before tracing turns the lone reading into 6.1 MiB
PEAK_BOUNDS_MIB = {"identities-flat": 10.0, "identities-gauge": 12.0, "lattice-maxwell": 7.3}


@pytest.mark.filterwarnings("default:tracemalloc peak")
@pytest.mark.parametrize("name", sorted(PEAK_BOUNDS_MIB))
def test_tree_scenarios_keep_their_peak_bound(name):
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert run_scenario(ScenarioConfig(scenario=name, seed=1)).passed
        peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()
    warnings.warn(f"tracemalloc peak of {name}: {peak:.1f} MiB (bound {PEAK_BOUNDS_MIB[name]} MiB)")
    assert peak <= PEAK_BOUNDS_MIB[name]


@pytest.mark.filterwarnings("default:node evaluations")
@pytest.mark.parametrize("name", sorted(NODE_EVALUATION_BOUNDS))
def test_oracle_scenarios_evaluate_stencils_in_batches(name, evaluated):
    assert run_scenario(ScenarioConfig(scenario=name, seed=3)).passed
    count, bound = len(evaluated), NODE_EVALUATION_BOUNDS[name]
    warnings.warn(f"node evaluations of {name}: {count} (bound {bound})")
    assert count <= bound
