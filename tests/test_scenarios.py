"""End-to-end scenario runs at reduced sizes, plus fixed-seed instances."""

import json
import math
import os

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


def test_listing_matches_registry():
    rows = list_scenarios()
    assert len(rows) == 9
    assert [name for name, _ in rows] == list(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes(name):
    cfg = ScenarioConfig(scenario=name, seed=1, **FAST[name])
    report = run_scenario(cfg)
    failing = [c.name for c in report.checks if not c.passed]
    assert report.passed, f"{name} failed: {failing}"
    assert all(c.max_residual <= c.tolerance for c in report.checks)


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


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        run_scenario(ScenarioConfig(scenario="nope"))
    with pytest.raises(ValueError):
        run_scenario(ScenarioConfig(scenario="algebra", points=0))


def test_nan_after_finite_residual_fails_the_check(monkeypatch):
    residuals = iter([1e-12] + [math.nan] * 100)
    monkeypatch.setattr(scenarios, "check_identity_flat", lambda *args: next(residuals))
    report = run_scenario(ScenarioConfig(scenario="identities-flat", seed=1, points=4))
    rec = {c.name: c for c in report.checks}["identity-flat-lc"]
    assert math.isnan(rec.max_residual) and not rec.passed and not report.passed


def test_worst_of_ranks_nan_above_everything():
    assert worst_of(0.0, 2.0, 1.0) == 2.0
    for values in [(0.0, math.nan), (math.nan, 1.0), (math.inf, math.nan, 3.0)]:
        assert math.isnan(worst_of(*values))
