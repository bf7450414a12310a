"""CLI contract tests: exit codes, report schema, determinism."""

import json
import os
import re

import pytest

from multiform.cli import main
from multiform.scenarios import SCENARIOS, ScenarioConfig, run_scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_scenarios(capsys):
    code, out, _ = run_cli(capsys, "list")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert code == 0
    assert len(lines) == 9
    assert any(ln.startswith("algebra") for ln in lines)


def test_list_scenarios_json(capsys):
    code, out, _ = run_cli(capsys, "list", "--json")
    data = json.loads(out)
    assert code == 0
    assert len(data) == 9
    assert {row["name"] for row in data} == set(SCENARIOS)
    assert all(row["description"] for row in data)


def test_verify_algebra_passes_and_writes_report(capsys, tmp_path):
    out_path = os.path.join(tmp_path, "report.json")
    code, out, _ = run_cli(capsys, "verify", "algebra", "--seed", "7", "--out", out_path)
    assert code == 0
    assert "PASS:" in out
    with open(out_path) as fh:
        report = json.load(fh)
    assert set(report) == {"config", "checks", "pass", "version"}
    assert report["pass"] is True
    assert report["config"]["seed"] == 7
    for check in report["checks"]:
        assert set(check) == {"name", "max_residual", "tolerance", "pass", "seconds"}
        assert check["max_residual"] <= check["tolerance"]


def test_unknown_scenario_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown scenario" in err


def test_usage_error_exits_2(capsys):
    assert main(["verify"]) == 2  # missing scenario argument
    assert main(["--bogus-flag"]) == 2


def test_missing_config_exits_3(capsys):
    code, _, err = run_cli(capsys, "verify", "algebra", "--config", "/no/such/file.json")
    assert code == 3
    assert "cannot read config" in err


def test_malformed_config_exits_3(capsys, tmp_path):
    bad = os.path.join(tmp_path, "bad.json")
    with open(bad, "w") as fh:
        fh.write("{not json")
    code, _, err = run_cli(capsys, "verify", "algebra", "--config", bad)
    assert code == 3


def test_invalid_config_values_exit_2(capsys, tmp_path):
    cfg = os.path.join(tmp_path, "cfg.json")
    bad_tols = (-1.0, float("inf"), float("nan"), True, "1e-3", None)
    # a list of pairs is no mapping, although dict() would turn it into one
    for tolerances in [{"associativity": tol} for tol in bad_tols] + [[["associativity", 1.0]]]:
        with open(cfg, "w") as fh:
            json.dump({"tolerances": tolerances}, fh)
        code, _, err = run_cli(capsys, "verify", "algebra", "--config", cfg)
        assert code == 2, tolerances
        assert "error: bad config:" in err
    assert "tolerances must map check names" in err
    code, _, err = run_cli(capsys, "verify", "algebra", "--points", "0")
    assert code == 2


def test_bad_seed_flag_exits_2_without_traceback(capsys):
    code, _, err = run_cli(capsys, "verify", "algebra", "--seed", "-1")
    assert code == 2
    assert "seed must be non-negative" in err and "Traceback" not in err


def test_non_integer_config_values_exit_2(capsys, tmp_path):
    cfg = os.path.join(tmp_path, "cfg.json")
    for field, value in [
        ("seed", 1.5), ("seed", True), ("seed", -3), ("points", 1.5), ("lattice_n", 8.5),
    ]:
        with open(cfg, "w") as fh:
            json.dump({field: value}, fh)
        code, _, err = run_cli(capsys, "verify", "algebra", "--config", cfg)
        assert code == 2, (field, value)
        assert f"error: bad config: {field}" in err and "Traceback" not in err


def test_unknown_config_keys_exit_2(capsys, tmp_path):
    cfg = os.path.join(tmp_path, "cfg.json")
    for raw, key in [({"pionts": 5}, "pionts"), ({"seed": 1, "lattice": 6}, "lattice")]:
        with open(cfg, "w") as fh:
            json.dump(raw, fh)
        code, out, err = run_cli(capsys, "verify", "algebra", "--config", cfg)
        assert code == 2, raw
        assert "error: bad config:" in err and key in err and "Traceback" not in err
        assert out == ""


def test_non_string_out_exits_2(capsys, tmp_path):
    cfg = os.path.join(tmp_path, "cfg.json")
    for value in (1.5, ["r.json"], 123456):
        with open(cfg, "w") as fh:
            json.dump({"out": value}, fh)
        code, out, err = run_cli(capsys, "verify", "algebra", "--config", cfg)
        assert code == 2, value
        assert "error: bad config: out" in err and "Traceback" not in err
        assert out == ""


def test_empty_out_exits_2(capsys, tmp_path):
    """An empty path would write no report; it is refused, from a file or a flag."""
    cfg = os.path.join(tmp_path, "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"out": ""}, fh)
    for args in (("--config", cfg), ("--out", "")):
        code, out, err = run_cli(capsys, "verify", "algebra", *args)
        assert code == 2, args
        assert "error: bad config: out" in err and "Traceback" not in err
        assert out == ""


def test_tolerance_naming_no_check_exits_2(capsys, tmp_path):
    cfg = os.path.join(tmp_path, "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"tolerances": {"anticommutaton": 1.0}}, fh)
    code, out, err = run_cli(capsys, "verify", "algebra", "--config", cfg, "--json")
    assert code == 2
    assert "error: bad config:" in err and "anticommutaton" in err
    assert out == ""


def test_scenario_fault_is_not_a_config_error(capsys, monkeypatch):
    def broken(cfg, run):
        raise ValueError("fault inside the scenario")

    monkeypatch.setitem(SCENARIOS, "algebra", ("broken", broken))
    with pytest.raises(ValueError, match="fault inside the scenario"):
        main(["verify", "algebra"])


def test_every_documented_config_key_is_accepted(capsys, tmp_path):
    cfg = os.path.join(tmp_path, "cfg.json")
    out_path = os.path.join(tmp_path, "r.json")
    with open(cfg, "w") as fh:
        json.dump(
            {"seed": 2, "points": 5, "lattice_n": 6, "out": out_path, "tolerances": {}}, fh
        )
    code, _, err = run_cli(capsys, "verify", "algebra", "--config", cfg)
    assert code == 0, err
    with open(out_path) as fh:
        report = json.load(fh)
    assert report["config"]["lattice_n"] == 6 and report["config"]["points"] == 5


def test_failing_tolerance_exits_1(capsys, tmp_path):
    cfg = os.path.join(tmp_path, "strict.json")
    with open(cfg, "w") as fh:
        json.dump({"tolerances": {"associativity": 1e-300}}, fh)
    code, out, _ = run_cli(capsys, "verify", "algebra", "--config", cfg)
    assert code == 1
    assert "FAIL" in out


def test_config_file_with_flag_overrides(capsys, tmp_path):
    cfg = os.path.join(tmp_path, "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"seed": 3, "points": 17}, fh)
    out_path = os.path.join(tmp_path, "r.json")
    code, _, _ = run_cli(
        capsys, "verify", "derivatives", "--config", cfg, "--seed", "9", "--out", out_path
    )
    assert code == 0
    with open(out_path) as fh:
        report = json.load(fh)
    assert report["config"]["seed"] == 9  # flag wins
    assert report["config"]["points"] == 17  # file value survives


@pytest.mark.parametrize("name", ["maxwell-flat", "maxwell-gauge"])
def test_maxwell_scenarios_run_at_one_point(capsys, name):
    code, out, err = run_cli(capsys, "verify", name, "--points", "1", "--json")
    assert code == 0
    assert "Traceback" not in out + err
    payload = json.loads(out)
    assert payload["config"]["points"] == 1
    assert "residual-two-paths" in {c["name"] for c in payload["checks"]}


def test_lattice_maxwell_solves_odd_and_even_lattices(capsys):
    """At odd N only the constant wave has s = 0; at even N the alternating ones do too."""
    for n in ("9", "16"):
        code, out, _ = run_cli(capsys, "verify", "lattice-maxwell", "--lattice", n, "--json")
        payload = json.loads(out)
        assert code == 0, n
        assert payload["config"]["lattice_n"] == int(n)
        assert payload["pass"] is True and all(c["pass"] for c in payload["checks"]), n


def _strip_walltimes(payload: str) -> str:
    return re.sub(r'"seconds": [0-9eE+.-]+', '"seconds": 0', payload)


def test_report_determinism_modulo_walltime():
    for scenario, points in (("derivatives", 20), ("identities-gauge", 10), ("maxwell-gauge", 10)):
        cfg = ScenarioConfig(scenario=scenario, seed=42, points=points)
        first = run_scenario(cfg).to_json()
        second = run_scenario(cfg).to_json()
        assert _strip_walltimes(first) == _strip_walltimes(second), scenario


def test_json_output_matches_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "derivatives", "--points", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["config"]["points"] == 5
