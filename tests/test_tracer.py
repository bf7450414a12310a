"""The benchmark's span tracer (perfbench/tracer.py) against the package.

The tracer wraps every public function of the package and the evaluation and
derivative methods of FieldExpr and MatExpr, and refuses to install while a
public function is still held in a tuple, list, default argument or closure.
A traced benchmark pass fails when it cannot install, so this test keeps the
package traceable: it installs, the scenarios report the same outcomes under
it, and uninstalling restores every binding.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

from multiform import scenarios
from multiform.scenarios import SCENARIOS, ScenarioConfig


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function_bindings() -> dict:
    """Every function bound as a module attribute of the package, or as an
    item of a module-level dict, keyed by where it is bound."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "multiform" and not name.startswith("multiform."):
            continue
        for attr, value in vars(mod).items():
            out[name, attr] = value
            if isinstance(value, dict):
                out.update(((name, attr, key), item) for key, item in value.items())
    return {k: v for k, v in out.items() if inspect.isfunction(v)}


def _outcomes() -> list[tuple[str, bool]]:
    """(check, pass) of every scenario, read through the module attribute,
    which the tracer rebinds."""
    configs = [ScenarioConfig(scenario=name, points=3, lattice_n=4) for name in SCENARIOS]
    return [(c.name, c.passed) for cfg in configs for c in scenarios.run_scenario(cfg).checks]


def test_traced_pass_matches_the_untraced_one():
    tracer = _tracer_module().Tracer()
    untraced = _outcomes()
    entries = {k: fn for k, (_, _, fn) in tracer.entry_points().items()}
    bindings = _function_bindings()
    tracer.install()
    try:
        assert tracer.unbound_references() == []
        traced = _outcomes()
    finally:
        tracer.uninstall()
    assert traced == untraced
    run_id = tracer.rec.names.index("scenarios.run_scenario")
    assert list(tracer.rec.name).count(run_id) == len(SCENARIOS)
    assert {k: fn for k, (_, _, fn) in tracer.entry_points().items()} == entries
    after = _function_bindings()
    assert {k: after.get(k) for k in bindings} == bindings
