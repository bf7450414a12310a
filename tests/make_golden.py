"""Write the golden residual file that ``test_golden.py`` checks against.

    PYTHONPATH=src python tests/make_golden.py

Runs every scenario at the CLI defaults for each seed in ``SEEDS`` and
writes, per check, its name, ``max_residual``, tolerance and pass flag to
``tests/golden_residuals.json``.  JSON floats round-trip exactly, so the
file pins each residual to the bit.  The stamp records what the bits may
depend on: the numpy version, the BLAS build, the machine and the SIMD
extensions numpy found on it.  The file is check data: regenerate it only
with this script, and only for a change that moves residuals on purpose.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

from multiform.scenarios import SCENARIOS, ScenarioConfig, run_scenario

SEEDS = (0, 1, 42)
GOLDEN_PATH = Path(__file__).with_name("golden_residuals.json")


def stamp() -> dict:
    """The numpy and BLAS build and the machine that residual bits may depend on."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "simd": sorted(config["SIMD Extensions"]["found"]),
    }


def records() -> list[dict]:
    """One record per check of every scenario and seed, in run order."""
    out = []
    for seed in SEEDS:
        for name in SCENARIOS:
            report = run_scenario(ScenarioConfig(name, seed=seed))
            for c in report.checks:
                out.append({
                    "scenario": name,
                    "seed": seed,
                    "name": c.name,
                    "max_residual": float(c.max_residual),
                    "tolerance": float(c.tolerance),
                    "pass": bool(c.passed),
                })
    return out


def main() -> None:
    rows = records()
    # one record per line, so a regenerated file diffs by check
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in rows)
    GOLDEN_PATH.write_text(
        f'{{"stamp": {json.dumps(stamp(), sort_keys=True)},\n"records": [\n{lines}\n]}}\n'
    )
    print(f"wrote {len(rows)} records to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
