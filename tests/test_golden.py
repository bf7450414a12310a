"""Every check's residual at the CLI defaults, against the committed golden file.

``golden_residuals.json`` is written by ``make_golden.py``.  When this
host's stamp (numpy, BLAS, machine, SIMD) matches the file's, every
residual must agree to the bit.  When it differs, the bits may differ with
the summation order of another build, so the test compares only the check
names, their order, the tolerances and the pass flags.  Either way it warns
what it compared, which ``pytest -rw`` shows.
"""

import json
import warnings

import pytest

from make_golden import GOLDEN_PATH, records, stamp


@pytest.mark.filterwarnings("default:golden residuals")
def test_residuals_match_golden_file():
    golden = json.loads(GOLDEN_PATH.read_text())
    want, got = golden["records"], records()

    def key(r):
        return r["scenario"], r["seed"], r["name"], r["tolerance"], r["pass"]

    assert [key(r) for r in got] == [key(r) for r in want]
    moved = [
        f"{g['scenario']}/{g['seed']}/{g['name']}: {w['max_residual']!r} -> {g['max_residual']!r}"
        for g, w in zip(got, want)
        if float(g["max_residual"]).hex() != float(w["max_residual"]).hex()
    ]
    here = stamp()
    differ = sorted(k for k in here.keys() | golden["stamp"].keys()
                    if here.get(k) != golden["stamp"].get(k))
    if not differ:
        assert not moved, "residuals moved on the golden file's own stamp:\n" + "\n".join(moved)
        warnings.warn(
            f"golden residuals: stamp matches; all {len(got)} residuals compared bit for bit"
        )
    else:
        detail = ", ".join(f"{k} {golden['stamp'].get(k)!r} -> {here.get(k)!r}" for k in differ)
        warnings.warn(
            f"golden residuals: stamp differs ({detail}); compared names, order, "
            f"tolerances and pass flags only; {len(moved)} of {len(got)} residuals "
            "differ in their bits"
        )
