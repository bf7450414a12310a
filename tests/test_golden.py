"""Every check's residual at the CLI defaults, against the committed golden file.

``golden_residuals.json`` is written by ``make_golden.py``.  When this
process runs OpenBLAS at another thread count than the file's stamp, the
records are computed in a child process run with the file's count, so that
a host that can run that count still compares bits.  When the stamp
(numpy, BLAS, BLAS threads, machine, SIMD) matches the file's, every
residual must agree to the bit.  When it differs, the bits may differ with
the summation order of another build, so the test compares only the check
names, their order, the tolerances and the pass flags.  Either way it warns
what it compared, which ``pytest -rw`` shows.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import multiform
from make_golden import GOLDEN_PATH, records, stamp


def _child_stamp_and_records(threads: int) -> tuple[dict, list]:
    """The stamp and records of a fresh process run with ``threads`` OpenBLAS threads."""
    path = [str(Path(__file__).parent), str(Path(multiform.__file__).parents[1])]
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join(filter(None, path + [os.environ.get("PYTHONPATH")])),
    }
    code = (
        "import json, make_golden as g; "
        "print(json.dumps({'stamp': g.stamp(), 'records': g.records()}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    child = json.loads(out.stdout)
    return child["stamp"], child["records"]


@pytest.mark.filterwarnings("default:golden residuals")
def test_residuals_match_golden_file():
    golden = json.loads(GOLDEN_PATH.read_text())
    want, here = golden["records"], stamp()
    threads = golden["stamp"]["blas_threads"]
    where = ""
    if threads is not None and here["blas_threads"] != threads:
        here, got = _child_stamp_and_records(threads)
        where = f" in a child process at the file's {threads} BLAS threads"
    else:
        got = records()

    def key(r):
        return r["scenario"], r["seed"], r.get("lattice_n"), r["name"], r["tolerance"], r["pass"]

    assert [key(r) for r in got] == [key(r) for r in want]
    moved = [
        f"{g['scenario']}/{g['seed']}/{g['name']}: {w['max_residual']!r} -> {g['max_residual']!r}"
        for g, w in zip(got, want)
        if float(g["max_residual"]).hex() != float(w["max_residual"]).hex()
    ]
    differ = sorted(k for k in here.keys() | golden["stamp"].keys()
                    if here.get(k) != golden["stamp"].get(k))
    if not differ:
        assert not moved, "residuals moved on the golden file's own stamp:\n" + "\n".join(moved)
        warnings.warn(
            f"golden residuals: stamp matches; all {len(got)} residuals compared bit for bit"
            + where
        )
    else:
        detail = ", ".join(f"{k} {golden['stamp'].get(k)!r} -> {here.get(k)!r}" for k in differ)
        warnings.warn(
            f"golden residuals: stamp differs ({detail}); compared names, order, "
            f"tolerances and pass flags only; {len(moved)} of {len(got)} residuals "
            f"differ in their bits{where}"
        )
