"""One fresh benchmark process: set-up, then at most one pass.

    python3 perfbench/worker.py setup --workload NAME --seed N
    python3 perfbench/worker.py pass  --workload NAME --seed N [--trace SPANS]

Set-up is the import of multiform plus the construction of the workload's
inputs, timed from this process's first statement.  ``pass`` then runs one
workload pass (traced when ``--trace`` names a span file to write) and prints
one JSON object on stdout.  ``perfbench/run.py`` starts these processes, with
``src`` on PYTHONPATH and one BLAS thread.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

from workloads import WORKLOADS, build_inputs, run_pass  # noqa: E402


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        fn.argtypes = []
        return fn()
    return None


def env_stamp() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", help="trace the pass and write its spans here")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    inputs = build_inputs(workload, args.seed)
    out = {"setup_s": time.perf_counter() - T0}
    if args.mode == "pass":
        tracer = None
        if args.trace:
            from tracer import Tracer, summarize

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        result = run_pass(workload, inputs)
        out["pass_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = summarize(tracer.rec)
            tracer.rec.save(args.trace)
        out.update(result)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["env"] = env_stamp()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
