"""lofiq benchmark: three CLI workloads on the numpy path, checked and timed.

    python3 perfbench/run.py --workload compare-weight --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout: lofiq is imported from its ``src``.
With --trace 0 the last stdout line carries the end-to-end metrics
(setup_s, pass_s, peak_rss_mib); with --trace 1 it carries the per-layer
metrics of a traced run and its tracing overhead. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
WORKER_TIMEOUT_S = 150


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh
                if len(line.split()) >= 6 and "openblas" in line.split()[-1].lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(use_numba):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
            "use_numba": use_numba}


def median_setup_s(workload):
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, WORKER, "setup", workload], cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "lofiq", "__init__.py")):
        print(f"error: no lofiq sources under {ROOT}/src", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    import lofiq

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_s = None if args.trace else median_setup_s(args.workload)
        workloads.make_inputs(lofiq, args.workload, args.seed, workdir)
        out_path = os.path.join(workdir, "worker.json")
        subprocess.run([sys.executable, WORKER, "run", args.workload, workdir,
                        repr(args.seconds), str(args.trace), out_path],
                       cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
        with open(out_path, encoding="utf-8") as fh:
            res = json.load(fh)
        passes = res["passes"] + res.get("traced_passes", [])
        try:
            fails = checks.check_outputs(args.workload, args.seed, workdir,
                                         [p["digest"] for p in passes])
        except (OSError, ValueError, KeyError) as exc:  # an output missing or malformed
            fails = [f"outputs cannot be read: {exc!r}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    codes = [rc for p in passes for rc in p["exit_codes"]]
    failed = sum(rc != 0 for rc in codes)
    print("env: " + json.dumps(environment(res["use_numba"])))
    print(f"workload {args.workload}: seed {args.seed}, {len(passes)} passes, "
          f"attempted {len(codes)}, failed {failed}")
    for msg in fails:
        print(f"check failed: {msg}")
    pass_s = statistics.median(p["seconds"] for p in res["passes"])
    if args.trace:
        import tracing

        layers = res["layers"]
        print(f"tracing overhead: {layers['trace.overhead_s']:.4f} s on an untraced pass of "
              f"{pass_s:.4f} s")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in tracing.UNITS.items()}
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "pass_s": {"value": pass_s, "unit": "s"},
                   "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"}}
    print(json.dumps({"correct": not fails, "attempted": len(codes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
