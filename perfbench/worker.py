"""Child process of run.py: one fresh interpreter per measurement.

    worker.py setup WORKLOAD
        Print the seconds taken to import lofiq and build every codec the
        workload selects, including codebook enumeration.
    worker.py run WORKLOAD WORKDIR SECONDS TRACE OUT
        Run whole passes of the workload's CLI calls in this process for
        SECONDS (at least one pass), then write pass times, report digests,
        exit codes and peak RSS to OUT as JSON. With TRACE=1 the untraced
        passes are followed by SECONDS of traced passes, whose spans give the
        per-layer metrics.
"""

import hashlib
import io
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stdout
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def setup(workload):
    t0 = perf_counter()
    import lofiq  # noqa: F401
    from lofiq.mx import resolve_element
    from lofiq.registry import MxCodec, Nvfp4Codec, parse_format

    for codec in [parse_format(s) for s in workloads.selectors(workload)]:
        if isinstance(codec, MxCodec):
            resolve_element(codec.element)
        elif isinstance(codec, Nvfp4Codec):
            resolve_element("e4m3")
            resolve_element("e2m1")
    print(repr(perf_counter() - t0))


def _call(cli, argv):
    """One CLI invocation; an escaping exception counts as a failed operation."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # the pass goes on; the traceback shows what failed
        traceback.print_exc()
        rc = -1
    return rc, buf.getvalue()


def run_passes(cli, ops, seconds, tracer, workdir):
    passes = []
    stop = perf_counter() + seconds
    while not passes or perf_counter() < stop:
        if tracer is not None:
            tracer.pass_id = len(passes)
        t0 = perf_counter()
        results = [_call(cli, argv) for argv, _ in ops]
        elapsed = perf_counter() - t0
        digest = hashlib.sha256()
        for (rc, out), (_, reports) in zip(results, ops):
            digest.update(out.encode())
            for path in reports:
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        passes.append({"seconds": elapsed, "digest": digest.hexdigest(),
                       "exit_codes": [rc for rc, _ in results]})
    for i, (_, out) in enumerate(results):
        with open(os.path.join(workdir, f"op{i}.out"), "w", encoding="utf-8") as fh:
            fh.write(out)
    return passes


def run(workload, workdir, seconds, trace, out_path):
    from lofiq import _accel, cli

    ops = workloads.ops(workload, workdir)
    result = {"use_numba": bool(_accel.USE_NUMBA)}
    result["passes"] = run_passes(cli, ops, seconds, None, workdir)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_passes(cli, ops, seconds, tracer, workdir)
        result["traced_passes"] = traced
        result["layers"] = tracing.summarize(
            tracer.spans, [p["seconds"] for p in traced],
            [p["seconds"] for p in result["passes"]])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        run(sys.argv[2], sys.argv[3], float(sys.argv[4]), sys.argv[5] == "1", sys.argv[6])
