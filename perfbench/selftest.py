"""Self-test of the benchmark's checks and tracing, at a tiny size (a few seconds).

    python3 perfbench/selftest.py

The real CLI runs each workload on tiny inputs. Every check must pass on
that output, and must fail on the same output with one element moved one
grid step, or on the same report with one field changed. The tracer must
account for all of a traced pass, and BENCHMARK.json must name the metrics
run.py prints. Exits 1 if any of this does not hold.
"""

import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import lofiq  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lofiq import cli  # noqa: E402

SEED = 3
TINY = {"WEIGHT_SHAPE": (256, 64), "ACT_TENSORS": 2, "ACT_SHAPE": (16, 256),
        "SVDQ_X_SHAPE": (64, 256), "SVDQ_W_SHAPE": (256, 128)}
FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def run_cli(workload, workdir):
    """Run one pass of the workload's CLI calls; return the pass's stdout."""
    outs = []
    for i, (argv, reports) in enumerate(workloads.ops(workload, workdir)):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(argv)
        expect(rc == 0, f"{workload}: lofiq {argv[0]} exits 0")
        with open(os.path.join(workdir, f"op{i}.out"), "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        outs.append(buf.getvalue())
    return "".join(outs)


def one_step(fmt, role, S, O):
    """O with its largest-magnitude element moved one grid step towards zero."""
    _, v = checks.oracle_view(fmt, role, S)
    i = np.unravel_index(np.argmax(np.abs(v["y"])), S.shape)
    j = int(np.flatnonzero(v["grid"] == v["code"][i])[0])
    code = v["code"].copy()
    code[i] = v["grid"][j - 1 if v["code"][i] > 0 else j + 1]
    moved = O.copy()
    moved[i] = v["to_out"](code)[i]
    expect(moved[i] != O[i], f"{fmt}: the one-step move changes the output")
    return moved, i


def test_codec_checks(workdir):
    """Every format, both roles: report fields and the element oracle."""
    ((name, w),) = checks.read_lqt(workloads.paths(workdir)["W"])
    acts = checks.read_lqt(workloads.paths(workdir)["A"])
    for fmt in workloads.FORMATS:
        for role, x, out, row in (
                ("weight", w, checks.quantize_public(fmt, "weight", w, 1, 0)[1], None),
                ("activation", acts[0][1], checks.read_lqt(workloads.paths(workdir)["R"](fmt))[0][1],
                 json.load(open(workloads.paths(workdir)["Rj"](fmt), encoding="utf-8"))[0])):
            tensor = name if role == "weight" else acts[0][0]
            if row is None:
                with open(workloads.paths(workdir)["C"], encoding="utf-8") as fh:
                    row = json.load(fh)[workloads.FORMATS.index(fmt)]
            want = checks.expect_row(fmt, role, tensor)
            # the sample layout: groups are rows, blocks run along axis 1
            S, O = (x.T.copy(), out.T.copy()) if role == "weight" else (x, out)
            expect(not checks.check_report_row(row, x, out, want), f"{fmt}/{role}: report passes")
            expect(not checks.check_sample(fmt, role, S, O), f"{fmt}/{role}: oracle passes")
            moved, i = one_step(fmt, role, S, O)
            full = moved.T if role == "weight" else moved
            expect(bool(checks.check_sample(fmt, role, S, moved)),
                   f"{fmt}/{role}: oracle rejects one element moved one grid step")
            expect(bool(checks.check_report_row(row, x, full, want)),
                   f"{fmt}/{role}: report check rejects one element moved one grid step")
            for key in row:
                bad = dict(row)
                if key == "sqnr_db":  # beyond the report's rounding to 4 decimals
                    bad[key] += 1e-3
                else:
                    bad[key] = bad[key] * (1 + 1e-6) if isinstance(bad[key], float) else bad[key] + "x"
                expect(bool(checks.check_report_row(bad, x, out, want)),
                       f"{fmt}/{role}: report check rejects a changed {key}")


def test_workload_checks(workdir):
    for workload in workloads.NAMES:
        digest = run_cli(workload, workdir)
        fails = checks.check_outputs(workload, SEED, workdir, [digest, digest])
        expect(not fails, f"{workload}: all checks pass on the CLI's output {fails}")
        expect(bool(checks.check_determinism([digest, digest, "other"])),
               f"{workload}: determinism check rejects a pass with other report bytes")
    with open(workloads.paths(workdir)["C"], encoding="utf-8") as fh:
        sqnr = {f: r["sqnr_db"] for f, r in zip(workloads.FORMATS, json.load(fh))}
    expect(not checks.check_orderings(sqnr), "compare-weight: the SQNR orderings hold")
    for a, b in (("hif8-scaled", "e4m3"), ("nvfp4", "mxfp4")):
        swapped = dict(sqnr, **{a: sqnr[b], b: sqnr[a]})
        expect(bool(checks.check_orderings(swapped)), f"orderings reject {a} and {b} swapped")

    ((_, x),), ((_, w),) = (checks.read_lqt(workloads.paths(workdir)[k]) for k in ("X", "Wx"))
    with open(os.path.join(workdir, "op0.out"), encoding="utf-8") as fh:
        report = json.load(fh)
    for key in report:
        bad = dict(report)
        if key == "alpha":
            for alpha in checks.ALPHA_GRID + (0.55,):
                if alpha != report["alpha"]:
                    bad["alpha"] = alpha
                    expect(bool(checks.check_svdq(bad, x, w, workloads.SVDQ_RANK)),
                           f"svdq check rejects alpha {alpha} in place of {report['alpha']}")
            continue
        bad[key] = bad[key] + 1 if isinstance(bad[key], int) else (
            bad[key] * (1 + 1e-4) if isinstance(bad[key], float) else bad[key] + "x")
        expect(bool(checks.check_svdq(bad, x, w, workloads.SVDQ_RANK)),
               f"svdq check rejects a changed {key}")


def test_tracing(workdir):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    for workload in workloads.NAMES:
        tracer.pass_id = workload
        run_cli(workload, workdir)
    per_pass = tracing.layer_metrics(tracer.spans)
    for workload in workloads.NAMES:
        pass_s = sum(s[2] - s[1] for s in tracer.spans if s[4] == workload and s[3] == -1)
        # kernel spans are leaves, so their totals are self times too
        parts = sum(v for k, v in per_pass[workload].items()
                    if k.endswith("_s") and not k.endswith("per_s") and k != "ptq.reconstruct_s")
        expect(abs(pass_s - parts) < 1e-6 * max(pass_s, 1.0),
               f"{workload}: per-layer times add up to the traced pass ({pass_s:.4f} s)")
    calls = per_pass["svdq-int8"]["ptq.reconstruct_calls"]
    expect(calls > 0, f"svdq-int8: the pipeline's reconstruct calls are counted ({calls})")
    expect(all(set(m) == set(tracing.UNITS) - {"trace.overhead_s"} for m in per_pass.values()),
           "every traced pass reports every per-layer metric")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    want = {k: (u, "higher" if k in tracing.HIGHER_IS_BETTER else "lower")
            for k, u in tracing.UNITS.items()}
    expect(listed == want, "BENCHMARK.json per_layer matches the traced metrics")
    expect([w["name"] for w in bench["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json names the three workloads")


def main():
    for key, value in TINY.items():
        setattr(workloads, key, value)
    workdir = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
    try:
        for workload in workloads.NAMES:
            workloads.make_inputs(lofiq, workload, SEED, workdir)
        test_workload_checks(workdir)
        test_codec_checks(workdir)
        test_tracing(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
