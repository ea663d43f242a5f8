"""perfbench wraps lofiq's module boundaries by name; renaming one must fail here.

perfbench/tracing.py replaces functions and methods it looks up as
attributes (each codec class's ``reconstruct``, ``registry.project``, the
codec kernels' quantize/dequantize functions, the ptq stages). A boundary
that moves or is renamed stops being recorded, and its per-layer metrics
read zero without an error. This test runs the tracer over one small
``compare`` and one small ``svdq`` in a fresh interpreter, so the wrapping
cannot leak into other tests, and checks that every boundary was recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import lofiq

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = r"""
import json, os, sys
import numpy as np
import lofiq, tracing, workloads
from lofiq import cli

tmp = sys.argv[1]
rng = np.random.default_rng(0)
lofiq.save_tensors([lofiq.tensor(rng.normal(0, 0.02, (16, 64)), "x")], os.path.join(tmp, "x.lqt"))
lofiq.save_tensors([lofiq.tensor(rng.normal(0, 0.02, (64, 32)), "w")], os.path.join(tmp, "w.lqt"))

tracer = tracing.Tracer()
tracing.install(tracer)
codes = [cli.main(["compare", "--synth", "gaussian:64x64", "--formats",
                   ",".join(workloads.FORMATS), "--role", "weight",
                   "-o", os.path.join(tmp, "c.json")])]
tracer.pass_id = 1
codes.append(cli.main(["svdq", "--x", os.path.join(tmp, "x.lqt"),
                       "--w", os.path.join(tmp, "w.lqt"), "-f", "int8", "--rank", "4"]))
json.dump({"codes": codes,
           "spans": sorted({s[0] for s in tracer.spans}),
           "metrics": tracing.layer_metrics(tracer.spans),
           "codec_span": tracing.CODEC_SPAN,
           "codec_calls": tracing.CODEC_CALLS},
          sys.stderr)
"""


def _traced_run(tmp_path):
    src = os.path.dirname(os.path.dirname(lofiq.__file__))
    path = os.pathsep.join([str(ROOT / "perfbench"), src])
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr)


def test_tracer_records_every_boundary(tmp_path):
    out = _traced_run(tmp_path)
    assert out["codes"] == [0, 0]
    spans = set(out["spans"])
    compare, svdq = out["metrics"]["0"], out["metrics"]["1"]
    for fmt, prefix in out["codec_span"].items():
        assert f"registry.{fmt}" in spans, fmt
        for call in out["codec_calls"][fmt]:
            assert f"{prefix}.{call}" in spans, (fmt, call)
        # kernel spans carry element counts, so a throughput is computed
        assert compare[f"{prefix}.melem_per_s"] > 0, fmt
    for name in ("metrics.fidelity", "metrics.sqnr", "metrics.emit_report", "tensor.load",
                 "ptq.pipeline", "ptq.search_alpha", "ptq.svd_split", "ptq.apply_smoothing"):
        assert name in spans, name
    assert svdq["ptq.reconstruct_calls"] == 21
