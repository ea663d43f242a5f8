"""Spans around calls into lofiq's modules, and the per-layer metrics made from them.

Each wrapper replaces a function under the name its caller looks it up by
(``lofiq.cli.load_tensors``, ``lofiq.mx.mx_quantize`` as ``registry`` calls
it, each codec class's ``reconstruct``), so the program itself is not
edited. A span is [name, start, end, parent index, pass id, elements, path];
spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child spans.
Children never overlap: the CLI runs on one thread.
"""

import os
import statistics
from time import perf_counter

from workloads import FORMATS

# Span prefix of each format's codec kernels.
CODEC_SPAN = {
    "int8": "intquant.int8", "int4": "intquant.int4",
    "e4m3": "codebook.e4m3", "e5m2": "codebook.e5m2",
    "hif8": "hif8.hif8", "hif8-scaled": "hif8.hif8-scaled",
    "mxfp8-e4m3": "mx.mxfp8-e4m3", "mxfp4": "mx.mxfp4", "mxint8": "mx.mxint8",
    "nvfp4": "nvfp4", "hif4": "hif4",
}
# Kernel calls each codec makes, in the order the metrics are listed.
CODEC_CALLS = {fmt: ("project",) if fmt in ("e4m3", "e5m2")
               else ("quantize",) if fmt == "hif8" else ("quantize", "dequantize")
               for fmt in FORMATS}
_MX_FORMAT = {"e4m3": "mxfp8-e4m3", "e2m1": "mxfp4", "int8": "mxint8"}


def _units():
    units = {"tensor.load_s": "s", "tensor.save_s": "s",
             "tensor.bytes_read": "B", "tensor.bytes_written": "B"}
    for fmt in FORMATS:
        units[f"registry.{fmt}.layout_s"] = "s"
    for fmt in FORMATS:
        for call in CODEC_CALLS[fmt]:
            units[f"{CODEC_SPAN[fmt]}.{call}_s"] = "s"
    for fmt in FORMATS:
        units[f"{CODEC_SPAN[fmt]}.melem_per_s"] = "Melem/s"
    for name in ("metrics.fidelity_s", "metrics.sqnr_s", "metrics.emit_report_s",
                 "ptq.search_alpha_s", "ptq.svd_split_s", "ptq.apply_smoothing_s",
                 "ptq.reconstruct_s"):
        units[name] = "s"
    units["ptq.reconstruct_calls"] = "count"
    units["ptq.pipeline_self_s"] = "s"
    units["cli.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


UNITS = _units()
HIGHER_IS_BETTER = {name for name in UNITS if name.endswith("melem_per_s")}


class Tracer:
    """Records spans for wrapped callables; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []

    def wrap(self, owner, attr, label):
        """Replace ``owner.attr`` by a spanned call; label(*args) -> (name, elements, path)."""
        inner = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            name, elements, path = label(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, elements, path]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        setattr(owner, attr, traced)


def _size(a):
    return int(a.size)  # ndarray or lofiq.Tensor


def install(tracer):
    """Wrap every module boundary the per-layer metrics are made from."""
    from lofiq import cli, hif4, hif8, intquant, metrics, mx, nvfp4, ptq, registry

    fmt_of = {registry.parse_format(f).selector: f for f in FORMATS}
    plain = lambda name: lambda *a, **k: (name, 0, None)
    w = tracer.wrap

    w(cli, "main", plain("cli"))
    w(cli, "load_tensors", lambda path: ("tensor.load", 0, os.fspath(path)))
    w(cli, "save_tensors", lambda ts, path, **k: ("tensor.save", 0, os.fspath(path)))
    for owner in (cli, metrics):
        w(owner, "fidelity_from_reconstruction", plain("metrics.fidelity"))
    w(metrics, "sqnr", plain("metrics.sqnr"))
    w(cli, "emit_report", plain("metrics.emit_report"))

    for cls in (registry.IntCodec, registry.CastCodec, registry.MxCodec, registry.Nvfp4Codec,
                registry.Hif8Codec, registry.ScaledHif8Codec, registry.Hif4Codec):
        w(cls, "reconstruct", lambda codec, *a, **k: (f"registry.{fmt_of[codec.selector]}", 0, None))
    w(registry, "project",
      lambda cb, x: (f"codebook.{cb.spec.name}.project", _size(x), None))
    for fn in ("int_quantize_symmetric", "int_quantize_asymmetric"):
        w(intquant, fn, lambda t, axis, bits: (f"intquant.int{bits}.quantize", _size(t), None))
    w(intquant, "int_dequantize", lambda q: (f"intquant.int{q.bits}.dequantize", 0, None))
    w(mx, "mx_quantize",
      lambda t, axis, el, k=32: (f"mx.{_MX_FORMAT[str(el)]}.quantize", _size(t), None))
    w(mx, "mx_dequantize",
      lambda q: (f"mx.{_MX_FORMAT[q.element.spec.name]}.dequantize", 0, None))
    w(nvfp4, "nvfp4_quantize", lambda t, axis: ("nvfp4.quantize", _size(t), None))
    w(nvfp4, "nvfp4_dequantize", plain("nvfp4.dequantize"))
    w(hif8, "hif8_quantize", lambda t: ("hif8.hif8.quantize", _size(t), None))
    w(hif8, "hif8_scaled_quantize",
      lambda t, axis, K, **k: ("hif8.hif8-scaled.quantize", _size(t), None))
    w(hif8, "hif8_scaled_dequantize", plain("hif8.hif8-scaled.dequantize"))
    w(hif4, "hif4_quantize", lambda t, axis, *a: ("hif4.quantize", _size(t), None))
    w(hif4, "hif4_dequantize", plain("hif4.dequantize"))

    w(ptq, "svdquant_pipeline", plain("ptq.pipeline"))
    for fn in ("search_alpha", "svd_split", "apply_smoothing"):
        w(ptq, fn, plain(f"ptq.{fn}"))


def layer_metrics(spans):
    """Per-layer metrics of each traced pass: {pass id: {metric: value}}."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start

    def under_pipeline(i):
        while i >= 0:
            if spans[i][0] == "ptq.pipeline":
                return True
            i = spans[i][3]
        return False

    per_pass = {}
    for i, (name, start, end, parent, pass_id, elements, path) in enumerate(spans):
        acc = per_pass.setdefault(pass_id, {})
        row = acc.setdefault(name, [0.0, 0.0, 0, 0, 0])  # total, self, count, elements, bytes
        row[0] += end - start
        row[1] += end - start - child[i]
        row[2] += 1
        row[3] += elements
        if path is not None:
            row[4] += os.path.getsize(path)
        if name.startswith("registry.") and under_pipeline(parent):
            ptq_row = acc.setdefault("ptq.reconstruct", [0.0, 0.0, 0, 0, 0])
            ptq_row[0] += end - start
            ptq_row[2] += 1

    out = {}
    for pass_id, acc in per_pass.items():
        get = lambda name, k: acc.get(name, [0.0, 0.0, 0, 0, 0])[k]
        m = {
            "tensor.load_s": get("tensor.load", 0),
            "tensor.save_s": get("tensor.save", 0),
            "tensor.bytes_read": get("tensor.load", 4),
            "tensor.bytes_written": get("tensor.save", 4),
        }
        for fmt in FORMATS:
            m[f"registry.{fmt}.layout_s"] = get(f"registry.{fmt}", 1)
        for fmt in FORMATS:
            prefix = CODEC_SPAN[fmt]
            busy = 0.0
            for call in CODEC_CALLS[fmt]:
                m[f"{prefix}.{call}_s"] = get(f"{prefix}.{call}", 0)
                busy += get(f"{prefix}.{call}", 0)
            elements = get(f"{prefix}.{CODEC_CALLS[fmt][0]}", 3)
            m[f"{prefix}.melem_per_s"] = elements / busy / 1e6 if busy > 0 else 0.0
        m["metrics.fidelity_s"] = get("metrics.fidelity", 1)
        m["metrics.sqnr_s"] = get("metrics.sqnr", 0)
        m["metrics.emit_report_s"] = get("metrics.emit_report", 0)
        m["ptq.search_alpha_s"] = get("ptq.search_alpha", 1)
        m["ptq.svd_split_s"] = get("ptq.svd_split", 1)
        m["ptq.apply_smoothing_s"] = get("ptq.apply_smoothing", 0)
        m["ptq.reconstruct_s"] = get("ptq.reconstruct", 0)
        m["ptq.reconstruct_calls"] = get("ptq.reconstruct", 2)
        m["ptq.pipeline_self_s"] = get("ptq.pipeline", 1)
        m["cli.self_s"] = get("cli", 1)
        out[pass_id] = m
    return out


def summarize(spans, traced_pass_s, untraced_pass_s):
    """Median of each per-layer metric over the traced passes, plus the overhead."""
    per_pass = list(layer_metrics(spans).values())
    result = {name: statistics.median(p[name] for p in per_pass)
              for name in UNITS if name != "trace.overhead_s"}
    result["trace.overhead_s"] = statistics.median(traced_pass_s) - statistics.median(untraced_pass_s)
    return result
