"""Fidelity metrics, synthetic tensors, and the multi-format comparison harness.

The signal-to-quantization-noise ratio in dB is
10 * log10(|X|_F^2 / |X - Xhat|_F^2); a perfect reconstruction reports the
+inf sentinel, which serializes as the string "inf".
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch, ZeroSignal
from .registry import as_codec
from .tensor import Tensor, as_array, for_chunks

__all__ = [
    "FidelityReport",
    "SyntheticSpec",
    "sqnr",
    "synth",
    "compare_formats",
    "fidelity_from_reconstruction",
    "emit_report",
    "report_rows",
]

_FIELDS = ("tensor", "format", "granularity", "sqnr_db",
           "max_abs_err", "mean_abs_err", "rel_fro_err", "config")


@dataclass(frozen=True)
class FidelityReport:
    tensor_name: str
    format_name: str
    granularity: str
    sqnr_db: float  # math.inf when the reconstruction is exact
    max_abs_err: float
    mean_abs_err: float
    rel_fro_err: float
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic synthetic tensor recipe; all randomness flows from seed."""

    kind: str  # gaussian | gaussian_outlier | uniform
    shape: tuple
    sigma: float = 1.0
    outlier_fraction: float = 0.0
    outlier_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian", "gaussian_outlier", "uniform"):
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction must be in [0, 1]")


def sqnr(x, x_hat, *, signal=None, noise=None):
    """Signal-to-quantization-noise ratio in dB.

    A caller that holds signal = sum(x*x) or noise = sum((x_hat - x)**2)
    passes it in; with both, x and x_hat are not read.
    """
    if signal is None or noise is None:
        xa, ha = as_array(x), as_array(x_hat)
        if xa.shape != ha.shape:
            raise ShapeMismatch(f"shape {xa.shape} vs {ha.shape}")
        signal = float(np.sum(xa * xa)) if signal is None else signal
        noise = float(np.sum((ha - xa) ** 2)) if noise is None else noise
    if signal == 0.0:
        raise ZeroSignal("signal energy is zero")
    if noise == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / noise)


def synth(spec):
    """Generate a tensor from a SyntheticSpec; identical seeds give identical data."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "uniform":
        arr = rng.random(spec.shape)
    else:
        arr = rng.normal(0.0, spec.sigma, spec.shape)
        if spec.kind == "gaussian_outlier" and spec.outlier_fraction > 0:
            n_out = math.ceil(spec.outlier_fraction * arr.size)
            idx = rng.choice(arr.size, size=n_out, replace=False)
            flat = arr.reshape(-1)
            flat[idx] *= spec.outlier_scale
    name = f"{spec.kind}-{'x'.join(map(str, spec.shape))}-seed{spec.seed}"
    return Tensor(arr, name)


def fidelity_from_reconstruction(t, recon, codec, role, *, signal=None, ref_norm=None):
    """Report comparing one tensor against a reconstruction produced elsewhere.

    ``recon`` is checked for finiteness once, here, unless it is a Tensor
    (checked when built). ``signal`` (sum of x*x) and ``ref_norm`` (|x|_F)
    may be passed by a caller that scores many reconstructions of ``t``.
    """
    arr = as_array(t)
    rec = as_array(recon)
    if arr.shape != rec.shape:
        raise ShapeMismatch(f"shape {arr.shape} vs {rec.shape}")
    signal = float(np.sum(arr * arr)) if signal is None else signal
    ref_norm = float(np.linalg.norm(arr)) if ref_norm is None else ref_norm
    a, r = (arr, rec) if arr.ndim else (arr.reshape(1), rec.reshape(1))
    err = np.empty(a.shape)  # |recon - arr|, formed and maximized in chunks

    def chunk(s):
        e = np.subtract(r[s], a[s], out=err[s])
        return np.abs(e, out=e).max(initial=0.0)

    max_abs = max(for_chunks(chunk, a), default=0.0)
    # sums, the mean and the norm run over the whole array, in the order a
    # single pass adds, so every reported digit is that pass's
    mean_abs = float(err.mean()) if err.size else 0.0
    rel = float(np.linalg.norm(err)) / ref_norm if ref_norm else 0.0
    for_chunks(lambda s: np.multiply(err[s], err[s], out=err[s]), a)
    db = sqnr(arr, rec, signal=signal, noise=float(np.sum(err)))
    return FidelityReport(
        tensor_name=getattr(t, "name", None) or "<unnamed>",
        format_name=codec.selector,
        granularity=codec.granularity(role, arr.ndim),
        sqnr_db=db,
        max_abs_err=float(max_abs),
        mean_abs_err=mean_abs,
        rel_fro_err=rel,
        config=codec.config(role),
    )


def compare_formats(t, formats, role):
    """One FidelityReport per format, all against the same input tensor."""
    arr = as_array(t)
    signal, ref_norm = float(np.sum(arr * arr)), float(np.linalg.norm(arr))
    reports = []
    for fmt in formats:
        codec = as_codec(fmt)
        # no name holds the reconstruction, so it is freed before the next one is made
        reports.append(fidelity_from_reconstruction(
            t, Tensor.of_checked(codec.reconstruct(t, role)), codec, role,
            signal=signal, ref_norm=ref_norm))
    return reports


def _db_out(v):
    # dB values serialize at 4 decimal places; the +inf sentinel as "inf"
    return "inf" if math.isinf(v) else round(v, 4)


def _config_out(cfg):
    return ";".join(f"{k}={cfg[k]}" for k in sorted(cfg))


def report_rows(reports):
    """Serializable rows with a stable field order."""
    rows = []
    for r in reports:
        rows.append({
            "tensor": r.tensor_name,
            "format": r.format_name,
            "granularity": r.granularity,
            "sqnr_db": _db_out(r.sqnr_db),
            "max_abs_err": float(r.max_abs_err),
            "mean_abs_err": float(r.mean_abs_err),
            "rel_fro_err": float(r.rel_fro_err),
            "config": _config_out(r.config),
        })
    return rows


def emit_report(reports, fmt, path):
    """Write reports as JSON or CSV with a fixed schema.

    JSON is a list of objects keyed exactly by the CSV header fields;
    CSV starts with the header line tensor,format,granularity,sqnr_db,
    max_abs_err,mean_abs_err,rel_fro_err,config.
    """
    rows = report_rows(reports)
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
    else:
        raise ValueError(f"report format must be json or csv, got {fmt!r}")
