"""Fidelity metrics, synthetic tensors, and the multi-format comparison harness.

The signal-to-quantization-noise ratio in dB is
20 * log10(|X|_F / |X - Xhat|_F); a perfect reconstruction reports the
+inf sentinel, which serializes as the string "inf".

Every sum is numpy's pairwise sum (``np.add.reduce``) over the flat C order:
a mean is that sum over the count, and a Frobenius norm is the square root
of the pairwise sum of squares, never BLAS. The sums run slice by slice on
every core without an array of the input's size, and follow numpy's tree,
so each figure depends on the data alone, not on the core count,
``tensor.CHUNK`` or the BLAS thread count.

Every figure is that of the plain formula without overflow or underflow.
Data whose squares could leave float64's normal range is scaled by 2**-k,
which is exact, and its norm kept as a pair (value, k) for value * 2**k.
"""

import csv
import io
import json
import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import NonFiniteValue, ShapeMismatch, ZeroSignal
from .registry import as_codec
from .tensor import Tensor, as_array, as_tensor, pairwise_reduce, write_in_place

__all__ = [
    "FidelityReport",
    "SyntheticSpec",
    "parse_synth",
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


# Each synthetic kind, and the SyntheticSpec fields its spec string gives after kind:AxB, in order
_SYNTH_FIELDS = {"gaussian": ("sigma",), "uniform": (),
                 "gaussian_outlier": ("sigma", "outlier_fraction", "outlier_scale")}
_SYNTH_REQUIRED = {"gaussian_outlier": 2}  # how many of them a spec string must give, if not 0


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic synthetic tensor recipe; all randomness flows from seed."""

    kind: str  # a key of _SYNTH_FIELDS
    shape: tuple
    sigma: float = 1.0
    outlier_fraction: float = 0.0
    outlier_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _SYNTH_FIELDS:
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        if not isinstance(self.shape, tuple) or any(operator.index(n) < 0 for n in self.shape):
            raise ValueError(f"shape must be a tuple of non-negative extents, got {self.shape!r}")
        for f in fields(self)[2:-1]:  # the numbers; one its kind does not read keeps its default
            value = getattr(self, f.name)
            if f.name not in _SYNTH_FIELDS[self.kind] and value != f.default:
                raise ValueError(f"{self.kind} reads no {f.name}, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction must be in [0, 1]")
        if operator.index(self.seed) < 0:  # TypeError, as for an extent, unless an integer
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")


def _grammar(kind, given=None):
    """``kind``'s fields after kind:AxB, e.g. :sigma:fraction[:scale], without outlier_ prefixes;
    all past the first ``given`` (by default, those a spec string must give) in brackets."""
    names, given = _SYNTH_FIELDS[kind], _SYNTH_REQUIRED.get(kind, 0) if given is None else given
    return "".join((":" if i < given else "[:") + f.removeprefix("outlier_")
                   for i, f in enumerate(names)) + "]" * (len(names) - given)


def parse_synth(spec_str, seed):
    """kind:AxB[:number...] -> SyntheticSpec, numbers as the kind's _SYNTH_FIELDS; errors name it"""
    kind, *parts = spec_str.split(":")
    names = _SYNTH_FIELDS.get(kind)
    try:
        if names is None or len(parts) <= _SYNTH_REQUIRED.get(kind, 0):  # no kind:AxB, too short
            known = ", ".join(f"{k}:AxB{_grammar(k)}" for k in _SYNTH_FIELDS)
            raise ValueError(f"a synthetic spec is one of {known}")
        if len(parts) > 1 + len(names):
            raise ValueError(f"{kind} reads no field past kind:AxB{_grammar(kind, len(names))}")
        shape = tuple(int(s) for s in parts[0].lower().split("x"))
        return SyntheticSpec(kind, shape, seed=seed, **dict(zip(names, map(float, parts[1:]))))
    except ValueError as exc:
        raise ValueError(f"{spec_str!r}: {exc}") from None


def _shift(top, size):
    """k such that ``size`` values below 2**top are scaled by 2**-k before squaring.

    It is ``top`` when their squares could sum past float64's maximum or
    the largest come within 2**53 of the subnormals; else 0.
    """
    return top if 2 * top + size.bit_length() > 1023 or 2 * top < -967 else 0


def _abs_sums(a, b=None, with_norm=False):
    """(max|d|, sum|d * 2**-k|, sum (d * 2**-k)**2, k) of d = b - a, or of d = a without b.

    a and b have one shape, and d runs over it in C order. k = _shift(top,
    size) for max|d| < 2**top. Each slice of d is formed in a scratch array
    that fits in cache, and the sums are numpy's pairwise sums over all of
    d (``pairwise_reduce``), so no array of a's size is made and no figure
    depends on the core count, CHUNK or BLAS. When k is not 0 the slices
    run again on d * 2**-k.

    With ``with_norm`` (and b), ``_norm(a)`` follows as a fifth item: max|a|
    and sum a**2 are taken in the same pass, from each slice of |a| before d
    is formed in its place, so a is read in one pass, not two.
    """
    x = a.reshape(-1)  # a view of a C-contiguous array such as a Tensor's
    y = None if b is None else b.reshape(-1)

    def sums(k, y, with_norm=False):
        @np.errstate(over="ignore")  # an overflow gives inf, which the callers check
        def leaf(s):
            norm = ()
            if y is None:
                d = np.abs(x[s])
            else:
                if with_norm:
                    d = np.abs(x[s])
                    norm = (float(d.max(initial=0.0)),
                            float(np.add.reduce(np.multiply(d, d, out=d))))
                    np.subtract(y[s], x[s], out=d)
                else:
                    d = np.subtract(y[s], x[s])
                np.abs(d, out=d)
            if k:
                np.ldexp(d, -k, out=d)
            top, total = d.max(initial=0.0), np.add.reduce(d)
            return (float(top), float(total),
                    float(np.add.reduce(np.multiply(d, d, out=d)))) + norm

        return pairwise_reduce(leaf, _join, x.size)

    top, total, squares, *norm = sums(0, y, with_norm and y is not None)
    # with |d| < 2**e its squares sum below 2**(2 * e + bits of size)
    k = _shift(math.frexp(top)[1], x.size)
    if k:
        _, total, squares = sums(k, y)
    if not norm:
        return top, total, squares, k
    a_top, a_squares = norm
    j = _shift(math.frexp(a_top)[1], x.size)
    if j:
        _, _, a_squares = sums(j, None)
    return top, total, squares, k, (math.sqrt(a_squares), j)


def _join(p, q):
    """The figures of two adjacent ranges joined: maxima (items 0 and 3) by max, sums by +."""
    return tuple(max(u, v) if i % 3 == 0 else u + v for i, (u, v) in enumerate(zip(p, q)))


def _norm(a, b=None):
    """(|d * 2**-k|_F, k) of d = b - a, or of d = a without b, with k as in ``_abs_sums``."""
    _, _, squares, k = _abs_sums(a, b)
    return math.sqrt(squares), k


def _frobenius(a, b=None):
    """|b - a|_F, or |a|_F without b, with no square lost to overflow or underflow; inf if
    beyond float64."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(*_norm(a, b)))


def _pair(v):
    return v if isinstance(v, tuple) else (float(v), 0)


def sqnr(x, x_hat, *, ref_norm=None, err_norm=None):
    """Signal-to-quantization-noise ratio in dB, 20 * log10(|x|_F / |x_hat - x|_F).

    A zero error gives +inf, even on a zero signal; a nonzero error on a
    zero signal raises ZeroSignal. A caller that holds ref_norm = |x|_F or
    err_norm = |x_hat - x|_F passes it in, as a float or as a (value, k)
    pair for value * 2**k; with both, x and x_hat are not read.
    """
    if ref_norm is None or err_norm is None:
        xa, ha = as_array(x), as_array(x_hat)
        if xa.shape != ha.shape:
            raise ShapeMismatch(f"shape {xa.shape} vs {ha.shape}")
        ref_norm = _norm(xa) if ref_norm is None else ref_norm
        err_norm = _norm(xa, ha) if err_norm is None else err_norm
    (s, ks), (n, kn) = _pair(ref_norm), _pair(err_norm)
    if n == 0.0:  # exact, whatever the signal
        return math.inf
    if s == 0.0:
        raise ZeroSignal("signal energy is zero")
    if n == math.inf:
        raise NonFiniteValue("x_hat - x overflows float64")
    # signal over noise, so a unit ratio gives +0.0 dB; the ratio is
    # (ms / mn) * 2**e, exact while that is a normal float
    (ms, es), (mn, en) = math.frexp(s), math.frexp(n)
    e = es - en + ks - kn
    if -1021 <= e <= 1023:
        return 20.0 * math.log10(math.ldexp(ms / mn, e))
    return 20.0 * (math.log10(ms / mn) + e * math.log10(2.0))


def synth(spec):
    """Generate a tensor from a SyntheticSpec; identical seeds give identical data.

    A sigma (times the outlier scale) so large that a value overflows
    float64 raises ValueError.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "uniform":
        arr = rng.random(spec.shape)
    else:
        arr = rng.normal(0.0, spec.sigma, spec.shape)
        if spec.kind == "gaussian_outlier" and spec.outlier_fraction > 0:
            n_out = math.ceil(spec.outlier_fraction * arr.size)
            idx = rng.choice(arr.size, size=n_out, replace=False)
            flat = arr.reshape(-1)
            with np.errstate(over="ignore"):  # an overflow is refused below
                flat[idx] *= spec.outlier_scale
    name = f"{spec.kind}-{'x'.join(map(str, spec.shape))}-seed{spec.seed}"
    try:
        return Tensor(arr, name)
    except NonFiniteValue:
        scaled = f" times outlier scale {spec.outlier_scale!r}" if spec.kind != "gaussian" else ""
        raise ValueError(f"sigma {spec.sigma!r}{scaled} overflows float64") from None


def fidelity_from_reconstruction(t, recon, codec, role, *, ref_norm=None):
    """Report comparing one tensor against a reconstruction produced elsewhere.

    ``recon`` is checked for finiteness once, here, unless it is a Tensor
    (checked when built); NaN or Inf in it raises NonFiniteValue naming the
    tensor. ``ref_norm`` (|x|_F, a float or a pair) may be
    passed by a caller that scores many reconstructions of ``t``. sqnr_db
    and rel_fro_err both come from it and |recon - x|_F.

    max|e|, sum|e| and sum e**2 of e = recon - x come from one pass on every
    core that forms e slice by slice in cache, with no error array; they
    equal np.abs(e).max(), np.abs(e).mean() * size and np.add.reduce of e*e
    over the whole array bit for bit. Without ``ref_norm``, |x|_F is taken in
    that same pass, bit-identical to ``_norm(x)``. An error or
    relative error beyond float64 raises NonFiniteValue; a zero-size tensor,
    or a nonzero error on an all-zero one, ZeroSignal. Each names the tensor.
    """
    arr = as_array(t)
    shown = getattr(t, "name", None) or "<unnamed>"
    try:
        rec = as_array(recon)
    except NonFiniteValue:
        raise NonFiniteValue(f"tensor {shown!r}: the reconstruction contains NaN or Inf",
                             tensor=shown) from None
    if arr.shape != rec.shape:
        raise ShapeMismatch(f"shape {arr.shape} vs {rec.shape}")
    if not arr.size:  # nothing was reconstructed, exactly or not
        raise ZeroSignal(f"tensor {shown!r} has no elements, so no SQNR", tensor=shown)
    if ref_norm is None:  # |x|_F from the same pass as the error figures
        max_abs, total, squares, k, (rn, rk) = _abs_sums(arr, rec, with_norm=True)
    else:
        (rn, rk), (max_abs, total, squares, k) = _pair(ref_norm), _abs_sums(arr, rec)
    mean_abs = math.ldexp(total / arr.size, k)
    en = math.sqrt(squares)
    with np.errstate(over="ignore"):
        rel = float(np.ldexp(en / rn, k - rk)) if rn else 0.0
    if rel == math.inf:
        what = "error" if en == math.inf else "relative error"  # |recon - arr| overflowed, or not
        raise NonFiniteValue(f"tensor {shown!r}: the {what} of {codec.selector} overflows float64",
                             tensor=shown)
    try:
        db = sqnr(arr, rec, ref_norm=(rn, rk), err_norm=(en, k))
    except ZeroSignal as exc:
        raise ZeroSignal(f"tensor {shown!r}: {exc}", tensor=shown) from None
    return FidelityReport(
        tensor_name=shown,
        format_name=codec.selector,
        granularity=codec.granularity(role, arr.ndim),
        sqnr_db=db,
        max_abs_err=max_abs,
        mean_abs_err=mean_abs,
        rel_fro_err=rel,
        config=codec.config(role),
    )


def compare_formats(t, formats, role):
    """One FidelityReport per format, all against the same input tensor.

    The input is converted and checked once (``as_tensor``), and that one
    Tensor is handed to every codec, so a strided array is copied once.
    """
    x = as_tensor(t)
    ref_norm = _norm(x.data)
    reports = []
    for fmt in formats:
        codec = as_codec(fmt)
        # no name holds the reconstruction, so it is freed before the next one is made
        reports.append(fidelity_from_reconstruction(
            x, Tensor.of_checked(codec.reconstruct(x, role)), codec, role,
            ref_norm=ref_norm))
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
    max_abs_err,mean_abs_err,rel_fro_err,config. The report is formatted in
    memory and written in place in one write (``write_in_place``).
    """
    rows = report_rows(reports)
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        raise ValueError(f"report format must be json or csv, got {fmt!r}")
    write_in_place(path, [text.encode("utf-8")])
