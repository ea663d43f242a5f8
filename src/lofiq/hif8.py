"""8-bit adaptive-precision format: mantissa width shrinks as |exponent| grows.

Quantization maps a real x with binary exponent e = floor(log2|x|) onto the
grid of step 2**(e - n_m), where the mantissa width n_m is 3 for |e| <= 3,
2 for |e| <= 7, 1 for |e| <= 15 and 0 beyond; the grid index is
floor(|x| / 2**(e - n_m) + 0.5). Results saturate at the format maximum
2**15; nonzero magnitudes below the minimum 2**-22 land on +-2**-22.

The exponent is extracted from the binary representation of |x| itself
(never a floating log). Zero quantizes to +0.0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, FpFormatSpec
from .errors import NonFiniteValue
from .tensor import Tensor, as_array, for_chunks, group_absmax, group_axes, made_in_chunks, rows

__all__ = [
    "MAX_NORMAL",
    "MIN_NORMAL",
    "MAX_SUBNORMAL",
    "MIN_SUBNORMAL",
    "DEFAULT_K",
    "Hif8Value",
    "hif8_decompose",
    "hif8_quantize_value",
    "hif8_quantize",
    "hif8_enumerate",
    "hif8_scaled_quantize",
    "hif8_scaled_dequantize",
    "ScaledHif8Quantized",
]

MAX_NORMAL = 2.0**15
MIN_NORMAL = 2.0**-15
MAX_SUBNORMAL = 2.0**-16
MIN_SUBNORMAL = 2.0**-22

# Target maximum magnitude for the scaled variant, by tensor role.
DEFAULT_K = {"weight": 16.0, "activation": 4.0, "kv": 1.0}
# Added to each group's max|x| before the scaled variant divides by it.
_SCALE_EPS = 1e-12
# Exponent field hif8_decompose reports for a zero input.
_ZERO_EXP = -45


def _mantissa_bits(abs_e):
    if abs_e <= 3:
        return 3
    if abs_e <= 7:
        return 2
    if abs_e <= 15:
        return 1
    return 0


@dataclass(frozen=True)
class Hif8Value:
    """Decomposed quantization of one real: sign * code * 2**(exponent - mantissa_bits)."""

    sign: int  # +1 or -1
    exponent: int
    mantissa_bits: int
    code: int  # grid index in [0, 2**(mantissa_bits + 1)]

    @property
    def value(self):
        return self.sign * math.ldexp(self.code, self.exponent - self.mantissa_bits)


def hif8_decompose(x):
    """Sign/exponent/width/code fields of the quantization of ``x``.

    Saturated and underflowed inputs report the fields of the clamp target
    (2**15 and 2**-22); .value is the quantized real.
    """
    sign = -1 if x < 0 else 1
    ax = abs(x)
    if ax == 0.0:
        return Hif8Value(sign, _ZERO_EXP, _mantissa_bits(-_ZERO_EXP), 0)
    _, be = math.frexp(ax)
    e = be - 1
    if e > 15:
        return Hif8Value(sign, 15, 1, 2)
    if e < -22:
        return Hif8Value(sign, -22, 0, 1)
    nm = _mantissa_bits(abs(e))
    code = int(math.floor(math.ldexp(ax, nm - e) + 0.5))
    if math.ldexp(code, e - nm) > MAX_NORMAL:
        return Hif8Value(sign, 15, 1, 2)
    return Hif8Value(sign, e, nm, code)


def hif8_quantize_value(x):
    """Quantize one finite real; scalar reference of the array kernel."""
    return hif8_decompose(x).value


# Grid exponent e - n_m for each frexp exponent be = e + 1 of a float64
# (be spans -1073 for the smallest subnormal up to 1024; zero has be = 0).
_FREXP_MIN = -1073
_GRID_EXP = np.array([be - 1 - _mantissa_bits(abs(be - 1)) for be in range(_FREXP_MIN, 1025)],
                     dtype=np.int32)


def _quantize_into(x, out):
    """Quantize the array ``x`` (at least 1-D) into ``out`` of its shape."""
    ax = np.abs(x)
    _, be = np.frexp(ax)
    underflow = be < -21  # e < -22; zero has be = 0
    q = _GRID_EXP[be - _FREXP_MIN]
    val = np.ldexp(ax, -q, out=out)
    val += 0.5
    np.floor(val, out=val)
    np.ldexp(val, q, out=val)
    val[underflow] = MIN_SUBNORMAL
    np.minimum(val, MAX_NORMAL, out=val)
    np.copysign(val, x, out=val)
    val += 0.0  # -0.0 -> +0.0, as hif8_quantize_value returns
    return val


def hif8_quantize(t):
    """Elementwise quantize-dequantize of a whole tensor."""
    arr = as_array(t)
    name = getattr(t, "name", None)
    flat = arr.reshape(-1)  # ufuncs turn 0-d arrays into scalars, which out= rejects
    out = made_in_chunks(arr.shape, lambda s, o: _quantize_into(flat[s], o), name, np.ravel)
    return Tensor.of_checked(out, name)


def hif8_enumerate():
    """Full sorted codebook of representable values.

    Built straight from the legal (e, n_m, grid index) space: pure powers of
    two below the normal range, then each normal binade at its mantissa
    width; values above the saturation bound are not representable.
    """
    vals = [0.0]
    codes = [0]
    for i, e in enumerate(range(-22, -15)):  # 2**-22 .. 2**-16
        vals.append(math.ldexp(1.0, e))
        codes.append(i + 1)
    for e in range(-15, 16):
        nm = _mantissa_bits(abs(e))
        for xh in range(2**nm, 2 ** (nm + 1)):
            v = math.ldexp(xh, e - nm)
            if v <= MAX_NORMAL:
                vals.append(v)
                codes.append(xh)
    pos = np.array(vals)
    pos_codes = np.array(codes, dtype=np.int64)
    values = np.concatenate([-pos[:0:-1], pos])
    all_codes = np.concatenate([pos_codes[:0:-1], pos_codes])
    spec = FpFormatSpec("hif8", 5, 3, bias=15)
    return Codebook(spec, values, all_codes)


@dataclass(frozen=True)
class ScaledHif8Quantized:
    """Per-group scaled quantization record; dequantization divides by scales."""

    values: np.ndarray  # quantized values of the scaled tensor in the input's shape, C-contiguous
    scales: np.ndarray  # one positive scale per index along axis, flat
    K: float
    axis: int
    name: str = None

    @property
    def shape(self):
        return self.values.shape


def hif8_scaled_quantize(t, axis, K):
    """Scale each group along ``axis`` to target max magnitude K, then quantize.

    The per-group scale is K / (max|x| + 1e-12); a group of zeros (or an
    empty one) gets a huge scale but every element still quantizes to zero,
    so dequantization reproduces zeros. A scale that overflows to inf, or one
    so small that the least nonzero code MIN_SUBNORMAL divided by it
    overflows (a scale of 0 included), could not be divided out again and
    raises NonFiniteValue; only the scales are checked, not the elements.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    arr = as_array(t)
    name = getattr(t, "name", None)
    with np.errstate(over="ignore", divide="ignore"):
        scales = K / (group_absmax(arr, axis) + _SCALE_EPS)
        flat = scales.reshape(-1)
        bad = ~np.isfinite(flat) | ~np.isfinite(MIN_SUBNORMAL / flat)
    if bad.any():
        i = int(np.argmax(bad))
        shown = name or "<unnamed>"
        raise NonFiniteValue(f"tensor {shown!r}: hif8-scaled scale K / (max|x| + {_SCALE_EPS}) "
                             f"of group {i} is {flat[i]} for K={K}, out of range", tensor=shown)
    values = np.empty(arr.shape)
    for_chunks(lambda s: _quantize_into(arr[s] * rows(scales, s), values[s]), arr)
    return ScaledHif8Quantized(values, flat, float(K), axis, name)


def hif8_scaled_dequantize(q):
    scales = np.expand_dims(q.scales, group_axes(q.values.ndim, q.axis))
    out = made_in_chunks(q.values.shape,
                         lambda s, o: np.divide(q.values[s], rows(scales, s), out=o), q.name)
    return Tensor.of_checked(out, q.name)
