"""8-bit adaptive-precision format: mantissa width shrinks as |exponent| grows.

Quantization maps a real x with binary exponent e = floor(log2|x|) onto the
grid of step 2**(e - n_m), where the mantissa width n_m is 3 for |e| <= 3,
2 for |e| <= 7, 1 for |e| <= 15 and 0 beyond; the grid index is
floor(|x| / 2**(e - n_m) + 0.5). Results saturate at the format maximum
2**15; nonzero magnitudes below the minimum 2**-22 land on +-2**-22.

The exponent is extracted from the binary representation of |x| itself
(never a floating log). Zero quantizes to +0.0.

The scaled variant's quantize fits one scale per group. Its values are
rounded from the source tensor when they are used: by
``hif8_scaled_dequantize`` slice by slice, straight into its output, or by
the record's ``values`` on first access.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteValue
from .tensor import as_array, for_chunks, group_absmax, group_axes, made_in_chunks, rows

__all__ = [
    "MAX_NORMAL",
    "MIN_SUBNORMAL",
    "DEFAULT_K",
    "hif8_quantize",
    "hif8_enumerate",
    "hif8_scaled_quantize",
    "hif8_scaled_dequantize",
    "ScaledHif8Quantized",
]

MAX_NORMAL = 2.0**15
MIN_SUBNORMAL = 2.0**-22

# Target maximum magnitude for the scaled variant, by tensor role.
DEFAULT_K = {"weight": 16.0, "activation": 4.0, "kv": 1.0}
# Added to each group's max|x| before the scaled variant divides by it.
_SCALE_EPS = 1e-12


def _mantissa_bits(abs_e):
    if abs_e <= 3:
        return 3
    if abs_e <= 7:
        return 2
    if abs_e <= 15:
        return 1
    return 0


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
    val += 0.0  # -0.0 -> +0.0: zero quantizes to +0.0
    return val


def hif8_quantize(t):
    """Elementwise quantize-dequantize of a whole tensor."""
    arr = as_array(t)
    flat = arr.reshape(-1)  # ufuncs turn 0-d arrays into scalars, which out= rejects
    return made_in_chunks(arr.shape, lambda s, o: _quantize_into(flat[s], o),
                          getattr(t, "name", None), np.ravel)


def hif8_enumerate():
    """Every representable value once, as a sorted float64 array.

    Built straight from the legal (e, n_m, grid index) space: pure powers of
    two below the normal range, then each normal binade at its mantissa
    width; values above the saturation bound are not representable.
    """
    pos = [0.0] + [math.ldexp(1.0, e) for e in range(-22, -15)]  # 2**-22 .. 2**-16
    for e in range(-15, 16):
        nm = _mantissa_bits(abs(e))
        pos += [math.ldexp(xh, e - nm) for xh in range(2**nm, 2 ** (nm + 1))]
    pos = np.array([v for v in pos if v <= MAX_NORMAL])
    return np.concatenate([-pos[:0:-1], pos])


@dataclass(frozen=True)
class ScaledHif8Quantized:
    """Per-group scales fitted to ``source``; the values are derived, and dequantization
    divides them by the scales.

    ``source`` is read again whenever values are rounded, so it must not be
    written to while the record is in use (a Tensor's data cannot be).
    """

    source: np.ndarray  # the input, float64
    scales: np.ndarray  # one positive scale per index along axis, flat
    K: float
    axis: int
    name: str = None

    @property
    def shape(self):
        return self.source.shape

    @cached_property
    def values(self):
        """Quantized values of the scaled tensor in the input's shape, C-contiguous."""
        values = np.empty(self.shape)
        for_chunks(lambda s: _round_scaled(self, s, values[s]), values)
        return values

    def _scales(self):
        return np.expand_dims(self.scales, group_axes(len(self.shape), self.axis))


def _round_scaled(q, s, out):
    """The HiF8 values of slice ``s`` of ``q.source``'s first axis times its scales, in ``out``."""
    return _quantize_into(q.source[s] * rows(q._scales(), s), out)


def hif8_scaled_quantize(t, axis, K):
    """Fit one scale per group along ``axis`` that brings its max magnitude to K.

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
    return ScaledHif8Quantized(arr, flat, float(K), axis, name)


def hif8_scaled_dequantize(q):
    """Round each slice of the scaled source and divide it by its scales, in cache."""
    scales = q._scales()

    def fill(s, o):
        _round_scaled(q, s, o)
        np.divide(o, rows(scales, s), out=o)

    return made_in_chunks(q.shape, fill, q.name)
