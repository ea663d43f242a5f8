"""8-bit adaptive-precision format: mantissa width shrinks as |exponent| grows.

Quantization maps a real x with binary exponent e = floor(log2|x|) onto the
grid of step 2**(e - n_m), where the mantissa width n_m is 3 for |e| <= 3,
2 for |e| <= 7, 1 for |e| <= 15 and 0 beyond; the grid index is
floor(|x| / 2**(e - n_m) + 0.5). Results saturate at the format maximum
2**15; nonzero magnitudes below the minimum 2**-22 land on +-2**-22.

The exponent is extracted from the binary representation of |x| itself
(never a floating log). Zero quantizes to +0.0.

The scaled variant's quantize fits one scale per group. Its record, a
``tensor.Record``, makes the values of a slice of the scaled source in
``round`` and divides them by the scales in ``decode``;
``hif8_scaled_dequantize`` and ``values`` go through ``round``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteValue
from .tensor import Record, as_array, group_absmax, made_in_chunks

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


# |x| = m * 2**be with m in [0.5, 1) (frexp; zero has m = 0 and be = 0), so
# e = be - 1, the grid step is 2**q with q = e - n_m, and |x| / 2**q is
# m * 2**(1 + n_m). _WIDTHS packs n_m for |e| = 0..15 two bits each; a shift
# by 2 * 16 = 32 bits leaves 0, the width of every |e| >= 16.
_WIDTHS = np.int32(sum(_mantissa_bits(a) << 2 * a for a in range(16)))


def _quantize_into(x, out, signs=None):
    """Quantize the array ``x`` (at least 1-D) into ``out`` of its shape, which may be ``x``.

    The signs are those of ``signs`` (default ``x``), which must not be
    ``out``. The rounding runs in ``out``: besides it, a slice holds two int32
    arrays, and then one int32 array and a mask.
    """
    np.abs(x, out=out)
    be = np.empty(out.shape, np.int32)
    np.frexp(out, out=(out, be))
    shift = np.subtract(be, 1)
    np.abs(shift, out=shift)
    np.minimum(shift, 16, out=shift)
    shift <<= 1
    np.right_shift(_WIDTHS, shift, out=shift)
    shift &= 3
    shift += 1  # 1 + n_m
    np.ldexp(out, shift, out=out)
    out += 0.5
    np.floor(out, out=out)
    be -= shift  # q
    del shift
    underflow = be < -22  # e < -22, where n_m = 0 and q = e
    np.ldexp(out, be, out=out)
    np.copyto(out, MIN_SUBNORMAL, where=underflow)
    np.minimum(out, MAX_NORMAL, out=out)
    np.copysign(out, x if signs is None else signs, out=out)
    out += 0.0  # -0.0 -> +0.0: zero quantizes to +0.0
    return out


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


@dataclass(frozen=True, kw_only=True)
class ScaledHif8Quantized(Record):
    """Per-group scales fitted to ``source``; the values are derived, and dequantization
    divides them by the scales."""

    scales: np.ndarray  # one positive scale per index along axis, flat
    K: float

    @cached_property
    def values(self):
        """Quantized values of the scaled tensor in the input's shape, C-contiguous."""
        return self.rounded()

    def round(self, s, out):
        """The HiF8 values of slice ``s`` of the source times its scales, in ``out``."""
        x = self.source[s]
        np.multiply(x, self.groups(self.scales, s), out=out)
        return _quantize_into(out, out, x)  # a scale is positive, so x has the product's signs

    def decode(self, s, out):
        """value / scale, in place."""
        np.divide(out, self.groups(self.scales, s), out=out)


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
    return ScaledHif8Quantized(source=arr, axis=axis, name=name, scales=flat, K=float(K))


def hif8_scaled_dequantize(q):
    """Round each slice of the scaled source and divide it by its scales, in cache."""
    return q.dequantized()
