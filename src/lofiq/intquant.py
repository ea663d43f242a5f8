"""Integer quantization baselines: symmetric per-channel, asymmetric per-token.

Groups are the slices along one axis; each group gets its own scale (and
zero-point in asymmetric mode). The symmetric grid is +-(2**(b-1) - 1),
keeping the most-negative code unused so the grid stays symmetric around
zero. Code rounding is half-away-from-zero throughout.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import as_array, for_chunks, group_absmax, group_axes, made_in_chunks, rows

__all__ = ["IntQuantized", "int_quantize_symmetric", "int_quantize_asymmetric", "int_dequantize"]

_BITS = (4, 8)
_TINY = np.nextafter(0.0, 1.0)  # smallest positive float64


@dataclass(frozen=True)
class IntQuantized:
    codes: np.ndarray  # int16 grid values in the input's shape, C-contiguous
    scales: np.ndarray  # one positive scale per index along axis, flat
    zero_points: np.ndarray  # one integer per index along axis, asymmetric only (else None)
    axis: int
    bits: int
    mode: str  # "symmetric" | "asymmetric"
    name: str = None

    @property
    def shape(self):
        return self.codes.shape


def _round_half_away(mag, sign):
    """Round v half away from zero in place, where ``mag`` holds |v| and ``sign`` has v's sign.

    Gives the bits of sign(v) * floor(|v| + 0.5). A quotient by a positive
    scale has its dividend's sign, so callers pass the input as ``sign``
    and no signed copy of v is made.
    """
    mag += 0.5
    np.floor(mag, out=mag)
    return np.copysign(mag, sign, out=mag)


def _positive_scales(step):
    # a step below the smallest subnormal rounds to 0; keep it the smallest
    # positive scale so the division stays finite
    return np.maximum(step, _TINY)


def _codes(v):
    return v.astype(np.int16, order="C")


def _quantize_codes(arr, scales, finish):
    """int16 codes of ``arr``: |x| / scale rounded half away from zero, then ``finish``ed in place.

    Runs in chunks along the first axis, each one rounded in its own buffer.
    """
    codes = np.empty(arr.shape, np.int16)

    def chunk(s):
        x = arr[s]
        v = np.abs(x)
        v /= rows(scales, s)
        codes[s] = finish(_round_half_away(v, x), s)

    for_chunks(chunk, arr)
    return codes


def int_quantize_symmetric(t, axis, bits):
    """Per-group symmetric quantization: scale = max|x| / (2**(b-1) - 1)."""
    if bits not in _BITS:
        raise ValueError(f"bits must be one of {_BITS}")
    arr = as_array(t)
    qmax = 2 ** (bits - 1) - 1
    amax = group_absmax(arr, axis)
    scales = np.where(amax > 0, _positive_scales(amax / qmax), 1.0)
    codes = _quantize_codes(arr, scales, lambda v, s: np.clip(v, -qmax, qmax, out=v))
    return IntQuantized(codes, scales.reshape(-1), None, axis, bits, "symmetric",
                        getattr(t, "name", None))


def int_quantize_asymmetric(t, axis, bits):
    """Per-group zero-point quantization: scale = (max - min) / (2**b - 1).

    A constant group keeps scale 1 with the zero-point absorbing the
    constant, so integer-valued constants in range reconstruct exactly.
    """
    if bits not in _BITS:
        raise ValueError(f"bits must be one of {_BITS}")
    arr = as_array(t)
    others = group_axes(arr.ndim, axis)
    levels = 2**bits - 1
    # initial= gives an empty group the fields of an all-zero one
    lo = arr.min(axis=others, keepdims=True, initial=np.inf)
    hi = arr.max(axis=others, keepdims=True, initial=-np.inf)
    scales = np.where(hi > lo, _positive_scales((hi - lo) / levels), 1.0)
    zps = np.clip(_round_half_away(np.abs(lo) / scales, -lo), 0, levels)

    def finish(v, s):
        v += rows(zps, s)
        return np.clip(v, 0, levels, out=v)

    codes = _quantize_codes(arr, scales, finish)
    return IntQuantized(codes, scales.reshape(-1), _codes(zps).reshape(-1), axis, bits,
                        "asymmetric", getattr(t, "name", None))


def int_dequantize(q):
    """scale * code (symmetric) or scale * (code - zero_point) (asymmetric)."""
    others = group_axes(q.codes.ndim, q.axis)
    scales = np.expand_dims(q.scales, others)
    zps = None if q.mode == "symmetric" else np.expand_dims(q.zero_points, others)

    def fill(s, o):
        if zps is None:
            np.multiply(q.codes[s], rows(scales, s), out=o)
        else:
            # integer differences are exact in float64, so this is (codes - zps) * scales
            np.subtract(q.codes[s], rows(zps, s), dtype=np.float64, out=o)
            o *= rows(scales, s)

    return made_in_chunks(q.codes.shape, fill, q.name)
