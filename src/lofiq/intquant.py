"""Integer quantization baselines: symmetric per-channel, asymmetric per-token.

Groups are the slices along one axis; each group gets its own scale (and
zero-point in asymmetric mode). The symmetric grid is +-(2**(b-1) - 1),
keeping the most-negative code unused so the grid stays symmetric around
zero. Code rounding is half-away-from-zero throughout.

Quantizing fits the scales and zero-points only. The codes are rounded from
the source tensor when they are used: by ``int_dequantize`` slice by slice,
straight into its output, or by the record's ``codes`` on first access.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor import as_array, for_chunks, group_absmax, group_axes, made_in_chunks, rows

__all__ = ["IntQuantized", "int_quantize_symmetric", "int_quantize_asymmetric", "int_dequantize"]

_BITS = (4, 8)
_TINY = np.nextafter(0.0, 1.0)  # smallest positive float64


@dataclass(frozen=True)
class IntQuantized:
    """Fitted scales (and zero-points) of ``source``; the codes are derived from both.

    ``source`` is read again whenever codes are rounded, so it must not be
    written to while the record is in use (a Tensor's data cannot be).
    """

    source: np.ndarray  # the input, float64
    scales: np.ndarray  # one positive scale per index along axis, flat
    zero_points: np.ndarray  # int16, one per index along axis, asymmetric only (else None)
    axis: int
    bits: int
    mode: str  # "symmetric" | "asymmetric"
    name: str = None

    @property
    def shape(self):
        return self.source.shape

    @cached_property
    def codes(self):
        """int16 grid values in the input's shape, C-contiguous."""
        codes = np.empty(self.shape, np.int16)

        def chunk(s):
            codes[s] = _round(self, s, np.empty(codes[s].shape))

        for_chunks(chunk, codes)
        return codes

    def _fields(self):
        """Scales and zero-points (or None) shaped to broadcast against the source."""
        others = group_axes(len(self.shape), self.axis)
        zps = self.zero_points
        return (np.expand_dims(self.scales, others),
                None if zps is None else np.expand_dims(zps, others))


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


def _round(q, s, out):
    """The codes of slice ``s`` of ``q.source``'s first axis, as float64 in ``out``.

    |x| / scale rounded half away from zero, then shifted by the zero-point
    and clipped to the grid. An integer code has no -0, so neither has
    ``out``: every code is the float64 of its int16.
    """
    scales, zps = q._fields()
    x = q.source[s]
    v = np.abs(x, out=out)
    v /= rows(scales, s)
    _round_half_away(v, x)
    if zps is None:
        qmax = 2 ** (q.bits - 1) - 1
        np.clip(v, -qmax, qmax, out=v)
    else:
        v += rows(zps, s)
        np.clip(v, 0, 2**q.bits - 1, out=v)
    v += 0.0  # -0.0 -> +0.0
    return v


def int_quantize_symmetric(t, axis, bits):
    """Per-group symmetric fit: scale = max|x| / (2**(b-1) - 1)."""
    if bits not in _BITS:
        raise ValueError(f"bits must be one of {_BITS}")
    arr = as_array(t)
    amax = group_absmax(arr, axis)
    scales = np.where(amax > 0, _positive_scales(amax / (2 ** (bits - 1) - 1)), 1.0)
    return IntQuantized(arr, scales.reshape(-1), None, axis, bits, "symmetric",
                        getattr(t, "name", None))


def int_quantize_asymmetric(t, axis, bits):
    """Per-group zero-point fit: scale = (max - min) / (2**b - 1).

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
    return IntQuantized(arr, scales.reshape(-1), zps.reshape(-1).astype(np.int16), axis, bits,
                        "asymmetric", getattr(t, "name", None))


def int_dequantize(q):
    """scale * code (symmetric) or scale * (code - zero_point) (asymmetric).

    Each slice is rounded from the source and decoded in the output's own
    memory, so no array of codes is made.
    """
    scales, zps = q._fields()

    def fill(s, o):
        _round(q, s, o)
        if zps is not None:
            o -= rows(zps, s)  # integer differences are exact in float64
        o *= rows(scales, s)

    return made_in_chunks(q.shape, fill, q.name)
