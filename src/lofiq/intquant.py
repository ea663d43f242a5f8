"""Integer quantization baselines: symmetric per-channel, asymmetric per-token.

Groups are the slices along one axis; each group gets its own scale (and
zero-point in asymmetric mode). The symmetric grid is +-(2**(b-1) - 1),
keeping the most-negative code unused so the grid stays symmetric around
zero. Code rounding is half-away-from-zero throughout.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, as_array, group_axes

__all__ = ["IntQuantized", "int_quantize_symmetric", "int_quantize_asymmetric", "int_dequantize"]

_BITS = (4, 8)


@dataclass(frozen=True)
class IntQuantized:
    codes: np.ndarray  # integer grid values in the input's shape, C-contiguous
    scales: np.ndarray  # one positive scale per index along axis, flat
    zero_points: np.ndarray  # one integer per index along axis, asymmetric only (else None)
    axis: int
    bits: int
    mode: str  # "symmetric" | "asymmetric"
    name: str = None

    @property
    def shape(self):
        return self.codes.shape


def _round_half_away(v):
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def int_quantize_symmetric(t, axis, bits):
    """Per-group symmetric quantization: scale = max|x| / (2**(b-1) - 1)."""
    if bits not in _BITS:
        raise ValueError(f"bits must be one of {_BITS}")
    arr = as_array(t)
    qmax = 2 ** (bits - 1) - 1
    # initial= gives an empty group the fields of an all-zero one
    amax = np.max(np.abs(arr), axis=group_axes(arr.ndim, axis), keepdims=True, initial=0.0)
    scales = np.where(amax > 0, amax / qmax, 1.0)
    codes = np.clip(_round_half_away(arr / scales), -qmax, qmax)
    return IntQuantized(codes.astype(np.int64, order="C"), scales.reshape(-1), None, axis, bits,
                        "symmetric", getattr(t, "name", None))


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
    scales = np.where(hi > lo, (hi - lo) / levels, 1.0)
    zps = np.clip(_round_half_away(-lo / scales), 0, levels).astype(np.int64)
    codes = np.clip(_round_half_away(arr / scales) + zps, 0, levels)
    return IntQuantized(codes.astype(np.int64, order="C"), scales.reshape(-1), zps.reshape(-1),
                        axis, bits, "asymmetric", getattr(t, "name", None))


def int_dequantize(q):
    """scale * code (symmetric) or scale * (code - zero_point) (asymmetric)."""
    others = group_axes(q.codes.ndim, q.axis)
    scales = np.expand_dims(q.scales, others)
    if q.mode == "symmetric":
        out = q.codes * scales
    else:
        out = (q.codes - np.expand_dims(q.zero_points, others)) * scales
    return Tensor(out, q.name)
