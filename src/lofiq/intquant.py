"""Integer quantization baselines: symmetric per-channel, asymmetric per-token.

Groups are the slices along one axis; each group gets its own scale (and
zero-point in asymmetric mode). The symmetric grid is +-(2**(b-1) - 1),
keeping the most-negative code unused so the grid stays symmetric around
zero. Code rounding is half-away-from-zero throughout.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, as_array, group_reduce_layout, groups_to_axis

__all__ = ["IntQuantized", "int_quantize_symmetric", "int_quantize_asymmetric", "int_dequantize"]

_BITS = (4, 8)


@dataclass(frozen=True)
class IntQuantized:
    codes: np.ndarray  # integer grid values, original shape
    scales: np.ndarray  # one positive scale per group
    zero_points: np.ndarray  # one integer per group, asymmetric only (else None)
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
    grouped, moved_shape = group_reduce_layout(arr, axis)
    qmax = 2 ** (bits - 1) - 1
    amax = np.max(np.abs(grouped), axis=1)
    scales = np.where(amax > 0, amax / qmax, 1.0)
    codes = np.clip(_round_half_away(grouped / scales[:, None]), -qmax, qmax)
    codes = groups_to_axis(codes.astype(np.int64), moved_shape, axis)
    return IntQuantized(codes, scales, None, axis, bits, "symmetric",
                        getattr(t, "name", None))


def int_quantize_asymmetric(t, axis, bits):
    """Per-group zero-point quantization: scale = (max - min) / (2**b - 1).

    A constant group keeps scale 1 with the zero-point absorbing the
    constant, so integer-valued constants in range reconstruct exactly.
    """
    if bits not in _BITS:
        raise ValueError(f"bits must be one of {_BITS}")
    arr = as_array(t)
    grouped, moved_shape = group_reduce_layout(arr, axis)
    levels = 2**bits - 1
    lo = grouped.min(axis=1)
    hi = grouped.max(axis=1)
    scales = np.where(hi > lo, (hi - lo) / levels, 1.0)
    zps = np.clip(_round_half_away(-lo / scales), 0, levels).astype(np.int64)
    codes = np.clip(_round_half_away(grouped / scales[:, None]) + zps[:, None], 0, levels)
    codes = groups_to_axis(codes.astype(np.int64), moved_shape, axis)
    return IntQuantized(codes, scales, zps, axis, bits, "asymmetric",
                        getattr(t, "name", None))


def int_dequantize(q):
    """scale * code (symmetric) or scale * (code - zero_point) (asymmetric)."""
    grouped, moved_shape = group_reduce_layout(q.codes.astype(np.float64), q.axis)
    if q.mode == "symmetric":
        out = grouped * q.scales[:, None]
    else:
        out = (grouped - q.zero_points[:, None]) * q.scales[:, None]
    return Tensor(groups_to_axis(out, moved_shape, q.axis), q.name)
