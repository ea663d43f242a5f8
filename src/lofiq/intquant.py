"""Integer quantization baselines: symmetric per-channel, asymmetric per-token.

Groups are the slices along one axis; each group gets its own scale (and
zero-point in asymmetric mode). The symmetric grid is +-(2**(b-1) - 1),
keeping the most-negative code unused so the grid stays symmetric around
zero. Code rounding is half-away-from-zero throughout.

Quantizing fits the scales and zero-points only. The record, a
``tensor.Record``, makes the codes of a slice of the source in ``round``
(``codes``) and their values in ``round_decode`` (``int_dequantize``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codebook import _HALF
from .errors import NonFiniteValue
from .tensor import Record, as_tensor, group_absmax, group_axes

__all__ = ["IntQuantized", "int_quantize_symmetric", "int_quantize_asymmetric", "int_dequantize"]

_BITS = (4, 8)
_TINY = np.nextafter(0.0, 1.0)  # smallest positive float64


@dataclass(frozen=True, kw_only=True)
class IntQuantized(Record):
    """Fitted scales (and zero-points) of ``source``; the codes are derived from both."""

    scales: np.ndarray  # one positive scale per index along axis, flat
    zero_points: np.ndarray  # int16, one per index along axis, asymmetric only (else None)
    bits: int
    mode: str  # "symmetric" | "asymmetric"

    @cached_property
    def codes(self):
        """int16 grid values in the input's shape, C-contiguous."""
        return self.rounded().astype(np.int16)

    def round(self, s, out):
        """The codes of slice ``s`` of ``source``'s first axis, as float64 in ``out``.

        |x| / scale rounded half away from zero, then shifted by the zero-point
        and clipped to the grid. An integer code has no -0, so neither has
        ``out``: every code is the float64 of its int16.
        """
        x = self.source[s]
        v = np.abs(x, out=out)
        v /= self.groups(self.scales, s)
        _round_half_away(v, x)
        if self.zero_points is None:
            qmax = 2 ** (self.bits - 1) - 1
            np.clip(v, -qmax, qmax, out=v)
        else:
            v += self.groups(self.zero_points, s)
            np.clip(v, 0, 2**self.bits - 1, out=v)
        v += 0.0  # -0.0 -> +0.0
        return v

    def round_decode(self, s, out):
        """scale * code (symmetric) or scale * (code - zero_point) of slice ``s``, in ``out``."""
        self.round(s, out)
        if self.zero_points is not None:
            out -= self.groups(self.zero_points, s)  # integer differences are exact in float64
        out *= self.groups(self.scales, s)


def _round_half_away(mag, sign):
    """Round v half away from zero in place, where ``mag`` holds |v| and ``sign`` has v's sign.

    Gives the bits of sign(v) * floor(|v| + 0.5), in exact arithmetic. A
    quotient by a positive scale has its dividend's sign, so callers pass
    the input as ``sign`` and no signed copy of v is made.
    """
    mag += _HALF
    np.floor(mag, out=mag)
    return np.copysign(mag, sign, out=mag)


def _positive_scales(step):
    # a step below the smallest subnormal rounds to 0; keep it the smallest
    # positive scale so the division stays finite
    return np.maximum(step, _TINY)


def int_quantize_symmetric(t, axis, bits):
    """Per-group symmetric fit: scale = max|x| / (2**(b-1) - 1)."""
    if bits not in _BITS:
        raise ValueError(f"bits must be one of {_BITS}")
    t = as_tensor(t)
    amax = group_absmax(t.data, axis)
    scales = np.where(amax > 0, _positive_scales(amax / (2 ** (bits - 1) - 1)), 1.0)
    return IntQuantized(source=t.data, scales=scales.reshape(-1), zero_points=None, axis=axis,
                        bits=bits, mode="symmetric", name=t.name)


def int_quantize_asymmetric(t, axis, bits):
    """Per-group zero-point fit: scale = (max - min) / (2**b - 1).

    A constant group keeps scale 1 with the zero-point absorbing the
    constant, so integer-valued constants in range reconstruct exactly. A
    group whose max - min overflows float64 has no scale and raises
    NonFiniteValue before anything is rounded.
    """
    if bits not in _BITS:
        raise ValueError(f"bits must be one of {_BITS}")
    t = as_tensor(t)
    others = group_axes(t.ndim, axis)
    levels = 2**bits - 1
    # initial= gives an empty group the fields of an all-zero one
    lo = t.data.min(axis=others, keepdims=True, initial=np.inf)
    hi = t.data.max(axis=others, keepdims=True, initial=-np.inf)
    with np.errstate(over="ignore"):
        span = hi - lo  # -inf for an empty group
    overflow = (span == np.inf).reshape(-1)
    if overflow.any():
        shown = t.name or "<unnamed>"
        raise NonFiniteValue(f"tensor {shown!r}: int{bits} asymmetric range max - min of "
                             f"group {int(np.argmax(overflow))} overflows float64", tensor=shown)
    scales = np.where(hi > lo, _positive_scales(span / levels), 1.0)
    zps = np.clip(_round_half_away(np.abs(lo) / scales, -lo), 0, levels)
    return IntQuantized(source=t.data, scales=scales.reshape(-1),
                        zero_points=zps.reshape(-1).astype(np.int16), axis=axis, bits=bits,
                        mode="asymmetric", name=t.name)


def int_dequantize(q):
    """scale * code (symmetric) or scale * (code - zero_point) (asymmetric).

    Each slice is rounded from the source and decoded in the output's own
    memory, so no array of codes is made.
    """
    return q.dequantized()
