"""Two-level 4-bit quantization: per-tensor scale, per-block E4M3 scale, E2M1 elements.

The per-tensor scale s2 = max|x| / 2688 (2688 = 448 * 6, the product of the
two format maxima) guarantees the pre-scaled tensor fits the joint range of
block scales and elements, eliminating tensor-level clipping. Each block of
16 elements then gets s1 = round_E4M3(max|x~| / 6); elements are divided by
s1, clipped to +-6 and rounded onto the E2M1 grid. Because s1 is
nearest-rounded it can sit below max|x~| / 6, letting elements overshoot 6
by up to the E4M3 relative half-ulp before the clip catches them; the
largest observed pre-clip ratio is recorded as a diagnostic.

A reconstruction is at most 2688 * s2. When that overflows float64 (max|x|
at float64's maximum), quantizing raises NonFiniteValue naming the tensor.

Quantizing takes s2 from max|x|, which a Tensor keeps from its finiteness
check, and then fits the block scales and the overshoot slice by slice from
the block maxima, with no array of them. The record, a ``tensor.Record``,
makes the E2M1 codes of some blocks of the source in ``round`` and scales
them in ``decode``; ``nvfp4_dequantize`` and ``codes`` go through ``round``.
The block scales and the elements both round through ``codebook._round``,
onto E4M3 and E2M1.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codebook import _round
from .errors import NonFiniteValue
from .mx import resolve_element
from .tensor import Record, as_tensor, block_absmax, block_view, for_each, rows_per_chunk

__all__ = ["BLOCK", "V_MAX", "Nvfp4Quantized", "nvfp4_quantize", "nvfp4_dequantize"]

BLOCK = 16
E2M1_MAX = 6.0
E4M3_MAX = 448.0
V_MAX = E4M3_MAX * E2M1_MAX  # 2688
_E4M3_MIN_POS = 2.0**-9
_MIN_SUBNORMAL = 2.0**-1074


@dataclass(frozen=True, kw_only=True)
class Nvfp4Quantized(Record):
    """Fitted scales of ``source``; the E2M1 codes are derived from both."""

    per_tensor_scale: float
    block_scales: np.ndarray  # E4M3 per block as float32, 0 if all-zero; (blocks, *trailing)
    max_overshoot: float  # largest |x~/s1| seen before the element clip

    @cached_property
    def codes(self):
        """E2M1 members, in the input's shape."""
        return self.rounded()

    def view(self, arr):
        """``arr`` as block_view's (blocks, 16, *trailing)."""
        return block_view(arr, self.axis, BLOCK)

    def round(self, s, out):
        """The E2M1 codes of blocks ``s`` of the source's block view, in ``out``.

        An all-zero block divides by 1 and stays +-0, which rounds to +0; the
        rounding also applies the +-6 element clip.
        """
        s1 = self.block_scales[s]
        y = np.divide(self.view(self.source)[s], self.per_tensor_scale, out=out)
        np.divide(y, np.where(s1 > 0, s1, 1.0)[:, None], out=y)
        return _round(resolve_element("e2m1"), y, y)

    def decode(self, s, out):
        """s1 * s2 * code, in place."""
        out *= self.block_scales[s][:, None]
        out *= self.per_tensor_scale


def nvfp4_quantize(t, axis):
    """Fit s2, the block scales and the overshoot for 16-element blocks along ``axis``.

    s2 comes from max|x| (``Tensor.absmax``); an all-zero tensor keeps s2 = 1.
    The block scales and the overshoot come from the block maxima, taken and
    used slice by slice.
    """
    t = as_tensor(t)
    view = block_view(t.data, axis, BLOCK)
    amax = t.absmax
    # amax / V_MAX rounds to 0 for amax below 1344 * 2**-1074; the least
    # subnormal then keeps max|x / s2| below V_MAX, so it is the scale
    s2 = max(amax / V_MAX, _MIN_SUBNORMAL) if amax else 1.0
    # division rounding can push max|x/s2| one ulp past V_MAX; nudge s2 up
    # until the tensor-level no-clip guarantee holds exactly
    while amax / s2 > V_MAX:
        s2 = np.nextafter(s2, np.inf)
    if V_MAX * float(s2) == math.inf:  # the largest code times the largest block scale
        shown = t.name or "<unnamed>"
        raise NonFiniteValue(f"tensor {shown!r}: the NVFP4 top level, {V_MAX:g} times the "
                             f"per-tensor scale {float(s2)!r}, overflows float64", tensor=shown)

    s1 = np.zeros(view.shape[:1] + view.shape[2:], np.float32)  # every E4M3 value is a float32
    e4m3 = resolve_element("e4m3")

    def fit(s):
        bmax = block_absmax(view[s])
        # x / s2 rounds monotonically, so the block maximum of |x / s2| is
        # max|x| / s2 exactly, and likewise for the overshoot below
        bmax /= s2
        nonzero = bmax > 0
        est = bmax / E2M1_MAX
        # a nonzero block whose scale estimate rounds to 0 (possible when the
        # block maximum is tiny relative to the tensor maximum) gets the
        # smallest positive E4M3 value instead of a divide-by-zero; rounding
        # is monotone, so raising the estimate to that value first does it.
        # An all-zero block keeps s1 = 0 and divides 0 by that value
        np.maximum(est, _E4M3_MIN_POS, out=est)
        np.copyto(s1[s], _round(e4m3, est, est), where=nonzero)
        return np.maximum.reduce(np.divide(bmax, est, out=bmax), axis=None, initial=0.0)

    # each fit covers four slices of CHUNK elements: a quarter as many fits,
    # and numpy calls, as one per slice, whose block maxima and scale
    # estimates take a quarter of a slice each
    step = 4 * rows_per_chunk(view.shape)
    fits = for_each(fit, [slice(i, i + step) for i in range(0, len(view), step)])
    overshoot = max(fits, default=0.0) + 0.0  # +0.0, not -0.0
    return Nvfp4Quantized(source=t.data, axis=axis, name=t.name,
                          per_tensor_scale=float(s2), block_scales=s1,
                          max_overshoot=float(overshoot))


def nvfp4_dequantize(q):
    """Round each block of the source and reconstruct s1 * s2 * code, slice by slice in cache."""
    return q.dequantized()
