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

Quantizing fits s2, the block scales and the overshoot, all from the block
maxima. The E2M1 codes are rounded from the source tensor when they are
used: by ``nvfp4_dequantize`` slice by slice, straight into its output, or
by the record's ``codes`` on first access.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codebook import _round
from .errors import NonFiniteValue
from .mx import resolve_element
from .tensor import as_array, block_view, for_chunks, made_in_chunks

__all__ = ["BLOCK", "V_MAX", "Nvfp4Quantized", "nvfp4_quantize", "nvfp4_dequantize"]

BLOCK = 16
E2M1_MAX = 6.0
E4M3_MAX = 448.0
V_MAX = E4M3_MAX * E2M1_MAX  # 2688
_E4M3_MIN_POS = 2.0**-9
_MIN_SUBNORMAL = 2.0**-1074


@dataclass(frozen=True)
class Nvfp4Quantized:
    """Fitted scales of ``source``; the E2M1 codes are derived from both.

    ``source`` is read again whenever codes are rounded, so it must not be
    written to while the record is in use (a Tensor's data cannot be).
    """

    per_tensor_scale: float
    block_scales: np.ndarray  # E4M3 per block, 0 if all-zero; block_view's (blocks, *trailing)
    source: np.ndarray  # the input, float64
    axis: int
    shape: tuple
    max_overshoot: float  # largest |x~/s1| seen before the element clip
    name: str = None

    @cached_property
    def codes(self):
        """E2M1 members, in the input's shape."""
        codes = np.empty(self.shape)
        view = block_view(codes, self.axis, BLOCK)
        for_chunks(lambda s: _round_blocks(self, s, view[s]), view)
        return codes


def _round_blocks(q, s, out):
    """The E2M1 codes of blocks ``s`` of ``q.source``'s block view, in ``out``.

    An all-zero block divides by 1 and stays +-0, which rounds to +0; the
    rounding also applies the +-6 element clip.
    """
    s1 = q.block_scales[s]
    y = np.divide(block_view(q.source, q.axis, BLOCK)[s], q.per_tensor_scale, out=out)
    np.divide(y, np.where(s1 > 0, s1, 1.0)[:, None], out=y)
    return _round(resolve_element("e2m1"), y, y)


def nvfp4_quantize(t, axis):
    """Fit s2, the block scales and the overshoot for 16-element blocks along ``axis``.

    All of it comes from the block maxima; an all-zero tensor keeps s2 = 1.
    """
    e4m3 = resolve_element("e4m3")
    arr = as_array(t)
    view = block_view(arr, axis, BLOCK)
    vmax = np.empty(view.shape[:1] + view.shape[2:])
    for_chunks(lambda s: np.max(np.abs(view[s]), axis=1, out=vmax[s]), view)

    amax = float(np.max(vmax, initial=0.0))
    # amax / V_MAX rounds to 0 for amax below 1344 * 2**-1074; the least
    # subnormal then keeps max|x / s2| below V_MAX, so it is the scale
    s2 = max(amax / V_MAX, _MIN_SUBNORMAL) if amax else 1.0
    # division rounding can push max|x/s2| one ulp past V_MAX; nudge s2 up
    # until the tensor-level no-clip guarantee holds exactly
    while amax / s2 > V_MAX:
        s2 = np.nextafter(s2, np.inf)
    if V_MAX * float(s2) == math.inf:  # the largest code times the largest block scale
        shown = getattr(t, "name", None) or "<unnamed>"
        raise NonFiniteValue(f"tensor {shown!r}: the NVFP4 top level, {V_MAX:g} times the "
                             f"per-tensor scale {float(s2)!r}, overflows float64", tensor=shown)

    s1 = np.zeros_like(vmax)

    def chunk(s):
        # x / s2 rounds monotonically, so the block maximum of |x / s2| is
        # max|x| / s2 exactly, and likewise for the overshoot below
        bmax = vmax[s] / s2
        nonzero = bmax > 0
        s1s = s1[s]
        est = bmax[nonzero] / E2M1_MAX
        s1s[nonzero] = _round(e4m3, est, est)
        # a nonzero block whose scale estimate rounds to 0 (possible when the
        # block maximum is tiny relative to the tensor maximum) gets the
        # smallest positive E4M3 value instead of a divide-by-zero
        s1s[nonzero & (s1s == 0)] = _E4M3_MIN_POS
        np.divide(bmax, np.where(nonzero, s1s, 1.0), out=bmax)
        return np.max(bmax, initial=0.0)

    overshoot = max(for_chunks(chunk, vmax), default=0.0)
    return Nvfp4Quantized(float(s2), s1, arr, axis, arr.shape, float(overshoot),
                          getattr(t, "name", None))


def nvfp4_dequantize(q):
    """Round each block of the source and reconstruct s1 * s2 * code, slice by slice in cache."""

    def fill(s, o):
        _round_blocks(q, s, o)
        o *= q.block_scales[s][:, None]
        o *= q.per_tensor_scale

    return made_in_chunks(q.shape, fill, q.name, lambda o: block_view(o, q.axis, BLOCK))
