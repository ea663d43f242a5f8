"""Two-level 4-bit quantization: per-tensor scale, per-block E4M3 scale, E2M1 elements.

The per-tensor scale s2 = max|x| / 2688 (2688 = 448 * 6, the product of the
two format maxima) guarantees the pre-scaled tensor fits the joint range of
block scales and elements, eliminating tensor-level clipping. Each block of
16 elements then gets s1 = round_E4M3(max|x~| / 6); elements are divided by
s1, clipped to +-6 and rounded onto the E2M1 grid. Because s1 is
nearest-rounded it can sit below max|x~| / 6, letting elements overshoot 6
by up to the E4M3 relative half-ulp before the clip catches them; the
largest observed pre-clip ratio is recorded as a diagnostic.
"""

from dataclasses import dataclass

import numpy as np

from .codebook import project
from .mx import resolve_element
from .tensor import Tensor, as_array, block_view

__all__ = ["BLOCK", "V_MAX", "Nvfp4Quantized", "nvfp4_quantize", "nvfp4_dequantize"]

BLOCK = 16
E2M1_MAX = 6.0
E4M3_MAX = 448.0
V_MAX = E4M3_MAX * E2M1_MAX  # 2688
_E4M3_MIN_POS = 2.0**-9


@dataclass(frozen=True)
class Nvfp4Quantized:
    per_tensor_scale: float
    block_scales: np.ndarray  # E4M3 per block, 0 if all-zero; block_view's (blocks, *trailing)
    codes: np.ndarray  # E2M1 members, original shape
    axis: int
    shape: tuple
    max_overshoot: float  # largest |x~/s1| seen before the element clip
    name: str = None


def nvfp4_quantize(t, axis):
    """Quantize in 16-element blocks along ``axis``; all-zero tensor keeps s2 = 1."""
    e4m3 = resolve_element("e4m3")
    e2m1 = resolve_element("e2m1")
    arr = as_array(t)
    view = block_view(arr, axis, BLOCK)
    vmax = np.max(np.abs(view), axis=1)

    amax = float(np.max(vmax)) if vmax.size else 0.0
    if amax == 0.0:
        return Nvfp4Quantized(1.0, np.zeros(vmax.shape), np.zeros(arr.shape), axis, arr.shape,
                              0.0, getattr(t, "name", None))

    s2 = amax / V_MAX
    # division rounding can push max|x/s2| one ulp past V_MAX; nudge s2 up
    # until the tensor-level no-clip guarantee holds exactly
    while amax / s2 > V_MAX:
        s2 = np.nextafter(s2, np.inf)

    # x / s2 rounds monotonically, so the block maximum of |x / s2| is
    # max|x| / s2 exactly, and likewise for the overshoot below
    bmax = vmax / s2
    nonzero = bmax > 0
    s1 = np.zeros_like(bmax)
    s1[nonzero] = project(e4m3, bmax[nonzero] / E2M1_MAX)
    # a nonzero block whose scale estimate rounds to 0 (possible when the
    # block maximum is tiny relative to the tensor maximum) gets the smallest
    # positive E4M3 value instead of a divide-by-zero
    s1[nonzero & (s1 == 0)] = _E4M3_MIN_POS

    # an all-zero block divides by 1 and stays +-0, which project rounds to
    # +0; project also applies the +-6 element clip
    div = np.where(nonzero, s1, 1.0)
    y = view / s2
    np.divide(y, div[:, None], out=y)
    codes = project(e2m1, y).reshape(arr.shape)
    return Nvfp4Quantized(float(s2), s1, codes, axis, arr.shape, float(np.max(bmax / div)),
                          getattr(t, "name", None))


def nvfp4_dequantize(q):
    """Reconstruct s1 * s2 * code elementwise."""
    out = block_view(q.codes, q.axis, BLOCK) * q.block_scales[:, None] * q.per_tensor_scale
    return Tensor(out.reshape(q.shape), q.name)
