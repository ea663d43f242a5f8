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
from .tensor import Tensor, as_array, axis_to_blocks, blocks_to_axis

__all__ = ["BLOCK", "V_MAX", "Nvfp4Quantized", "nvfp4_quantize", "nvfp4_dequantize"]

BLOCK = 16
E2M1_MAX = 6.0
E4M3_MAX = 448.0
V_MAX = E4M3_MAX * E2M1_MAX  # 2688
_E4M3_MIN_POS = 2.0**-9


@dataclass(frozen=True)
class Nvfp4Quantized:
    per_tensor_scale: float
    block_scales: np.ndarray  # E4M3 members per block (0 marks an all-zero block)
    codes: np.ndarray  # E2M1 members, original shape
    axis: int
    shape: tuple
    max_overshoot: float  # largest |x~/s1| seen before the element clip
    name: str = None


def _quantize_blocks(blocked, s2, e4m3, e2m1):
    scaled = blocked / s2
    bmax = np.max(np.abs(scaled), axis=1)
    nonzero = bmax > 0

    s1 = np.zeros_like(bmax)
    s1[nonzero] = project(e4m3, bmax[nonzero] / E2M1_MAX)
    # a nonzero block whose scale estimate rounds to 0 (possible when the
    # block maximum is tiny relative to the tensor maximum) gets the smallest
    # positive E4M3 value instead of a divide-by-zero
    s1[nonzero & (s1 == 0)] = _E4M3_MIN_POS

    # an all-zero block divides by 1 and stays +-0, which project rounds to
    # +0; project also applies the +-6 element clip
    y = np.divide(scaled, np.where(nonzero, s1, 1.0)[:, None], out=scaled)
    overshoot = float(np.max(np.abs(y))) if y.size else 0.0
    return s1, project(e2m1, y), overshoot


def nvfp4_quantize(t, axis):
    """Quantize in 16-element blocks along ``axis``; all-zero tensor keeps s2 = 1."""
    e4m3 = resolve_element("e4m3")
    e2m1 = resolve_element("e2m1")
    arr = as_array(t)
    blocked, moved_shape = axis_to_blocks(arr, axis, BLOCK)

    amax = float(np.max(np.abs(arr))) if arr.size else 0.0
    if amax == 0.0:
        codes = np.zeros(arr.shape)
        scales = np.zeros(blocked.shape[0])
        return Nvfp4Quantized(1.0, scales, codes, axis, arr.shape, 0.0,
                              getattr(t, "name", None))

    s2 = amax / V_MAX
    # division rounding can push max|x/s2| one ulp past V_MAX; nudge s2 up
    # until the tensor-level no-clip guarantee holds exactly
    while amax / s2 > V_MAX:
        s2 = np.nextafter(s2, np.inf)

    s1, codes, overshoot = _quantize_blocks(blocked, s2, e4m3, e2m1)
    codes = blocks_to_axis(codes, moved_shape, axis)
    return Nvfp4Quantized(float(s2), s1, codes, axis, arr.shape, overshoot,
                          getattr(t, "name", None))


def nvfp4_dequantize(q):
    """Reconstruct s1 * s2 * code elementwise."""
    blocked, moved_shape = axis_to_blocks(q.codes, q.axis, BLOCK)
    out = blocked * q.block_scales[:, None] * q.per_tensor_scale
    return Tensor(blocks_to_axis(out, moved_shape, q.axis), q.name)
