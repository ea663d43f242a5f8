"""Block-scaled quantization: a scale s1 per block of k elements, and MX's rule to fit it.

``BlockQuantized`` is the record of MX and of NVFP4 (``nvfp4``), which
differ only in how they fit the scales. A block is divided by the per-tensor
scale s2 and by s1 and rounded onto the element codebook; a code's value is
code * s1 * s2.

MX shares s1 = 2**e per block, e = clip(ceil(log2(max|x| / q_max)), -127,
127), and s2 = 1. The ceil guarantees max|x| / 2**e <= q_max whenever the
clip is inactive, so in-range blocks never lose mass to clipping. The
exponent is computed from binary exponent extraction plus one exact
power-of-two comparison; a floating log would misround exactly at powers of
two, which are the boundary cases that matter here.

Quantizing fits the scales only. The record, a ``tensor.Record``, makes the
element codes of some blocks of the source in ``round`` (``codes``) and
their values in ``round_decode`` (``mx_dequantize``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codebook import Codebook, FpFormatSpec, _round, _rule, builtin_spec, enumerate_codebook
from .errors import UnknownFormat
from .tensor import Record, as_tensor, block_absmax, block_view, for_chunks

__all__ = ["DEFAULT_BLOCK", "BlockQuantized", "mx_quantize", "mx_dequantize", "resolve_element"]

DEFAULT_BLOCK = 32
E_MIN, E_MAX = -127, 127
_MIN_SUBNORMAL = 2.0**-1074


def resolve_element(element):
    """The codebook of an element given as a codebook, a spec, or a name ('e4m3', ..., 'int8').

    An unsigned scale format (e8m0, e6m2u) cannot code a negative element,
    and a grid without a rounding rule cannot round one: either raises
    UnknownFormat, in whichever form it comes.
    """
    spec = element.spec if isinstance(element, Codebook) else element
    if not isinstance(spec, FpFormatSpec):
        spec = builtin_spec(str(spec))
    if not spec.signed:
        raise UnknownFormat(f"{spec.name!r} is an unsigned scale format, not an MX element")
    return _rule(enumerate_codebook(spec))


@dataclass(frozen=True, kw_only=True)
class BlockQuantized(Record):
    """Fitted block scales of ``source``; the element codes are derived from both."""

    element: Codebook
    block_size: int
    block_scales: np.ndarray  # s1, one float32 per block, block_view's (blocks, *trailing)
    per_tensor_scale: float = 1.0  # s2
    max_overshoot: float = None  # the NVFP4 fit's largest |x / s2 / s1| before the element clip

    @cached_property
    def codes(self):
        """Projected element values, in the input's shape."""
        return self.rounded()

    @property
    def shared_exponents(self):
        """The exponent of each block scale's leading bit, int16: MX's e, as s1 = 2**e."""
        return (np.frexp(self.block_scales)[1] - 1).astype(np.int16)

    def view(self, arr):
        """``arr`` as block_view's (blocks, k, *trailing)."""
        return block_view(arr, self.axis, self.block_size)

    def round(self, s, out):
        """The element codes of blocks ``s`` of the source's block view, in ``out``.

        Each block is divided by s2 and s1 and rounded onto the element
        codebook, which also clips it to +-q_max. A block with s1 = 0 divides
        by 1: an all-zero block stays +-0, which codes +0.0, like every zero.
        """
        x = self.view(self.source)[s]
        if self.per_tensor_scale != 1.0:  # x / 1 is x
            x = np.divide(x, self.per_tensor_scale, out=out)
        # a float64 divisor: a float32 one takes numpy's slower mixed-dtype loop
        s1 = self.block_scales[s].astype(np.float64)[:, None]
        y = np.divide(x, np.where(s1 > 0, s1, 1.0), out=out)
        return _round(self.element, y, y)

    def round_decode(self, s, out):
        """code * s1 * s2 of blocks ``s``, in ``out``."""
        # a code times a power of two is a normal float, so MX's product equals ldexp(code, e)
        self.round(s, out)
        out *= self.block_scales[s].astype(np.float64)[:, None]
        if self.per_tensor_scale != 1.0:
            out *= self.per_tensor_scale


def _ceil_log2_ratio(amax, q_max):
    """Smallest integer e with amax <= q_max * 2**e, for amax > 0, exactly; int32."""
    _, e = np.frexp(amax)
    e -= int(np.frexp(q_max)[1]) - 1
    # the ratio of two frexp mantissae lies in (0.5, 2), so at most one step down
    e -= np.ldexp(q_max, e - 1) >= amax
    return e


def mx_quantize(t, axis, element_spec, k=DEFAULT_BLOCK):
    """Fit the shared scale 2**e of each block of ``k`` along ``axis`` for ``element_spec``."""
    cb = resolve_element(element_spec)
    t = as_tensor(t)
    view = block_view(t.data, axis, k)
    q_max = cb.max_finite
    scales = np.empty(view.shape[:1] + view.shape[2:], dtype=np.float32)  # 2**+-127 is exact

    def chunk(s):
        amax = block_absmax(view[s])
        # a zero block's exponent is E_MIN, as is that of the least subnormal
        np.maximum(amax, _MIN_SUBNORMAL, out=amax)
        e = _ceil_log2_ratio(amax, q_max)
        np.minimum(np.maximum(e, E_MIN, out=e), E_MAX, out=e)
        np.ldexp(np.float32(1.0), e, out=scales[s])

    for_chunks(chunk, view)
    return BlockQuantized(source=t.data, axis=axis, name=t.name, element=cb,
                          block_size=k, block_scales=scales)


def mx_dequantize(q):
    """Round each block of the source and reconstruct code * s1 * s2, slice by slice in cache."""
    return q.dequantized()
