"""Block quantization with a shared power-of-two scale per block.

Each block of k contiguous elements along the chosen axis shares one
exponent e = clip(ceil(log2(max|x| / q_max)), -127, 127); elements are
divided by 2**e, clipped to the element range and rounded onto the element
codebook. The ceil guarantees max|x| / 2**e <= q_max whenever the clip is
inactive, so in-range blocks never lose mass to clipping.

The exponent is computed from binary exponent extraction plus one exact
power-of-two comparison; a floating log would misround exactly at powers of
two, which are the boundary cases that matter here.

Quantizing fits the exponents only. The record, a ``tensor.Record``, makes
the element codes of some blocks of the source in ``round`` and scales them
in ``decode``; ``mx_dequantize`` and ``codes`` go through ``round``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codebook import Codebook, FpFormatSpec, _round, _rule, builtin_spec, enumerate_codebook
from .errors import UnknownFormat
from .tensor import Record, as_array, block_absmax, block_view, for_chunks

__all__ = ["DEFAULT_BLOCK", "MxQuantized", "mx_quantize", "mx_dequantize", "resolve_element"]

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
class MxQuantized(Record):
    """Fitted block exponents of ``source``; the element codes are derived from both."""

    element: Codebook
    block_size: int
    shared_exponents: np.ndarray  # one int16 per block, block_view's (blocks, *trailing)

    @cached_property
    def codes(self):
        """Projected element values, in the input's shape."""
        return self.rounded()

    def view(self, arr):
        """``arr`` as block_view's (blocks, k, *trailing)."""
        return block_view(arr, self.axis, self.block_size)

    def round(self, s, out):
        """The element codes of blocks ``s`` of the source's block view, in ``out``.

        Each block is divided by 2**e and rounded onto the element codebook,
        which also clips it to +-q_max; an all-zero block codes +0.0, like
        every zero.
        """
        e = self.shared_exponents[s]
        y = np.divide(self.view(self.source)[s], np.ldexp(1.0, e)[:, None], out=out)
        return _round(self.element, y, y)

    def decode(self, s, out):
        """2**e * code, in place."""
        # a code times 2**e is a normal float, so the product equals ldexp(code, e)
        out *= np.ldexp(1.0, self.shared_exponents[s])[:, None]


def _ceil_log2_ratio(amax, q_max):
    """Smallest integer e with amax <= q_max * 2**e, for amax > 0, exactly; int32."""
    _, e = np.frexp(amax)
    e -= int(np.frexp(q_max)[1]) - 1
    # the ratio of two frexp mantissae lies in (0.5, 2), so at most one step down
    e -= np.ldexp(q_max, e - 1) >= amax
    return e


def mx_quantize(t, axis, element_spec, k=DEFAULT_BLOCK):
    """Fit the shared exponent of each block of ``k`` along ``axis`` for ``element_spec``."""
    cb = resolve_element(element_spec)
    arr = as_array(t)
    view = block_view(arr, axis, k)
    q_max = cb.max_finite
    e = np.empty(view.shape[:1] + view.shape[2:], dtype=np.int16)  # e - 1 fits too

    def chunk(s):
        amax = block_absmax(view[s])
        # a zero block's exponent is E_MIN, as is that of the least subnormal
        np.maximum(amax, _MIN_SUBNORMAL, out=amax)
        ex = _ceil_log2_ratio(amax, q_max)
        np.minimum(np.maximum(ex, E_MIN, out=ex), E_MAX, out=e[s])

    for_chunks(chunk, view)
    return MxQuantized(source=arr, axis=axis, name=getattr(t, "name", None), element=cb,
                       block_size=k, shared_exponents=e)


def mx_dequantize(q):
    """Round each block of the source and reconstruct 2**e * code, slice by slice in cache."""
    return q.dequantized()
