"""Block quantization with a shared power-of-two scale per block.

Each block of k contiguous elements along the chosen axis shares one
exponent e = clip(ceil(log2(max|x| / q_max)), -127, 127); elements are
divided by 2**e, clipped to the element range and rounded onto the element
codebook. The ceil guarantees max|x| / 2**e <= q_max whenever the clip is
inactive, so in-range blocks never lose mass to clipping.

The exponent is computed from binary exponent extraction plus one exact
power-of-two comparison; a floating log would misround exactly at powers of
two, which are the boundary cases that matter here.

Quantizing fits the exponents only. The element codes are rounded from the
source tensor when they are used: by ``mx_dequantize`` slice by slice,
straight into its output, or by the record's ``codes`` on first access.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codebook import Codebook, FpFormatSpec, _round, _rule, builtin_spec, enumerate_codebook
from .errors import UnknownFormat
from .tensor import as_array, block_view, for_chunks, made_in_chunks

__all__ = ["DEFAULT_BLOCK", "MxQuantized", "mx_quantize", "mx_dequantize", "resolve_element"]

DEFAULT_BLOCK = 32
E_MIN, E_MAX = -127, 127


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


@dataclass(frozen=True)
class MxQuantized:
    """Fitted block exponents of ``source``; the element codes are derived from both.

    ``source`` is read again whenever codes are rounded, so it must not be
    written to while the record is in use (a Tensor's data cannot be).
    """

    element: Codebook
    block_size: int
    axis: int
    shape: tuple
    shared_exponents: np.ndarray  # one int per block, block_view's (blocks, *trailing)
    source: np.ndarray  # the input, float64
    name: str = None

    @cached_property
    def codes(self):
        """Projected element values, in the input's shape."""
        codes = np.empty(self.shape)
        view = block_view(codes, self.axis, self.block_size)
        for_chunks(lambda s: _round_blocks(self, s, view[s]), view)
        return codes


def _round_blocks(q, s, out):
    """The element codes of blocks ``s`` of ``q.source``'s block view, in ``out``.

    Each block is divided by 2**e and rounded onto the element codebook,
    which also clips it to +-q_max; an all-zero block codes +0.0, like every
    zero.
    """
    y = np.divide(block_view(q.source, q.axis, q.block_size)[s],
                  np.ldexp(1.0, q.shared_exponents[s])[:, None], out=out)
    return _round(q.element, y, y)


def _ceil_log2_ratio(amax, q_max):
    """Smallest integer e with amax <= q_max * 2**e, for amax > 0, exactly."""
    _, ea = np.frexp(amax)
    _, eq = np.frexp(q_max)
    e = ea.astype(np.int64) - int(eq) + 1
    # the ratio of two frexp mantissae lies in (0.5, 2), so at most one step down
    e = np.where(np.ldexp(q_max, e - 1) >= amax, e - 1, e)
    return e


def mx_quantize(t, axis, element_spec, k=DEFAULT_BLOCK):
    """Fit the shared exponent of each block of ``k`` along ``axis`` for ``element_spec``."""
    cb = resolve_element(element_spec)
    arr = as_array(t)
    view = block_view(arr, axis, k)
    q_max = cb.max_finite
    e = np.empty(view.shape[:1] + view.shape[2:], dtype=np.int64)

    def chunk(s):
        amax = np.max(np.abs(view[s]), axis=1)
        nonzero = amax > 0
        es = e[s]
        es[...] = E_MIN
        es[nonzero] = np.clip(_ceil_log2_ratio(amax[nonzero], q_max), E_MIN, E_MAX)

    for_chunks(chunk, view)
    return MxQuantized(cb, k, axis, arr.shape, e, arr, getattr(t, "name", None))


def mx_dequantize(q):
    """Round each block of the source and reconstruct 2**e * code, slice by slice in cache."""

    def fill(s, o):
        _round_blocks(q, s, o)
        # a code times 2**e is a normal float, so the product equals ldexp(code, e)
        o *= np.ldexp(1.0, q.shared_exponents[s])[:, None]

    return made_in_chunks(q.shape, fill, q.name, lambda o: block_view(o, q.axis, q.block_size))
