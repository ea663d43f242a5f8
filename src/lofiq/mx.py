"""Block quantization with a shared power-of-two scale per block.

Each block of k contiguous elements along the chosen axis shares one
exponent e = clip(ceil(log2(max|x| / q_max)), -127, 127); elements are
divided by 2**e, clipped to the element range and rounded onto the element
codebook. The ceil guarantees max|x| / 2**e <= q_max whenever the clip is
inactive, so in-range blocks never lose mass to clipping.

The exponent is computed from binary exponent extraction plus one exact
power-of-two comparison; a floating log would misround exactly at powers of
two, which are the boundary cases that matter here.
"""

from dataclasses import dataclass

import numpy as np

from .codebook import (
    Codebook,
    FpFormatSpec,
    _round,
    builtin_spec,
    enumerate_codebook,
    mxint8_codebook,
)
from .errors import UnknownFormat
from .tensor import Tensor, as_array, block_view, for_chunks, made_in_chunks

__all__ = ["DEFAULT_BLOCK", "MxQuantized", "mx_quantize", "mx_dequantize", "resolve_element"]

DEFAULT_BLOCK = 32
E_MIN, E_MAX = -127, 127

_ELEMENT_CACHE = {}


def resolve_element(element):
    """Accept a codebook, a format spec, or a name ('e4m3', ..., 'int8').

    A spec or name of an unsigned scale format (e8m0, e6m2u) raises
    UnknownFormat: it cannot code a negative element. A Codebook is taken
    as given.
    """
    if isinstance(element, Codebook):
        return element
    if isinstance(element, FpFormatSpec):
        key = element.name
    else:
        key = str(element).strip().lower()
    if key not in _ELEMENT_CACHE:
        if key == "int8":
            _ELEMENT_CACHE[key] = mxint8_codebook()
        else:
            spec = builtin_spec(key)
            if not spec.signed:
                raise UnknownFormat(f"{key!r} is an unsigned scale format, not an MX element")
            _ELEMENT_CACHE[key] = enumerate_codebook(spec)
    return _ELEMENT_CACHE[key]


@dataclass(frozen=True)
class MxQuantized:
    element: Codebook
    block_size: int
    axis: int
    shape: tuple
    shared_exponents: np.ndarray  # one int per block, block_view's (blocks, *trailing)
    codes: np.ndarray  # projected element values, original shape
    name: str = None


def _ceil_log2_ratio(amax, q_max):
    """Smallest integer e with amax <= q_max * 2**e, for amax > 0, exactly."""
    _, ea = np.frexp(amax)
    _, eq = np.frexp(q_max)
    e = ea.astype(np.int64) - int(eq) + 1
    # the ratio of two frexp mantissae lies in (0.5, 2), so at most one step down
    e = np.where(np.ldexp(q_max, e - 1) >= amax, e - 1, e)
    return e


def mx_quantize(t, axis, element_spec, k=DEFAULT_BLOCK):
    """Quantize ``t`` in blocks of ``k`` along ``axis`` with element format ``element_spec``."""
    cb = resolve_element(element_spec)
    arr = as_array(t)
    view = block_view(arr, axis, k)
    q_max = cb.max_finite
    e = np.empty(view.shape[:1] + view.shape[2:], dtype=np.int64)
    codes = np.empty(arr.shape)
    code_view = block_view(codes, axis, k)

    def chunk(s):
        amax = np.max(np.abs(view[s]), axis=1)
        nonzero = amax > 0
        es = e[s]
        es[...] = E_MIN
        es[nonzero] = np.clip(_ceil_log2_ratio(amax[nonzero], q_max), E_MIN, E_MAX)
        y = np.divide(view[s], np.ldexp(1.0, es)[:, None], out=code_view[s])
        np.clip(y, -q_max, q_max, out=y)
        _round(cb, y, y)  # an all-zero block codes +0.0, like every zero

    for_chunks(chunk, view)
    return MxQuantized(cb, k, axis, arr.shape, e, codes, getattr(t, "name", None))


def mx_dequantize(q):
    """Reconstruct 2**e * code elementwise."""
    codes = block_view(q.codes, q.axis, q.block_size)

    def fill(s, o):
        # a code times 2**e is a normal float, so the product equals ldexp(code, e)
        np.multiply(codes[s], np.ldexp(1.0, q.shared_exponents[s])[:, None], out=o)

    out = made_in_chunks(q.shape, fill, q.name, lambda o: block_view(o, q.axis, q.block_size))
    return Tensor.of_checked(out, q.name)
