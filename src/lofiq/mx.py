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
    builtin_spec,
    enumerate_codebook,
    mxint8_codebook,
    project,
)
from .tensor import Tensor, as_array, axis_to_blocks, blocks_to_axis

__all__ = ["DEFAULT_BLOCK", "MxQuantized", "mx_quantize", "mx_dequantize", "resolve_element"]

DEFAULT_BLOCK = 32
E_MIN, E_MAX = -127, 127

_ELEMENT_CACHE = {}


def resolve_element(element):
    """Accept a codebook, a format spec, or a name ('e4m3', ..., 'int8')."""
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
            _ELEMENT_CACHE[key] = enumerate_codebook(builtin_spec(key))
    return _ELEMENT_CACHE[key]


@dataclass(frozen=True)
class MxQuantized:
    element: Codebook
    block_size: int
    axis: int
    shape: tuple
    shared_exponents: np.ndarray  # one int per block, flat block order
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


def _quantize_blocks(blocked, cb):
    amax = np.max(np.abs(blocked), axis=1)
    nonzero = amax > 0
    q_max = cb.max_finite
    e = np.full(amax.shape, E_MIN, dtype=np.int64)
    if np.any(nonzero):
        e[nonzero] = np.clip(_ceil_log2_ratio(amax[nonzero], q_max), E_MIN, E_MAX)
    y = blocked / np.ldexp(1.0, e)[:, None]
    np.clip(y, -q_max, q_max, out=y)
    codes = project(cb, y)
    codes[~nonzero] = 0.0
    return e, codes


def mx_quantize(t, axis, element_spec, k=DEFAULT_BLOCK):
    """Quantize ``t`` in blocks of ``k`` along ``axis`` with element format ``element_spec``."""
    cb = resolve_element(element_spec)
    arr = as_array(t)
    blocked, moved_shape = axis_to_blocks(arr, axis, k)
    e, codes = _quantize_blocks(blocked, cb)
    codes = blocks_to_axis(codes, moved_shape, axis)
    return MxQuantized(cb, k, axis, arr.shape, e, codes, getattr(t, "name", None))


def mx_dequantize(q):
    """Reconstruct 2**e * code elementwise."""
    blocked, moved_shape = axis_to_blocks(q.codes, q.axis, q.block_size)
    out = np.ldexp(blocked, q.shared_exponents[:, None])
    return Tensor(blocks_to_axis(out, moved_shape, q.axis), q.name)
