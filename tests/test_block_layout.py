"""Block codecs run on a strided view of their input, in its own layout.

The reference is the same codec run along the last axis of a contiguous
copy with the block axis moved last, then moved back: the layout every
block codec used before. Outputs must match it bit for bit, signs of zero
included, for every axis of 1-D, 2-D and 3-D inputs.
"""

import numpy as np
import pytest

from lofiq.hif4 import hif4_dequantize, hif4_quantize
from lofiq.mx import mx_dequantize, mx_quantize
from lofiq.nvfp4 import nvfp4_dequantize, nvfp4_quantize
from lofiq.tensor import tensor

CODECS = {
    **{f"mx:{el}:k={k}": (lambda t, axis, el=el, k=k: mx_dequantize(mx_quantize(t, axis, el, k)))
       for el in ("e4m3", "e2m1", "int8") for k in (16, 32)},
    "nvfp4": lambda t, axis: nvfp4_dequantize(nvfp4_quantize(t, axis)),
    **{f"hif4:{mode}": (lambda t, axis, mode=mode: hif4_dequantize(hif4_quantize(t, axis, mode)))
       for mode in ("literal", "halfrange")},
}
# (shape with the block axis marked None, axis); the block axis gets 128 elements
LAYOUTS = [((None,), 0), ((None,), -1),
           ((None, 3), 0), ((None, 3), -2), ((5, None), 1), ((5, None), -1),
           ((None, 3, 2), 0), ((None, 3, 2), -3), ((2, None, 3), 1), ((2, None, 3), -2),
           ((3, 2, None), 2), ((3, 2, None), -1)]


def _input(dims, axis, seed):
    shape = tuple(128 if d is None else d for d in dims)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * np.exp(rng.uniform(-8, 8, shape))
    moved = np.moveaxis(x, axis, -1)  # a view: block edits land in x
    idx = tuple(0 for _ in shape[:-1])
    moved[idx][:64] = 0.0  # an all-zero block for every block size
    moved[idx][64:128:3] = -0.0
    if moved.ndim > 1:
        last = tuple(s - 1 for s in moved.shape[:-1])
        moved[last][:64] = -0.0  # an all-negative-zero block
        moved[last][64:] *= 1e-300
    return x


def _reference(codec, x, axis):
    moved = np.ascontiguousarray(np.moveaxis(x, axis, -1))
    return np.moveaxis(codec(tensor(moved), -1).data, -1, axis)


@pytest.mark.parametrize("name", sorted(CODECS))
@pytest.mark.parametrize("dims,axis", LAYOUTS)
def test_strided_blocks_match_moved_layout(name, dims, axis):
    codec = CODECS[name]
    x = _input(dims, axis, seed=len(dims) * 10 + axis)
    got = codec(tensor(x), axis).data
    want = _reference(codec, x, axis)
    assert got.shape == x.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _moved_fields(field, shape, axis, k):
    """A last-axis record field of the moved copy, laid out as block_view's (blocks, *trailing)."""
    axis %= len(shape)
    lead, trail, nb = shape[:axis], shape[axis + 1:], shape[axis] // k
    inner = field.shape[1:]
    f = field.reshape(lead + trail + (nb,) + inner)
    f = np.moveaxis(f, len(lead) + len(trail), len(lead))  # lead, nb, trail, inner
    f = f.reshape((int(np.prod(lead)) * nb,) + trail + inner)
    return np.moveaxis(f, tuple(range(1 + len(trail), f.ndim)), tuple(range(1, 1 + len(inner))))


@pytest.mark.parametrize("dims,axis", LAYOUTS)
def test_strided_record_fields(dims, axis):
    x = _input(dims, axis, seed=7)
    moved = tensor(np.ascontiguousarray(np.moveaxis(x, axis, -1)))
    for k in (16, 32):
        got = mx_quantize(tensor(x), axis, "e2m1", k).shared_exponents
        ref = mx_quantize(moved, -1, "e2m1", k).shared_exponents
        assert np.array_equal(got, _moved_fields(ref, x.shape, axis, k))
    got, ref = nvfp4_quantize(tensor(x), axis), nvfp4_quantize(moved, -1)
    assert np.array_equal(got.block_scales, _moved_fields(ref.block_scales, x.shape, axis, 16))
    got, ref = hif4_quantize(tensor(x), axis), hif4_quantize(moved, -1)
    for field in ("e1", "m1", "e2", "e3", "signs", "xhat"):
        want = _moved_fields(getattr(ref, field), x.shape, axis, 64)
        assert np.array_equal(getattr(got, field), want), field


def test_last_axis_record_shapes():
    # perfbench/checks.py reads these fields of an (n, L) sample with blocks along axis 1
    n, L = 3, 128
    x = tensor(np.random.default_rng(9).normal(size=(n, L)))
    assert mx_quantize(x, 1, "e4m3").shared_exponents.shape == (n * L // 32,)
    assert mx_quantize(x, -1, "e4m3", 16).shared_exponents.shape == (n * L // 16,)
    q = nvfp4_quantize(x, 1)
    assert q.block_scales.shape == (n * L // 16,) and q.codes.shape == (n, L)
    q = hif4_quantize(x, 1)
    B = n * L // 64
    assert q.e1.shape == q.m1.shape == (B,)
    assert q.e2.shape == (B, 8)
    assert q.e3.shape == (B, 8, 2)
    assert q.signs.shape == q.xhat.shape == (B, 8, 2, 4)


@pytest.mark.parametrize("name", sorted(CODECS))
@pytest.mark.parametrize("axis", [0, -1])
def test_signs_of_zero(name, axis):
    # zeros of either sign and tiny values that round to a zero code
    rng = np.random.default_rng(3)
    x = rng.normal(size=(128, 128)) * np.exp(rng.uniform(-30, 0, (128, 128)))
    x[rng.random(x.shape) < 0.2] = -0.0
    x[rng.random(x.shape) < 0.1] = 0.0
    out = CODECS[name](tensor(x), axis).data
    assert np.all(np.signbit(out) <= np.signbit(x))  # a negative output has a negative input
    if name.startswith("hif4"):
        # the recorded sign survives a zero code: -0.0 exactly where x < 0 rounds to 0
        assert np.array_equal(np.signbit(out), x < 0)
    else:
        assert not np.any(np.signbit(out) & (out == 0))  # every zero output is +0.0


@pytest.mark.parametrize("name", sorted(CODECS))
@pytest.mark.parametrize("shape,axis", [((0, 128), 1), ((0, 128), 0), ((128, 0), 0),
                                        ((2, 128, 0), 1)])
def test_zero_size(name, shape, axis):
    assert CODECS[name](tensor(np.zeros(shape)), axis).shape == shape
