"""MX and NVFP4 against their definitions in ``oracles``, bit for bit.

Small 2-D inputs, blocks along either axis, are fitted and reconstructed
with ``tensor.CHUNK`` at 16 and with the pool off. MX is compared by its
shared exponents and reconstruction, NVFP4 by its two scales, overshoot and
reconstruction. An axis that is no multiple of the block goes through the
codec's ``pad=True`` path, which the oracles meet by rounding the last,
shorter run of an axis as a block of its own. Magnitudes reach past E8M0's
2**+-127 clamp, the element clip and NVFP4's 2**-9 scale floor, and zeros of
both signs and float64 subnormals are mixed in.
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mx_by_definition, nvfp4_by_definition, walk_codepoints

from lofiq import mx, nvfp4
from lofiq.registry import parse_format
from lofiq.tensor import Tensor

CHUNKS = sys.modules["lofiq.tensor"]  # the name lofiq.tensor is the function
MODES = ("chunk-16", "pool-off")
# MX element: (exponent bits, mantissa bits, bias, has_inf, NaN codepoints at the top)
ELEMENTS = {
    "e4m3": (4, 3, 7, False, 1),
    "e5m2": (5, 2, 15, True, 0),
    "e3m2": (3, 2, 3, False, 0),
    "e2m3": (2, 3, 1, False, 0),
    "e2m1": (2, 1, 1, False, 0),
    "int8": (0, 7, 0, False, 0),  # E0M7: the subnormals m / 64
}


def _mode(mode):
    if mode == "chunk-16":
        return mock.patch.object(CHUNKS, "CHUNK", 16)
    return mock.patch.object(CHUNKS, "_pool", False)


def _inputs(data, block):
    """(x, axis, pad): a 2-D x with blocks along ``axis``, whose extent is a multiple of
    ``block`` unless ``pad``; magnitudes around 2**base, base in [-180, 180]."""
    axis = data.draw(st.integers(0, 1), "axis")
    pad = data.draw(st.booleans(), "pad")
    shape = [data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))]
    if pad:
        shape[axis] = data.draw(st.integers(1, 2 * block).filter(lambda n: n % block), "extent")
    else:
        shape[axis] = block * data.draw(st.integers(1, 2))
    base = data.draw(st.integers(-180, 180), "base")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    x = rng.choice([-1.0, 1.0], shape) * np.exp2(base + rng.uniform(-24.0, 8.0, shape))
    # short values: the odd parts of the grid maxima, so that a block maximum can sit
    # exactly on q_max * 2**e, the boundary of the shared exponent and the scales
    short = rng.random(shape) < 0.3
    n = np.count_nonzero(short)
    odd = rng.choice([1.0, 3.0, 7.0, 15.0, 127.0], n)
    x[short] = np.copysign(np.ldexp(odd, base + rng.integers(-24, 8, n)), x[short])
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    tiny = rng.random(shape) < 0.05
    x[tiny] = rng.choice([5e-324, -5e-324, 1e-310], np.count_nonzero(tiny))
    return x, axis, pad


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("element", sorted(ELEMENTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mx_matches_its_definition(element, mode, data):
    k = data.draw(st.sampled_from([4, 32]), "k")
    x, axis, pad = _inputs(data, k)
    exponents, recon = mx_by_definition(x, axis, k, walk_codepoints(*ELEMENTS[element]))
    with _mode(mode):
        if pad:
            codec = parse_format(f"mx:{element}:k={k}:axis={axis}")
            got = codec.reconstruct(Tensor(x, "x"), "weight", pad=True)
        else:
            q = mx.mx_quantize(Tensor(x, "x"), axis, element, k)
            assert np.array_equal(q.shared_exponents, exponents)
            got = mx.mx_dequantize(q).data
    assert got.tobytes() == recon.tobytes()


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nvfp4_matches_its_definition(mode, data):
    x, axis, pad = _inputs(data, nvfp4.BLOCK)
    s2, scales, recon, overshoot = nvfp4_by_definition(x, axis)
    with _mode(mode):
        if pad:
            got = parse_format(f"nvfp4:axis={axis}").reconstruct(Tensor(x, "x"), "weight", pad=True)
        else:
            q = nvfp4.nvfp4_quantize(Tensor(x, "x"), axis)
            assert q.per_tensor_scale == s2
            assert np.array_equal(q.block_scales.astype(np.float64), scales)
            assert q.max_overshoot == overshoot
            assert math.copysign(1.0, q.max_overshoot) == 1.0
            got = nvfp4.nvfp4_dequantize(q).data
    assert got.tobytes() == recon.tobytes()
