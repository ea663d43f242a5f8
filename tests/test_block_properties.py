"""Property tests of MX, NVFP4, HiF4, HiF8 and hif8-scaled, on 1-D and 3-D inputs along every axis.

* Power-of-two equivariance, bit for bit: recon(ldexp(x, k)) == ldexp(recon(x), k)
  whenever every scale of x and of ldexp(x, k) stays inside its range (MX
  exponents inside [-127, 127], HiF4's A1/7 inside [2**-48, 1.5 * 2**15],
  NVFP4's s2 normal). Every scale then moves by exactly 2**k, and so does
  every reconstruction.
* Sign symmetry by value for MX, NVFP4, HiF8 and hif8-scaled:
  recon(-x) == -recon(x). (HiF4's is pinned by
  ``test_odd_symmetry_and_zero_preservation``.)
* Every HiF8 output, and every value of a hif8-scaled record, is a member of
  ``hif8_enumerate()``.
* Every field lies on its grid: each MX code in its element's codebook, each
  NVFP4 code in E2M1 and each block scale in E4M3 (0 included), each HiF4
  code in 0..7, M1 in 4..8 and E2, E3 in {0, 1}. The inputs span either the
  normal range or 2**[-160, 160], which passes MX's exponent clip at
  2**+-127, HiF4's block-scale clip and NVFP4's E4M3 floor.

There is no power-of-two property for HiF8: its mantissa width tapers with
the exponent, and hif8-scaled's scale K / (max|x| + 1e-12) does not move by
exactly 2**k when x does.

Each runs with ``tensor.CHUNK`` patched to 16 and with the pool off.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lofiq import hif4, hif8, mx, nvfp4
from lofiq.codebook import enumerate_codebook
from lofiq.tensor import Tensor

CHUNKS = sys.modules["lofiq.tensor"]  # the name lofiq.tensor is the function
TINY = np.finfo(np.float64).tiny
K_SPAN = 40  # |k| at most this: the elements below stay normal floats
# the scale ranges of the specs, written out rather than read from the codecs
E8M0 = (-127, 127)  # OCP MX v1.0 shared exponent
HIF4_AT1 = (2.0**-48, 1.5 * 2.0**15)  # A1/7 before the E1/M1 encoding


def _mx_ok(x, axis, k, element, block):
    # only nonzero blocks count; a zero block's exponent is E_MIN at any scale
    q = mx.mx_quantize(x, axis, element, block)
    e = q.shared_exponents[q.view(x).any(axis=1)]
    return all(E8M0[0] < v < E8M0[1] for v in (e.min(), e.max(), e.min() + k, e.max() + k))


def _nvfp4_ok(x, axis, k):
    return np.ldexp(nvfp4.nvfp4_quantize(x, axis).per_tensor_scale, k) >= TINY


def _hif4_ok(x, axis, k):
    q = hif4.hif4_quantize(x, axis)
    a1 = np.abs(q.view(x)).max(axis=(1, 2, 3))
    at1 = a1[a1 > 0] / 7.0
    return all(HIF4_AT1[0] <= v <= HIF4_AT1[1]
               for v in (at1.min(), at1.max(), np.ldexp(at1.min(), k), np.ldexp(at1.max(), k)))


# name: (reconstruct, in range, block size, sign-symmetric)
CODECS = {
    "mx-e4m3": (lambda x, a: mx.mx_dequantize(mx.mx_quantize(x, a, "e4m3")),
                lambda x, a, k: _mx_ok(x, a, k, "e4m3", 32), 32, True),
    "mx-e2m1-k16": (lambda x, a: mx.mx_dequantize(mx.mx_quantize(x, a, "e2m1", 16)),
                    lambda x, a, k: _mx_ok(x, a, k, "e2m1", 16), 16, True),
    "mx-int8": (lambda x, a: mx.mx_dequantize(mx.mx_quantize(x, a, "int8")),
                lambda x, a, k: _mx_ok(x, a, k, "int8", 32), 32, True),
    "nvfp4": (lambda x, a: nvfp4.nvfp4_dequantize(nvfp4.nvfp4_quantize(x, a)), _nvfp4_ok,
              16, True),
    "hif4": (lambda x, a: hif4.hif4_dequantize(hif4.hif4_quantize(x, a)), _hif4_ok, 64, False),
    "hif4-halfrange": (lambda x, a: hif4.hif4_dequantize(hif4.hif4_quantize(x, a, "halfrange")),
                       _hif4_ok, 64, False),
}
MODES = ("chunk-16", "pool-off")
HIF8_SPAN = (-30, 20)  # past the flush below 2**-22 and the saturation at 2**15
# name: reconstruct(x, axis, K); plain HiF8 takes neither axis nor K
HIF8_CODECS = {
    "hif8": lambda x, a, K: hif8.hif8_quantize(x),
    "hif8-scaled": lambda x, a, K: hif8.hif8_scaled_dequantize(hif8.hif8_scaled_quantize(x, a, K)),
}
_K = st.floats(2.0**-8, 2.0**17)  # hif8-scaled's target maximum, DEFAULT_K's 1..16 and beyond


def _mode(mode):
    if mode == "chunk-16":
        return mock.patch.object(CHUNKS, "CHUNK", 16)
    return mock.patch.object(CHUNKS, "_pool", False)


@st.composite
def _inputs(draw, block, span=(-24, 12)):
    """(x, axis): 1-D or 3-D, blocks along ``axis``, nonzero magnitudes in 2**span.

    Zeros of both signs are mixed in. With the default span no element is
    subnormal, so ldexp by |k| <= K_SPAN is exact on every one.
    """
    ndim = draw(st.sampled_from([1, 3]))
    axis = draw(st.integers(0, ndim - 1))
    shape = [draw(st.integers(1, 3)) for _ in range(ndim)]
    shape[axis] = block * draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.choice([-1.0, 1.0], shape) * np.exp2(rng.uniform(*span, shape))
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x, axis


def _recon(reconstruct, x, axis):
    return reconstruct(Tensor(x, "x"), axis).data


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CODECS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_power_of_two_equivariance_is_exact(name, mode, data):
    reconstruct, in_range, block, _ = CODECS[name]
    x, axis = data.draw(_inputs(block))
    ks = [k for k in range(-K_SPAN, K_SPAN + 1) if in_range(x, axis, k)]
    assert 0 in ks  # the inputs' own scales are in range
    k = data.draw(st.sampled_from(ks))
    with _mode(mode):
        got = _recon(reconstruct, np.ldexp(x, k), axis)
        want = np.ldexp(_recon(reconstruct, x, axis), k)
    assert got.tobytes() == want.tobytes(), f"k={k}"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(n for n, c in CODECS.items() if c[3]))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sign_symmetry_by_value(name, mode, data):
    reconstruct, _, block, _ = CODECS[name]
    x, axis = data.draw(_inputs(block))
    with _mode(mode):
        assert np.array_equal(_recon(reconstruct, -x, axis), -_recon(reconstruct, x, axis))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(HIF8_CODECS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hif8_sign_symmetry_by_value(name, mode, data):
    x, axis = data.draw(_inputs(32, HIF8_SPAN))
    codec, K = HIF8_CODECS[name], data.draw(_K)
    with _mode(mode):
        got = codec(Tensor(-x, "x"), axis, K).data
        want = -codec(Tensor(x, "x"), axis, K).data
    assert np.array_equal(got, want)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hif8_outputs_lie_on_the_grid(mode, data):
    x, axis = data.draw(_inputs(32, HIF8_SPAN))
    grid = hif8.hif8_enumerate()
    with _mode(mode):
        plain = hif8.hif8_quantize(Tensor(x, "x")).data
        values = hif8.hif8_scaled_quantize(Tensor(x, "x"), axis, data.draw(_K)).values
    assert np.isin(plain, grid).all()
    assert np.isin(values, grid).all()


GRID_SPANS = [(-24, 12), (-160, 160)]
MX_ELEMENTS = ("e4m3", "e5m2", "e3m2", "e2m3", "e2m1", "int8")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("element", MX_ELEMENTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mx_codes_lie_on_the_element_grid(element, mode, data):
    k = data.draw(st.sampled_from([16, 32]))
    x, axis = data.draw(_inputs(k, data.draw(st.sampled_from(GRID_SPANS))))
    with _mode(mode):
        codes = mx.mx_quantize(Tensor(x, "x"), axis, element, k).codes
    assert np.isin(codes, enumerate_codebook(element).values).all()


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_nvfp4_codes_and_block_scales_lie_on_their_grids(mode, data):
    x, axis = data.draw(_inputs(16, data.draw(st.sampled_from(GRID_SPANS))))
    e4m3 = enumerate_codebook("e4m3").values
    with _mode(mode):
        q = nvfp4.nvfp4_quantize(Tensor(x, "x"), axis)
        codes = q.codes
    assert np.isin(codes, enumerate_codebook("e2m1").values).all()
    assert np.isin(q.block_scales, e4m3[e4m3 >= 0]).all()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("subscale_mode", hif4.MODES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hif4_fields_lie_in_their_ranges(subscale_mode, mode, data):
    x, axis = data.draw(_inputs(64, data.draw(st.sampled_from(GRID_SPANS))))
    with _mode(mode):
        q = hif4.hif4_quantize(Tensor(x, "x"), axis, subscale_mode)
        codes, xhat = q.rounded(), q.xhat
    assert np.isin(codes, np.arange(8.0)).all() and np.isin(xhat, range(8)).all()
    assert np.isin(q.m1, range(4, 9)).all()
    assert np.isin(q.e2, (0, 1)).all() and np.isin(q.e3, (0, 1)).all()
