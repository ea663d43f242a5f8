"""Record codecs fit their scales in quantize and round in dequantize, slice by slice in cache.

A record holds the fitted state and the source tensor; its codes, values,
signs and element codes are derived from them on first access. These tests
check that

* ``dequantize(q)`` equals, bit for bit, a decode built here from the
  record's derived fields and stored scales, for 1-D, 2-D and 3-D inputs,
  every axis, a small patched ``tensor.CHUNK`` and the pool off;
* reading a derived field first does not change the output;
* a reconstruction holds little beyond its output: between 2**20 and 2**22
  elements, the traced peak of ``codec.reconstruct`` less its output grows
  by at most a quarter of the added input bytes, for every format the
  benchmark runs, in the weight and activation roles.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from lofiq import hif4, hif8, intquant, mx, nvfp4
from lofiq.registry import parse_format
from lofiq.tensor import Tensor

CHUNKS = sys.modules["lofiq.tensor"]  # the name lofiq.tensor is the function

# the formats of perfbench/workloads.py
BENCH_FORMATS = ("int8", "int4", "e4m3", "e5m2", "hif8", "hif8-scaled",
                 "mxfp8-e4m3", "mxfp4", "mxint8", "nvfp4", "hif4")


def _data(shape, seed=0):
    """Values over many binades, with zeros of both signs and subnormals."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape) * np.exp(rng.uniform(-12, 12, shape))
    flat = a.reshape(-1)
    flat[rng.random(flat.size) < 0.05] = 0.0
    flat[rng.random(flat.size) < 0.05] = -0.0
    flat[rng.random(flat.size) < 0.02] *= 1e-310
    flat[:3] = [5e-324, -5e-324, -0.0]
    return a


def _expand(field, shape, axis, per):
    """A block field of block_view's layout, (blocks, *inner, *trailing), repeated out to
    ``shape``: each of its (sub-)blocks covers ``per`` consecutive elements along ``axis``."""
    pos = axis % len(shape)
    lead, trail = shape[:pos], shape[pos + 1:]
    return np.repeat(field.reshape(lead + (-1,) + trail), per, axis=pos)


def _groups(field, ndim, axis):
    """A flat per-group field shaped to broadcast along ``axis``."""
    return np.expand_dims(field, tuple(i for i in range(ndim) if i != axis % ndim))


def _decode_int(q):
    codes = q.codes.astype(np.float64)
    if q.zero_points is not None:
        codes -= _groups(q.zero_points, codes.ndim, q.axis)
    return codes * _groups(q.scales, codes.ndim, q.axis)


def _decode_mx(q):
    e = _expand(q.shared_exponents, q.shape, q.axis, q.block_size)
    return q.codes * np.ldexp(1.0, e)


def _decode_nvfp4(q):
    return q.codes * _expand(q.block_scales, q.shape, q.axis, nvfp4.BLOCK) * q.per_tensor_scale


def _decode_hif8(q):
    return q.values / _groups(q.scales, q.values.ndim, q.axis)


def _decode_hif4(q):
    e = lambda f, per: _expand(f, q.shape, q.axis, per)
    exp = e(q.e1, 64) + e(q.e2, 8) + e(q.e3, 4) - 4
    step = np.ldexp(e(q.m1, 64).astype(np.float64), exp)
    xhat = e(q.xhat, 1).astype(np.float64)
    return xhat * step * e(q.signs, 1)


# (quantize, dequantize, decode, derived fields, block size)
CODECS = {
    "int8-sym": (lambda t, a: intquant.int_quantize_symmetric(t, a, 8), intquant.int_dequantize,
                 _decode_int, ("codes",), 1),
    "int4-asym": (lambda t, a: intquant.int_quantize_asymmetric(t, a, 4),
                  intquant.int_dequantize, _decode_int, ("codes",), 1),
    "hif8-scaled": (lambda t, a: hif8.hif8_scaled_quantize(t, a, 4.0),
                    hif8.hif8_scaled_dequantize, _decode_hif8, ("values",), 1),
    "mx-e4m3": (lambda t, a: mx.mx_quantize(t, a, "e4m3"), mx.mx_dequantize, _decode_mx,
                ("codes",), 32),
    "mx-e2m1-k16": (lambda t, a: mx.mx_quantize(t, a, "e2m1", 16), mx.mx_dequantize, _decode_mx,
                    ("codes",), 16),
    "mx-int8": (lambda t, a: mx.mx_quantize(t, a, "int8"), mx.mx_dequantize, _decode_mx,
                ("codes",), 32),
    "nvfp4": (nvfp4.nvfp4_quantize, nvfp4.nvfp4_dequantize, _decode_nvfp4, ("codes",), 16),
    "hif4": (hif4.hif4_quantize, hif4.hif4_dequantize, _decode_hif4, ("xhat", "signs"), 64),
    "hif4-halfrange": (lambda t, a: hif4.hif4_quantize(t, a, "halfrange"), hif4.hif4_dequantize,
                       _decode_hif4, ("xhat", "signs"), 64),
}
MODES = ("default", "chunk-16", "pool-off")


def _shape(ndim, block):
    """A shape of ``ndim`` axes, each a multiple of the block, so the codec runs along any axis."""
    k = max(block, 8)
    return ((3 * k,), (k, 2 * k), (k, k, k))[ndim - 1]


def _mode(monkeypatch, mode):
    if mode == "chunk-16":
        monkeypatch.setattr(CHUNKS, "CHUNK", 16)
    elif mode == "pool-off":
        monkeypatch.setattr(CHUNKS, "_pool", False)


def _same(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bit for bit, signs of zero included


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CODECS))
def test_dequantize_equals_decode_of_derived_fields(monkeypatch, name, ndim, mode):
    _mode(monkeypatch, mode)
    quantize, dequantize, decode, _, block = CODECS[name]
    t = Tensor(_data(_shape(ndim, block)), "t")
    for axis in range(ndim):
        q = quantize(t, axis)
        _same(dequantize(q).data, decode(q))


@pytest.mark.parametrize("name", sorted(CODECS))
def test_reading_a_derived_field_first_changes_nothing(monkeypatch, name):
    monkeypatch.setattr(CHUNKS, "CHUNK", 16)
    quantize, dequantize, _, fields, block = CODECS[name]
    t = Tensor(_data(_shape(2, block), seed=1), "t")
    for axis in (0, 1):
        want = dequantize(quantize(t, axis)).data
        for field in fields:
            q = quantize(t, axis)
            derived = getattr(q, field)
            _same(dequantize(q).data, want)
            assert getattr(q, field) is derived  # cached, not rounded again


def test_hif4_exponent_bits_are_int8():
    q = hif4.hif4_quantize(Tensor(_data((64, 128))), 1)
    assert q.e2.dtype == q.e3.dtype == np.int8
    assert q.e1.dtype == q.m1.dtype == np.int64


def _peak_besides_output(codec, x, role):
    """Traced peak bytes of ``codec.reconstruct(x, role)``, less its output's."""
    tracemalloc.start()
    try:
        out = codec.reconstruct(x, role)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


@pytest.mark.parametrize("role", ["weight", "activation"])
@pytest.mark.parametrize("fmt", BENCH_FORMATS)
def test_peak_grows_by_at_most_a_quarter_of_the_added_input(fmt, role):
    codec = parse_format(fmt)
    rng = np.random.default_rng(3)
    small, large = (Tensor(rng.normal(0, 0.02, (n, n)), "w") for n in (1 << 10, 1 << 11))
    codec.reconstruct(small, role)  # the pool's threads start outside the traced calls
    grown = _peak_besides_output(codec, large, role) - _peak_besides_output(codec, small, role)
    added = large.data.nbytes - small.data.nbytes
    assert grown <= added / 4, f"{fmt}: {grown / added:.3f} of the added input bytes"
