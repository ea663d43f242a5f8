"""Record codecs fit their scales in quantize and round in dequantize, slice by slice in cache.

A record holds the fitted state and the source tensor; its codes, values,
signs and element codes are derived from them on first access. These tests
check that

* ``dequantize(q)`` equals, bit for bit, a decode built here from the
  record's derived fields and stored scales, for 1-D, 2-D and 3-D inputs,
  every axis, a small patched ``tensor.CHUNK`` and the pool off;
* reading a derived field first does not change the output;
* a record of a non-C input holds its source C-ordered, so its view is a
  view of the source, and gives the output and derived field of the
  input's C-order copy, bit for bit; a block codec's quantize copies such
  an input once, for its fit and its record alike;
* HiF4's dequantize forms each slice's element step once;
* a float-grid kernel rounds inside its output slice: with the pool off,
  its traced peak beyond its output is at most one and a half float64
  slices, room for two int32 exponent arrays and a mask;
* a reconstruction holds little beyond its output: between 2**20 and 2**22
  elements, the traced peak of ``codec.reconstruct`` less its output grows
  by at most a quarter of the added input bytes, for every format the
  benchmark runs, in the weight and activation roles;
* ``quantize`` holds the input file plus one output: its traced peak grows
  by at most 1.25 tensors per extra tensor in the file;
* ingest checks finiteness with no array of the data's size: ``Tensor``,
  ``as_array`` and ``load_tensors`` of 2**20 elements trace less than 1/64
  of the data beyond the data, and NaN or Inf anywhere is still found;
* a block codec's fit holds at most one float64 slice beyond its record's
  fields, along either axis, with the pool off.
"""

import math
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

from lofiq import cli, codebook, hif4, hif8, intquant, mx, nvfp4
from lofiq.errors import NonFiniteValue
from lofiq.registry import parse_format
from lofiq.tensor import Tensor, as_array, as_tensor, load_tensors, save_tensors

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


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CODECS))
def test_round_over_the_whole_view_gives_the_derived_field(name, ndim):
    quantize, _, _, fields, block = CODECS[name]
    t = Tensor(_data(_shape(ndim, block), seed=2), "t")
    for axis in range(ndim):
        q = quantize(t, axis)
        full = np.empty(q.shape)
        view = q.view(full)
        assert q.round(slice(None), view) is view
        derived = getattr(q, fields[0])  # codes, values, or HiF4's xhat in the view's layout
        _same(view if name.startswith("hif4") else full, derived.astype(np.float64))


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CODECS))
def test_a_record_of_a_strided_input_slices_views_of_its_source(name, axis):
    quantize, dequantize, _, fields, block = CODECS[name]
    x = _data(_shape(3, block), seed=3).transpose(2, 0, 1)  # a non-C view
    assert not x.flags.c_contiguous
    q, want = quantize(x, axis), quantize(np.ascontiguousarray(x), axis)
    assert q.source.flags.c_contiguous
    assert np.shares_memory(q.view(q.source), q.source)
    _same(dequantize(q).data, dequantize(want).data)
    _same(getattr(q, fields[0]), getattr(want, fields[0]))


@pytest.mark.parametrize("name", [n for n in sorted(CODECS) if CODECS[n][4] > 1])
def test_quantizing_a_strided_input_copies_it_once(monkeypatch, name):
    monkeypatch.setattr(CHUNKS, "CHUNK", 1 << 12)  # a slice's fit temporaries are 32 KiB
    quantize = CODECS[name][0]
    x = _data((1024, 512), seed=4).T  # a non-C view; blocks along its last axis
    quantize(np.ascontiguousarray(x), 1)  # the pool's threads start outside the traced call
    tracemalloc.start()
    try:
        q = quantize(x, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(q.view(q.source), q.source)
    assert peak <= 1.25 * x.nbytes, f"{name}: {peak / x.nbytes:.3f} input sizes"


@pytest.mark.parametrize("name", ["hif4", "hif4-halfrange"])
def test_hif4_forms_each_slice_step_once(monkeypatch, name):
    # one 64-element block per slice: dequantize decodes each slice right after rounding it
    monkeypatch.setattr(CHUNKS, "CHUNK", 16)
    quantize, dequantize = CODECS[name][:2]
    q = quantize(Tensor(_data((64, 256), seed=5), "t"), 1)
    calls, real = [], hif4.Hif4Quantized._step
    monkeypatch.setattr(hif4.Hif4Quantized, "_step",
                        lambda self, s: calls.append(s) or real(self, s))
    dequantize(q)
    assert len(calls) == q.view(q.source).shape[0]


def test_hif4_exponent_bits_are_int8():
    q = hif4.hif4_quantize(Tensor(_data((64, 128))), 1)
    assert q.e2.dtype == q.e3.dtype == np.int8
    assert q.e1.dtype == q.m1.dtype == np.int8  # E1 is -48..15 and M1 is 4..8


def test_block_fields_are_stored_at_their_format_width():
    t = Tensor(_data((64, 128)))
    # E8M0 exponents are -127..127, and every E4M3 value is a float32
    assert mx.mx_quantize(t, 1, "e4m3").shared_exponents.dtype == np.int16
    assert nvfp4.nvfp4_quantize(t, 1).block_scales.dtype == np.float32


# (fit, make): make's output is made from fit's record of the input, or from the input
SLICE_KERNELS = {
    "project-e4m3": (None, lambda t: codebook.project(codebook.enumerate_codebook("e4m3"), t)),
    "hif8": (None, hif8.hif8_quantize),
    "hif8-scaled": (lambda t: hif8.hif8_scaled_quantize(t, 0, 4.0), hif8.hif8_scaled_dequantize),
    "mxfp4": (lambda t: mx.mx_quantize(t, 1, "e2m1"), mx.mx_dequantize),
    "nvfp4": (lambda t: nvfp4.nvfp4_quantize(t, 1), nvfp4.nvfp4_dequantize),
    "hif4": (lambda t: hif4.hif4_quantize(t, 1), hif4.hif4_dequantize),
}


@pytest.mark.parametrize("name", sorted(SLICE_KERNELS))
def test_a_float_grid_kernel_rounds_inside_its_output_slice(monkeypatch, name):
    monkeypatch.setattr(CHUNKS, "CHUNK", 1 << 12)  # a float64 slice is 32 KiB
    monkeypatch.setattr(CHUNKS, "_pool", False)  # one slice at a time
    fit, make = SLICE_KERNELS[name]
    t = Tensor(_data((64, 1024), seed=6), "t")  # 16 slices
    arg = t if fit is None else fit(t)  # a record and its fields are made outside the trace
    make(arg)
    tracemalloc.start()
    try:
        out = make(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slices = (peak - getattr(out, "data", out).nbytes) / (CHUNKS.CHUNK * 8)
    assert slices <= 1.5, f"{name}: {slices:.3f} float64 slices beyond the output"


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


def _quantize_peak(path, fmt, role, out):
    """Traced peak bytes of an in-process ``quantize`` of the file at ``path``."""
    tracemalloc.start()
    try:
        code = cli.main(["quantize", path, "-f", fmt, "--role", role, "-o", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("role", ["weight", "activation"])
@pytest.mark.parametrize("fmt", ["int8", "mxfp4", "hif8-scaled"])
def test_quantize_holds_the_file_plus_one_output(tmp_path, fmt, role):
    rng = np.random.default_rng(5)
    paths = {}
    for n in (1, 6):
        paths[n] = os.fspath(tmp_path / f"in{n}.lqt")
        save_tensors([Tensor(rng.normal(0, 0.02, (64, 1024)), f"t{i}") for i in range(n)],
                     paths[n])
    out = os.fspath(tmp_path / "out.lqt")
    # the pool's threads start outside the traced calls
    assert cli.main(["quantize", paths[1], "-f", fmt, "--role", role, "-o", out]) == 0
    one, six = (_quantize_peak(paths[n], fmt, role, out) for n in (1, 6))
    per_tensor = (six - one) / 5 / (64 * 1024 * 8)
    assert per_tensor <= 1.25, f"{fmt}: the peak grows by {per_tensor:.3f} tensors per tensor"


def _traced(fn):
    """(fn(), the traced peak bytes of the call)."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_ingest_checks_finiteness_with_no_array_of_the_datas_size(tmp_path):
    x = np.random.default_rng(9).normal(size=1 << 20)
    path = os.fspath(tmp_path / "x.lqt")
    save_tensors([Tensor(x, "x")], path)
    # (name, call, bytes of data the call reads in); np.isfinite's mask alone is 1/8 of the data
    for name, call, data in (("Tensor", lambda: Tensor(x, "x"), 0),
                             ("as_array", lambda: as_array(x), 0),
                             ("load_tensors", lambda: load_tensors(path), x.nbytes)):
        _, peak = _traced(call)
        assert peak - data < x.nbytes / 64, f"{name}: {(peak - data) / x.nbytes:.4f} of the data"


def _with_nonfinite(value, where):
    """A finite array with ``value`` at its first, a middle or its last element, or 0-d."""
    if where == "0-d":
        return np.array(value)
    x = np.random.default_rng(10).normal(size=(37, 41))
    x.reshape(-1)[{"first": 0, "middle": x.size // 2, "last": -1}[where]] = value
    return x


@pytest.mark.parametrize("where", ["first", "middle", "last", "0-d"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ingest_finds_nan_and_inf_anywhere(tmp_path, value, where):
    x = _with_nonfinite(value, where)
    with pytest.raises(NonFiniteValue, match=r"^tensor 'x' contains NaN or Inf$") as exc:
        Tensor(x, "x")
    assert exc.value.tensor == "x"
    for convert in (as_array, as_tensor):
        with pytest.raises(NonFiniteValue, match=r"^array contains NaN or Inf$") as exc:
            convert(x)
        assert exc.value.tensor is None
    # an LQT1 file whose payload holds the value: write a finite one, then put it in place
    path = tmp_path / "x.lqt"
    save_tensors([Tensor(np.zeros(x.shape), "x")], path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) - x.nbytes:] = x.astype("<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(NonFiniteValue,
                       match=rf"^{re.escape(str(path))}: tensor 'x' contains NaN or Inf$") as exc:
        load_tensors(path)
    assert exc.value.tensor == "x"


@pytest.mark.parametrize("make", ["Tensor", "as_tensor", "made_in_chunks", "of_checked"])
def test_a_tensor_knows_its_absmax(monkeypatch, make):
    monkeypatch.setattr(CHUNKS, "CHUNK", 64)  # made_in_chunks joins the maxima of 16 slices
    x = _data((32, 32), seed=11)
    build = {"Tensor": lambda a: Tensor(a),
             "as_tensor": as_tensor,
             "made_in_chunks": lambda a: CHUNKS.made_in_chunks(
                 a.shape, lambda s, part: np.copyto(part, a.reshape(-1)[s]), None, np.ravel),
             "of_checked": Tensor.of_checked}[make]
    assert build(x).absmax == np.abs(x).max()
    for zeros in (np.zeros((4, 4)), -np.zeros((4, 4)), np.zeros((0, 3)), np.array(-0.0)):
        got = build(zeros).absmax
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


# (quantize, the record fields it keeps)
BLOCK_FITS = {
    "mxfp8-e4m3": (lambda t, a: mx.mx_quantize(t, a, "e4m3"), ("shared_exponents",)),
    "mxfp4": (lambda t, a: mx.mx_quantize(t, a, "e2m1"), ("shared_exponents",)),
    "mxint8": (lambda t, a: mx.mx_quantize(t, a, "int8"), ("shared_exponents",)),
    "nvfp4": (nvfp4.nvfp4_quantize, ("block_scales",)),
    "hif4": (hif4.hif4_quantize, ("e1", "m1", "e2", "e3")),
    "hif4-halfrange": (lambda t, a: hif4.hif4_quantize(t, a, "halfrange"), ("e1", "m1", "e2", "e3")),
}


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("name", sorted(BLOCK_FITS))
def test_a_block_fit_holds_at_most_one_slice_beyond_its_fields(monkeypatch, name, axis):
    monkeypatch.setattr(CHUNKS, "CHUNK", 1 << 12)  # a float64 slice is 32 KiB
    monkeypatch.setattr(CHUNKS, "_pool", False)  # one slice at a time
    quantize, fields = BLOCK_FITS[name]
    # 1024 x 64 makes slices of CHUNK elements along either axis: for_chunks splits a block
    # view along its first axis only, so a wider block row would make a larger slice
    t = Tensor(_data((1024, 64), seed=7), "t")
    quantize(t, axis)
    q, peak = _traced(lambda: quantize(t, axis))
    kept = sum(getattr(q, field).nbytes for field in fields)
    slices = (peak - kept) / (CHUNKS.CHUNK * 8)
    assert slices <= 1.0, f"{name} along {axis}: {slices:.3f} float64 slices beyond its fields"
