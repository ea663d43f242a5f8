"""Group codecs reduce in the input's own layout.

The reference moves the group axis first, flattens every other axis into
one, quantizes each row as a group and moves the result back: the layout
the group codecs used before. Outputs must match it bit for bit, signs of
zero included, on every axis of 1-D, 2-D and 3-D inputs. Scales and
zero-points are flat, one per index along the group axis, in axis order;
codes and values come out C-contiguous in the input's shape.
"""

import numpy as np
import pytest

from lofiq.hif8 import hif8_quantize, hif8_scaled_dequantize, hif8_scaled_quantize
from lofiq.intquant import int_dequantize, int_quantize_asymmetric, int_quantize_symmetric
from lofiq.registry import parse_format
from lofiq.tensor import tensor

SHAPES = [(7,), (5, 6), (3, 4, 5)]
LAYOUTS = [(shape, axis) for shape in SHAPES for axis in range(-len(shape), len(shape))]
K = 4.0


def _round_half_away(v):
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def _oracle(kind, bits, rows):
    """(codes or values, scales, zero_points, reconstruction) with one group per row."""
    if kind == "sym":
        qmax = 2 ** (bits - 1) - 1
        amax = np.max(np.abs(rows), axis=1)
        scales = np.where(amax > 0, amax / qmax, 1.0)
        codes = np.clip(_round_half_away(rows / scales[:, None]), -qmax, qmax).astype(np.int64)
        return codes, scales, None, codes.astype(np.float64) * scales[:, None]
    if kind == "asym":
        levels = 2**bits - 1
        lo, hi = rows.min(axis=1), rows.max(axis=1)
        scales = np.where(hi > lo, (hi - lo) / levels, 1.0)
        zps = np.clip(_round_half_away(-lo / scales), 0, levels).astype(np.int64)
        codes = np.clip(_round_half_away(rows / scales[:, None]) + zps[:, None], 0, levels)
        codes = codes.astype(np.int64)
        return codes, scales, zps, (codes.astype(np.float64) - zps[:, None]) * scales[:, None]
    scales = K / (np.max(np.abs(rows), axis=1) + 1e-12)
    values = hif8_quantize(rows * scales[:, None]).data  # elementwise, so layout-free
    return values, scales, None, values / scales[:, None]


def _moved_oracle(kind, bits, x, axis):
    moved = np.moveaxis(x, axis, 0)
    rows = np.ascontiguousarray(moved).reshape(x.shape[axis], -1)
    fields, scales, zps, recon = _oracle(kind, bits, rows)
    back = lambda a: np.moveaxis(a.reshape(moved.shape), 0, axis)
    return back(fields), scales, zps, back(recon)


def _codec(kind, bits, x, axis):
    """(record, its codes or values, reconstruction) from the library."""
    if kind == "hif8":
        rec = hif8_scaled_quantize(x, axis, K)
        return rec, rec.values, hif8_scaled_dequantize(rec).data
    quantize = int_quantize_symmetric if kind == "sym" else int_quantize_asymmetric
    rec = quantize(x, axis, bits)
    return rec, rec.codes, int_dequantize(rec).data


KINDS = [("sym", 8), ("sym", 4), ("asym", 8), ("asym", 4), ("hif8", None)]


def _input(shape, axis, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * np.exp(rng.uniform(-6, 6, shape))
    x[rng.random(shape) < 0.15] = -0.0
    x[rng.random(shape) < 0.1] = 1e-300  # rounds to a zero code
    moved = np.moveaxis(x, axis, 0)  # a view: group edits land in x
    moved[0] = 0.0  # an all-zero group
    moved[1] = -0.0  # an all-negative-zero group
    if shape[axis] > 3:
        moved[2] = 3.0  # a constant group
        moved[3] = -moved[3]
    return x


@pytest.mark.parametrize("kind,bits", KINDS)
@pytest.mark.parametrize("shape,axis", LAYOUTS)
def test_in_place_groups_match_moved_layout(kind, bits, shape, axis):
    x = _input(shape, axis, seed=len(shape) * 10 + axis)
    rec, fields, recon = _codec(kind, bits, tensor(x), axis)
    want_fields, want_scales, want_zps, want = _moved_oracle(kind, bits, x, axis)
    assert fields.shape == recon.shape == x.shape
    assert np.array_equal(fields, want_fields)
    assert np.array_equal(recon, want)
    assert np.array_equal(np.signbit(recon), np.signbit(want))
    assert not np.any(np.signbit(recon) & (recon == 0))  # every zero output is +0.0
    assert rec.scales.shape == (shape[axis],)
    assert np.array_equal(rec.scales, want_scales)
    if kind == "asym":
        assert rec.zero_points.shape == (shape[axis],)
        assert np.array_equal(rec.zero_points, want_zps)
    else:
        assert getattr(rec, "zero_points", None) is None
    assert fields.flags.c_contiguous


@pytest.mark.parametrize("kind,bits", KINDS)
@pytest.mark.parametrize("layout", ["fortran", "transposed"])
def test_strided_raw_input(kind, bits, layout):
    base = _input((4, 5, 6), 1, seed=3)
    x = np.asfortranarray(base) if layout == "fortran" else base.transpose(2, 0, 1)
    assert not x.flags.c_contiguous
    for axis in range(x.ndim):
        rec, fields, recon = _codec(kind, bits, x, axis)
        ref_rec, ref_fields, ref_recon = _codec(kind, bits, tensor(x), axis)
        assert fields.flags.c_contiguous
        assert np.array_equal(fields, ref_fields)
        assert np.array_equal(recon, ref_recon)
        assert np.array_equal(rec.scales, ref_rec.scales)


@pytest.mark.parametrize("sel", ["int8", "int4", "hif8-scaled"])
@pytest.mark.parametrize("role", ["weight", "activation"])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0,)])
def test_zero_size(sel, role, shape):
    out = parse_format(sel).reconstruct(tensor(np.zeros(shape)), role)
    assert out.shape == shape


@pytest.mark.parametrize("kind,bits", KINDS)
def test_empty_group_is_an_all_zero_group(kind, bits):
    rec, fields, _ = _codec(kind, bits, np.zeros((3, 0)), 0)
    ref, _, _ = _codec(kind, bits, np.zeros((3, 1)), 0)
    assert fields.shape == (3, 0)
    assert np.array_equal(rec.scales, ref.scales)
    if kind != "hif8":
        assert np.array_equal(rec.scales, np.ones(3))
    if kind == "asym":
        assert np.array_equal(rec.zero_points, ref.zero_points)
