import math

import numpy as np
import pytest
from oracles import E4M3, brute_force_nearest, grid_arrays, nvfp4_by_definition

from lofiq.errors import NonFiniteValue, NotDivisible
from lofiq.mx import resolve_element
from lofiq.codebook import _round
from lofiq.nvfp4 import V_MAX, nvfp4_dequantize, nvfp4_quantize
from lofiq.tensor import tensor


def _rows(*rows):
    return tensor(np.array([list(r) + [0.0] * (16 - len(r)) for r in rows]))


class TestWorkedExamples:
    def test_unit_tensor_scale(self):
        q = nvfp4_quantize(_rows([V_MAX]), 1)
        assert q.per_tensor_scale == 1.0

    def test_grid_aligned_block_roundtrip(self):
        t = _rows([2688.0], [0.5, 1.0, 3.0, 6.0])
        q = nvfp4_quantize(t, 1)
        assert q.per_tensor_scale == 1.0
        assert q.block_scales[1] == 1.0  # max 6 / 6 -> nearest E4M3 is 1
        assert np.array_equal(nvfp4_dequantize(q).data, t.data)

    def test_scale_rounds_down_then_clips(self):
        # block max 7: 7/6 sits nearer 1.125 than 1.25; element clips at 6
        t = _rows([2688.0], [7.0])
        q = nvfp4_quantize(t, 1)
        assert q.block_scales[1] == 1.125
        assert nvfp4_dequantize(q).data[1, 0] == 6.75

    def test_zero_tensor(self):
        q = nvfp4_quantize(tensor(np.zeros((2, 16))), 1)
        assert q.per_tensor_scale == 1.0
        assert np.all(q.block_scales == 0.0)
        assert np.all(nvfp4_dequantize(q).data == 0.0)

    def test_zero_block_sentinel(self):
        t = _rows([2688.0], [0.0])
        q = nvfp4_quantize(t, 1)
        assert q.block_scales[1] == 0.0
        assert np.all(nvfp4_dequantize(q).data[1] == 0.0)

    def test_dequant_scales_multiply(self):
        # doubling the tensor maximum doubles s2 and every reconstruction
        t1 = _rows([2688.0, 6.75])
        t2 = _rows([5376.0, 13.5])
        d1 = nvfp4_dequantize(nvfp4_quantize(t1, 1)).data
        d2 = nvfp4_dequantize(nvfp4_quantize(t2, 1)).data
        assert np.array_equal(2 * d1, d2)

    def test_two_level_arithmetic(self):
        # s2 = 2 with block scale 1.125 and top code 6 reconstructs 13.5
        t = _rows([5376.0], [14.0])
        q = nvfp4_quantize(t, 1)
        assert q.per_tensor_scale == 2.0
        assert q.block_scales[1] == 1.125
        assert nvfp4_dequantize(q).data[1, 0] == 13.5


class TestInvariants:
    def test_tensor_level_no_clip(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = rng.normal(size=(8, 32)) * np.exp(rng.uniform(-30, 30))
            q = nvfp4_quantize(tensor(x), 1)
            assert np.abs(x).max() / q.per_tensor_scale <= V_MAX

    def test_element_overshoot_bound(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(640, 16))  # 640 blocks
        q = nvfp4_quantize(tensor(x), 1)
        assert q.max_overshoot <= 6.0 * (1 + 2.0**-4)

    def test_codes_and_scales_in_codebooks(self):
        e4m3 = resolve_element("e4m3")
        e2m1 = resolve_element("e2m1")
        rng = np.random.default_rng(23)
        q = nvfp4_quantize(tensor(rng.normal(size=(16, 64))), 1)
        assert np.all(np.isin(q.block_scales, np.concatenate([[0.0], e4m3.values])))
        assert np.all(q.block_scales >= 0)
        assert np.all(np.isin(q.codes, e2m1.values))

    def test_roundtrip_exact_constructed(self):
        # blocks of s1 * c with the top code present recover exactly; the
        # tensor max 2688 * 2**j makes s2 an exact power of two
        e4m3 = resolve_element("e4m3")
        e2m1 = resolve_element("e2m1")
        rng = np.random.default_rng(24)
        for j in (0, 3):
            s1s = rng.choice(e4m3.values[e4m3.values > 0], size=7)
            rows = [[V_MAX] + [0.0] * 15]
            for s1 in s1s:
                cs = rng.choice(e2m1.values, size=15)
                rows.append([s1 * 6.0] + list(s1 * cs))
            x = np.array(rows) * 2.0**j
            q = nvfp4_quantize(tensor(x), 1)
            assert q.per_tensor_scale == 2.0**j
            assert np.array_equal(nvfp4_dequantize(q).data, x)

    def test_tiny_block_scale_promotion(self):
        # a nonzero block far below the tensor scale cannot divide by zero
        x = np.zeros((2, 16))
        x[0, 0] = 2688.0
        x[1, 0] = 1e-3
        q = nvfp4_quantize(tensor(x), 1)
        assert q.block_scales[1] == 2.0**-9
        assert np.all(np.isfinite(q.codes))

    @pytest.mark.parametrize("m", [5e-324, 1e-321])
    def test_maximum_whose_scale_underflows(self, m):
        # max|x| / 2688 rounds to 0; s2 is the least subnormal instead
        x = np.zeros((2, 16))
        x[1, 3] = m
        q = nvfp4_quantize(tensor(x), 1)
        assert q.per_tensor_scale == 5e-324
        assert q.max_overshoot <= 6.0 * (1 + 2.0**-4)
        assert np.all(np.isfinite(q.codes))
        got = nvfp4_dequantize(q).data
        assert got[1, 3] == pytest.approx(m, rel=0.25)
        assert np.count_nonzero(got) == 1

    def test_top_level_past_float64_is_a_typed_error(self):
        # max|x| at float64's maximum: the nudged s2 makes 6 * 448 * s2 overflow,
        # although the input is finite
        top = np.finfo(np.float64).max
        with pytest.raises(NonFiniteValue, match=r"^tensor 'big': the NVFP4 top level, 2688 "
                                                 r"times the per-tensor scale \S+, overflows "
                                                 r"float64$") as exc:
            nvfp4_quantize(tensor(np.full((32, 64), top), "big"), 1)
        assert exc.value.tensor == "big"
        # one ulp below it, 2688 * s2 is finite and so is every reconstruction
        below = np.nextafter(top, 0.0)
        got = nvfp4_dequantize(nvfp4_quantize(tensor(np.full((2, 16), below)), 1)).data
        assert np.all(got == below)

    def test_block_divisibility(self):
        with pytest.raises(NotDivisible):
            nvfp4_quantize(tensor(np.zeros((2, 17))), 1)


def _oracle_cases():
    rng = np.random.default_rng(31)
    heavy = rng.normal(size=(32, 64)) * np.exp(rng.uniform(-20, 20, (32, 64)))
    heavy[:16, :16] = 0.0  # an all-zero block along either axis
    heavy[16:, 16:32] = -0.0
    heavy[rng.random(heavy.shape) < 0.1] = -0.0
    small = rng.normal(size=(32, 64))
    small[0, 0] = 2688.0
    small[16:, 32:48] *= 1e-4  # block maxima whose scale estimate rounds to 0
    small[:16, 48:] = np.where(rng.random((16, 16)) < 0.5, 0.0, -0.0)
    least = np.zeros((32, 64))
    least[5, 21] = 5e-324  # the tensor maximum is the least subnormal
    least[7, 3] = -0.0
    all_zero = np.where(rng.random((32, 64)) < 0.5, 0.0, -0.0)
    signed_zeros = all_zero.copy()
    signed_zeros[20, 40] = -3e-310
    return {"heavy": heavy, "small": small, "least": least, "all_zero": all_zero,
            "signed_zeros": signed_zeros}


class TestFitOracle:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("case", sorted(_oracle_cases()))
    def test_fit_matches_the_definition(self, case, axis):
        x = _oracle_cases()[case]
        s2, scales, recon, overshoot = nvfp4_by_definition(x, axis)
        for arg in (x, tensor(x, case)):  # a bare array, and a Tensor that knows its max|x|
            q = nvfp4_quantize(arg, axis)
            assert q.per_tensor_scale == s2
            assert np.array_equal(q.block_scales.astype(np.float64), scales)
            assert q.max_overshoot == overshoot
            assert math.copysign(1.0, q.max_overshoot) == 1.0  # +0.0 when every block is zero
            assert nvfp4_dequantize(q).data.tobytes() == recon.tobytes()


def test_scale_rounding_matches_the_codebook():
    """The fit's E4M3 rounding of scale estimates, codebook._round, equals the nearest-even
    search bit for bit on [0, 448]: every value, every midpoint and their neighbours, random
    draws, zeros of both signs and float64 subnormals."""
    cb = resolve_element("e4m3")
    values = cb.values[cb.values >= 0]
    mids = (values[1:] + values[:-1]) / 2
    edges = np.concatenate([values, mids])
    rng = np.random.default_rng(32)
    x = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 448.0),
                        rng.uniform(0.0, 448.0, 4096), np.exp(rng.uniform(-745.0, 6.1, 4096)),
                        [0.0, -0.0, 5e-324, 2.0**-10, 2.0**-1022]])
    x = x[x <= 448.0]
    want = brute_force_nearest(*grid_arrays(E4M3), x)
    assert _round(cb, x, x.copy()).tobytes() == want.tobytes()
