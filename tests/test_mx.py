import numpy as np
import pytest

from lofiq.codebook import builtin_spec, enumerate_codebook
from lofiq.errors import NotDivisible, UnknownFormat
from lofiq.mx import mx_dequantize, mx_quantize, resolve_element
from lofiq.tensor import tensor

ELEMENTS = ["e5m2", "e4m3", "e3m2", "e2m3", "e2m1", "int8"]


def _block(values, k=32):
    pad = [0.0] * (k - len(values))
    return tensor([values + pad])


class TestWorkedExamples:
    def test_power_of_two_rescale(self):
        # block max 12 with a 6.0-max element grid: exponent 1, 12 recovered exactly
        q = mx_quantize(_block([12.0, 1.0]), 1, "e2m1")
        assert q.shared_exponents.tolist() == [1]
        d = mx_dequantize(q)
        assert d.data[0, 0] == 12.0
        assert d.data[0, 1] == 1.0

    def test_zero_block(self):
        q = mx_quantize(tensor(np.zeros((2, 32))), 1, "e2m1")
        assert q.shared_exponents.tolist() == [-127, -127]
        assert np.all(q.codes == 0)
        assert np.all(mx_dequantize(q).data == 0.0)

    def test_boundary_exponent_zero(self):
        q = mx_quantize(_block([6.0, -3.0]), 1, "e2m1")
        assert q.shared_exponents.tolist() == [0]
        assert mx_dequantize(q).data[0, 0] == 6.0

    def test_identity_scale_passthrough(self):
        q = mx_quantize(_block([4.0, 0.5, -1.5]), 1, "e2m1")
        assert q.shared_exponents.tolist() == [0]
        assert np.array_equal(mx_dequantize(q).data[0, :3], [4.0, 0.5, -1.5])


class TestInvariants:
    @pytest.mark.parametrize("elem", ELEMENTS)
    def test_no_post_scale_clipping(self, elem):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1000, 32)) * np.exp(rng.uniform(-20, 20, (1000, 1)))
        q_max = resolve_element(elem).max_finite
        # blocks whose exponent lands on the E8M0 limits: exactly 127, exactly
        # -127, and below -127 where the range clip raises it to -127
        exps = np.array([127, 127, -127, -128, -400])
        limits = np.ldexp(q_max, exps)[:, None] * rng.uniform(-1, 1, (5, 32))
        limits[:, 0] = np.ldexp(q_max, exps) * [1.0, -0.6, -1.0, 1.0, 0.7]
        x = np.concatenate([x, limits])
        q = mx_quantize(tensor(x), 1, elem)
        assert q.shared_exponents[-5:].tolist() == [127, 127, -127, -127, -127]
        amax = np.abs(x).max(axis=1)
        assert np.all(amax <= np.ldexp(q_max, q.shared_exponents))

    @pytest.mark.parametrize("elem", ELEMENTS)
    def test_roundtrip_exact_on_grid(self, elem):
        cb = resolve_element(elem)
        rng = np.random.default_rng(12)
        codes = rng.choice(cb.values, size=(64, 32))
        exps = rng.integers(-100, 100, size=(64, 1))
        x = np.ldexp(codes, exps)
        q = mx_quantize(tensor(x), 1, elem)
        assert np.array_equal(mx_dequantize(q).data, x)

    def test_per_element_error_bound(self):
        cb = resolve_element("e2m1")
        rng = np.random.default_rng(13)
        x = rng.normal(size=(200, 32))
        q = mx_quantize(tensor(x), 1, "e2m1")
        d = mx_dequantize(q).data
        scale = np.ldexp(1.0, q.shared_exponents)[:, None]
        y = np.abs(x) / scale
        # half the gap between the bracketing codebook values, per element
        idx = np.searchsorted(cb.values, y)
        idx = np.clip(idx, 1, len(cb.values) - 1)
        ulp = cb.values[idx] - cb.values[idx - 1]
        assert np.all(np.abs(d - x) <= scale * ulp / 2 + 1e-18)

    def test_codes_are_codebook_members(self):
        cb = resolve_element("e4m3")
        rng = np.random.default_rng(14)
        q = mx_quantize(tensor(rng.normal(size=(16, 64))), 1, "e4m3")
        assert np.all(np.isin(q.codes, cb.values))

    def test_exponent_range(self):
        tiny = tensor(np.full((1, 32), 1e-300))
        q = mx_quantize(tiny, 1, "e2m1")
        assert q.shared_exponents[0] == -127


class TestConfig:
    def test_block_size_divisibility(self):
        with pytest.raises(NotDivisible):
            mx_quantize(tensor(np.zeros((2, 60))), 1, "e2m1", 32)

    def test_custom_block_size(self):
        q = mx_quantize(tensor(np.ones((2, 64))), 1, "e2m1", 64)
        assert q.shared_exponents.shape == (2,)

    def test_axis_zero(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(32, 3))
        q = mx_quantize(tensor(x), 0, "e4m3")
        assert q.shared_exponents.shape == (1, 3)  # (blocks, *trailing axes)
        assert mx_dequantize(q).shape == (32, 3)

    def test_mxint8_element(self):
        # OCP int grid: {-127..127}/64, q_max 127/64
        cb = resolve_element("int8")
        assert cb.max_finite == 127.0 / 64.0
        x = tensor(np.ldexp(np.arange(-127, 128) / 64.0, 5).reshape(-1, 51))
        q = mx_quantize(x, 1, "int8", 51)
        assert np.array_equal(mx_dequantize(q).data, x.data)

    @pytest.mark.parametrize("element", ["e8m0", "E6M2U", builtin_spec("e8m0"),
                                         builtin_spec("e6m2u"), enumerate_codebook("e8m0"),
                                         enumerate_codebook("e6m2u")])
    def test_unsigned_scale_format_is_not_an_element(self, element):
        # e8m0 has no sign: -1 used to come back as 2**-253 * 2**-1
        with pytest.raises(UnknownFormat, match="unsigned"):
            mx_quantize(tensor([[-1.0, 0.5, 0.0, 3.0]]), 1, element, 4)
        with pytest.raises(UnknownFormat):
            resolve_element(element)
