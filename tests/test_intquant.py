import numpy as np
import pytest

from lofiq.errors import NonFiniteValue
from lofiq.intquant import int_dequantize, int_quantize_asymmetric, int_quantize_symmetric
from lofiq.tensor import tensor


class TestSymmetric:
    def test_worked_channel(self):
        q = int_quantize_symmetric(tensor([[-1.0, 0.5]]), 0, 8)
        assert q.scales[0] == 1.0 / 127.0
        assert q.codes.tolist() == [[-127, 64]]  # round(63.5) goes away from zero
        d = int_dequantize(q)
        assert d.data[0, 0] == -1.0
        assert d.data[0, 1] == 64.0 / 127.0

    def test_zero_channel(self):
        q = int_quantize_symmetric(tensor([0.0, 0.0, 0.0]), 0, 8)
        assert np.all(q.scales == 1.0)
        assert np.all(q.codes == 0)
        assert np.all(int_dequantize(q).data == 0.0)

    def test_int4_grid_aligned(self):
        vals = np.arange(-7.0, 8.0)
        q = int_quantize_symmetric(tensor([vals]), 0, 4)
        assert q.scales[0] == 1.0
        assert np.array_equal(int_dequantize(q).data[0], vals)

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            int_quantize_symmetric(tensor([1.0]), 0, 6)


class TestAsymmetric:
    def test_endpoints_exact(self):
        q = int_quantize_asymmetric(tensor([[0.0, 10.0]]), 0, 8)
        assert q.scales[0] == 10.0 / 255.0
        assert q.zero_points[0] == 0
        d = int_dequantize(q)
        assert d.data[0, 0] == 0.0
        assert d.data[0, 1] == 10.0

    def test_constant_group_exact(self):
        q = int_quantize_asymmetric(tensor([[5.0, 5.0, 5.0]]), 0, 8)
        assert np.array_equal(int_dequantize(q).data, [[5.0, 5.0, 5.0]])

    def test_symmetric_pair(self):
        q = int_quantize_asymmetric(tensor([[-1.0, 1.0]]), 0, 8)
        assert q.scales[0] == 2.0 / 255.0
        assert q.zero_points[0] == 128  # round(127.5) away from zero
        d = int_dequantize(q)
        assert d.data[0, 0] == (0 - 128) * 2.0 / 255.0
        assert abs(d.data[0, 0] - -1.00392156) < 1e-6


class TestDequantize:
    def test_zero_code(self):
        q = int_quantize_symmetric(tensor([[4.0, 0.0]]), 0, 8)
        assert int_dequantize(q).data[0, 1] == 0.0

    def test_code_at_zero_point(self):
        q = int_quantize_asymmetric(tensor([[-3.0, 0.0, 5.0]]), 0, 8)
        zp = q.zero_points[0]
        codes = q.codes[0]
        which = np.nonzero(codes == zp)[0]
        assert int_dequantize(q).data[0, which[0]] == 0.0

    def test_plain_arithmetic(self):
        # scale 0.5 with code 7 reconstructs 3.5
        q = int_quantize_symmetric(tensor([np.array([63.5, 3.5])]), 0, 8)
        assert q.scales[0] == 0.5
        assert q.codes[0, 1] == 7
        assert int_dequantize(q).data[0, 1] == 3.5


class TestProperties:
    @pytest.mark.parametrize("bits", [4, 8])
    def test_symmetric_error_bound(self, bits):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(32, 64))
        q = int_quantize_symmetric(tensor(x), 0, bits)
        err = np.abs(int_dequantize(q).data - x)
        assert np.all(err <= q.scales[:, None] / 2 + 1e-15)

    @pytest.mark.parametrize("bits", [4, 8])
    def test_asymmetric_error_bound(self, bits):
        # the half-step bound needs the group to straddle zero, otherwise the
        # zero-point clamp shifts the representable window off the data
        rng = np.random.default_rng(2)
        x = rng.normal(size=(32, 64)) + rng.uniform(-0.5, 0.5, (32, 1))
        straddles = (x.min(axis=1) <= 0) & (x.max(axis=1) >= 0)
        assert straddles.all()
        q = int_quantize_asymmetric(tensor(x), 0, bits)
        err = np.abs(int_dequantize(q).data - x)
        assert np.all(err <= q.scales[:, None] / 2 + 1e-15)

    def test_code_stability(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 32))
        for quant in (lambda a: int_quantize_symmetric(a, 0, 8),
                      lambda a: int_quantize_asymmetric(a, 0, 8)):
            q1 = quant(tensor(x))
            q2 = quant(int_dequantize(q1))
            assert np.array_equal(q1.codes, q2.codes)

    def test_asymmetric_endpoints_within_half_scale(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(16, 64)) * 3
        q = int_quantize_asymmetric(tensor(x), 0, 8)
        d = int_dequantize(q).data
        for g in range(16):
            assert abs(d[g].min() - x[g].min()) <= q.scales[g] / 2 + 1e-15
            assert abs(d[g].max() - x[g].max()) <= q.scales[g] / 2 + 1e-15

    def test_asymmetric_exact_when_zero_point_integral(self):
        # min = -2, max = 6.5 gives scale (8.5/255) with -min/scale = 60 exactly
        lo, hi = -2.0, 6.5
        scale = (hi - lo) / 255
        assert (-lo / scale) == 60.0
        q = int_quantize_asymmetric(tensor([[lo, hi, 0.0]]), 0, 8)
        d = int_dequantize(q).data[0]
        assert d[0] == lo
        assert d[1] == hi

    def test_grouping_axis(self):
        x = np.array([[1.0, 100.0], [2.0, 200.0]])
        q0 = int_quantize_symmetric(tensor(x), 0, 8)  # rows are groups
        q1 = int_quantize_symmetric(tensor(x), 1, 8)  # columns are groups
        assert q0.scales.tolist() == [100.0 / 127, 200.0 / 127]
        assert q1.scales.tolist() == [2.0 / 127, 200.0 / 127]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("quantize", [int_quantize_symmetric, int_quantize_asymmetric])
def test_nonfinite_raw_array_rejected(quantize, bad):
    # a raw ndarray skips Tensor's check, so the kernel's ingest must catch it
    x = np.array([[0.5, bad], [1.0, 2.0]])
    with pytest.raises(NonFiniteValue):
        quantize(x, 0, 8)
