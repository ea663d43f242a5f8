import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

    @pytest.mark.filterwarnings("error")  # refused with no numpy warning
    @pytest.mark.parametrize("bits", [4, 8])
    def test_range_beyond_float64_is_refused(self, bits):
        # max - min of group 1 overflows; groups 0 and 2 are finite and keep their fields
        x = np.array([[-1.0, 2.0], [-1.7e308, 1.7e308], [3.0, 4.0]])
        with pytest.raises(NonFiniteValue, match=r"^tensor 'big': int%d asymmetric range "
                           r"max - min of group 1 overflows float64$" % bits) as info:
            int_quantize_asymmetric(tensor(x, "big"), 0, bits)
        assert info.value.tensor == "big"
        q = int_quantize_asymmetric(tensor(x[::2]), 0, bits)
        assert q.scales.tolist() == [3.0 / (2**bits - 1), 1.0 / (2**bits - 1)]


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


# -- the in-place kernel against the plain formula --------------------------

_TINY = np.nextafter(0.0, 1.0)


def _round_oracle(v):
    """v rounded half away from zero in exact arithmetic: |v| - floor(|v|) is exact in float64,
    while floor(|v| + 0.5) rounds 0.5 - 2**-54 up to 1."""
    a = np.abs(v)
    f = np.floor(a)
    with np.errstate(invalid="ignore"):  # an empty group's |lo| / scale is inf; inf - inf is NaN
        return np.sign(v) * (f + (a - f >= 0.5))


def _oracle(x, axis, bits, mode):
    """(codes, scales, zero_points, reconstruction) from the plain formulas on int64 codes.

    A scale below the smallest subnormal rounds to 0 in float64, so it is
    kept at that subnormal, the one departure from the textbook formula.
    """
    others = tuple(i for i in range(x.ndim) if i != axis % x.ndim)
    if mode == "symmetric":
        qmax = 2 ** (bits - 1) - 1
        amax = np.max(np.abs(x), axis=others, keepdims=True, initial=0.0)
        scales = np.where(amax > 0, np.maximum(amax / qmax, _TINY), 1.0)
        codes = np.clip(_round_oracle(x / scales), -qmax, qmax).astype(np.int64)
        return codes, scales.reshape(-1), None, codes * scales
    levels = 2**bits - 1
    lo = np.min(x, axis=others, keepdims=True, initial=np.inf)
    hi = np.max(x, axis=others, keepdims=True, initial=-np.inf)
    scales = np.where(hi > lo, np.maximum((hi - lo) / levels, _TINY), 1.0)
    zps = np.clip(_round_oracle(-lo / scales), 0, levels).astype(np.int64)
    codes = np.clip(_round_oracle(x / scales) + zps, 0, levels).astype(np.int64)
    return codes, scales.reshape(-1), zps.reshape(-1), (codes - zps) * scales


# exact ties at scale 1 (a group holding +-qmax, or spanning 2**b - 1), the
# largest double below 0.5, signed zeros, the grid ends and past them, and
# the smallest subnormal
_EDGES = [0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 6.5, -6.5, 7.0, -7.0, 7.5, -7.5, 8.0,
          126.5, -126.5, 127.0, -127.0, 127.5, 128.0, -128.0, 254.5, 255.0, 1000.0,
          0.49999999999999994, -0.49999999999999994, 5e-324, -5e-324]
_ELEMENTS = st.one_of(st.sampled_from(_EDGES),
                      st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5)
_INPUTS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=_ELEMENTS),
    st.builds(np.full, _SHAPES, st.sampled_from(_EDGES)),  # constant and all-zero groups
)
_QUANTIZERS = {"symmetric": int_quantize_symmetric, "asymmetric": int_quantize_asymmetric}


def _signed_zeros(a):
    return int(np.count_nonzero(np.signbit(a) & (a == 0)))


@settings(max_examples=300, deadline=None)
@given(_INPUTS)
@example(np.array([[127.0, 0.5, -0.5, 1.5, -1.5, 126.5, -126.5, 0.49999999999999994, -0.0]]))
@example(np.array([[-127.5, 127.5, 0.5, -0.5, 0.0, -0.0, 1000.0]]))
@example(np.array([[7.0, 6.5, -6.5, 0.5, -0.5], [0.0, 0.0, -0.0, 0.0, 0.0]]))
@example(np.array([[5e-324, -5e-324, 0.0], [-0.0, -0.0, -0.0]]))
def test_kernel_matches_formula_oracle(x):
    for mode, quantize in _QUANTIZERS.items():
        for bits in (4, 8):
            for axis in range(-x.ndim, x.ndim):
                q = quantize(x, axis, bits)
                codes, scales, zps, recon = _oracle(x, axis, bits, mode)
                out = int_dequantize(q).data
                assert q.codes.dtype == np.int16 and q.codes.flags.c_contiguous
                assert np.array_equal(q.codes, codes)
                assert q.scales.tobytes() == scales.tobytes()
                if zps is None:
                    assert q.zero_points is None
                else:
                    assert np.array_equal(q.zero_points, zps)
                assert out.tobytes() == recon.tobytes()  # bit for bit, sign of zero included
                assert _signed_zeros(out) == 0


@pytest.mark.parametrize("layout", [np.asfortranarray, np.transpose, lambda a: a[:, ::2]],
                         ids=["fortran", "transposed", "strided"])
@pytest.mark.parametrize("mode", sorted(_QUANTIZERS))
def test_codes_are_compact_and_c_contiguous(layout, mode):
    base = np.random.default_rng(7).normal(size=(12, 10))
    base[0, :3] = [-0.0, -1e-9, 0.0]  # round to code 0 (or to the zero-point)
    x = layout(base)
    assert not x.flags.c_contiguous
    for axis in range(x.ndim):
        q = _QUANTIZERS[mode](x, axis, 8)
        assert q.codes.dtype == np.int16
        assert q.codes.flags.c_contiguous
        out = int_dequantize(q).data
        assert out.flags.c_contiguous
        assert out.tobytes() == _oracle(x, axis, 8, mode)[3].tobytes()
        assert _signed_zeros(out) == 0


@pytest.mark.parametrize("x,codes", [
    ([[5e-324, 0.0]], [[1, 0]]),
    ([[-5e-324, 1e-323, 0.0]], [[-1, 2, 0]]),
])
def test_scale_below_smallest_subnormal_stays_positive(x, codes):
    # max|x| / 127 rounds to 0 here; the scale stays the smallest subnormal, so
    # the codes are finite integers and these tiny groups reconstruct exactly
    q = int_quantize_symmetric(np.array(x), 0, 8)
    assert q.scales[0] == _TINY
    assert q.codes.tolist() == codes
    assert np.array_equal(int_dequantize(q).data, x)
    q = int_quantize_asymmetric(np.array(x), 0, 8)
    assert q.scales[0] == _TINY
    assert np.array_equal(int_dequantize(q).data, x)


def _half_steps(top):
    """n + 0.5 for n = 0 .. top - 1, and one ulp to either side of each."""
    steps = np.arange(top) + 0.5
    return np.concatenate([np.nextafter(steps, 0.0), steps, np.nextafter(steps, np.inf)])


def _half_step_groups(mode, bits):
    """Groups, one per row, whose quotients x / scale sit on every half step of the code grid
    and one ulp to either side; a row is padded with its first element, which moves no extreme.

    A symmetric row holds +-qmax, so its scale is 1. The asymmetric rows span [0, 2**b - 1]
    and [-(2**b - 1), 0], scale 1 again, and one row per step p spans [-p, 2**b - 1 - p],
    so that its zero-point is p rounded.
    """
    if mode == "symmetric":
        qmax = 2 ** (bits - 1) - 1
        probes = _half_steps(qmax)
        rows = [[qmax, *probes, *-probes]]
    else:
        levels = 2**bits - 1
        probes = _half_steps(levels)
        rows = [[0.0, levels, *probes], [-levels, 0.0, *-probes]]
        rows += [[-p, levels - p] for p in probes]
    width = max(map(len, rows))
    return np.array([row + [row[0]] * (width - len(row)) for row in rows])


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("mode", sorted(_QUANTIZERS))
def test_kernel_rounds_every_half_step_as_the_oracle(mode, bits, axis):
    x = _half_step_groups(mode, bits)
    x = x if axis == 0 else x.T
    q = _QUANTIZERS[mode](x, axis, bits)
    codes, scales, zps, recon = _oracle(x, axis, bits, mode)
    assert np.array_equal(q.codes, codes)
    assert q.scales.tobytes() == scales.tobytes()
    if zps is not None:
        assert np.array_equal(q.zero_points, zps)
    assert int_dequantize(q).data.tobytes() == recon.tobytes()
