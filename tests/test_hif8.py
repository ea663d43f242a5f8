import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lofiq.hif8 import (
    DEFAULT_K,
    MAX_NORMAL,
    MIN_SUBNORMAL,
    ScaledHif8Quantized,
    _quantize_into,
    hif8_enumerate,
    hif8_quantize,
    hif8_scaled_dequantize,
    hif8_scaled_quantize,
)
from lofiq.errors import NonFiniteValue
from lofiq.registry import parse_format
from lofiq.tensor import tensor

from oracles import hif8_round

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

VALUES = hif8_enumerate()


def kernel_value(x):
    """The array kernel's quantization of one real."""
    return float(hif8_quantize(tensor(x)).data)


class TestWorkedValues:
    def test_representable(self):
        assert kernel_value(1.0) == hif8_round(1.0) == 1.0

    def test_point_three(self):
        # exponent -2, three mantissa bits, grid index 10 on the 2**-5 grid
        assert kernel_value(0.3) == hif8_round(0.3) == 0.3125

    def test_hundred(self):
        # exponent 6, two mantissa bits, step 16
        assert kernel_value(100.0) == hif8_round(100.0) == 96.0

    def test_zero(self):
        assert kernel_value(0.0) == hif8_round(0.0) == 0.0

    def test_array_matches_scalar(self):
        arr = np.array([1.0, 0.3, 100.0, 0.0, -0.3])
        out = hif8_quantize(tensor(arr))
        assert out.data.tolist() == [1.0, 0.3125, 96.0, 0.0, -0.3125]

    def test_kernel_matches_scalar(self):
        rng = np.random.default_rng(99)
        wild = rng.normal(size=512) * np.exp(rng.uniform(-60, 60, 512))
        # every binade edge 2**k (2**15, 2**-22 and 2**-23 among them), the
        # |e| = 3/4, 7/8, 15/16 width switches, and the neighbours of both
        edges = np.ldexp(1.0, np.arange(-30, 20))
        switches = np.ldexp(1.0, [3, 4, 7, 8, 15, 16, -3, -4, -7, -8, -15, -16])
        x = np.concatenate([wild, [0.0, 1e308, 5e-324], edges, switches * 1.5,
                            switches * 1.0625])
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, 0.0)])
        x = np.concatenate([x, -x])
        want = np.array([hif8_round(v) for v in x])
        got = hif8_quantize(tensor(x)).data
        assert np.array_equal(got, want)
        # array_equal treats -0.0 == +0.0; the -0.0 input (from -x) must give +0.0
        assert np.array_equal(np.signbit(got), np.signbit(want))


    def test_in_place_rounding_matches_the_oracle_bit_for_bit(self):
        mids = (VALUES[:-1] + VALUES[1:]) * 0.5
        subnormals = [5e-324, 1e-320, 2.0**-1060, np.nextafter(2.0**-1022, 0.0)]
        x = np.concatenate([[0.0], subnormals, mids, np.nextafter(mids, np.inf),
                            np.nextafter(mids, -np.inf),
                            [np.nextafter(MAX_NORMAL, np.inf), 1.5 * MAX_NORMAL, 2.0**600,
                             1.79e308]])
        x = np.concatenate([x, -x])
        want = np.array([hif8_round(v) for v in x]).tobytes()
        assert hif8_quantize(tensor(x)).data.tobytes() == want
        # the scaled variant rounds its products in the output, signed by the source
        out = x.copy()
        with np.errstate(over="ignore"):  # 2**1023 steps of the top binade overflow, then clip
            assert _quantize_into(out, out, x) is out
        assert out.tobytes() == want


class TestEnumerate:
    def test_extremes(self):
        assert VALUES[-1] == 2.0**15
        assert VALUES[VALUES > 0][0] == 2.0**-22

    def test_count(self):
        assert len(VALUES) == 253

    def test_subnormals_are_pure_powers(self):
        pos = VALUES[VALUES > 0]
        subs = pos[pos < 2.0**-15]
        assert subs.tolist() == [2.0**e for e in range(-22, -15)]

    def test_membership(self):
        assert 0.3125 in VALUES
        assert 96.0 in VALUES
        assert 0.3 not in VALUES

    def test_mantissa_width_by_binade(self):
        # the kernel maps the binade [2**e, 2**(e+1)) of each x onto 2**nm points, with
        # nm from the |exponent| table: 3 bits for |e| <= 3, then 2, 1, 0 as the
        # magnitude leaves [2**-3, 2**4)
        for x, nm in [(1.0, 3), (10.0, 3), (20.0, 2), (300.0, 1), (2.0**14, 1),
                      (2.0**-20, 0)]:
            e = math.frexp(x)[1] - 1
            out = hif8_quantize(tensor(np.ldexp(1.0 + np.arange(1024) / 1024, e))).data
            assert np.unique(out[out < 2.0 ** (e + 1)]).size == 2**nm, x


class TestAlgorithmProperties:
    def test_output_closure(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=100_000) * np.exp(rng.uniform(-25, 15, 100_000))
        out = hif8_quantize(tensor(x)).data
        idx = np.searchsorted(VALUES, out)
        assert np.all(VALUES[np.clip(idx, 0, len(VALUES) - 1)] == out)

    def test_idempotent_on_members(self):
        rng = np.random.default_rng(32)
        sample = rng.choice(VALUES, size=200, replace=False)
        out = hif8_quantize(tensor(sample)).data
        assert np.array_equal(out, sample)

    def test_ties_go_away_from_zero(self):
        lo, hi = VALUES[:-1], VALUES[1:]
        mids = (lo + hi) * 0.5
        assert mids.size == 252 and np.array_equal(mids - lo, hi - mids)  # exact midpoints
        out = hif8_quantize(tensor(mids)).data
        assert np.array_equal(out, np.where(np.abs(lo) > np.abs(hi), lo, hi))
        assert [hif8_round(m) for m in mids] == out.tolist()

    @settings(max_examples=300, deadline=None)
    @given(finite)
    def test_odd_symmetry(self, x):
        pos, neg = hif8_quantize(tensor([x, -x])).data
        assert neg == -pos and pos == hif8_round(x)

    def test_step_coarsens_with_exponent(self):
        def step(e):
            nm = 3 if abs(e) <= 3 else 2 if abs(e) <= 7 else 1 if abs(e) <= 15 else 0
            return math.ldexp(1.0, e - nm)

        steps = [step(e) for e in range(3, 16)]
        assert steps == sorted(steps)

    def test_saturation(self):
        for x, want in [(1e30, MAX_NORMAL), (-1e30, -MAX_NORMAL), (1.4 * 2.0**15, MAX_NORMAL)]:
            assert kernel_value(x) == hif8_round(x) == want, x

    def test_underflow_to_min_subnormal(self):
        # nonzero magnitudes below the format floor land on the floor
        for x, want in [(1e-30, MIN_SUBNORMAL), (-1e-30, -MIN_SUBNORMAL),
                        (2.0**-22, MIN_SUBNORMAL)]:
            assert kernel_value(x) == hif8_round(x) == want, x

    def test_near_rtn(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=20_000) * np.exp(rng.uniform(-18, 12, 20_000))
        out = hif8_quantize(tensor(x)).data
        v = VALUES
        # exhaustive nearest member, then require the chosen member to be it
        # or its immediate neighbour
        i = np.clip(np.searchsorted(v, x), 1, len(v) - 1)
        lo, hi = v[i - 1], v[i]
        nearest = np.where(np.abs(x - lo) <= np.abs(hi - x), lo, hi)
        idx_near = np.searchsorted(v, nearest)
        idx_out = np.searchsorted(v, out)
        assert np.all(np.abs(idx_near - idx_out) <= 1)
        # exact nearest whenever the input binade matches the nearest
        # member's binade (away from binade boundaries and underflow)
        mism = out != nearest
        if np.any(mism):
            _, be_x = np.frexp(np.abs(x[mism]))
            _, be_n = np.frexp(np.abs(nearest[mism]))
            boundary = (be_x != be_n) | (np.abs(x[mism]) < 2.0**-22)
            assert np.all(boundary), f"{np.sum(mism)} non-boundary misses"


class TestScaled:
    def test_worked_group(self):
        t = tensor([[0.1, 0.02, -0.05]])
        q = hif8_scaled_quantize(t, 0, 16.0)
        assert np.array_equal(q.values, [[16.0, 3.25, -8.0]])
        d = hif8_scaled_dequantize(q).data
        assert np.allclose(d, [[0.1, 0.0203125, -0.05]], rtol=1e-9, atol=0)

    def test_zero_group(self):
        q = hif8_scaled_quantize(tensor([[0.0, 0.0]]), 0, 16.0)
        assert np.all(q.values == 0.0)
        assert np.all(hif8_scaled_dequantize(q).data == 0.0)

    def test_group_max_equal_k_matches_plain(self):
        rng = np.random.default_rng(34)
        g = rng.normal(size=64) * 4.0
        g[0] = 16.0  # group max equals the target K
        q = hif8_scaled_quantize(tensor([g]), 0, 16.0)
        plain = hif8_quantize(tensor(g)).data
        assert np.allclose(hif8_scaled_dequantize(q).data[0], plain, rtol=1e-9)

    def test_per_group_scales(self):
        x = np.array([[1.0, 2.0], [100.0, 50.0]])
        q = hif8_scaled_quantize(tensor(x), 0, 16.0)
        assert q.scales.shape == (2,)
        assert np.allclose(q.scales, [16.0 / 2.0, 16.0 / 100.0])

    def test_role_defaults(self):
        assert DEFAULT_K == {"weight": 16.0, "activation": 4.0, "kv": 1.0}

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            hif8_scaled_quantize(tensor([1.0]), 0, 0.0)

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.parametrize("chunk", [None, 4], ids=["default-chunk", "chunk-4"])
    def test_nonfinite_reconstruction_names_the_tensor(self, monkeypatch, chunk):
        # a record with zero scales, which quantize never makes: dequantization
        # rounds 1 * 0 to 0 and divides it by 0, and the output check of every
        # chunk names the tensor
        if chunk is not None:
            monkeypatch.setattr(sys.modules["lofiq.tensor"], "CHUNK", chunk)
        q = ScaledHif8Quantized(source=np.ones((4, 4)), scales=np.zeros(4), K=1.0, axis=0,
                                name="big")
        with pytest.raises(NonFiniteValue, match="^tensor 'big' contains NaN or Inf$") as exc:
            hif8_scaled_dequantize(q)
        assert exc.value.tensor == "big"

    @pytest.mark.parametrize("fill,K,scale", [(1e300, 1e-300, "0.0"), (1e15, 1e-300, "1e-315"),
                                              (0.0, 1e300, "inf")])
    def test_scale_out_of_range_raises_before_rounding(self, fill, K, scale):
        # a scale of 0 or inf is caught on the (n_groups,) scales, without
        # numpy's divide or multiply warnings and before any element is rounded
        x = np.ones((3, 4))
        x[1] = fill
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=rf"'w'.* group 1 is {scale} "):
                hif8_scaled_quantize(tensor(x, "w"), 0, K)
