import numpy as np
import pytest
from oracles import hif4_by_definition

from lofiq.errors import NotDivisible
from lofiq.hif4 import Q_MAX, Q_MIN, hif4_dequantize, hif4_quantize
from lofiq.tensor import tensor


def _dequant_via_scales(q):
    """Reconstruct through the three explicit scale factors instead of
    integer exponent addition."""
    s1 = np.ldexp(q.m1.astype(np.float64), q.e1 - 2)
    s2 = np.ldexp(1.0, q.e2)
    s3 = np.ldexp(1.0, q.e3)
    scale = s1[:, None, None, None] * s2[:, :, None, None] * s3[:, :, :, None]
    return q.signs * scale * (q.xhat / 4.0)


class TestWorkedExamples:
    def test_all_sevens_block(self):
        q = hif4_quantize(tensor(np.full((1, 64), 7.0)), 1)
        assert q.e1.tolist() == [0]
        assert q.m1.tolist() == [4]
        assert np.all(q.e2 == 1)
        assert np.all(q.e3 == 1)
        assert np.all(q.xhat == 7)
        assert np.all(hif4_dequantize(q).data == 7.0)

    def test_all_zero_block(self):
        q = hif4_quantize(tensor(np.zeros((1, 64))), 1)
        assert q.e1.tolist() == [-48]
        assert q.m1.tolist() == [4]
        assert np.all(q.e2 == 0) and np.all(q.e3 == 0)
        assert np.all(q.xhat == 0)
        assert np.all(hif4_dequantize(q).data == 0.0)

    def test_deep_subnormal_block(self):
        # magnitudes far below the scale clip floor: S1 pins at 2**-48 and
        # every reconstruction stays within 7 * 2**-48
        q = hif4_quantize(tensor(np.full((1, 64), 2e-15)), 1)
        assert q.e1.tolist() == [-48]
        assert q.m1.tolist() == [4]
        d = hif4_dequantize(q).data
        assert np.all(np.abs(d) <= 7 * 2.0**-48)
        assert np.any(d > 0)  # not flushed to zero outright

    def test_element_code_never_exceeds_seven(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(100, 64)) * np.exp(rng.uniform(-10, 10, (100, 1)))
        q = hif4_quantize(tensor(x), 1)
        assert q.xhat.max() == 7  # the 1.75 clip caps floor(4x + 0.5) at 7


    def test_zero_codes_take_the_sign_of_a_negative_input(self):
        # under a block maximum of 7 the step is 0.25, so |x| < 0.125 codes 0
        x = np.zeros(64)
        x[:5] = [7.0, -0.01, -0.0, 0.01, -5e-324]
        out = hif4_dequantize(hif4_quantize(tensor(x), 0)).data
        assert out[:5].tolist() == [7.0, 0.0, 0.0, 0.0, 0.0]
        assert np.signbit(out[:5]).tolist() == [False, True, False, False, True]
        assert not np.signbit(out[5:]).any()


class TestInvariants:
    def test_exponent_addition_identity(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(500, 64)) * np.exp(rng.uniform(-20, 20, (500, 1)))
        q = hif4_quantize(tensor(x), 1)
        direct = hif4_dequantize(q).data.reshape(500, 8, 2, 4)
        assert np.array_equal(direct, _dequant_via_scales(q))

    def test_block_mantissa_range_and_scale_bounds(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(500, 64)) * np.exp(rng.uniform(-40, 30, (500, 1)))
        q = hif4_quantize(tensor(x), 1)
        assert q.m1.min() >= 4 and q.m1.max() <= 8
        s1 = np.ldexp(q.m1.astype(np.float64), q.e1 - 2)
        assert np.all(s1 >= Q_MIN) and np.all(s1 <= Q_MAX)

    def test_mantissa_carry_case(self):
        # A1/7 = 1.9 rounds its 2-bit mantissa up to 8: the scale becomes the
        # next binade bottom and stays within the clip bounds
        q = hif4_quantize(tensor(np.full((1, 64), 7.0 * 1.9)), 1)
        assert q.m1.tolist() == [8]
        assert q.e1.tolist() == [0]
        s1 = np.ldexp(float(q.m1[0]), int(q.e1[0]) - 2)
        assert s1 == 2.0 == 2.0 ** (q.e1[0] + 1)

    def test_odd_symmetry_and_zero_preservation(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=(20, 64))
        x[3, 10] = 0.0
        d_pos = hif4_dequantize(hif4_quantize(tensor(x), 1)).data
        d_neg = hif4_dequantize(hif4_quantize(tensor(-x), 1)).data
        assert np.array_equal(d_pos, -d_neg)
        assert d_pos[3, 10] == 0.0

    def test_tight_microblock_error_bound(self):
        # blocks whose max hits the block-scale grid exactly keep every
        # element within half an element step
        rng = np.random.default_rng(45)
        for m1 in (4, 5, 6, 7):
            for e1 in (-3, 0, 5):
                a = 7.0 * m1 * 2.0 ** (e1 - 2)
                x = rng.uniform(-a, a, size=(4, 64))
                x[:, 0] = a  # every block max equals a, giving exact scales
                q = hif4_quantize(tensor(x), 1)
                s1 = np.ldexp(q.m1.astype(np.float64), q.e1 - 2)
                assert np.all(q.m1 == m1)
                d = hif4_dequantize(q).data
                # half of the element step on the max path, S1*S2*S3 / 8
                err = np.abs(d - x)
                assert np.all(err <= (s1[:, None] * 4.0) / 8.0)

    def test_halfrange_toggle(self):
        # sub-block ratio 3 is below the literal threshold (exactly 4) but
        # above the half-range threshold (2)
        x = np.zeros((1, 64))
        x[0, :8] = 7.0   # sub-block 0 sets the block scale
        x[0, 8:16] = 3.0  # sub-block 1 ratio A2/S1 = 3
        lit = hif4_quantize(tensor(x), 1, "literal")
        half = hif4_quantize(tensor(x), 1, "halfrange")
        assert lit.e2[0, 1] == 0
        assert half.e2[0, 1] == 1

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            hif4_quantize(tensor(np.zeros((1, 64))), 1, "bogus")

    def test_block_divisibility(self):
        with pytest.raises(NotDivisible):
            hif4_quantize(tensor(np.zeros((2, 60))), 1)

    def test_axis_zero_layout(self):
        rng = np.random.default_rng(46)
        x = rng.normal(size=(64, 3))
        q = hif4_quantize(tensor(x), 0)
        assert hif4_dequantize(q).shape == (64, 3)
        # blocks run down each column: one block, one column per trailing index
        assert q.e1.shape == (1, 3)
        assert q.xhat.shape == (1, 8, 2, 4, 3)


@pytest.mark.parametrize("axis", [0, 1])
def test_m1_decides_as_defined_at_every_half_step(axis):
    # M1 = floor(8 f + 0.5) for A1 / 7 = f * 2**(E1 + 1), f in [0.5, 1): 8 f lies in [4, 8),
    # where floor(v + 0.5) is exact. One block per row puts A1 / 7 on each half step
    # 4.5 .. 7.5 of each binade E1 = -48 .. 15, and A1 one ulp to either side; the last
    # binade's upper steps lie past the clip at 1.5 * 2**15
    a1 = np.array([7 * (n + 0.5) * 2.0 ** (e1 - 2) for e1 in range(-48, 16) for n in range(4, 8)])
    a1 = np.concatenate([np.nextafter(a1, 0.0), a1, np.nextafter(a1, np.inf)])
    x = np.zeros((a1.size, 64))
    x[:, 0] = a1 * (-1.0) ** np.arange(a1.size)
    x = x if axis == 1 else x.T
    e1, m1, e2, e3, recon = hif4_by_definition(x, axis, "literal")
    q = hif4_quantize(x, axis)
    for name, want in zip(("e1", "m1", "e2", "e3"), (e1, m1, e2, e3)):
        assert np.array_equal(getattr(q, name), want), name
    assert hif4_dequantize(q).data.tobytes() == recon.tobytes()
