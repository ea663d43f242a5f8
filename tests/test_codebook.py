import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lofiq.codebook import (
    Codebook,
    builtin_spec,
    density_in_interval,
    enumerate_codebook,
    mxint8_codebook,
    project,
)
from lofiq.errors import NonFiniteValue, UnknownFormat
from lofiq.hif8 import hif8_enumerate

from oracles import brute_force_nearest, enumerate_by_codepoints, min_distances

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestBuiltinExtremes:
    def test_e4m3(self):
        s = builtin_spec("e4m3")
        assert s.max_finite == 448.0 == 1.75 * 2**8
        assert s.min_normal == 2.0**-6
        assert s.max_subnormal == 1.75 * 2.0**-7
        assert s.min_subnormal == 2.0**-9

    def test_e5m2(self):
        s = builtin_spec("e5m2")
        assert s.max_finite == 1.75 * 2.0**15
        assert s.min_normal == 2.0**-14
        # with min subnormal 2**-16 and two mantissa bits the largest
        # subnormal is forced to 3 * 2**-16
        assert s.max_subnormal == 3.0 * 2.0**-16
        assert s.min_subnormal == 2.0**-16

    def test_e2m1(self):
        assert builtin_spec("e2m1").max_finite == 6.0

    def test_e6m2u_bounds(self):
        s = builtin_spec("e6m2u")
        assert s.max_finite == 1.5 * 2.0**15
        assert s.min_normal == 2.0**-48

    def test_unknown(self):
        with pytest.raises(UnknownFormat):
            builtin_spec("e9m9")


class TestEnumerate:
    def test_e2m1_exact_set(self):
        cb = enumerate_codebook("e2m1")
        expected = sorted([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
                          + [-0.5, -1.0, -1.5, -2.0, -3.0, -4.0, -6.0])
        assert cb.values.tolist() == expected
        assert len(cb) == 15

    @pytest.mark.parametrize("name,exp,man,bias,has_inf,nan_top", [
        ("e2m1", 2, 1, 1, False, 0),
        ("e2m3", 2, 3, 1, False, 0),
        ("e3m2", 3, 2, 3, False, 0),
        ("e4m3", 4, 3, 7, False, 1),
        ("e5m2", 5, 2, 15, True, 0),
    ])
    def test_matches_codepoint_walk(self, name, exp, man, bias, has_inf, nan_top):
        cb = enumerate_codebook(name)
        oracle = enumerate_by_codepoints(exp, man, bias, has_inf, nan_top)
        assert np.array_equal(cb.values, oracle)

    def test_e4m3_count(self):
        assert len(enumerate_codebook("e4m3")) == 253

    def test_e8m0_powers(self):
        cb = enumerate_codebook("e8m0")
        assert len(cb) == 255
        assert cb.values[0] == 2.0**-127
        assert cb.values[-1] == 2.0**127
        assert np.array_equal(cb.values, np.ldexp(1.0, np.arange(-127, 128)))

    def test_sorted_unique_symmetric(self):
        for name in ("e2m1", "e2m3", "e3m2", "e4m3", "e5m2"):
            v = enumerate_codebook(name).values
            assert np.all(np.diff(v) > 0)
            assert 0.0 in v
            assert np.array_equal(v, -v[::-1])

    def test_extremes_match_spec(self):
        for name in ("e2m1", "e2m3", "e3m2", "e4m3", "e5m2", "e8m0", "e6m2u"):
            spec = builtin_spec(name)
            cb = enumerate_codebook(spec)
            assert cb.values[-1] == spec.max_finite
            assert cb.values[cb.values > 0][0] == spec.min_subnormal


class TestProject:
    def test_representable_fixed_point(self):
        cb = enumerate_codebook("e2m1")
        assert project(cb, 6.0) == 6.0

    def test_clip_beyond_max(self):
        cb = enumerate_codebook("e2m1")
        assert project(cb, 7.0) == 6.0
        assert project(cb, -123.0) == -6.0

    def test_tie_resolves_to_even_code(self):
        cb = enumerate_codebook("e2m1")
        # 2.5 sits exactly between 2 (code 0) and 3 (code 1)
        assert project(cb, 2.5) == 2.0
        assert project(cb, -2.5) == -2.0

    def test_all_midpoints_pick_even_code(self):
        for name in ("e2m1", "e2m3", "e3m2", "e4m3", "e5m2"):
            cb = enumerate_codebook(name)
            mids = (cb.values[:-1] + cb.values[1:]) * 0.5
            got = project(cb, mids)
            expected = brute_force_nearest(cb.values, cb.codes, mids)
            assert np.array_equal(got, expected), name

    @pytest.mark.parametrize("name", ["e2m1", "e2m3", "e3m2", "e4m3", "e5m2"])
    def test_rtn_optimality(self, name):
        cb = enumerate_codebook(name)
        rng = np.random.default_rng(42)
        x = rng.normal(size=10_000) * np.exp(rng.uniform(-12, 12, 10_000))
        p = project(cb, x)
        dmin = min_distances(cb.values, x)
        assert np.all(np.abs(p - np.clip(x, cb.values[0], cb.values[-1]))
                      <= dmin + 0.0)
        # interior inputs: projection achieves the exhaustive minimum
        interior = np.abs(x) <= cb.max_finite
        assert np.all(np.abs(p[interior] - x[interior]) == dmin[interior])

    @settings(max_examples=200, deadline=None)
    @given(finite)
    def test_idempotent_and_odd(self, x):
        cb = enumerate_codebook("e4m3")
        p = project(cb, x)
        assert project(cb, p) == p
        assert project(cb, -x) == -p

    @pytest.mark.parametrize("make", [
        *(lambda n=n: enumerate_codebook(n) for n in ("e2m1", "e2m3", "e3m2", "e4m3", "e5m2")),
        mxint8_codebook,
        lambda: enumerate_codebook("e8m0"),
        lambda: enumerate_codebook("e6m2u"),
        hif8_enumerate,
    ], ids=["e2m1", "e2m3", "e3m2", "e4m3", "e5m2", "int8", "e8m0", "e6m2u", "hif8"])
    def test_matches_brute_force_with_positive_zero(self, make):
        cb = make()
        rng = np.random.default_rng(43)
        x = rng.normal(size=2000) * np.exp(rng.uniform(-60, 60, 2000))
        tiny = cb.values[cb.values > 0][0] / 4  # rounds to zero where zero exists
        x = np.concatenate([x, cb.values, cb._mids, [0.0, -0.0, tiny, -tiny, -5e-324, 1e308]])
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
        got = project(cb, x)
        # beyond the extremes project clips; the oracle sees the clipped input
        want = brute_force_nearest(cb.values, cb.codes, np.clip(x, cb.values[0], cb.values[-1]))
        assert np.array_equal(got, want)
        assert not np.any(np.signbit(got[got == 0.0]))

    def test_closed_form_only_on_true_grids(self):
        for name in ("e2m1", "e2m3", "e3m2", "e4m3", "e5m2"):
            assert enumerate_codebook(name)._exmy is not None, name
        assert mxint8_codebook()._exmy == (1, 7)
        for cb in (enumerate_codebook("e8m0"), enumerate_codebook("e6m2u"), hif8_enumerate()):
            assert cb._exmy is None, cb.spec.name
        # a user-built subset of a standard grid keeps the search
        full = enumerate_codebook("e4m3")
        keep = slice(None, None, 2)
        subset = Codebook(full.spec, full.values[keep], np.arange(len(full))[keep] // 2)
        assert subset._exmy is None
        assert project(subset, 0.009) == brute_force_nearest(subset.values, subset.codes, 0.009)[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", [
        lambda: enumerate_codebook("e4m3"),
        lambda: enumerate_codebook("e8m0"),
        lambda: Codebook(builtin_spec("e2m1"), np.array([-2.0, 0.0, 0.5, 3.0]),
                         np.array([1, 0, 1, 0])),
    ], ids=["e4m3-closed-form", "e8m0-search", "user-search"])
    def test_nonfinite_rejected(self, make, bad):
        cb = make()
        with pytest.raises(NonFiniteValue):
            project(cb, np.array([[1.0, bad], [0.5, -0.25]]))
        with pytest.raises(NonFiniteValue):
            project(cb, bad)

    def test_mxint8_grid(self):
        cb = mxint8_codebook()
        assert len(cb) == 255
        assert cb.values[-1] == 127 / 64
        assert project(cb, 1.0) == 1.0
        # tie at 3/128 between 2/128 and 4/128 resolves to the even code 2/64
        assert project(cb, 3 / 128) == 1 / 32


class TestDensity:
    def test_e2m1_unit_interval(self):
        assert density_in_interval(enumerate_codebook("e2m1"), -1, 1) == 5

    def test_zero_always_counted(self):
        for name in ("e2m1", "e4m3", "e5m2"):
            assert density_in_interval(enumerate_codebook(name), 0, 0) == 1

    def test_e4m3_unit_interval(self):
        assert density_in_interval(enumerate_codebook("e4m3"), -1, 1) == 113
