import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lofiq.cli import main as cli_main
from lofiq.codebook import (
    Codebook,
    FpFormatSpec,
    builtin_names,
    builtin_spec,
    enumerate_codebook,
    project,
)
from lofiq.errors import NonFiniteValue, UnknownFormat
from lofiq.mx import resolve_element
from lofiq.registry import parse_format
from lofiq.tensor import tensor

from oracles import brute_force_nearest, enumerate_by_codepoints, min_distances, walk_codepoints

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

# (exponent bits, mantissa bits, bias, has_inf, NaN codepoints at the top)
_STANDARD = {
    "e2m1": (2, 1, 1, False, 0),
    "e2m3": (2, 3, 1, False, 0),
    "e3m2": (3, 2, 3, False, 0),
    "e4m3": (4, 3, 7, False, 1),
    "e5m2": (5, 2, 15, True, 0),
}
GRIDS = ("e2m1", "e2m3", "e3m2", "e4m3", "e5m2", "int8", "e8m0", "e6m2u")
# The grids with a rounding rule: all but e8m0, which has no mantissa bit.
RULED = tuple(name for name in GRIDS if name != "e8m0")


def independent_grid(name):
    """(values, tie codes) of a builtin grid from its definition, without lofiq."""
    if name == "e8m0":  # 2**-127 .. 2**127, ties to the even exponent code
        e = np.arange(-127, 128)
        return np.ldexp(1.0, e), e + 127
    if name == "e6m2u":  # m * 2**(e-2), m in 4..7, kept within [2**-48, 1.5 * 2**15]
        grid = [(math.ldexp(m, e - 2), m) for e in range(-48, 16) for m in range(4, 8)
                if 2.0**-48 <= math.ldexp(m, e - 2) <= 1.5 * 2**15]
        return np.array([v for v, _ in grid]), np.array([m for _, m in grid])
    if name == "int8":  # {-127..127} / 64
        k = np.arange(-127, 128)
        return k / 64.0, k
    found = walk_codepoints(*_STANDARD[name])
    values = sorted(found)
    return np.array(values), np.array([found[v] for v in values])


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

    @pytest.mark.parametrize("name", GRIDS)
    def test_values_and_tie_parity_match_definition(self, name):
        cb = enumerate_codebook(name)
        values, codes = independent_grid(name)
        assert np.array_equal(cb.values, values)
        assert np.array_equal(cb.codes % 2, codes % 2)

    def test_builtins_are_the_eight_grids(self):
        assert builtin_names() == sorted(GRIDS)

    def test_name_lookup_is_shared(self):
        cb = enumerate_codebook("e4m3")
        assert enumerate_codebook(" E4M3") is cb
        assert enumerate_codebook(builtin_spec("e4m3")) is cb
        assert resolve_element("e4m3") is cb
        assert parse_format("e4m3").cb is cb
        assert resolve_element("int8") is enumerate_codebook("int8")

    def test_codebook_is_the_grid_of_its_spec(self):
        spec = builtin_spec("e4m3")
        cb = Codebook(spec)
        assert cb == enumerate_codebook("e4m3") and hash(cb) == hash(enumerate_codebook(spec))
        assert np.array_equal(cb.values, enumerate_codebook(spec).values)
        assert not cb.values.flags.writeable and not cb.codes.flags.writeable

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

    def test_returns_an_ndarray(self):
        out = project(enumerate_codebook("e2m1"), tensor([0.3, -7.0], "t"))
        assert type(out) is np.ndarray and out.tolist() == [0.5, -6.0]

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

    @pytest.mark.parametrize("name", RULED)
    @settings(max_examples=200, deadline=None)
    @given(finite)
    def test_idempotent_and_odd(self, name, x):
        cb = enumerate_codebook(name)
        values, codes = independent_grid(name)
        p = project(cb, x)
        assert p == brute_force_nearest(values, codes, np.clip(x, values[0], values[-1]))[0]
        assert project(cb, p) == p
        if cb.spec.signed:
            assert project(cb, -x) == -p

    @pytest.mark.parametrize("name", RULED)
    def test_matches_brute_force_with_positive_zero(self, name):
        cb = enumerate_codebook(name)
        rng = np.random.default_rng(43)
        x = rng.normal(size=2000) * np.exp(rng.uniform(-60, 60, 2000))
        tiny = cb.values[cb.values > 0][0] / 4  # rounds to zero where zero exists
        mids = (cb.values[:-1] + cb.values[1:]) * 0.5
        x = np.concatenate([x, cb.values, mids, [0.0, -0.0, tiny, -tiny, -5e-324, 1e308]])
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
        got = project(cb, x)
        # beyond the extremes project clips; the oracle sees the clipped input
        want = brute_force_nearest(cb.values, cb.codes, np.clip(x, cb.values[0], cb.values[-1]))
        assert np.array_equal(got, want)
        assert not np.any(np.signbit(got[got == 0.0]))

    def test_closed_form_only_on_true_grids(self):
        for name in ("e2m1", "e2m3", "e3m2", "e4m3", "e5m2"):
            assert enumerate_codebook(name)._exmy is not None, name
        assert enumerate_codebook("int8")._exmy == (1, 7)
        assert enumerate_codebook("e6m2u")._exmy == (-48, 2)
        # e8m0 has no mantissa bit to carry the tie parity
        e8m0 = enumerate_codebook("e8m0")
        assert e8m0._exmy is None
        with pytest.raises(UnknownFormat, match="no rounding rule"):
            project(e8m0, [1.0, 3.0])

    def test_signed_grid_without_zero_has_no_rule(self):
        spec = FpFormatSpec("e3m2nz", 3, 2, bias=3, subnormals=False)
        cb = enumerate_codebook(spec)
        assert cb._exmy is None
        assert 0.0 not in cb.values and np.array_equal(cb.values, -cb.values[::-1])
        assert len(cb) == 2 * 32
        for refuse in (lambda: project(cb, [0.5, 0.01]), lambda: resolve_element(spec),
                       lambda: resolve_element(cb)):
            with pytest.raises(UnknownFormat, match="no rounding rule"):
                refuse()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", [
        lambda: enumerate_codebook("e4m3"),
        lambda: enumerate_codebook("e8m0"),
    ], ids=["e4m3-closed-form", "e8m0-search"])
    def test_nonfinite_rejected(self, make, bad):
        cb = make()
        with pytest.raises(NonFiniteValue):
            project(cb, np.array([[1.0, bad], [0.5, -0.25]]))
        with pytest.raises(NonFiniteValue):
            project(cb, bad)

    def test_mxint8_grid(self):
        cb = enumerate_codebook("int8")
        assert len(cb) == 255
        assert cb.values[-1] == 127 / 64
        assert project(cb, 1.0) == 1.0
        # tie at 3/128 between 2/128 and 4/128 resolves to the even code 2/64
        assert project(cb, 3 / 128) == 1 / 32


class TestDensity:
    """The count_in_interval line of ``lofiq enumerate --interval``."""

    @staticmethod
    def count(capsys, name, lo, hi):
        assert cli_main(["enumerate", name, "--interval", str(lo), str(hi)]) == 0
        lines = capsys.readouterr().out.splitlines()
        return int(next(ln for ln in lines if ln.startswith("count_in_interval: ")).split()[1])

    def test_e2m1_unit_interval(self, capsys):
        assert self.count(capsys, "e2m1", -1, 1) == 5

    def test_zero_always_counted(self, capsys):
        for name in ("e2m1", "e4m3", "e5m2"):
            assert self.count(capsys, name, 0, 0) == 1

    def test_e4m3_unit_interval(self, capsys):
        assert self.count(capsys, "e4m3", -1, 1) == 113
