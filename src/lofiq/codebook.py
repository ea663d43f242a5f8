"""Generic ExMy floating-point formats: specs, exhaustive value sets, projection.

Every element format in this package (FP8/FP6/FP4 variants, the power-of-two
scale format, the unsigned block-scale format) is described by an FpFormatSpec
and realized as a Codebook: the complete sorted set of finite representable
values. Rounding a real onto a codebook uses round-to-nearest with ties to
the even mantissa code.

Conventions baked into the builtin specs:
  * E4M3 has no infinities; the top codepoint per sign (exp and mantissa all
    ones) is NaN, so the max finite value is 1.75 * 2**8 = 448.
  * E5M2 reserves the all-ones exponent for Inf/NaN, so the max finite value
    is 1.75 * 2**15.
  * E3M2, E2M3, E2M1 have neither Inf nor NaN: every codepoint is finite.
  * E8M0 is an unsigned pure power-of-two format, bias 127, one NaN
    codepoint, values 2**-127 .. 2**127. It encodes no zero.
  * E6M2U is the unsigned block-scale format with values m * 2**(e-2),
    m in 4..7, clipped to [2**-48, 1.5 * 2**15].
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyTensor, UnknownFormat
from .tensor import as_array

__all__ = [
    "FpFormatSpec",
    "Codebook",
    "builtin_spec",
    "builtin_names",
    "enumerate_codebook",
    "mxint8_codebook",
    "project",
    "density_in_interval",
    "empirical_cdf",
]


@dataclass(frozen=True)
class FpFormatSpec:
    """Declarative description of an ExMy format.

    ``nan_encodings`` counts codepoints (per sign) reserved as NaN at the top
    of the encoding space when the format has no infinities. ``kind`` selects
    the enumeration rule: "standard" IEEE-like layouts, "pow2" for the
    exponent-only scale format, "scale-u8" for the unsigned mantissa-scale
    format defined by its m * 2**(e-2) encode rule.
    """

    name: str
    exponent_bits: int
    mantissa_bits: int
    signed: bool = True
    bias: int = 0
    has_inf: bool = False
    nan_encodings: int = 0
    kind: str = "standard"

    @property
    def max_finite(self):
        if self.kind == "pow2":
            return 2.0 ** (2**self.exponent_bits - 2 - self.bias)
        if self.kind == "scale-u8":
            return 1.5 * 2.0**15
        top_exp = 2**self.exponent_bits - 1 - (1 if self.has_inf else 0)
        top_man = 2**self.mantissa_bits - 1 - (0 if self.has_inf else self.nan_encodings)
        return (1.0 + top_man / 2.0**self.mantissa_bits) * 2.0 ** (top_exp - self.bias)

    @property
    def min_normal(self):
        if self.kind == "pow2":
            return 2.0**-self.bias
        if self.kind == "scale-u8":
            return 2.0**-48
        return 2.0 ** (1 - self.bias)

    @property
    def min_subnormal(self):
        """Smallest positive value (equals min_normal when subnormal-free)."""
        if self.kind in ("pow2", "scale-u8") or self.mantissa_bits == 0:
            return self.min_normal
        return 2.0 ** (1 - self.bias - self.mantissa_bits)

    @property
    def max_subnormal(self):
        if self.kind in ("pow2", "scale-u8") or self.mantissa_bits == 0:
            return None
        frac = (2**self.mantissa_bits - 1) / 2**self.mantissa_bits
        return frac * 2.0 ** (1 - self.bias)


_BUILTINS = {
    "e5m2": FpFormatSpec("e5m2", 5, 2, bias=15, has_inf=True),
    "e4m3": FpFormatSpec("e4m3", 4, 3, bias=7, nan_encodings=1),
    "e3m2": FpFormatSpec("e3m2", 3, 2, bias=3),
    "e2m3": FpFormatSpec("e2m3", 2, 3, bias=1),
    "e2m1": FpFormatSpec("e2m1", 2, 1, bias=1),
    "e8m0": FpFormatSpec("e8m0", 8, 0, signed=False, bias=127, nan_encodings=1, kind="pow2"),
    "e6m2u": FpFormatSpec("e6m2u", 6, 2, signed=False, bias=48, kind="scale-u8"),
}


def builtin_names():
    return sorted(_BUILTINS)


def builtin_spec(name):
    """Look up one of the built-in format specs by (case-insensitive) name."""
    key = name.strip().lower()
    if key not in _BUILTINS:
        raise UnknownFormat(f"unknown format {name!r}; known: {', '.join(builtin_names())}")
    return _BUILTINS[key]


@dataclass(frozen=True)
class Codebook:
    """All finite values of a format, sorted ascending, with tie-break codes.

    ``codes[i]`` is the mantissa (or grid) integer of values[i]; adjacent
    values always carry codes of opposite parity, which makes the
    ties-to-even rule in project() well defined. A codebook whose values are
    exactly the grid of a standard spec with at least one mantissa bit is
    rounded in closed form; any other is searched.
    """

    spec: FpFormatSpec
    values: np.ndarray
    codes: np.ndarray
    _mids: np.ndarray = field(repr=False, default=None)
    _exmy: tuple = field(init=False, repr=False, default=None)  # (emin, y) of a true ExMy grid

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        c = np.ascontiguousarray(self.codes, dtype=np.int64)
        # Midpoints are exact in float64 for every builtin format: neighbours
        # share (or nearly share) a binade and have few mantissa bits.
        mids = (v[:-1] + v[1:]) * 0.5
        for arr in (v, c, mids):
            arr.flags.writeable = False
        spec = self.spec
        exmy = None
        if (spec.kind == "standard" and spec.mantissa_bits >= 1
                and len(v) == _grid_size(spec)
                and np.array_equal(v, _standard_grid(spec)[0])):
            exmy = (1 - spec.bias, spec.mantissa_bits)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "codes", c)
        object.__setattr__(self, "_mids", mids)
        object.__setattr__(self, "_exmy", exmy)

    def __len__(self):
        return len(self.values)

    @property
    def max_finite(self):
        return float(self.values[-1])

    def contains(self, x):
        i = np.searchsorted(self.values, x)
        return bool(np.all((i < len(self.values)) & (self.values[np.minimum(i, len(self.values) - 1)] == x)))


def _positive_count(spec):
    """Number of non-negative finite values of a standard spec."""
    top_exp = 2**spec.exponent_bits - 1 - (1 if spec.has_inf else 0)
    return 2**spec.mantissa_bits * (top_exp + 1) - (0 if spec.has_inf else spec.nan_encodings)


def _grid_size(spec):
    n = _positive_count(spec)
    return 2 * n - 1 if spec.signed else n


def _standard_grid(spec):
    """Sorted finite values and mantissa codes of a standard spec.

    Codepoint k (sign bit aside) has exponent field k >> y and mantissa
    field k & (2**y - 1); exponent field 0 holds zero and the subnormals.
    """
    y = spec.mantissa_bits
    k = np.arange(_positive_count(spec), dtype=np.int64)
    c, m = k >> y, k & (2**y - 1)
    pos = np.ldexp(np.where(c == 0, m, m + 2**y).astype(np.float64),
                   np.maximum(c, 1) - spec.bias - y)
    if not spec.signed:
        return pos, m
    return np.concatenate([-pos[:0:-1], pos]), np.concatenate([m[:0:-1], m])


def enumerate_codebook(spec):
    """Enumerate every finite representable value of ``spec`` exactly once."""
    if isinstance(spec, str):
        spec = builtin_spec(spec)
    if spec.kind == "pow2":
        codes = np.arange(0, 2**spec.exponent_bits - spec.nan_encodings, dtype=np.int64)
        values = np.ldexp(1.0, codes - spec.bias)
        return Codebook(spec, values, codes)
    if spec.kind == "scale-u8":
        vals, codes = [], []
        for e in range(-spec.bias, 2**spec.exponent_bits - spec.bias):
            for m in range(4, 8):
                v = math.ldexp(m, e - 2)
                if v <= spec.max_finite:
                    vals.append(v)
                    codes.append(m)
        return Codebook(spec, np.array(vals), np.array(codes))
    return Codebook(spec, *_standard_grid(spec))


def mxint8_codebook():
    """Symmetric integer element grid {-127..127}/64 used by the MX int config."""
    codes = np.arange(-127, 128, dtype=np.int64)
    spec = FpFormatSpec("int8", 0, 7, bias=0)
    return Codebook(spec, codes / 64.0, codes)


# -- round-to-nearest projection ---------------------------------------------
#
# A true ExMy grid rounds in closed form: with q = max(floor(log2|x|), emin) - y
# the grid step around x is 2**q, so rint(x / 2**q) * 2**q is the nearest
# value, and rint's ties-to-even on that integer is the even mantissa code
# (for y >= 1 the integer's parity is the code's). Both scalings by 2**q are
# exact. Any other codebook searches its sorted values instead: the midpoint
# of two adjacent values is exact in float64, so strict inequality against it
# is the exact nearest test and equality is the exact tie test.

def _round_exmy(x, lo, hi, emin, y):
    out = np.clip(x, lo, hi)
    _, q = np.frexp(out)
    q -= 1 + y
    np.maximum(q, emin - y, out=q)
    np.ldexp(out, -q, out=out)
    np.rint(out, out=out)
    np.ldexp(out, q, out=out)
    out += 0.0  # -0.0 -> +0.0: the codebook holds only +0.0
    return out


def _search_nearest(values, codes, mids, x):
    xc = np.clip(x, values[0], values[-1])
    i = np.searchsorted(values, xc)
    i = np.clip(i, 1, len(values) - 1)
    left = values[i - 1]
    right = values[i]
    mid = mids[i - 1]
    out = np.where(xc > mid, right, left)
    tie = xc == mid
    if np.any(tie):
        swap = tie & (codes[i - 1] % 2 != 0) & (codes[i] % 2 == 0)
        out = np.where(swap, right, out)
    return out


def project(cb, x):
    """Round finite input(s) onto the nearest codebook value.

    Values beyond the extremes clip to them; exact midpoints resolve to the
    neighbour with the even mantissa code. A zero result is +0.0. NaN or
    Inf input raises NonFiniteValue.
    """
    arr = as_array(x)
    flat = arr.reshape(-1)
    if cb._exmy is not None:
        out = _round_exmy(flat, cb.values[0], cb.values[-1], *cb._exmy)
    else:
        out = _search_nearest(cb.values, cb.codes, cb._mids, flat)
    return out.reshape(arr.shape)


def density_in_interval(cb, lo, hi):
    """Count codebook values v with lo <= v <= hi."""
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    left = np.searchsorted(cb.values, lo, side="left")
    right = np.searchsorted(cb.values, hi, side="right")
    return int(right - left)


def empirical_cdf(t, n_points):
    """CDF of absolute values sampled at n_points order-statistic quantiles.

    Returns a list of (magnitude, cumulative fraction) pairs where the
    fraction is the exact rank of that magnitude; step-evaluating the pairs
    reproduces the empirical distribution of |values|.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    arr = as_array(t)
    if arr.size == 0:
        raise EmptyTensor("cannot build a CDF from an empty tensor")
    mags = np.sort(np.abs(arr), axis=None)
    qs = np.linspace(0.0, 1.0, n_points)
    points = np.quantile(mags, qs, method="lower")
    fractions = np.searchsorted(mags, points, side="right") / mags.size
    return [(float(m), float(f)) for m, f in zip(points, fractions)]
