"""Generic ExMy floating-point formats: specs, exhaustive value sets, projection.

Every builtin element grid (the FP8/FP6/FP4 casts, the int8 MX element, the
power-of-two and the unsigned block-scale formats) is an FpFormatSpec, one
codepoint rule for all, realized as a Codebook: the complete sorted set of
finite representable values. A grid has one rounding rule, round-to-nearest
with ties to the even code, computed in closed form (see project); E8M0,
with no mantissa bit to carry the tie parity, any signed grid without zero,
and a user grid whose exponents pass the closed form's float64 reach (see
Codebook) have none, and project refuses them.

Conventions baked into the builtin specs:
  * E4M3 has no infinities; the top codepoint per sign (exp and mantissa all
    ones) is NaN, so the max finite value is 1.75 * 2**8 = 448.
  * E5M2 reserves the all-ones exponent for Inf/NaN, so the max finite value
    is 1.75 * 2**15.
  * E3M2, E2M3, E2M1 have neither Inf nor NaN: every codepoint is finite.
  * int8 is E0M7 with bias 0: the subnormals m / 64, so {-127..127} / 64.
  * E8M0 is an unsigned pure power-of-two format, bias 127, one NaN
    codepoint, values 2**-127 .. 2**127. It encodes no zero.
  * E6M2U is the unsigned block-scale format, bias 48, one reserved
    codepoint: (1 + m/4) * 2**e in [2**-48, 1.5 * 2**15], and no zero.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownFormat
from .tensor import as_tensor, made_in_chunks

__all__ = [
    "FpFormatSpec",
    "Codebook",
    "builtin_spec",
    "builtin_names",
    "enumerate_codebook",
    "project",
]


@dataclass(frozen=True)
class FpFormatSpec:
    """Declarative description of an ExMy format.

    Codepoint k (sign bit aside) has exponent field c = k >> y and mantissa
    field m = k & (2**y - 1), y = ``mantissa_bits``. Each c is a binade of
    values (2**y + m) * 2**(c - bias - y). With ``subnormals``, c = 0 holds
    zero and the subnormals m * 2**(1 - bias - y) instead; without them the
    grid has no zero. The top codepoints are reserved: the whole top binade
    with ``has_inf``, else the ``nan_encodings`` highest codepoints. Each
    extreme below is a value of that grid, or None when the grid has none.
    """

    name: str
    exponent_bits: int
    mantissa_bits: int
    signed: bool = True
    bias: int = 0
    has_inf: bool = False
    nan_encodings: int = 0
    subnormals: bool = True

    @property
    def max_finite(self):
        return _value(self, _top(self))

    @property
    def min_normal(self):
        return _value(self, self.subnormals * 2**self.mantissa_bits)

    @property
    def min_subnormal(self):
        """Smallest positive value (equals min_normal when subnormal-free)."""
        return _value(self, int(self.subnormals))

    @property
    def max_subnormal(self):
        k = min(2**self.mantissa_bits - 1 if self.subnormals else 0, _top(self))
        return _value(self, k) if k > 0 else None


_BUILTINS = {
    "e5m2": FpFormatSpec("e5m2", 5, 2, bias=15, has_inf=True),
    "e4m3": FpFormatSpec("e4m3", 4, 3, bias=7, nan_encodings=1),
    "e3m2": FpFormatSpec("e3m2", 3, 2, bias=3),
    "e2m3": FpFormatSpec("e2m3", 2, 3, bias=1),
    "e2m1": FpFormatSpec("e2m1", 2, 1, bias=1),
    "int8": FpFormatSpec("int8", 0, 7, bias=0),
    "e8m0": FpFormatSpec("e8m0", 8, 0, signed=False, bias=127, nan_encodings=1,
                         subnormals=False),
    "e6m2u": FpFormatSpec("e6m2u", 6, 2, signed=False, bias=48, nan_encodings=1,
                          subnormals=False),
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
    """The grid of ``spec``: all its finite values, sorted ascending, and their codepoints.

    ``codes[i]`` is the codepoint of values[i], sign bit aside; adjacent
    values carry codes of opposite parity, which makes the ties-to-even rule
    in project() well defined. ``_exmy`` is the (emin, y) of that rule's
    closed form, or None for a grid without one: y = 0 leaves no mantissa
    bit for the tie parity, and a signed grid without zero has a gap at 0
    that the closed form misses. The closed form adds 1.5 * 2**(e + 52 - y)
    to an x of exponent e >= emin, so a grid is also refused when that
    addend or the sum leaves float64: when y > 50, when its largest
    exponent passes 971 + y, or when emin is below -1023, where float64
    subnormals have no exponent field to read e from. Codebooks compare and
    hash by their spec. A grid with no finite value has no rule either, and
    a spec with a negative field width or NaN count is no grid: UnknownFormat.
    """

    spec: FpFormatSpec
    values: np.ndarray = field(init=False, compare=False)
    codes: np.ndarray = field(init=False, compare=False)
    _exmy: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spec = self.spec
        values, codes = _grid(spec)  # refuses a negative field
        values.flags.writeable = codes.flags.writeable = False
        y = spec.mantissa_bits
        emin = int(spec.subnormals) - spec.bias
        emax = max(((_count(spec) - 1) >> y) - spec.bias, emin)
        exmy = None
        if (len(values) and 1 <= y <= 50 and (spec.subnormals or not spec.signed)
                and emin >= -1023 and emax <= 971 + y):
            exmy = (emin, y)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "_exmy", exmy)

    def __len__(self):
        return len(self.values)

    @functools.cached_property
    def max_finite(self):
        return self.spec.max_finite


def _count(spec):
    """Number of finite codepoints, sign bit aside; UnknownFormat for a negative field (no grid)."""
    if min(spec.exponent_bits, spec.mantissa_bits, spec.nan_encodings) < 0:
        raise UnknownFormat(f"{spec.name!r}: exponent_bits, mantissa_bits and nan_encodings "
                            f"must be non-negative")
    return 2 ** (spec.exponent_bits + spec.mantissa_bits) - (
        2**spec.mantissa_bits if spec.has_inf else spec.nan_encodings)


def _top(spec):
    """The highest finite codepoint of ``spec``, sign bit aside; UnknownFormat if it has none."""
    if (top := _count(spec) - 1) < 0:
        raise UnknownFormat(f"{spec.name!r} has no finite value")
    return top


def _value(spec, k):
    """The value of codepoint ``k`` (sign bit aside), or None when ``spec``'s grid lacks it."""
    return float(_magnitudes(spec, k)) if k <= _top(spec) else None


def _magnitudes(spec, k):
    """Values of the codepoints ``k`` (sign bit aside) of ``spec``."""
    y = spec.mantissa_bits
    c, m = k >> y, k & (2**y - 1)
    lead = (c > 0) | (not spec.subnormals)  # the implicit leading bit
    return np.ldexp(m + lead * 2.0**y, np.maximum(c, int(spec.subnormals)) - spec.bias - y)


def _grid(spec):
    """Sorted finite values of ``spec`` and their codepoints, sign bit aside."""
    k = np.arange(_count(spec), dtype=np.int64)
    pos = _magnitudes(spec, k)
    if not spec.signed:
        return pos, k
    z = int(spec.subnormals)  # codepoint 0 is then zero, which has no negative twin
    return np.concatenate([-pos[z:][::-1], pos]), np.concatenate([k[z:][::-1], k])


def enumerate_codebook(spec):
    """Every finite value of ``spec`` (or a builtin name) once; a shared, cached Codebook."""
    if isinstance(spec, str):
        spec = builtin_spec(spec)
    return _codebook(spec)


@functools.lru_cache(maxsize=64)  # the builtins, and room for user specs without growing
def _codebook(spec):
    return Codebook(spec)


# -- round-to-nearest projection ---------------------------------------------
#
# For x of exponent e, the grid step is 2**k with k = max(e, emin) - y. The
# addend a = 1.5 * 2**(k + 52) has ulp 2**k, and |x| < 2**(k + y + 1) keeps
# x + a inside a's binade for either sign (y <= 50), so the float64 sum
# rounds x to the nearest multiple of the step, ties to the even multiple:
# a / 2**k is even, so the even code (for y >= 1 the multiple's parity is the
# codepoint's). Subtracting a back is exact, and a zero result is +0.0. The
# addend's bits are x's exponent field plus a constant, raised to the one at
# emin; a grid without subnormals starts at 2**emin, where the clip puts
# every smaller x.

_EXPONENT = 0x7FF << 52  # the exponent field of a float64's bits
# the largest double below 0.5: in float64, v + 0.5 rounds v = 0.5 - 2**-54 up to 1.0, while
# floor(v + _HALF) is floor(v + 0.5) in exact arithmetic for every v >= 0
_HALF = 0.5 - 2.0**-54


def _rule(cb):
    """``cb`` itself, or UnknownFormat when its grid has no rounding rule."""
    if cb._exmy is None:
        raise UnknownFormat(f"{cb.spec.name!r} has no rounding rule: it needs a finite value, a "
                            f"mantissa bit, zero or no sign, and exponents within float64's reach")
    return cb


def _round(cb, x, out):
    """Round the finite array ``x`` (at least 1-D) onto ``cb`` into ``out``, which may be ``x``.

    project's rounding without its ingest and checks, for a kernel's chunk
    of values it derived from checked data: the one rounding onto an ExMy
    grid, of the casts, the MX and NVFP4 elements and NVFP4's block scales.
    It adds and subtracts the addends above, made in one int64 array.
    """
    emin, y = cb._exmy
    out = np.clip(x, cb.values[0], cb.values[-1], out=out)
    shift = (52 - y) << 52 | 1 << 51  # onto the bits of 2**e: those of 1.5 * 2**(e + 52 - y)
    a = np.bitwise_and(out.view(np.int64), _EXPONENT)
    a += shift
    np.maximum(a, ((emin + 1023) << 52) + shift, out=a)  # the addend at emin
    a = a.view(np.float64)
    out += a
    out -= a
    return out


def project(cb, x):
    """Round finite input(s) onto the nearest codebook value.

    Values beyond the extremes clip to them; exact midpoints resolve to the
    neighbour with the even mantissa code. A zero result is +0.0. NaN or
    Inf input raises NonFiniteValue, and a grid without a rounding rule
    UnknownFormat, before anything is rounded. The ndarray output is rounded
    and checked in chunks, so a cast's reconstruction needs no second scan.
    """
    x = as_tensor(x)
    _rule(cb)
    flat = x.data.reshape(-1)
    return made_in_chunks(x.shape, lambda s, o: _round(cb, flat[s], o), x.name, np.ravel).data

