"""Independent oracles used by the test suite.

Everything here is deliberately decoupled from the library internals:
bit-level float decoders, brute-force nearest search, HiF8 rounding in
exact rationals, and a one-sided Jacobi SVD, so that library results are
checked against a second route. Nothing here imports lofiq.
"""

import math
from fractions import Fraction

import numpy as np


def decode_minifloat(word, exp_bits, man_bits, bias, has_inf, nan_top):
    """Decode one codepoint of a small signed ExMy format; None for NaN/Inf."""
    total = 1 + exp_bits + man_bits
    sign = -1.0 if (word >> (exp_bits + man_bits)) & 1 else 1.0
    exp = (word >> man_bits) & ((1 << exp_bits) - 1)
    man = word & ((1 << man_bits) - 1)
    if has_inf and exp == (1 << exp_bits) - 1:
        return None
    if not has_inf and nan_top and exp == (1 << exp_bits) - 1 and man > (1 << man_bits) - 1 - nan_top:
        return None
    assert word < (1 << total)
    if exp == 0:
        return sign * (man / (1 << man_bits)) * 2.0 ** (1 - bias)
    return sign * (1.0 + man / (1 << man_bits)) * 2.0 ** (exp - bias)


def walk_codepoints(exp_bits, man_bits, bias, has_inf=False, nan_top=0):
    """{value: mantissa field} of every finite codepoint of a signed format."""
    found = {}
    for word in range(1 << (1 + exp_bits + man_bits)):
        v = decode_minifloat(word, exp_bits, man_bits, bias, has_inf, nan_top)
        if v is not None:
            found[v + 0.0] = word & ((1 << man_bits) - 1)  # + 0.0 collapses -0.0 into 0.0
    return found


def enumerate_by_codepoints(exp_bits, man_bits, bias, has_inf=False, nan_top=0):
    """All finite values of a signed format by walking every codepoint."""
    return np.array(sorted(walk_codepoints(exp_bits, man_bits, bias, has_inf, nan_top)))


def brute_force_nearest(values, codes, x):
    """Exhaustive nearest-with-even-code-ties search for a batch of inputs."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(x)
    for i, v in enumerate(x):
        d = np.abs(values - v)
        dmin = d.min()
        achievers = np.nonzero(d == dmin)[0]
        if len(achievers) == 1:
            out[i] = values[achievers[0]]
        else:
            even = [j for j in achievers if codes[j] % 2 == 0]
            out[i] = values[even[0] if even else achievers[0]]
    return out


# HiF8 mantissa width by |exponent|: 3 bits up to |e| = 3, 2 up to 7, 1 up to 15, 0 beyond
_HIF8_WIDTHS = ((3, 3), (7, 2), (15, 1))


def hif8_round(x):
    """HiF8 quantization of one finite real, in exact rational arithmetic.

    With e = floor(log2|x|) and width n_m from the table above, |x| goes to
    floor(|x| / 2**(e - n_m) + 1/2) steps of 2**(e - n_m) (ties away from
    zero). Magnitudes beyond 2**15 saturate there, nonzero ones below
    2**-22 land on 2**-22, and zero of either sign gives +0.0.
    """
    ax = Fraction(abs(x))
    if ax == 0:
        return 0.0
    e = ax.numerator.bit_length() - ax.denominator.bit_length()
    if ax < Fraction(2) ** e:
        e -= 1
    if e < -22:
        return math.copysign(2.0**-22, x)
    width = next((w for bound, w in _HIF8_WIDTHS if abs(e) <= bound), 0)
    step = Fraction(2) ** (e - width)
    v = min(math.floor(ax / step + Fraction(1, 2)) * step, Fraction(2**15))
    return math.copysign(float(v), x)


def min_distances(values, x, chunk=4096):
    """min_c |c - x| for each input, brute force, chunked for memory."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    flat = x.reshape(-1)
    res = out.reshape(-1)
    for start in range(0, flat.size, chunk):
        block = flat[start:start + chunk]
        res[start:start + chunk] = np.abs(block[:, None] - values[None, :]).min(axis=1)
    return out


def jacobi_singular_values(a, max_sweeps=60):
    """Singular values via one-sided Jacobi rotations (independent of LAPACK)."""
    a = np.array(a, dtype=np.float64)
    if a.shape[0] < a.shape[1]:
        a = a.T
    n = a.shape[1]
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[:, p] @ a[:, q])
                if apq == 0.0:
                    continue
                app = float(a[:, p] @ a[:, p])
                aqq = float(a[:, q] @ a[:, q])
                if abs(apq) <= 1e-15 * math.sqrt(app * aqq):
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                ap = a[:, p].copy()
                a[:, p] = c * ap - s * a[:, q]
                a[:, q] = s * ap + c * a[:, q]
        if not rotated:
            break
    return np.sort(np.linalg.norm(a, axis=0))[::-1]


def f32_roundtrip_oracle(x):
    """Nearest binary32 value of x via struct packing (independent of numpy)."""
    import struct

    return struct.unpack("<f", struct.pack("<f", x))[0]
