"""Independent oracles used by the test suite.

Everything here is deliberately decoupled from the library internals:
bit-level float decoders, brute-force nearest search, MX, NVFP4 and HiF4
fitted and rounded block by block from their definitions, HiF8 rounding in
exact rationals, and a one-sided Jacobi SVD, so that library results are
checked against a second route. Nothing here imports lofiq.
"""

import math
from fractions import Fraction

import numpy as np


def decode_minifloat(word, exp_bits, man_bits, bias, has_inf, nan_top, signed=True,
                     subnormals=True):
    """Decode one codepoint of a small ExMy format; None for NaN/Inf.

    An unsigned format has no sign bit. Without subnormals, exponent field 0
    is one more binade, (1 + man / 2**man_bits) * 2**-bias.
    """
    total = int(signed) + exp_bits + man_bits
    sign = -1.0 if signed and (word >> (exp_bits + man_bits)) & 1 else 1.0
    exp = (word >> man_bits) & ((1 << exp_bits) - 1)
    man = word & ((1 << man_bits) - 1)
    if has_inf and exp == (1 << exp_bits) - 1:
        return None
    if not has_inf and nan_top and exp == (1 << exp_bits) - 1 and man > (1 << man_bits) - 1 - nan_top:
        return None
    assert word < (1 << total)
    if exp == 0 and subnormals:
        return sign * (man / (1 << man_bits)) * 2.0 ** (1 - bias)
    return sign * (1.0 + man / (1 << man_bits)) * 2.0 ** (exp - bias)


def walk_codepoints(exp_bits, man_bits, bias, has_inf=False, nan_top=0, signed=True,
                    subnormals=True):
    """{value: mantissa field} of every finite codepoint of a format, signed by default."""
    found = {}
    for word in range(1 << (int(signed) + exp_bits + man_bits)):
        v = decode_minifloat(word, exp_bits, man_bits, bias, has_inf, nan_top, signed, subnormals)
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


def grid_arrays(found):
    """(values, tie codes) of a walk_codepoints dict, values ascending."""
    values = np.array(sorted(found))
    return values, np.array([found[v] for v in values])


def _nearest(values, codes, v):
    """The nearest of ``values`` to ``v``, clipped into their range first; ties to the even code."""
    return float(brute_force_nearest(values, codes, [min(max(v, values[0]), values[-1])])[0])


def _blocks(x, axis, k):
    """The lines of the 2-D ``x`` along ``axis``, each cut into runs of ``k``; a last,
    shorter run (an axis that is no multiple of k, as ``--pad`` rounds it) is a block too."""
    lines = x if axis == 1 else x.T
    return [[[float(v) for v in line[j:j + k]] for j in range(0, len(line), k)]
            for line in lines]


def _per_block(fields, axis):
    """A per-block field made (lines, blocks, *per block), in the codecs' layout: flat block
    order along axis 1, (blocks, *per block, columns) along 0."""
    fields = np.array(fields)
    return fields.reshape((-1,) + fields.shape[2:]) if axis == 1 else np.moveaxis(fields, 0, -1)


def _laid_out(fields, recon, axis):
    """Per-block fields and reconstruction, made (lines, blocks) and (lines, elements), in the
    codecs' layout (``_per_block``; the reconstruction in ``x``'s)."""
    recon = np.array(recon)
    return _per_block(fields, axis), (recon if axis == 1 else recon.T)


def _exponent(q):
    """floor(log2(q)) of a positive Fraction, exactly."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    return e - 1 if q < Fraction(2) ** e else e


def mx_by_definition(x, axis, k, element):
    """(shared exponents, reconstruction) of MX on the 2-D ``x``, blocks of ``k`` along ``axis``.

    ``element`` is the walk_codepoints dict of the element grid, q_max its
    largest value. Each block's exponent is the least e with max|x| <= q_max *
    2**e, that is ceil(log2(max|x| / q_max)), clamped to E8M0's [-127, 127]
    (an all-zero block, log2(0) = -inf, takes -127). Each element x / 2**e is
    clipped to +-q_max and rounded to the nearest grid value, ties to the
    even code, and reconstructs as code * 2**e.
    """
    values, codes = grid_arrays(element)
    q_max = Fraction(values[-1])
    exponents, recon = [], []
    for line in _blocks(x, axis, k):
        exponents.append([])
        recon.append([])
        for block in line:
            amax = Fraction(max(abs(v) for v in block))
            e = -127
            if amax:
                e = math.floor(math.log2(amax) - math.log2(q_max))  # a start; the loops decide
                while amax > q_max * Fraction(2) ** e:
                    e += 1
                while amax <= q_max * Fraction(2) ** (e - 1):
                    e -= 1
                e = min(max(e, -127), 127)
            exponents[-1].append(e)
            recon[-1].extend(math.ldexp(_nearest(values, codes, v / 2.0**e), e) for v in block)
    return _laid_out(exponents, recon, axis)


E4M3 = walk_codepoints(4, 3, 7, False, 1)  # {value: mantissa field} of every finite E4M3 code
E2M1 = walk_codepoints(2, 1, 1)


def nvfp4_by_definition(x, axis):
    """(s2, block scales, reconstruction, overshoot) of NVFP4 on the 2-D ``x`` along ``axis``,
    one element at a time.

    s2 = max|x| / 2688 (the least subnormal if that is 0, and nudged up
    while max|x| / s2 passes 2688), s1 = the nearest E4M3 value to
    max|x / s2| / 6 over each block of 16 (2**-9 if that is 0 in a nonzero
    block, 0 in an all-zero one), and the overshoot the largest |x / s2| /
    s1. Each element's code is the nearest E2M1 value to x / s2 / s1 (to
    x / s2 in an all-zero block) clipped to +-6, ties to the even code, and
    it reconstructs as code * s1 * s2.
    """
    e4m3, e2m1 = grid_arrays(E4M3), grid_arrays(E2M1)
    amax = max((abs(float(v)) for v in x.flat), default=0.0)
    s2 = 1.0
    if amax:
        s2 = amax / 2688.0 or 5e-324
        while amax / s2 > 2688.0:
            s2 = float(np.nextafter(s2, math.inf))
    scales, recon = [], []
    overshoot = 0.0
    for line in _blocks(x, axis, 16):
        scales.append([])
        recon.append([])
        for block in line:
            scaled = [v / s2 for v in block]
            s1 = 0.0
            if max(map(abs, scaled)) > 0.0:
                s1 = _nearest(*e4m3, max(map(abs, scaled)) / 6.0) or 2.0**-9
                overshoot = max([overshoot] + [abs(v) / s1 for v in scaled])
            scales[-1].append(s1)
            recon[-1].extend(float(Fraction(_nearest(*e2m1, v / (s1 or 1.0))) * Fraction(s1)
                                   * Fraction(s2)) for v in scaled)
    return (s2, *_laid_out(scales, recon, axis), overshoot)


def hif4_by_definition(x, axis, mode):
    """(E1, M1, E2, E3, reconstruction) of HiF4 on the 2-D ``x``, 64-blocks along ``axis``,
    in exact rationals.

    A block is 8 sub-blocks of 2 micro-blocks of 4 elements; A3, A2 and A1
    are the max|x| of a micro-block, a sub-block and the block. A1 / 7,
    clipped to [2**-48, 1.5 * 2**15], is coded as S1 = M1 * 2**(E1 - 2):
    E1 = floor(log2(A1 / 7)) and M1 = A1 / 7 / 2**(E1 - 2) rounded half up
    (4..8). E2 = 1 where A2 / S1 reaches 4, and E3 = 1 where A3 / (S1 *
    2**E2) reaches 2 (2 and 1 under ``halfrange``). Each element's code is
    4 * min(|x| / (S1 * 2**E2 * 2**E3), 1.75) rounded half up, 0..7, and it
    reconstructs as sign * code / 4 * S1 * 2**E2 * 2**E3, the sign that of
    x < 0: -0.0 for a zero code under a negative x, +0.0 under -0.0. A last,
    shorter run of the axis is a block padded with zeros, which raise no
    maximum. The fields come as in ``_per_block``: (blocks,), (blocks, 8)
    and (blocks, 8, 2) along axis 1.
    """
    e2_at, e3_at = (2, 1) if mode == "halfrange" else (4, 2)
    fields, recon = ([], [], [], []), []
    for line in _blocks(x, axis, 64):
        for field in fields:
            field.append([])
        recon.append([])
        for block in line:
            mags = [abs(Fraction(v)) for v in block] + [Fraction(0)] * (64 - len(block))
            a3 = [max(mags[j:j + 4]) for j in range(0, 64, 4)]  # 16 micro-blocks
            a2 = [max(a3[j:j + 2]) for j in range(0, 16, 2)]  # 8 sub-blocks
            at1 = min(max(max(a2) / 7, Fraction(2) ** -48), Fraction(3, 2) * 2**15)
            e1 = _exponent(at1)
            m1 = math.floor(at1 / Fraction(2) ** (e1 - 2) + Fraction(1, 2))
            s1 = m1 * Fraction(2) ** (e1 - 2)
            e2 = [int(a / s1 >= e2_at) for a in a2]
            e3 = [int(a / (s1 * 2 ** e2[j // 2]) >= e3_at) for j, a in enumerate(a3)]
            for field, value in zip(fields, (e1, m1, e2, [e3[j:j + 2] for j in range(0, 16, 2)])):
                field[-1].append(value)
            for i, v in enumerate(block):
                scale = s1 * 2 ** (e2[i // 8] + e3[i // 4])
                code = math.floor(4 * min(mags[i] / scale, Fraction(7, 4)) + Fraction(1, 2))
                value = float(code * scale / 4)
                recon[-1].append(-value if v < 0 else value)
    recon = np.array(recon)
    return (*(_per_block(field, axis) for field in fields), recon if axis == 1 else recon.T)


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
    e = _exponent(ax)
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
