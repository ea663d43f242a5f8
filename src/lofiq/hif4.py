"""Three-level hierarchical 4-bit quantization over 64-element blocks.

Each 64-element block is reshaped to 8 sub-blocks x 2 micro-pairs x 4
elements. Max-abs reductions run innermost-out (A3 per micro-block, A2 per
sub-block, A1 per block); the block scale S1 = M1 * 2**(E1-2) encodes
A1 / 7 in an unsigned mantissa-exponent form clipped to [2**-48, 1.5*2**15],
and the sub-block / micro-block refinements are single-bit exponents E2, E3.
Element magnitudes are normalized by S1*S2*S3, clipped to 1.75 and rounded
onto the quarter-step grid {0 .. 7} / 4.

Dequantization is sign * M1 * 2**(E1+E2+E3-4) * Xhat: integer exponent
addition plus a shift, bit-identical to multiplying the three scales.

The literal sub-scale rule sets E2 = 1 only when A2/S1 clips at exactly 4
(and E3 likewise at 2); ``subscale_mode="halfrange"`` switches both
thresholds to half the range for sensitivity studies.

Quantizing fits E1, M1, E2 and E3 (the last two as int8 bits). Signs and
element codes are rounded from the source tensor when they are used: by
``hif4_dequantize`` slice by slice, straight into its output, or by the
record's ``signs`` and ``xhat`` on first access.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor import as_array, block_view, for_chunks, made_in_chunks

__all__ = ["BLOCK", "MODES", "Q_MIN", "Q_MAX", "Hif4Quantized", "hif4_quantize", "hif4_dequantize"]

BLOCK = 64
Q_MIN = 2.0**-48
Q_MAX = 1.5 * 2.0**15
MODES = ("literal", "halfrange")


@dataclass(frozen=True)
class Hif4Quantized:
    """Fitted block, sub-block and micro-block scales of ``source``; signs and codes are derived.

    ``source`` is read again whenever codes are rounded, so it must not be
    written to while the record is in use (a Tensor's data cannot be).
    """

    # B blocks along the last axis give the shapes below; blocks along another
    # axis keep block_view's layout, with the trailing axes after these
    axis: int
    shape: tuple
    e1: np.ndarray  # (B,) block exponents, int64
    m1: np.ndarray  # (B,) block mantissae, 4..8, int64
    e2: np.ndarray  # (B, 8) sub-block exponent bits, int8
    e3: np.ndarray  # (B, 8, 2) micro-block exponent bits, int8
    source: np.ndarray  # the input, float64
    subscale_mode: str = "literal"
    name: str = None

    @cached_property
    def signs(self):
        """(B, 8, 2, 4) in {-1, +1}, int8: -1 where the input is below 0, else +1 (-0.0 too)."""
        signs = (_blocks(self.source, self.axis) < 0).view(np.int8) * np.int8(-2)
        signs += np.int8(1)
        return signs

    @cached_property
    def xhat(self):
        """(B, 8, 2, 4) element codes 0..7, uint8."""
        X = _blocks(self.source, self.axis)
        xhat = np.empty(X.shape, np.uint8)

        def chunk(s):
            xhat[s] = _round_blocks(X[s], _step(self, s), np.empty(X[s].shape))

        for_chunks(chunk, X)
        return xhat


def _blocks(arr, axis):
    """``arr`` as (B, 8, 2, 4, *trailing): block_view's blocks split into sub- and micro-blocks."""
    view = block_view(arr, axis, BLOCK)
    return view.reshape(view.shape[:1] + (8, 2, 4) + view.shape[2:])


def _fit_blocks(X, halfrange):
    """E1, M1, E2 and E3 of the blocks ``X`` (b, 8, 2, 4, *trailing)."""
    A = np.abs(X)
    # max is exact, so these running maxima equal A.max(axis=3) and
    # A3.max(axis=2); those reductions pay per-row overhead on rows of four
    # or two and are ten times slower
    A3 = np.maximum(A[:, :, :, 0], A[:, :, :, 1])
    np.maximum(A3, A[:, :, :, 2], out=A3)
    np.maximum(A3, A[:, :, :, 3], out=A3)
    A2 = np.maximum(A3[:, :, 0], A3[:, :, 1])
    A1 = A2.max(axis=1)

    At1 = np.clip(A1 / 7.0, Q_MIN, Q_MAX)
    _, ex = np.frexp(At1)
    E1 = ex.astype(np.int64) - 1
    M1 = np.floor(np.ldexp(At1, 2 - E1) + 0.5).astype(np.int64)  # 4..8
    S1 = np.ldexp(M1.astype(np.float64), E1 - 2)

    At2 = A2 / S1[:, None]
    E2 = (At2 >= (2.0 if halfrange else 4.0)).view(np.int8)

    At3 = A3 / np.ldexp(S1[:, None, None], E2[:, :, None])
    E3 = (At3 >= (1.0 if halfrange else 2.0)).view(np.int8)
    return E1, M1, E2, E3


def _step(q, s):
    """The element step S1*S2*S3 / 4 = M1 * 2**(E1+E2+E3-4) of blocks ``s``, per micro-block.

    Shaped (b, 8, 2, 1, *trailing) to broadcast against the elements. Each
    factor is a power of two times a normal float, so the steps are exact.
    """
    s1 = np.ldexp(q.m1[s].astype(np.float64), q.e1[s] - 4)
    return np.ldexp(s1[:, None, None], q.e2[s][:, :, None] + q.e3[s])[:, :, :, None]


def _round_blocks(X, step, out):
    """Element codes floor(min(|X| / step, 7) + 0.5) of the blocks ``X``, as float64 in ``out``.

    ``X`` holds blocks of the source as (b, 8, 2, 4, *trailing) and ``step``
    is their ``_step``. As step = S1*S2*S3 / 4 is that product scaled by a
    power of two, this is floor(4 * min(|X| / (S1*S2*S3), 1.75) + 0.5), the
    code 0..7, bit for bit.
    """
    v = np.divide(np.abs(X, out=out), step, out=out)
    np.minimum(v, 7.0, out=v)
    v += 0.5
    return np.floor(v, out=v)


def hif4_quantize(t, axis, subscale_mode="literal"):
    """Fit the scales of ``t``'s 64-element blocks along ``axis``."""
    if subscale_mode not in MODES:
        raise ValueError(f"subscale_mode must be one of {MODES}")
    arr = as_array(t)
    X = _blocks(arr, axis)
    B, T = X.shape[:1], X.shape[4:]
    fields = (np.empty(B + T, np.int64), np.empty(B + T, np.int64),
              np.empty(B + (8,) + T, np.int8), np.empty(B + (8, 2) + T, np.int8))
    halfrange = subscale_mode == "halfrange"

    def chunk(s):
        for field, part in zip(fields, _fit_blocks(X[s], halfrange)):
            field[s] = part

    for_chunks(chunk, X)
    return Hif4Quantized(axis, arr.shape, *fields, arr, subscale_mode, getattr(t, "name", None))


def hif4_dequantize(q):
    """Round each block of the source and reconstruct sign * M1 * 2**(E1+E2+E3-4) * Xhat.

    The codes are rounded slice by slice in the output's own memory, in the
    input's layout.
    """
    X = _blocks(q.source, q.axis)

    def fill(s, o):
        Xs = X[s]
        step = _step(q, s)
        # M1 * 2**exp is a normal float and M1 * Xhat < 2**6, so the product is exact
        np.multiply(_round_blocks(Xs, step, o), step, out=o)
        # the sign of x + 0.0 is negative exactly where x < 0, so a zero code
        # under a negative input is -0.0, and under -0.0 it is +0.0
        np.copysign(o, Xs + 0.0, out=o)

    return made_in_chunks(q.shape, fill, q.name, lambda o: _blocks(o, q.axis))
