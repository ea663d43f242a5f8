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

Quantizing fits E1, M1, E2 and E3, all four as int8. The record, a
``tensor.Record``, makes the element codes of some blocks of the source in
``round`` and scales and signs them in ``decode``; ``hif4_dequantize`` and
``xhat`` go through ``round``.
"""

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor import Record, as_array, block_view, for_chunks

__all__ = ["BLOCK", "MODES", "Q_MIN", "Q_MAX", "Hif4Quantized", "hif4_quantize", "hif4_dequantize"]

BLOCK = 64
Q_MIN = 2.0**-48
Q_MAX = 1.5 * 2.0**15
MODES = ("literal", "halfrange")
_TOP_BYTE = 7 if sys.byteorder == "little" else 0  # the byte of a float64 with its sign bit


@dataclass(frozen=True, kw_only=True)
class Hif4Quantized(Record):
    """Fitted block, sub-block and micro-block scales of ``source``; signs and codes are derived."""

    # B blocks along the last axis give the shapes below; blocks along another
    # axis keep block_view's layout, with the trailing axes after these
    e1: np.ndarray  # (B,) block exponents, -48..15, int8
    m1: np.ndarray  # (B,) block mantissae, 4..8, int8
    e2: np.ndarray  # (B, 8) sub-block exponent bits, int8
    e3: np.ndarray  # (B, 8, 2) micro-block exponent bits, int8
    subscale_mode: str = "literal"

    @cached_property
    def signs(self):
        """(B, 8, 2, 4) in {-1, +1}, int8: -1 where the input is below 0, else +1 (-0.0 too)."""
        signs = (self.view(self.source) < 0).view(np.int8) * np.int8(-2)
        signs += np.int8(1)
        return signs

    @cached_property
    def xhat(self):
        """(B, 8, 2, 4) element codes 0..7, uint8."""
        return self.view(self.rounded()).astype(np.uint8)

    def view(self, arr):
        """``arr`` as (B, 8, 2, 4, *trailing): 64-blocks split into sub- and micro-blocks."""
        return _blocks(arr, self.axis)

    def round(self, s, out, step=None):
        """Element codes floor(min(|X| / step, 7) + 0.5) of blocks ``s``, as float64 in ``out``.

        ``X`` is the source's ``view``. As step = S1*S2*S3 / 4 is that product
        scaled by a power of two, this is floor(4 * min(|X| / (S1*S2*S3), 1.75)
        + 0.5), the code 0..7, bit for bit. ``step`` is ``_step(s)``, formed
        here unless the caller holds it.
        """
        step = self._step(s) if step is None else step
        v = np.divide(np.abs(self.view(self.source)[s], out=out), step, out=out)
        np.minimum(v, 7.0, out=v)
        v += 0.5
        return np.floor(v, out=v)

    def decode(self, s, out, step=None):
        """sign * Xhat * step, in place; ``step`` as in ``round``."""
        # M1 * 2**exp is a normal float and M1 * Xhat < 2**6, so the product is exact
        out *= self._step(s) if step is None else step
        # a zero code under a negative input is -0.0, and under -0.0 it is +0.0;
        # out >= +0 here, so setting the sign bit negates: each x < 0 (a bool,
        # 1) shifted up 7 bits is the sign bit in its element's top byte
        sign = (self.view(self.source)[s] < 0).view(np.uint8)
        sign <<= 7
        top = out.view(np.uint8)[..., _TOP_BYTE::8]
        top |= sign

    def round_decode(self, s, out):
        """``decode(s, round(s, out))`` with the step formed once."""
        step = self._step(s)
        self.decode(s, self.round(s, out, step), step)

    def _step(self, s):
        """The element step S1*S2*S3 / 4 = M1 * 2**(E1+E2+E3-4) of blocks ``s``, per micro-block.

        Shaped (b, 8, 2, 1, *trailing) to broadcast against the elements. Each
        factor is a power of two times a normal float, so the steps are exact.
        """
        s1 = np.ldexp(self.m1[s].astype(np.float64), self.e1[s] - 4)
        # repeated, not broadcast: a broadcast add runs 2 elements per inner loop, at half speed
        e = np.repeat(self.e2[s][:, :, None], 2, axis=2) + self.e3[s]
        return np.ldexp(s1[:, None, None], e)[:, :, :, None]


def _blocks(arr, axis):
    """``arr`` as (B, 8, 2, 4, *trailing): block_view's blocks split into sub- and micro-blocks."""
    view = block_view(arr, axis, BLOCK)
    return view.reshape(view.shape[:1] + (8, 2, 4) + view.shape[2:])


def _fit_blocks(X, halfrange, e1, m1, e2, e3):
    """Fit E1, M1, E2 and E3 of the blocks ``X`` (b, 8, 2, 4, *trailing) into ``e1`` ... ``e3``."""
    # max is exact, so these running and pairwise maxima equal |X|.max(axis=3),
    # A3.max(axis=2) and A2.max(axis=1); those reductions pay per-row
    # overhead on rows of four, two or eight and are up to ten times slower.
    # A3 is built from the four quarter views through one scratch of a
    # quarter's size, with no |X| array
    A3 = np.abs(X[:, :, :, 0])
    scratch = np.empty_like(A3)
    for j in (1, 2, 3):
        np.maximum(A3, np.abs(X[:, :, :, j], out=scratch), out=A3)
    del scratch
    A2 = np.maximum(A3[:, :, 0], A3[:, :, 1])
    A1 = np.maximum(A2[:, 0::2], A2[:, 1::2])
    A1 = np.maximum(A1[:, 0::2], A1[:, 1::2])
    At1 = np.maximum(A1[:, 0], A1[:, 1])
    At1 /= 7.0
    np.minimum(np.maximum(At1, Q_MIN, out=At1), Q_MAX, out=At1)  # np.clip, at less cost per call

    # At1 = f * 2**ex with f in [0.5, 1): E1 = ex - 1 and M1 = floor(8 f + 0.5), 4..8
    M1, ex = np.frexp(At1, out=(At1, None))
    M1 *= 8.0
    M1 += 0.5
    np.floor(M1, out=M1)
    m1[...] = M1
    np.subtract(ex, 1, out=e1)
    ex -= 3
    S1 = np.ldexp(M1, ex, out=M1)  # M1 * 2**(E1 - 2)

    # the ratios A2 / S1 and A3 / (S1 * 2**E2) are formed in place, A3's one
    # micro-block of each pair at a time: a divisor broadcast over the pair
    # would run 2 elements per inner loop
    np.greater_equal(np.divide(A2, S1[:, None], out=A2), 2.0 if halfrange else 4.0,
                     out=e2.view(np.bool_))
    S2 = np.ldexp(S1[:, None], e2)
    for j in (0, 1):
        np.divide(A3[:, :, j], S2, out=A3[:, :, j])
    np.greater_equal(A3, 1.0 if halfrange else 2.0, out=e3.view(np.bool_))


def hif4_quantize(t, axis, subscale_mode="literal"):
    """Fit the scales of ``t``'s 64-element blocks along ``axis``."""
    if subscale_mode not in MODES:
        raise ValueError(f"subscale_mode must be one of {MODES}")
    arr = as_array(t)
    X = _blocks(arr, axis)
    B, T = X.shape[:1], X.shape[4:]
    fields = (np.empty(B + T, np.int8), np.empty(B + T, np.int8),
              np.empty(B + (8,) + T, np.int8), np.empty(B + (8, 2) + T, np.int8))
    halfrange = subscale_mode == "halfrange"
    for_chunks(lambda s: _fit_blocks(X[s], halfrange, *(field[s] for field in fields)), X)
    e1, m1, e2, e3 = fields
    return Hif4Quantized(source=arr, axis=axis, name=getattr(t, "name", None), e1=e1, m1=m1,
                         e2=e2, e3=e3, subscale_mode=subscale_mode)


def hif4_dequantize(q):
    """Round each block of the source and reconstruct sign * M1 * 2**(E1+E2+E3-4) * Xhat.

    The codes are rounded slice by slice in the output's own memory, in the
    input's layout.
    """
    return q.dequantized()
