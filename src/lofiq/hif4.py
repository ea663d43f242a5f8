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
"""

from dataclasses import dataclass

import numpy as np

from .tensor import as_array, block_view, for_chunks, made_in_chunks

__all__ = ["BLOCK", "MODES", "Q_MIN", "Q_MAX", "Hif4Quantized", "hif4_quantize", "hif4_dequantize"]

BLOCK = 64
Q_MIN = 2.0**-48
Q_MAX = 1.5 * 2.0**15
MODES = ("literal", "halfrange")


@dataclass(frozen=True)
class Hif4Quantized:
    # B blocks along the last axis give the shapes below; blocks along another
    # axis keep block_view's layout, with the trailing axes after these
    axis: int
    shape: tuple
    e1: np.ndarray  # (B,) block exponents
    m1: np.ndarray  # (B,) block mantissae, 4..8
    e2: np.ndarray  # (B, 8) sub-block exponent bits
    e3: np.ndarray  # (B, 8, 2) micro-block exponent bits
    signs: np.ndarray  # (B, 8, 2, 4) in {-1, +1}
    xhat: np.ndarray  # (B, 8, 2, 4) element codes 0..7
    subscale_mode: str = "literal"
    name: str = None


def _quantize_blocks(X, halfrange):
    A = np.abs(X)
    # max is exact, so this running maximum equals A.max(axis=3); that
    # reduction pays per-row overhead on rows of four and is ten times slower
    A3 = np.maximum(A[:, :, :, 0], A[:, :, :, 1])
    np.maximum(A3, A[:, :, :, 2], out=A3)
    np.maximum(A3, A[:, :, :, 3], out=A3)
    A2 = A3.max(axis=2)
    A1 = A2.max(axis=1)

    At1 = np.clip(A1 / 7.0, Q_MIN, Q_MAX)
    _, ex = np.frexp(At1)
    E1 = ex.astype(np.int64) - 1
    M1 = np.floor(np.ldexp(At1, 2 - E1) + 0.5).astype(np.int64)  # 4..8
    S1 = np.ldexp(M1.astype(np.float64), E1 - 2)

    At2 = A2 / S1[:, None]
    t2 = 2.0 if halfrange else 4.0
    E2 = (At2 >= t2).astype(np.int64)

    At3 = A3 / np.ldexp(S1[:, None, None], E2[:, :, None])
    t3 = 1.0 if halfrange else 2.0
    E3 = (At3 >= t3).astype(np.int64)

    denom = np.ldexp(S1[:, None, None, None], (E2[:, :, None] + E3)[:, :, :, None])
    Xt = np.minimum(np.divide(A, denom, out=A), 1.75, out=A)
    Xt *= 4.0
    Xt += 0.5
    Xh = Xt.astype(np.uint8)  # floor(4 * Xt + 0.5): truncation, as every value is positive
    signs = (X < 0).view(np.int8) * np.int8(-2)  # -1 where X < 0, else +1 (-0.0 too)
    signs += np.int8(1)
    return E1, M1, E2, E3, signs, Xh


def hif4_quantize(t, axis, subscale_mode="literal"):
    """Quantize ``t`` in 64-element blocks along ``axis``."""
    if subscale_mode not in MODES:
        raise ValueError(f"subscale_mode must be one of {MODES}")
    arr = as_array(t)
    view = block_view(arr, axis, BLOCK)
    X = view.reshape(view.shape[:1] + (8, 2, 4) + view.shape[2:])
    B, T = X.shape[:1], X.shape[4:]
    fields = (np.empty(B + T, np.int64), np.empty(B + T, np.int64),
              np.empty(B + (8,) + T, np.int64), np.empty(B + (8, 2) + T, np.int64),
              np.empty(X.shape, np.int8), np.empty(X.shape, np.uint8))
    halfrange = subscale_mode == "halfrange"

    def chunk(s):
        for field, part in zip(fields, _quantize_blocks(X[s], halfrange)):
            field[s] = part

    for_chunks(chunk, X)
    return Hif4Quantized(axis, arr.shape, *fields, subscale_mode, getattr(t, "name", None))


def hif4_dequantize(q):
    """Reconstruct sign * M1 * 2**(E1+E2+E3-4) * Xhat in the input's layout."""

    def fill(s, o):
        # M1 * 2**exp is a normal float and M1 * Xhat < 2**6, so scaling the
        # micro-block's M1 first and multiplying by Xhat is exact
        scale = np.ldexp(q.m1[s][:, None, None].astype(np.float64),
                         q.e1[s][:, None, None] + q.e2[s][:, :, None] + q.e3[s] - 4)
        np.multiply(q.xhat[s], scale[:, :, :, None], out=o)
        o *= q.signs[s]  # after the product, so a zero code under sign -1 stays -0.0

    return made_in_chunks(q.shape, fill, q.name,
                          lambda o: block_view(o, q.axis, BLOCK).reshape(q.xhat.shape))
