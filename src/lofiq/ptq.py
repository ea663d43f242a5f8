"""Post-training transforms: per-channel difficulty migration and low-rank splitting.

Both transforms are format-agnostic: they rewrite (X, W) so that a
downstream codec sees easier distributions, while the exact product X @ W
is preserved (smoothing) or reproduced by a high-precision side branch
(low-rank split).

Smoothing rewrites Y = X W as (X diag(s)^-1)(diag(s) W) with
s_j = max|X[:, j]|**alpha / max|W[j, :]|**(1 - alpha); alpha in [0, 1]
controls how much outlier mass migrates from activations into weights.

The low-rank split W = L1 @ L2 + residual keeps the top singular
directions exact and quantizes only the residual. Those directions are the
top eigenvectors of the smaller-side Gram matrix, found by a block Krylov
solver with a Rayleigh-Ritz step that stops on its Ritz residuals scaled
by the Ritz gap (a Davis-Kahan estimate of the product error, 1e-12 |W|_F),
with a full ``np.linalg.eigh`` as the fallback; see ``svd_split``.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import (AlphaOutOfRange, LengthMismatch, NonConvergence, NonFiniteValue,
                     RankOutOfRange, ShapeMismatch)
from .metrics import _frobenius
from .registry import as_codec
from .tensor import as_array, group_absmax, made_in_chunks

__all__ = [
    "ALPHA_GRID",
    "SmoothingPlan",
    "LowRankBranch",
    "smooth_scales",
    "apply_smoothing",
    "search_alpha",
    "svd_split",
    "smoothquant_pipeline",
    "svdquant_pipeline",
    "SmoothReport",
    "PipelineReport",
]

ALPHA_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))  # 0.1 .. 0.9


@dataclass(frozen=True)
class SmoothingPlan:
    scales: np.ndarray  # one positive scale per inner-dimension channel
    alpha: float


@dataclass(frozen=True)
class LowRankBranch:
    l1: np.ndarray  # (d, r); W V or U, not U Sigma (see svd_split)
    l2: np.ndarray  # (r, n)
    rank: int
    residual: np.ndarray  # (d, n); l1 @ l2 + residual == input matrix


def _check_alpha(alpha):
    if not 0.0 <= alpha <= 1.0:  # NaN fails too
        raise AlphaOutOfRange(f"alpha must be in [0, 1], got {alpha}")


def _check_rank(rank, shape):
    if not 1 <= rank <= min(shape):
        raise RankOutOfRange(f"rank {rank} not in [1, {min(shape)}] for shape {shape}")


def _floored(m):
    """Maxima floored at 2**-40 times their largest, or at 1 when all are zero."""
    top = m.max(initial=0.0)
    return np.maximum(m, np.ldexp(top, -40) if top else 1.0)


def smooth_scales(x_colmax, w_rowmax, alpha):
    """Per-channel scales from column maxima of X and row maxima of W.

    Each side's maxima are floored at 2**-40 times that side's largest (at 1
    when all are zero), so a degenerate (all-zero) channel cannot produce a
    zero or infinite scale, and no floor depends on the units of X or W.
    """
    xm = np.asarray(x_colmax, dtype=np.float64).ravel()
    wm = np.asarray(w_rowmax, dtype=np.float64).ravel()
    if xm.shape != wm.shape:
        raise LengthMismatch(f"activation maxima ({xm.size}) vs weight maxima ({wm.size})")
    _check_alpha(alpha)
    xm, wm = _floored(xm), _floored(wm)
    return SmoothingPlan(xm**alpha / wm ** (1.0 - alpha), float(alpha))


def _matrices(x, w):
    """X and W as arrays: non-empty, 2-D, matching inner dimensions; else ShapeMismatch."""
    xa, wa = as_array(x), as_array(w)
    if xa.ndim != 2 or wa.ndim != 2 or xa.shape[1] != wa.shape[0] or not xa.size or not wa.size:
        raise ShapeMismatch(f"need non-empty x (m, d) and w (d, n), "
                            f"got x {xa.shape} and w {wa.shape}")
    return xa, wa


def _maxima(xa, wa):
    """max|X| per column and max|W| per row, with no |X| or |W| array."""
    return group_absmax(xa, 1).ravel(), group_absmax(wa, 0).ravel()


def apply_smoothing(x, w, plan):
    """Return (x / s columnwise, s * w rowwise); the product is unchanged.

    Both are Tensors named after x and w, formed in chunks and each chunk
    checked for finiteness as it is made.
    """
    xa, wa = _matrices(x, w)
    s = plan.scales
    if s.shape != (xa.shape[1],):
        raise ShapeMismatch(
            f"plan length {s.size} does not match x {xa.shape} / w {wa.shape}")
    xname, wname = getattr(x, "name", None), getattr(w, "name", None)
    return (made_in_chunks(xa.shape, lambda rs, o: np.divide(xa[rs], s, out=o), xname),
            made_in_chunks(wa.shape, lambda rs, o: np.multiply(s[rs, None], wa[rs], out=o), wname))


def search_alpha(x, w, fmt, grid=ALPHA_GRID, ref=None):
    """Grid-search the migration strength minimizing |Q(x')Q(w') - xw|_F.

    Returns the winner as ``(plan, error, qx)``: its SmoothingPlan (whose
    ``alpha`` is the winning alpha), the absolute product error and Q(x').
    Ties resolve to the smaller alpha. A caller that holds ``x @ w`` passes
    it as ``ref``; otherwise it is formed here.
    """
    codec = as_codec(fmt)
    if len(grid) == 0:
        raise ValueError("alpha grid is empty")
    xa, wa = _matrices(x, w)
    if ref is None:
        ref = xa @ wa
    maxima = _maxima(xa, wa)
    best = None
    for alpha in grid:
        plan = smooth_scales(*maxima, alpha)
        xs, ws = apply_smoothing(x, w, plan)
        qx = codec.reconstruct(xs, "activation")
        err = _frobenius(ref, qx @ codec.reconstruct(ws, "weight"))
        if best is None or err < best[1]:
            best = (plan, err, qx)
    return best


# The partial eigensolver of svd_split: block Krylov with a Rayleigh-Ritz step
# (Halko, Martinsson and Tropp, arXiv 0909.4061; Musco and Musco, arXiv
# 1504.05477). The block is ``rank`` columns wide.
_KRYLOV_SEED = 0  # the start block is drawn from this seed, so reruns are bit-identical
_CAP_DIV = 4  # the basis holds at most n // 4 columns of the n x n Gram matrix
# eigh runs when fewer blocks than this fit under the cap: a flat (Gaussian)
# spectrum takes 24-28 blocks at ranks 16-32, and an attempt that ends at
# the cap costs more than eigh alone
_MIN_BLOCKS = 28
_CHECK_EVERY = 4  # Ritz residuals are checked every 4 blocks
_TOL = 1e-12  # stop when the estimated product error is below this times |W|_F


def _krylov_top(g, rank):
    """Top-``rank`` eigenvectors of the PSD Gram matrix ``g`` as (n, rank) columns,
    strongest first, or None when ``np.linalg.eigh`` of ``g`` must decide.

    Each new block ``G B_j`` is orthogonalized twice against the basis (CGS2)
    and then QR'd into it; ``B^T G B`` grows one block column at a time. Every
    ``_CHECK_EVERY`` blocks the Ritz pairs ``(theta, v)`` of ``B^T G B`` are
    formed, and the solver stops once the Davis-Kahan estimate of the rank-r
    product error, ``sqrt(2 theta_1) |G V - V Theta|_F / (theta_r - theta_r+1)``,
    is at most ``_TOL |W|_F``. It is an estimate, not a guaranteed bound: the
    Ritz gap can exceed the true gap theta_r - lambda_r+1 while theta_r+1 has
    not yet converged, since theta_r+1 <= lambda_r+1. It gives up (None) when
    the basis would pass its column cap, and when a new block is at roundoff
    level: the Krylov space is then invariant, and its Ritz pairs are returned
    only if they pass the same test. A block at roundoff level is never QR'd
    into the basis.
    """
    n = g.shape[0]
    b = rank
    cap = n // _CAP_DIV // b * b
    fro2 = float(np.trace(g))  # |W|_F^2, an upper bound on |G|_2
    if cap < _MIN_BLOCKS * b or not np.isfinite(fro2):
        return None
    roundoff = n * np.finfo(np.float64).eps * fro2
    basis = np.empty((cap, n))  # rows are the orthonormal basis vectors
    gb = np.empty((cap, n))  # rows are G times them
    h = np.empty((cap, cap))  # B^T G B
    start = np.random.default_rng(_KRYLOV_SEED).standard_normal((n, b))
    basis[:b] = np.linalg.qr(start)[0].T
    k = 0
    while True:
        new = slice(k, k + b)
        np.matmul(basis[new], g, out=gb[new])  # (G B_j)^T, as G is symmetric
        k += b
        h[:k, new] = basis[:k] @ gb[new].T
        h[new, :k - b] = h[:k - b, new].T
        done = k + b > cap
        if not done:
            y = gb[new] - h[:k, new].T @ basis[:k]  # the first pass reuses B^T G B_j
            y -= (y @ basis[:k].T) @ basis[:k]
            q, r = np.linalg.qr(y.T)
            done = np.linalg.svd(r, compute_uv=False)[-1] <= roundoff
            if not done:
                basis[k:k + b] = q.T
        if (done or k // b % _CHECK_EVERY == 0) and k > rank:
            theta, s = np.linalg.eigh(h[:k, :k])
            theta, s = theta[::-1][:rank + 1], s[:, ::-1][:, :rank]
            v = s.T @ basis[:k]
            res = float(np.linalg.norm(s.T @ gb[:k] - theta[:rank, None] * v))
            gap = theta[rank - 1] - theta[rank]  # a zero gap passes only with a zero residual
            if np.sqrt(2 * max(theta[0], 0.0)) * res <= _TOL * np.sqrt(fro2) * gap:
                return v.T
        if done:
            return None


def svd_split(w, rank):
    """Split a matrix into its top-``rank`` singular part plus a residual.

    The top singular vectors of the smaller side are the top eigenvectors
    of its Gram matrix, so no full SVD is needed. A tall W (d >= n) gives
    ``l1 = W V, l2 = V^T`` from ``W^T W``; a wide one gives ``l1 = U,
    l2 = U^T W`` from ``W W^T``. l1 is not U Sigma, but ``l1 @ l2`` is the
    rank-``rank`` SVD part up to rounding.

    The eigenvectors come from a block Krylov solver (``_krylov_top``) that
    stops on its Ritz residuals, scaled by the Ritz gap, once the Davis-Kahan
    estimate of the product error is at most 1e-12 |W|_F (an estimate: the
    Ritz gap stands in for the true one). It falls back to a
    full ``np.linalg.eigh`` of the Gram matrix when its basis would pass n/4
    columns, when fewer than 28 blocks of ``rank`` columns fit under that cap
    (a small matrix or a large rank), and when the Krylov space turns
    invariant before the test passes (an exactly low-rank or zero W). A
    failed eigendecomposition raises NonConvergence.
    """
    wa = as_array(w)
    if wa.ndim != 2:
        raise ShapeMismatch(f"svd_split needs a matrix, got shape {wa.shape}")
    _check_rank(rank, wa.shape)
    tall = wa.shape[0] >= wa.shape[1]
    g = wa.T @ wa if tall else wa @ wa.T
    try:
        top = _krylov_top(g, rank)
        if top is None:
            top = np.linalg.eigh(g)[1][:, -rank:][:, ::-1]  # ascending; strongest first
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigendecomposition failed to converge: {exc}") from exc
    del g  # the pipeline's peak memory is its live W-sized arrays, and g is one
    l1, l2 = (wa @ top, top.T) if tall else (top, top.T @ wa)
    residual = l1 @ l2
    return LowRankBranch(l1, l2, int(rank), np.subtract(wa, residual, out=residual))


@dataclass(frozen=True)
class PipelineReport:
    """Relative reconstruction errors of the three pipeline stages."""

    format: str
    alpha: float
    rank: int
    rtn_rel_err: float
    smooth_rel_err: float
    svdq_rel_err: float

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class SmoothReport:
    format: str
    alpha: float
    rtn_rel_err: float
    smooth_rel_err: float

    def to_dict(self):
        return asdict(self)


def _smoothing_stage(x, w, codec, alpha, rank=None):
    """The stage both pipelines start with: exact product, RTN error, smoothing.

    Returns ``(ref, ref_norm, rtn_err, plan, smooth_err, qx)``. The plan is
    the searched winner, or the plan at ``alpha`` when given; the errors are
    relative to ``ref_norm``; ``qx`` is Q(x') under that plan. The shapes,
    ``alpha`` and the low-rank split's ``rank`` are checked before any
    quantization runs.
    """
    xa, wa = _matrices(x, w)
    if alpha is not None:
        _check_alpha(alpha)
    if rank is not None:
        _check_rank(rank, wa.shape)
    ref = xa @ wa
    ref_norm = _frobenius(ref)
    if ref_norm == 0.0:
        raise ShapeMismatch("x @ w vanishes; relative errors are undefined")
    if ref_norm == np.inf:
        raise NonFiniteValue("|x @ w|_F overflows float64")
    rtn = codec.reconstruct(x, "activation") @ codec.reconstruct(w, "weight")
    rtn_err = _frobenius(ref, rtn) / ref_norm
    plan, err, qx = search_alpha(x, w, codec, ALPHA_GRID if alpha is None else (alpha,), ref=ref)
    return ref, ref_norm, rtn_err, plan, err / ref_norm, qx


def smoothquant_pipeline(x, w, fmt, alpha=None):
    """Migration-only pipeline: reports plain-RTN and smoothed product errors."""
    codec = as_codec(fmt)
    _, _, rtn_err, plan, smooth_err, _ = _smoothing_stage(x, w, codec, alpha)
    return SmoothReport(codec.selector, plan.alpha, rtn_err, smooth_err)


def svdquant_pipeline(x, w, fmt, rank=16, alpha=None):
    """Smooth, split the smoothed weight, quantize residual and activations.

    The reconstruction is (x' @ L1) @ L2 + Q(x') @ Q(residual), with no
    dense L1 @ L2 beyond the one the residual needs; its relative
    Frobenius error is reported next to the smoothing-only and plain
    round-to-nearest figures. The migration strength comes from the
    smoothing objective, or is ``alpha`` when given.
    """
    codec = as_codec(fmt)
    ref, ref_norm, rtn_err, plan, smooth_err, qx = _smoothing_stage(x, w, codec, alpha, rank)
    xs, ws = apply_smoothing(x, w, plan)
    branch = svd_split(ws, rank)
    del ws  # the split holds what is left of it
    recon = (xs.data @ branch.l1) @ branch.l2 + qx @ codec.reconstruct(branch.residual, "weight")
    svdq_err = _frobenius(ref, recon) / ref_norm
    return PipelineReport(codec.selector, plan.alpha, int(rank), rtn_err, smooth_err, svdq_err)
