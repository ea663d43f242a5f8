"""Post-training transforms: per-channel difficulty migration and low-rank splitting.

Both transforms are format-agnostic: they rewrite (X, W) so that a
downstream codec sees easier distributions, while the exact product X @ W
is preserved (smoothing) or reproduced by a high-precision side branch
(low-rank split).

Smoothing rewrites Y = X W as (X diag(s)^-1)(diag(s) W) with
s_j = max|X[:, j]|**alpha / max|W[j, :]|**(1 - alpha); alpha in [0, 1]
controls how much outlier mass migrates from activations into weights.

The low-rank split W = L1 @ L2 + residual keeps the top singular
directions exact and quantizes only the residual.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import AlphaOutOfRange, LengthMismatch, NonConvergence, RankOutOfRange, ShapeMismatch
from .registry import as_codec
from .tensor import Tensor, as_array

__all__ = [
    "ALPHA_GRID",
    "SmoothingPlan",
    "LowRankBranch",
    "smooth_scales",
    "apply_smoothing",
    "invert_smoothing",
    "search_alpha",
    "svd_split",
    "smoothquant_pipeline",
    "svdquant_pipeline",
    "SmoothReport",
    "PipelineReport",
]

ALPHA_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))  # 0.1 .. 0.9
_MAX_FLOOR = 1e-8
_S_LO, _S_HI = 1e-5, 1e5


@dataclass(frozen=True)
class SmoothingPlan:
    scales: np.ndarray  # one positive scale per inner-dimension channel
    alpha: float
    activation_max: np.ndarray
    weight_max: np.ndarray


@dataclass(frozen=True)
class LowRankBranch:
    l1: np.ndarray  # (d, r); W V or U, not U Sigma (see svd_split)
    l2: np.ndarray  # (r, n)
    rank: int
    residual: np.ndarray  # (d, n); l1 @ l2 + residual == input matrix

    @property
    def product(self):
        return self.l1 @ self.l2


def _check_alpha(alpha):
    if not 0.0 <= alpha <= 1.0:  # NaN fails too
        raise AlphaOutOfRange(f"alpha must be in [0, 1], got {alpha}")


def _check_rank(rank, shape):
    if not 1 <= rank <= min(shape):
        raise RankOutOfRange(f"rank {rank} not in [1, {min(shape)}] for shape {shape}")


def smooth_scales(x_colmax, w_rowmax, alpha):
    """Per-channel scales from column maxima of X and row maxima of W.

    Maxima are floored at 1e-8 and scales clamped to [1e-5, 1e5] so
    degenerate (all-zero) channels cannot produce zero or infinite scales.
    """
    xm = np.asarray(x_colmax, dtype=np.float64).ravel()
    wm = np.asarray(w_rowmax, dtype=np.float64).ravel()
    if xm.shape != wm.shape:
        raise LengthMismatch(f"activation maxima ({xm.size}) vs weight maxima ({wm.size})")
    _check_alpha(alpha)
    xm = np.maximum(xm, _MAX_FLOOR)
    wm = np.maximum(wm, _MAX_FLOOR)
    s = np.clip(xm**alpha / wm ** (1.0 - alpha), _S_LO, _S_HI)
    return SmoothingPlan(s, float(alpha), xm, wm)


def _matrices(x, w):
    """X and W as arrays: both 2-D with matching inner dimensions, else ShapeMismatch."""
    xa, wa = as_array(x), as_array(w)
    if xa.ndim != 2 or wa.ndim != 2 or xa.shape[1] != wa.shape[0]:
        raise ShapeMismatch(f"need x (m, d) and w (d, n), got x {xa.shape} and w {wa.shape}")
    return xa, wa


def _maxima(xa, wa):
    return np.max(np.abs(xa), axis=0), np.max(np.abs(wa), axis=1)


def plan_for(x, w, alpha):
    """Build a SmoothingPlan from the tensors themselves."""
    return smooth_scales(*_maxima(*_matrices(x, w)), alpha)


def apply_smoothing(x, w, plan):
    """Return (x / s columnwise, s * w rowwise); the product is unchanged."""
    xa, wa = as_array(x), as_array(w)
    s = plan.scales
    if xa.shape[-1] != s.size or wa.shape[0] != s.size:
        raise ShapeMismatch(
            f"plan length {s.size} does not match x {xa.shape} / w {wa.shape}")
    return Tensor(xa / s, getattr(x, "name", None)), Tensor(s[:, None] * wa, getattr(w, "name", None))


def invert_smoothing(x_s, w_s, plan):
    """Undo apply_smoothing; exact in exact arithmetic."""
    xa, wa = as_array(x_s), as_array(w_s)
    s = plan.scales
    return Tensor(xa * s), Tensor(wa / s[:, None])


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
        err = float(np.linalg.norm(qx @ codec.reconstruct(ws, "weight") - ref))
        if best is None or err < best[1]:
            best = (plan, err, qx)
    return best


def svd_split(w, rank):
    """Split a matrix into its top-``rank`` singular part plus a residual.

    The top singular vectors of the smaller side are the top eigenvectors
    of its Gram matrix, so no full SVD is needed. A tall W (d >= n) gives
    ``l1 = W V, l2 = V^T`` from ``W^T W``; a wide one gives ``l1 = U,
    l2 = U^T W`` from ``W W^T``. l1 is not U Sigma, but ``l1 @ l2`` is the
    rank-``rank`` SVD part up to rounding.
    """
    wa = as_array(w)
    if wa.ndim != 2:
        raise ShapeMismatch(f"svd_split needs a matrix, got shape {wa.shape}")
    _check_rank(rank, wa.shape)
    tall = wa.shape[0] >= wa.shape[1]
    try:
        _, vecs = np.linalg.eigh(wa.T @ wa if tall else wa @ wa.T)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigendecomposition failed to converge: {exc}") from exc
    top = vecs[:, -rank:][:, ::-1]  # eigh sorts ascending; strongest direction first
    l1, l2 = (wa @ top, top.T) if tall else (top, top.T @ wa)
    return LowRankBranch(l1, l2, int(rank), wa - l1 @ l2)


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
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        raise ShapeMismatch("x @ w vanishes; relative errors are undefined")
    rtn = codec.reconstruct(x, "activation") @ codec.reconstruct(w, "weight")
    rtn_err = float(np.linalg.norm(rtn - ref)) / ref_norm
    plan, err, qx = search_alpha(x, w, codec, ALPHA_GRID if alpha is None else (alpha,), ref=ref)
    return ref, ref_norm, rtn_err, plan, err / ref_norm, qx


def smoothquant_pipeline(x, w, fmt, alpha=None):
    """Migration-only pipeline: reports plain-RTN and smoothed product errors."""
    codec = as_codec(fmt)
    _, _, rtn_err, plan, smooth_err, _ = _smoothing_stage(x, w, codec, alpha)
    return SmoothReport(codec.selector, plan.alpha, rtn_err, smooth_err)


def svdquant_pipeline(x, w, fmt, rank=16, alpha=None):
    """Smooth, split the smoothed weight, quantize residual and activations.

    The reconstruction is x' @ L1L2 + Q(x') @ Q(residual); its relative
    Frobenius error is reported next to the smoothing-only and plain
    round-to-nearest figures. The migration strength comes from the
    smoothing objective, or is ``alpha`` when given.
    """
    codec = as_codec(fmt)
    ref, ref_norm, rtn_err, plan, smooth_err, qx = _smoothing_stage(x, w, codec, alpha, rank)
    xs, ws = apply_smoothing(x, w, plan)
    branch = svd_split(ws, rank)
    recon = xs.data @ branch.product + qx @ codec.reconstruct(branch.residual, "weight")
    svdq_err = float(np.linalg.norm(recon - ref)) / ref_norm
    return PipelineReport(codec.selector, plan.alpha, int(rank), rtn_err, smooth_err, svdq_err)
