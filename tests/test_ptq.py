import math
import warnings

import numpy as np
import pytest

from lofiq import ptq
from lofiq.errors import (
    AlphaOutOfRange,
    LengthMismatch,
    LofiqError,
    NonConvergence,
    NonFiniteValue,
    RankOutOfRange,
    ShapeMismatch,
)
from lofiq.ptq import (
    ALPHA_GRID,
    apply_smoothing,
    search_alpha,
    smooth_scales,
    smoothquant_pipeline,
    svd_split,
    svdquant_pipeline,
)
from lofiq.registry import parse_format
from lofiq.tensor import tensor

from oracles import jacobi_singular_values


def plan_at(x, w, alpha):
    """The smoothing plan of arrays x and w: smooth_scales on max|x| per column, max|w| per row."""
    return smooth_scales(np.abs(x).max(axis=0), np.abs(w).max(axis=1), alpha)


class TestSmoothScales:
    def test_balanced(self):
        plan = smooth_scales([8.0], [2.0], 0.5)
        assert plan.scales[0] == 2.0  # sqrt(8)/sqrt(2)

    def test_alpha_one_takes_activation_max(self):
        assert smooth_scales([8.0], [2.0], 1.0).scales[0] == 8.0

    def test_alpha_zero_takes_inverse_weight_max(self):
        assert smooth_scales([8.0], [2.0], 0.0).scales[0] == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            smooth_scales([1.0, 2.0], [1.0], 0.5)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            smooth_scales([1.0], [1.0], 1.5)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    def test_alpha_range_is_a_typed_error(self, alpha):
        with pytest.raises(AlphaOutOfRange) as info:
            smooth_scales([1.0], [1.0], alpha)
        assert isinstance(info.value, LofiqError)
        assert isinstance(info.value, ValueError)

    def test_degenerate_channel_clamps(self):
        # a zero maximum is floored at 2**-40 times its side's largest, an all-zero side at 1
        assert smooth_scales([0.0, 4.0], [1.0, 0.0], 0.5).scales.tolist() == [2.0**-19, 2.0**21]
        for xm, wm in [([0.0], [1e9]), ([1e30], [1e-30]), ([0.0, 0.0], [0.0, 3.0]), ([0.0], [0.0])]:
            s = smooth_scales(xm, wm, 0.9).scales
            assert np.all(s > 0) and np.all(np.isfinite(s)), (xm, wm)


class TestApplySmoothing:
    def test_identity_plan(self):
        x = tensor(np.ones((4, 3)))
        w = tensor(np.ones((3, 2)))
        plan = smooth_scales(np.ones(3), np.ones(3), 0.5)
        xs, ws = apply_smoothing(x, w, plan)
        assert np.array_equal(xs.data, x.data)
        assert np.array_equal(ws.data, w.data)

    def test_uniform_two(self):
        rng = np.random.default_rng(0)
        x = tensor(rng.normal(size=(4, 3)))
        w = tensor(rng.normal(size=(3, 2)))
        plan = smooth_scales(4 * np.ones(3), np.ones(3), 0.5)
        assert np.all(plan.scales == 2.0)
        xs, ws = apply_smoothing(x, w, plan)
        assert np.array_equal(xs.data, x.data / 2)
        assert np.array_equal(ws.data, 2 * w.data)

    def test_product_preserved(self):
        rng = np.random.default_rng(1)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(64, 64))
            w = rng.normal(size=(64, 64))
            plan = plan_at(x, w, 0.5)
            xs, ws = apply_smoothing(tensor(x), tensor(w), plan)
            ref = x @ w
            err = np.linalg.norm(xs.data @ ws.data - ref) / np.linalg.norm(ref)
            assert err <= 1e-12

    def test_invert_recovers(self):
        rng = np.random.default_rng(2)
        x, w = rng.normal(size=(8, 6)), rng.normal(size=(6, 4))
        plan = plan_at(x, w, 0.7)
        xs, ws = apply_smoothing(tensor(x), tensor(w), plan)
        s = plan.scales  # the inverse: x' s columnwise, w' / s rowwise
        assert np.allclose(xs.data * s, x, rtol=1e-14)
        assert np.allclose(ws.data / s[:, None], w, rtol=1e-14)

    def test_shape_mismatch(self):
        plan = smooth_scales(np.ones(3), np.ones(3), 0.5)
        with pytest.raises(ShapeMismatch):
            apply_smoothing(tensor(np.ones((2, 4))), tensor(np.ones((4, 2))), plan)

    def test_scaling_x_scales_plan(self):
        # scaling x by 4 with alpha 0.5 exactly doubles every channel scale
        rng = np.random.default_rng(3)
        x, w = rng.normal(size=(16, 8)), rng.normal(size=(8, 16))
        p1 = plan_at(x, w, 0.5)
        p4 = plan_at(4.0 * x, w, 0.5)
        assert np.array_equal(p4.scales, 2.0 * p1.scales)


class TestSearchAlpha:
    def test_outlier_instance_prefers_max_migration(self):
        # identity weights quantize exactly under any channel scaling, so the
        # objective is the activation error alone. One channel carries a
        # 3**10 outlier ratio: after full migration each token row becomes
        # {0, u, 3u}, which the 255-level zero-point grid represents exactly
        # (code 85), so the exhaustive grid optimum sits at 0.9.
        rng = np.random.default_rng(4)
        u = rng.uniform(0.5, 1.5, size=32)
        x = np.zeros((32, 3))
        x[:, 1] = u
        x[:, 2] = u * 3.0**10
        w = np.eye(3)
        codec = parse_format("int8")
        # independent evaluation of the nine-point grid
        best = None
        for a in ALPHA_GRID:
            plan = plan_at(x, w, a)
            xs, ws = apply_smoothing(tensor(x), tensor(w), plan)
            qx = codec.reconstruct(xs.data, "activation")
            qw = codec.reconstruct(ws.data, "weight")
            err = np.linalg.norm(qx @ qw - x @ w)
            if best is None or err < best[1]:
                best = (a, err)
        assert best[0] == 0.9
        plan, _, _ = search_alpha(tensor(x), tensor(w), "int8")
        assert plan.alpha == 0.9

    def test_tie_prefers_smaller_alpha(self):
        # all-ones instance: every alpha gives scales 1 and zero error
        x = tensor(np.ones((4, 4)))
        w = tensor(np.ones((4, 4)))
        plan, _, _ = search_alpha(x, w, "e4m3")
        assert plan.alpha == 0.1

    def test_single_point_grid(self):
        x = tensor(np.ones((4, 4)))
        w = tensor(np.ones((4, 4)))
        plan, _, _ = search_alpha(x, w, "e4m3", grid=(0.4,))
        assert plan.alpha == 0.4

    def test_argmin_invariant_under_x_scaling(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(32, 16)) * 0.05
        x[:, 2] *= 300
        w = rng.normal(size=(16, 16)) * 0.02
        p1, _, _ = search_alpha(tensor(x), tensor(w), "int8")
        p2, _, _ = search_alpha(tensor(4.0 * x), tensor(w), "int8")
        assert p1.alpha == p2.alpha

    def test_returns_the_winner(self):
        # the error and Q(x') handed back are those of the winning plan,
        # evaluated independently at its alpha
        rng = np.random.default_rng(14)
        x = rng.normal(size=(24, 16)) * 0.05
        x[:, 5] *= 200
        w = rng.normal(size=(16, 8)) * 0.02
        codec = parse_format("int8")
        plan, err, qx = search_alpha(tensor(x), tensor(w), codec)
        ref_plan = plan_at(x, w, plan.alpha)
        assert np.array_equal(plan.scales, ref_plan.scales)
        xs, ws = apply_smoothing(tensor(x), tensor(w), ref_plan)
        want_qx = codec.reconstruct(xs.data, "activation")
        want = np.linalg.norm(want_qx @ codec.reconstruct(ws.data, "weight") - x @ w)
        assert np.array_equal(qx, want_qx)
        assert err == want
        for a in ALPHA_GRID:
            p = plan_at(x, w, a)
            xs, ws = apply_smoothing(tensor(x), tensor(w), p)
            qa = codec.reconstruct(xs.data, "activation") @ codec.reconstruct(ws.data, "weight")
            assert err <= np.linalg.norm(qa - x @ w)

    def test_takes_the_product_from_its_caller(self):
        rng = np.random.default_rng(16)
        x, w = tensor(rng.normal(size=(12, 8))), tensor(rng.normal(size=(8, 6)))
        codec = parse_format("int8")
        plan, err, qx = search_alpha(x, w, codec)
        given = search_alpha(x, w, codec, ref=x.data @ w.data)
        assert given[0].alpha == plan.alpha and given[1] == err
        assert np.array_equal(given[2], qx)
        # the product passed in is the one measured against
        _, err0, qx0 = search_alpha(x, w, codec, grid=(0.5,), ref=np.zeros((12, 6)))
        ws = apply_smoothing(x, w, plan_at(x.data, w.data, 0.5))[1]
        e = qx0 @ codec.reconstruct(ws, "weight")
        assert err0 == math.sqrt(np.add.reduce((e * e).ravel()))

    @pytest.mark.parametrize("x_shape,w_shape", [((4,), (4, 4)), ((4, 4), (4,)), ((), (4, 4)),
                                                 ((4, 3), (4, 4)), ((2, 4, 4), (4, 4))])
    def test_shape_mismatch(self, x_shape, w_shape):
        x, w = tensor(np.ones(x_shape)), tensor(np.ones(w_shape))
        with pytest.raises(ShapeMismatch):
            search_alpha(x, w, "int8")

    @pytest.mark.parametrize("x_shape,w_shape", [((0, 4), (4, 3)), ((2, 4), (4, 0)),
                                                 ((2, 0), (0, 3))])
    def test_empty_inputs_rejected(self, x_shape, w_shape):
        # a zero-size X or W is a typed error, not numpy's bare ValueError
        # from a max over an empty axis, nor an empty plan
        x, w = tensor(np.ones(x_shape)), tensor(np.ones(w_shape))
        with pytest.raises(ShapeMismatch):
            search_alpha(x, w, "int8")
        plan = smooth_scales(np.ones(x_shape[1]), np.ones(x_shape[1]), 0.5)
        with pytest.raises(ShapeMismatch):
            apply_smoothing(x, w, plan)
        for pipeline in (smoothquant_pipeline, svdquant_pipeline):
            with pytest.raises(ShapeMismatch):
                pipeline(x, w, "int8")


def _svd_product(w, r):
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    return (u[:, :r] * s[:r]) @ vh[:r]


def _gram(w):
    return w.T @ w if w.shape[0] >= w.shape[1] else w @ w.T


def _eigh_product(w, r):
    """The rank-r product of the full-eigh split: what the fallback must return."""
    top = np.linalg.eigh(_gram(w))[1][:, -r:][:, ::-1]
    return (w @ top) @ top.T if w.shape[0] >= w.shape[1] else top @ (top.T @ w)


def _with_spectrum(shape, sv, seed):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(shape[0], sv.size)))
    v, _ = np.linalg.qr(rng.normal(size=(shape[1], sv.size)))
    return (u * sv) @ v.T


def _low_rank(shape, k, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(shape[0], k)) @ rng.normal(size=(k, shape[1]))


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of every np.linalg.eigh call: the Ritz steps and any fallback."""
    calls, real = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


class TestSvdSplit:
    def test_rank_one_exact(self):
        u = np.arange(1.0, 9.0)[:, None]
        v = np.arange(1.0, 6.0)[None, :]
        w = u @ v
        b = svd_split(tensor(w), 1)
        assert np.linalg.norm(b.residual) <= 1e-10 * np.linalg.norm(w)

    def test_diagonal(self):
        b = svd_split(tensor(np.diag([5.0, 3.0, 1.0])), 1)
        assert np.allclose(b.l1 @ b.l2, np.diag([5.0, 0.0, 0.0]), atol=1e-12)
        assert np.allclose(b.residual, np.diag([0.0, 3.0, 1.0]), atol=1e-12)

    def test_full_rank_zero_residual(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(7, 5))
        b = svd_split(tensor(w), 5)
        assert np.linalg.norm(b.residual) <= 1e-12 * np.linalg.norm(w)

    def test_rank_bounds(self):
        w = tensor(np.ones((4, 4)))
        with pytest.raises(RankOutOfRange):
            svd_split(w, 0)
        with pytest.raises(RankOutOfRange):
            svd_split(w, 5)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(12, 9))
        b = svd_split(tensor(w), 4)
        assert np.allclose(b.l1 @ b.l2 + b.residual, w, atol=1e-12)
        assert np.linalg.matrix_rank(b.l1 @ b.l2, tol=1e-10) <= 4

    def test_tail_energy_matches_jacobi_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = int(rng.integers(3, 33))
            n = int(rng.integers(3, 33))
            r = int(rng.integers(1, min(m, n) + 1))
            w = rng.normal(size=(m, n))
            b = svd_split(tensor(w), r)
            sv = jacobi_singular_values(w)
            tail = float(np.sum(sv[r:] ** 2))
            res = float(np.linalg.norm(b.residual) ** 2)
            assert abs(res - tail) <= 1e-8 * float(np.linalg.norm(w) ** 2)

    @pytest.mark.parametrize("shape", [(64, 24), (24, 64), (32, 32)])
    def test_matches_svd_product(self, shape):
        w = np.random.default_rng(10).normal(size=shape)
        for r in (1, 5, min(shape)):
            b = svd_split(tensor(w), r)
            assert b.l1.shape == (shape[0], r) and b.l2.shape == (r, shape[1])
            err = np.linalg.norm(b.l1 @ b.l2 - _svd_product(w, r))
            assert err <= 1e-12 * np.linalg.norm(w), (shape, r)
            assert np.array_equal(b.residual, w - b.l1 @ b.l2)

    @pytest.mark.parametrize("shape", [(48, 20), (20, 48)])
    def test_matches_svd_product_on_decaying_spectrum(self, shape):
        # sigma_k = 2^-k: the Gram matrix squares the spread to 4^-k, and
        # every rank still sees a clear gap to the next singular value
        rng = np.random.default_rng(11)
        k = min(shape)
        u, _ = np.linalg.qr(rng.normal(size=(shape[0], k)))
        v, _ = np.linalg.qr(rng.normal(size=(shape[1], k)))
        w = (u * 2.0 ** -np.arange(k)) @ v.T
        for r in (1, 4, 8, k):
            b = svd_split(tensor(w), r)
            err = np.linalg.norm(b.l1 @ b.l2 - _svd_product(w, r))
            assert err <= 1e-12 * np.linalg.norm(w), (shape, r)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6)])
    def test_zero_matrix(self, shape):
        b = svd_split(tensor(np.zeros(shape)), 2)
        assert not np.any(b.residual)
        assert not np.any(b.l1 @ b.l2)

    def test_eckart_young_dominance(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(20, 14))
        r = 3
        b = svd_split(tensor(w), r)
        best = np.linalg.norm(b.residual)
        for _ in range(50):
            cand = rng.normal(size=(20, r)) @ rng.normal(size=(r, 14))
            # scale the competitor optimally toward w to make it a fair fight
            denom = np.vdot(cand, cand)
            if denom > 0:
                cand = cand * (np.vdot(cand, w) / denom)
            assert best <= np.linalg.norm(w - cand) + 1e-12


class TestKrylovSplit:
    """svd_split's block Krylov path, on matrices big enough to take it."""

    @pytest.mark.parametrize("shape,rank,decay,krylov", [
        ((1024, 512), 4, 0.97, True),  # converges within the 128-column cap
        ((512, 1024), 2, 0.97, True),
        ((512, 1024), 4, 1.0, False),  # flat spectrum: the cap is reached first
        ((640, 480), 4, 0.9, False),
    ])
    def test_gap_of_1_001(self, shape, rank, decay, krylov):
        # lambda_r / lambda_r+1 = 1.001: either the Krylov product meets the
        # bound, or the split is the full-eigh split bit for bit
        sv = decay ** np.arange(min(shape), dtype=float)
        sv[rank:] *= sv[rank - 1] / sv[rank] / np.sqrt(1.001)
        w = _with_spectrum(shape, sv, 3)
        assert (ptq._krylov_top(_gram(w), rank) is not None) == krylov
        b = svd_split(tensor(w), rank)
        if krylov:
            err = np.linalg.norm(b.l1 @ b.l2 - _svd_product(w, rank))
            assert err <= 1e-12 * np.linalg.norm(w)
        else:
            assert np.array_equal(b.l1 @ b.l2, _eigh_product(w, rank))

    @pytest.mark.parametrize("shape", [(768, 256), (256, 768)])
    def test_tall_and_wide(self, shape, eigh_calls):
        w = _with_spectrum(shape, 0.95 ** np.arange(256.0), 5)
        b = svd_split(tensor(w), 2)
        assert max(c[0] for c in eigh_calls) < 256  # Ritz steps only, no full eigh
        assert b.l1.shape == (shape[0], 2) and b.l2.shape == (2, shape[1])
        assert np.linalg.norm(b.l1 @ b.l2 - _svd_product(w, 2)) <= 1e-12 * np.linalg.norm(w)
        assert np.array_equal(b.residual, w - b.l1 @ b.l2)

    def test_reruns_are_bit_identical(self, eigh_calls):
        # the start block is drawn from a fixed seed
        w = _with_spectrum((256, 768), 0.95 ** np.arange(256.0), 6)
        a, b = svd_split(tensor(w), 2), svd_split(tensor(w), 2)
        assert max(c[0] for c in eigh_calls) < 256
        assert np.array_equal(a.l1, b.l1) and np.array_equal(a.residual, b.residual)

    def test_exact_rank_5_at_rank_16_falls_back(self, monkeypatch, eigh_calls):
        # the first block's projection is at roundoff level in 11 of 16
        # directions: no Ritz step, then the full eigh (the 128-column cap
        # holds 8 blocks of 16, so the size rule is relaxed to let it start)
        monkeypatch.setattr(ptq, "_MIN_BLOCKS", 8)
        w = _low_rank((512, 512), 5, 4)
        b = svd_split(tensor(w), 16)
        assert eigh_calls == [(512, 512)]
        assert np.linalg.norm(b.l1 @ b.l2 - _svd_product(w, 16)) <= 1e-12 * np.linalg.norm(w)
        assert np.linalg.norm(b.residual) <= 1e-12 * np.linalg.norm(w)

    @pytest.mark.parametrize("shape", [(300, 300), (512, 256), (256, 512)])
    def test_exact_rank_4_at_rank_2_returns_ritz_pairs(self, shape, eigh_calls):
        # three blocks of 2 span the invariant space B_1 + range(G); the
        # fourth is roundoff, and one Ritz step on 6 columns decides
        w = _low_rank(shape, 4, 4)
        b = svd_split(tensor(w), 2)
        assert eigh_calls == [(6, 6)]
        assert np.linalg.norm(b.l1 @ b.l2 - _svd_product(w, 2)) <= 1e-12 * np.linalg.norm(w)

    @pytest.mark.parametrize("shape", [(300, 300), (512, 256), (256, 512)])
    def test_zero_matrix(self, shape, eigh_calls):
        # G B_1 = 0: the first projected block is at roundoff level
        b = svd_split(tensor(np.zeros(shape)), 2)
        assert eigh_calls == [(256, 256) if shape != (300, 300) else (300, 300)]
        assert not np.any(b.l1 @ b.l2) and not np.any(b.residual)

    @pytest.mark.parametrize("shape", [(20, 12), (12, 20), (16, 16), (9, 9)])
    def test_every_rank_with_small_constants(self, monkeypatch, shape):
        # a basis as wide as the matrix, one block allowed, a check after every block
        monkeypatch.setattr(ptq, "_CAP_DIV", 1)
        monkeypatch.setattr(ptq, "_MIN_BLOCKS", 1)
        monkeypatch.setattr(ptq, "_CHECK_EVERY", 1)
        w = np.random.default_rng(12).normal(size=shape)
        krylov = 0
        for r in range(1, min(shape) + 1):
            krylov += ptq._krylov_top(_gram(w), r) is not None
            b = svd_split(tensor(w), r)
            err = np.linalg.norm(b.l1 @ b.l2 - _svd_product(w, r))
            assert err <= 1e-12 * np.linalg.norm(w), (shape, r)
            assert np.array_equal(b.residual, w - b.l1 @ b.l2)
        assert krylov >= 2

    @pytest.mark.parametrize("shape,rank", [((6, 4), 2), ((300, 300), 2)])
    def test_eigh_failure_is_nonconvergence(self, monkeypatch, shape, rank):
        # the fallback's eigh and the Ritz step's eigh both map to NonConvergence
        def boom(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        w = tensor(np.random.default_rng(14).normal(size=shape))
        with pytest.raises(NonConvergence, match="did not converge"):
            svd_split(w, rank)


class _SpyCodec:
    """Counts the reconstruct calls a pipeline makes through a real codec."""

    def __init__(self, selector):
        self.codec = parse_format(selector)
        self.selector = self.codec.selector
        self.calls = 0

    def reconstruct(self, t, role, pad=False):
        self.calls += 1
        return self.codec.reconstruct(t, role, pad)


class TestPipelines:
    def test_smooth_report_fields(self):
        rng = np.random.default_rng(10)
        x = tensor(rng.normal(size=(32, 32)))
        w = tensor(rng.normal(size=(32, 32)))
        rep = smoothquant_pipeline(x, w, "int8")
        assert rep.alpha in ALPHA_GRID
        assert rep.rtn_rel_err > 0
        assert rep.smooth_rel_err > 0

    def test_fixed_alpha_echo(self):
        rng = np.random.default_rng(11)
        x = tensor(rng.normal(size=(16, 16)))
        w = tensor(rng.normal(size=(16, 16)))
        rep = smoothquant_pipeline(x, w, "int8", alpha=0.5)
        assert rep.alpha == 0.5

    def test_full_rank_collapses_weight_error(self):
        rng = np.random.default_rng(12)
        x = tensor(rng.normal(size=(32, 16)))
        w = tensor(rng.normal(size=(16, 16)))
        rep = svdquant_pipeline(x, w, "int8", rank=16)
        # residual ~ 0 leaves only activation-side quantization in the error
        assert rep.svdq_rel_err <= rep.smooth_rel_err

    def test_svdq_error_of_the_factored_branch(self):
        # (x' @ L1) @ L2 in place of x' @ (L1 @ L2): the same error up to rounding
        rng = np.random.default_rng(16)
        x, w = tensor(rng.normal(size=(24, 32))), tensor(rng.normal(size=(32, 20)))
        rep = svdquant_pipeline(x, w, "int8", rank=4, alpha=0.5)
        codec = parse_format("int8")
        xs, ws = apply_smoothing(x, w, plan_at(x.data, w.data, 0.5))
        b = svd_split(ws, 4)
        ref = x.data @ w.data
        recon = xs.data @ (b.l1 @ b.l2) + (codec.reconstruct(xs, "activation")
                                       @ codec.reconstruct(b.residual, "weight"))
        err = float(np.linalg.norm(recon - ref)) / float(np.linalg.norm(ref))
        assert rep.svdq_rel_err == pytest.approx(err, rel=1e-12)

    def test_rank_zero_rejected(self):
        x = tensor(np.ones((4, 4)))
        w = tensor(np.ones((4, 4)))
        with pytest.raises(RankOutOfRange):
            svdquant_pipeline(x, w, "int8", rank=0)

    @pytest.mark.parametrize("pipeline,kwargs,error", [
        (svdquant_pipeline, {"rank": 0}, RankOutOfRange),
        (svdquant_pipeline, {"rank": 9}, RankOutOfRange),
        (svdquant_pipeline, {"alpha": 1.5}, AlphaOutOfRange),
        (smoothquant_pipeline, {"alpha": -0.5}, AlphaOutOfRange),
        (smoothquant_pipeline, {"alpha": float("nan")}, AlphaOutOfRange)])
    def test_arguments_checked_before_any_quantization(self, pipeline, kwargs, error):
        rng = np.random.default_rng(17)
        x, w = tensor(rng.normal(size=(6, 8))), tensor(rng.normal(size=(8, 10)))
        spy = _SpyCodec("int8")
        with pytest.raises(error):
            pipeline(x, w, spy, **kwargs)
        assert spy.calls == 0

    def test_low_rank_branch_beats_rtn(self):
        rng = np.random.default_rng(13)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = tensor(rng.normal(size=(128, 128)) * 0.02)
            w = tensor(rng.normal(size=(128, 128)) * 0.02)
            rep = svdquant_pipeline(x, w, "hif4", rank=16)
            assert rep.svdq_rel_err <= rep.rtn_rel_err

    @pytest.mark.parametrize("pipeline,alpha,calls", [
        (svdquant_pipeline, None, 21), (svdquant_pipeline, 0.3, 5),
        (smoothquant_pipeline, None, 20), (smoothquant_pipeline, 0.3, 4)])
    def test_reconstruct_calls(self, pipeline, alpha, calls):
        # RTN takes 2, each grid point 2, and svdq's residual 1; the winner
        # is never quantized again
        rng = np.random.default_rng(15)
        x = tensor(rng.normal(size=(16, 24)))
        w = tensor(rng.normal(size=(24, 20)))
        spy = _SpyCodec("int8")
        rep = pipeline(x, w, spy, alpha=alpha)
        assert spy.calls == calls
        assert rep.to_dict() == pipeline(x, w, "int8", alpha=alpha).to_dict()

    @pytest.mark.parametrize("pipeline", [smoothquant_pipeline, svdquant_pipeline])
    @pytest.mark.parametrize("x_shape,w_shape", [((4,), (4, 4)), ((4, 4), (4,)), ((), ()),
                                                 ((4, 3), (4, 4))])
    def test_shape_mismatch(self, pipeline, x_shape, w_shape):
        with pytest.raises(ShapeMismatch):
            pipeline(tensor(np.ones(x_shape)), tensor(np.ones(w_shape)), "int8")

    @pytest.mark.parametrize("pipeline", [smoothquant_pipeline, svdquant_pipeline])
    def test_squares_beyond_float64(self, pipeline):
        # |x @ w|_F is near 1e162, but its square is not a float64
        rng = np.random.default_rng(17)
        x = rng.normal(0.0, 1e160, (16, 24))
        w = tensor(rng.normal(size=(24, 20)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning
            big = pipeline(tensor(x), w, "int8").to_dict()
        # int8 rounding commutes with power-of-two scaling, and so does smoothing's floor
        small = pipeline(tensor(np.ldexp(x, -600)), w, "int8").to_dict()
        assert big["rtn_rel_err"] == small["rtn_rel_err"]
        assert big["alpha"] == small["alpha"]
        errors = [k for k in big if k.endswith("_rel_err")]
        assert len(errors) >= 2 and all(0.0 < big[k] < 0.1 for k in errors)
        assert all(small[k] == pytest.approx(big[k], rel=1e-9) for k in errors)

    @pytest.mark.parametrize("k", [300, -300])
    def test_alpha_search_does_not_depend_on_units(self, k):
        # one channel x50: alpha 0.4 and error 0.00219 at unit scale, and under
        # an absolute floor on the maxima X 2**300 picked 0.1 with no gain
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 24))
        x[:, 3] *= 50
        w = tensor(rng.normal(size=(24, 20)))
        unit = smoothquant_pipeline(tensor(x), w, "int8")
        scaled = smoothquant_pipeline(tensor(np.ldexp(x, k)), w, "int8")
        assert (unit.alpha, scaled.alpha) == (0.4, 0.4)
        assert unit.smooth_rel_err == pytest.approx(0.00219, abs=1e-5)
        assert scaled.smooth_rel_err == pytest.approx(unit.smooth_rel_err, rel=1e-9)

    def test_product_beyond_float64_raises(self):
        # each entry of x @ w is 8e307, and |x @ w|_F is 3.2e308
        x, w = tensor(np.full((4, 4), 1e300)), tensor(np.full((4, 4), 2e7))
        with pytest.raises(NonFiniteValue, match="overflows"):
            smoothquant_pipeline(x, w, "int8")
