import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lofiq import metrics
from lofiq.cli import main
from lofiq.errors import NonFiniteValue, ShapeMismatch, ZeroSignal
from lofiq.metrics import (
    FidelityReport,
    SyntheticSpec,
    compare_formats,
    emit_report,
    fidelity_from_reconstruction,
    report_rows,
    sqnr,
    synth,
)
from lofiq.registry import parse_format
from lofiq.tensor import save_tensors, tensor

CHUNKS = sys.modules["lofiq.tensor"]  # the name lofiq.tensor is the function


class TestSqnr:
    def test_exact_reconstruction_is_inf(self):
        t = tensor([1.0, 2.0])
        assert sqnr(t, t) == math.inf

    def test_three_four(self):
        assert abs(sqnr(tensor([3.0, 4.0]), tensor([3.0, 3.0])) - 13.9794) < 1e-4

    def test_zero_reconstruction_is_zero_db(self):
        t = tensor([1.0, -2.0])
        db = sqnr(t, tensor([0.0, 0.0]))
        assert db == 0.0 and math.copysign(1.0, db) == 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        xh = x + rng.normal(size=100) * 0.01
        base = sqnr(tensor(x), tensor(xh))
        for c in (3.7, -2.0, 1e-6):
            assert abs(sqnr(tensor(c * x), tensor(c * xh)) - base) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            sqnr(tensor([1.0]), tensor([1.0, 2.0]))

    def test_zero_signal(self):
        with pytest.raises(ZeroSignal):
            sqnr(tensor([0.0]), tensor([1.0]))
        # a zero error is exact, whatever the signal
        assert sqnr(tensor([0.0]), tensor([0.0])) == math.inf


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_raw_arrays_rejected(self, bad):
        x = np.array([1.0, 2.0, bad])
        ok = np.array([1.0, 2.0, 3.0])
        with pytest.raises(NonFiniteValue):
            sqnr(x, ok)
        with pytest.raises(NonFiniteValue):
            sqnr(ok, x)

    def test_precomputed_norms(self):
        rng = np.random.default_rng(1)
        x, xh = rng.normal(size=(8, 16)), rng.normal(size=(8, 16))
        want = sqnr(x, xh)
        ref, err = float(np.linalg.norm(x)), float(np.linalg.norm(xh - x))
        assert sqnr(x, xh, ref_norm=ref) == want
        assert sqnr(x, xh, err_norm=err) == want
        assert sqnr(None, None, ref_norm=ref, err_norm=err) == want
        # a (value, k) pair stands for value * 2**k
        assert sqnr(x, xh, ref_norm=(ref / 8, 3)) == want
        assert sqnr(None, None, ref_norm=(ref, 0), err_norm=(err * 2.0**600, -600)) == want
        # a ratio beyond float64 still gives finite dB
        assert sqnr(None, None, ref_norm=(ref, 2000), err_norm=err) == pytest.approx(
            want + 20 * 2000 * math.log10(2), rel=1e-12)
        for zero in (0.0, (0.0, 0), (0.0, 7)):
            with pytest.raises(ZeroSignal):
                sqnr(None, None, ref_norm=zero, err_norm=err)
            assert sqnr(None, None, ref_norm=zero, err_norm=zero) == math.inf


class TestOverflow:
    """Figures whose plain sums overflow float64 are those of the plain formula."""

    C = 2.0**1000  # scaling by a power of two moves exponents only

    def _pair(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(16, 8))
        return x, x + rng.normal(scale=1e-3, size=x.shape)

    def test_scaled_data_reports_the_same_figures(self):
        x, xh = self._pair()
        codec = parse_format("e4m3")
        want = fidelity_from_reconstruction(tensor(x), xh, codec, "weight")
        got = fidelity_from_reconstruction(tensor(x * self.C), xh * self.C, codec, "weight")
        assert (got.sqnr_db, got.rel_fro_err) == (want.sqnr_db, want.rel_fro_err)
        assert (got.max_abs_err, got.mean_abs_err) == (want.max_abs_err * self.C,
                                                       want.mean_abs_err * self.C)
        assert sqnr(x * self.C, xh * self.C) == sqnr(x, xh)

    def test_only_the_noise_overflows(self):
        x, xh = self._pair()
        xh = xh + np.random.default_rng(6).normal(size=x.shape) * 2.0**600
        r = fidelity_from_reconstruction(tensor(x), xh, parse_format("e4m3"), "weight")
        signal = sum(Fraction(v) ** 2 for v in x.ravel())
        noise = sum((Fraction(b) - Fraction(a)) ** 2 for a, b in zip(x.ravel(), xh.ravel()))
        ratio = noise / signal / 4**600
        assert r.sqnr_db == pytest.approx(-10 * (math.log10(ratio) + 1200 * math.log10(2)),
                                          rel=1e-12)
        assert r.rel_fro_err == pytest.approx(math.sqrt(ratio) * 2.0**600, rel=1e-12)

    def test_finite_squares_whose_sum_overflows(self):
        x = np.zeros(16)
        x[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            r = fidelity_from_reconstruction(tensor(x), np.full(16, 1e154),
                                             parse_format("e4m3"), "weight")
        noise = 15 * Fraction(1e154) ** 2 + (Fraction(1e154) - 1) ** 2
        assert r.sqnr_db == pytest.approx(-10 * math.log10(noise.numerator), rel=1e-12)
        assert r.rel_fro_err == pytest.approx(math.sqrt(noise / 2**1000) * 2.0**500, rel=1e-12)
        assert (r.max_abs_err, r.mean_abs_err) == (1e154, 1e154)

    def test_figures_beyond_float64_raise(self):
        codec = parse_format("e4m3")
        with pytest.raises(NonFiniteValue, match="the error of e4m3 overflows"):  # |recon - x|
            fidelity_from_reconstruction(tensor([1.7e308]), np.array([-1.7e308]), codec, "weight")
        # rel_fro_err alone: 1e160 / 1e-150, and hif8's 2**-22 over 5e-324
        with pytest.raises(NonFiniteValue, match="the relative error of e4m3 overflows"):
            fidelity_from_reconstruction(tensor([1e-150]), np.array([1e160]), codec, "weight")
        tiny, hif8 = tensor(np.full((4, 4), 5e-324), "tiny"), parse_format("hif8")
        with pytest.raises(NonFiniteValue, match="^tensor 'tiny': the relative error of hif8 "):
            fidelity_from_reconstruction(tiny, hif8.reconstruct(tiny, "weight"), hif8, "weight")


class TestUnderflow:
    """Figures whose plain squares underflow float64 are those of the plain formula."""

    C = 2.0**500

    def _same_figures_scaled(self, x, xh):
        codec = parse_format("int8")
        small = fidelity_from_reconstruction(tensor(x), xh, codec, "weight")
        big = fidelity_from_reconstruction(tensor(x * self.C), xh * self.C, codec, "weight")
        assert (small.sqnr_db, small.rel_fro_err) == (big.sqnr_db, big.rel_fro_err)
        assert (small.max_abs_err * self.C, small.mean_abs_err * self.C) == (big.max_abs_err,
                                                                             big.mean_abs_err)
        assert sqnr(x, xh) == sqnr(x * self.C, xh * self.C) == small.sqnr_db
        return small

    def test_every_square_underflows(self):
        x = np.random.default_rng(7).normal(scale=1e-200, size=(4, 4))
        codec = parse_format("int8")
        xh = codec.reconstruct(tensor(x), "weight")
        # int8 rounding commutes with power-of-two scaling
        assert np.array_equal(codec.reconstruct(tensor(x * self.C), "weight"), xh * self.C)
        r = self._same_figures_scaled(x, xh)
        assert 0 < r.sqnr_db < math.inf
        assert compare_formats(tensor(x), [codec], "weight") == [r]

    def test_only_the_noise_underflows(self):
        x = np.random.default_rng(8).normal(scale=1e-150, size=(4, 4))
        xh = x.copy()
        xh[1, 2] += 1e-164
        r = self._same_figures_scaled(x, xh)
        signal = sum(Fraction(v) ** 2 for v in x.ravel())
        ratio = (Fraction(xh[1, 2]) - Fraction(x[1, 2])) ** 2 / signal
        assert r.sqnr_db == pytest.approx(-10 * math.log10(ratio), rel=1e-12)
        assert r.rel_fro_err == pytest.approx(math.sqrt(ratio), rel=1e-12)


class TestFidelity:
    def test_fields_match_direct_formulas(self):
        rng = np.random.default_rng(2)
        t = tensor(rng.normal(size=(64, 64)), "w")
        codec = parse_format("mxfp4")
        recon = codec.reconstruct(t, "weight")
        x = t.data
        r = fidelity_from_reconstruction(t, recon, codec, "weight")
        e = recon - x
        x_norm = math.sqrt(np.add.reduce((x * x).ravel()))
        e_norm = math.sqrt(np.add.reduce((e * e).ravel()))
        assert r.sqnr_db == 20.0 * math.log10(x_norm / e_norm)
        assert r.sqnr_db == pytest.approx(10.0 * math.log10(float(np.sum(x * x))
                                                            / float(np.sum((x - recon) ** 2))),
                                          rel=1e-12)
        assert r.max_abs_err == float(np.abs(recon - x).max())
        assert r.mean_abs_err == float(np.abs(recon - x).mean())
        assert r.rel_fro_err == e_norm / x_norm
        # |x|_F computed once per tensor by compare_formats gives the same report
        assert compare_formats(t, [codec], "weight") == [r]
        # a Tensor reconstruction reports the same as its array
        assert fidelity_from_reconstruction(t, tensor(recon), codec, "weight") == r

    def test_zero_reconstruction_is_plus_zero_db(self, tmp_path):
        # e2m1's least positive value is 0.5, so data of sigma 0.02 rounds to all zeros
        t = synth(SyntheticSpec("gaussian", (16, 16), sigma=0.02, seed=0))
        codec = parse_format("e2m1")
        recon = codec.reconstruct(t, "weight")
        assert not np.any(recon)
        r = fidelity_from_reconstruction(t, recon, codec, "weight")
        assert r.sqnr_db == 0.0 and math.copysign(1.0, r.sqnr_db) == 1.0
        path = tmp_path / "r.json"
        emit_report([r], "json", path)
        assert '"sqnr_db": 0.0,' in path.read_text()

    # the formats perfbench compares
    @pytest.mark.parametrize("fmt", ["int8", "int4", "e4m3", "e5m2", "hif8", "hif8-scaled",
                                     "mxfp8-e4m3", "mxfp4", "mxint8", "nvfp4", "hif4"])
    def test_sqnr_is_the_relative_error_in_db(self, fmt):
        t = synth(SyntheticSpec("gaussian_outlier", (64, 64), sigma=0.02, outlier_fraction=0.01,
                                outlier_scale=50.0, seed=6))
        (r,) = compare_formats(t, [fmt], "weight")
        assert r.sqnr_db == pytest.approx(-20 * math.log10(r.rel_fro_err), rel=1e-12)

    @pytest.mark.parametrize("data,scale", [("overflow", 2.0**500), ("overflow", 2.0**-500),
                                            ("underflow", 1.0), ("underflow", 2.0**500)])
    def test_sqnr_is_the_relative_error_in_db_when_scaled(self, data, scale):
        # the data of TestOverflow and TestUnderflow (of scale 1e-200)
        codec = parse_format("int8")
        if data == "overflow":
            x, xh = TestOverflow()._pair()
        else:
            x = np.random.default_rng(7).normal(scale=1e-200, size=(4, 4))
            xh = codec.reconstruct(tensor(x), "weight")
        r = fidelity_from_reconstruction(tensor(x * scale), xh * scale, codec, "weight")
        assert r.sqnr_db == pytest.approx(-20 * math.log10(r.rel_fro_err), rel=1e-12)

    def test_zero_signal_names_the_tensor(self):
        codec = parse_format("int8")
        zeros = tensor(np.zeros(4), "bias")
        r = fidelity_from_reconstruction(zeros, np.zeros(4), codec, "weight")
        assert (r.sqnr_db, r.rel_fro_err) == (math.inf, 0.0)
        with pytest.raises(ZeroSignal, match="^tensor 'bias': signal energy is zero$") as exc:
            fidelity_from_reconstruction(zeros, np.ones(4), codec, "weight")
        assert exc.value.tensor == "bias"

    def test_reconstruction_checked(self):
        t = tensor([1.0, 2.0])
        codec = parse_format("e4m3")
        with pytest.raises(NonFiniteValue):
            fidelity_from_reconstruction(t, np.array([1.0, np.nan]), codec, "weight")
        with pytest.raises(ShapeMismatch):
            fidelity_from_reconstruction(t, np.array([1.0]), codec, "weight")

    @pytest.mark.parametrize("name,shown", [("w", "w"), (None, "<unnamed>")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_reconstruction_names_the_tensor(self, name, shown, bad):
        t = tensor([1.0, 2.0, 3.0], name)
        with pytest.raises(NonFiniteValue, match=rf"^tensor {re.escape(repr(shown))}: the "
                                                 r"reconstruction contains NaN or Inf$") as exc:
            fidelity_from_reconstruction(t, np.array([1.0, bad, 3.0]), parse_format("e4m3"),
                                         "weight")
        assert exc.value.tensor == shown


def _whole(a):
    """numpy's own sum of a whole array, in C order."""
    return np.add.reduce(a.ravel())


class TestOnePass:
    """max|e|, sum|e| and sum e**2 come from one slice pass; the figures are whole-array numpy's."""

    # 0-d up to a (heads, tokens, dim) key cache with groups along tokens
    CASES = [((), "weight", "e4m3"), ((1,), "weight", "hif8"), ((7,), "weight", "e4m3"),
             ((129,), "activation", "int8"), ((1000, 999), "weight", "int8"),
             ((3, 5, 7000), "activation", "hif8"), ((4, 512, 64), "kv", "int8")]

    @staticmethod
    def _id(v):
        return ("x".join(map(str, v)) or "0d") if isinstance(v, tuple) else v

    def _pair(self, shape, role, fmt):
        x = np.random.default_rng(math.prod(shape)).normal(0.0, 0.02, shape)
        codec = parse_format(fmt)
        return tensor(x, "t"), codec.reconstruct(x, role), codec

    def _figures(self, shape, role, fmt):
        t, recon, codec = self._pair(shape, role, fmt)
        return (metrics._abs_sums(t.data, recon), metrics._norm(t.data),
                fidelity_from_reconstruction(t, recon, codec, role),
                compare_formats(t, [codec], role))

    @pytest.mark.parametrize("shape,role,fmt", CASES, ids=_id.__func__)
    def test_figures_are_those_of_whole_array_numpy(self, shape, role, fmt):
        t, recon, codec = self._pair(shape, role, fmt)
        x, e = t.data, recon - t.data
        top, total, norm, k = metrics._abs_sums(x, recon)
        assert k == 0
        assert top == np.abs(e).max()
        assert total == _whole(np.abs(e))
        assert norm == math.sqrt(_whole(e * e))
        assert metrics._norm(x) == (math.sqrt(_whole(x * x)), 0)
        r = fidelity_from_reconstruction(t, recon, codec, role)
        assert r.max_abs_err == float(np.abs(e).max())
        assert r.mean_abs_err == float(np.abs(e).mean())
        assert r.rel_fro_err == math.sqrt(_whole(e * e)) / math.sqrt(_whole(x * x))

    @pytest.mark.parametrize("shape,role,fmt", CASES[3:], ids=_id.__func__)
    def test_figures_do_not_depend_on_chunk_or_pool(self, monkeypatch, shape, role, fmt):
        want = self._figures(shape, role, fmt)
        # 16 is below numpy's 128-element pairwise block, 200 above it
        for chunk in (200, 16):
            monkeypatch.setattr(CHUNKS, "CHUNK", chunk)
            assert self._figures(shape, role, fmt) == want, chunk
        monkeypatch.undo()
        monkeypatch.setattr(CHUNKS, "_pool", False)  # every slice on the calling thread
        assert self._figures(shape, role, fmt) == want

    @pytest.mark.parametrize("scale", [2.0**1000, 2.0**-1000])
    def test_shifted_figures_do_not_depend_on_chunk(self, monkeypatch, scale):
        # squares that overflow or underflow: the slices run again on e * 2**-k
        rng = np.random.default_rng(10)
        x = rng.normal(size=(300, 500))
        xh = x + rng.normal(scale=1e-3, size=x.shape)
        want = metrics._abs_sums(x * scale, xh * scale)
        assert want[3] != 0
        monkeypatch.setattr(CHUNKS, "CHUNK", 200)
        assert metrics._abs_sums(x * scale, xh * scale) == want

    def test_no_array_of_the_input_size(self, monkeypatch):
        monkeypatch.setattr(CHUNKS, "CHUNK", 4096)  # 32 KiB slices, so the bound holds on 32 cores
        t, recon, codec = self._pair((1024, 512), "weight", "int8")  # 4 MiB each
        recon = tensor(recon)
        tracemalloc.start()
        try:
            fidelity_from_reconstruction(t, recon, codec, "weight")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t.data.nbytes // 4

    def test_reports_do_not_depend_on_blas_threads(self, tmp_path):
        # |e|_F once came from BLAS ddot, whose sum order follows its thread count
        src = tmp_path / "w.lqt"
        x = np.random.default_rng(9).normal(0.0, 0.02, (512, 256))  # 2**17 elements
        save_tensors([tensor(x, "w")], src)
        env = dict(os.environ, PYTHONPATH=str(Path(metrics.__file__).parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        reports = []
        for threads in (None, "1"):
            out = tmp_path / f"r{threads}.json"
            run_env = env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "lofiq.cli", "compare", "--input",
                                   str(src), "--formats", "int8,hif8,nvfp4,hif4", "-o", str(out)],
                                  capture_output=True, text=True, env=run_env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


def _bits(report):
    """Every field of a FidelityReport, with each float as its hex string, so -0.0 != 0.0."""
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)]


class TestNormInTheSamePass:
    """Without ref_norm, |x|_F is _norm(x), bit for bit: one pass of its own over x, scaled by
    the Tensor's max|x|, beside _abs_sums' pass over the error."""

    SETTINGS = [("CHUNK", None), ("CHUNK", 16), ("_pool", False)]

    def _both(self, x, recon, codec=None, role="weight"):
        codec = codec or parse_format("int8")
        t = tensor(x, "t")
        alone = fidelity_from_reconstruction(t, recon, codec, role)
        given = fidelity_from_reconstruction(t, recon, codec, role, ref_norm=metrics._norm(t))
        return _bits(alone), _bits(given), metrics._norm(t)

    def _check(self, monkeypatch, x, recon, *args):
        want = None
        for attr, value in self.SETTINGS:
            if value is not None:
                monkeypatch.setattr(CHUNKS, attr, value)
            alone, given, (norm, j) = self._both(x, recon, *args)
            assert alone == given, (attr, value)
            scaled = np.ldexp(x, -j)
            assert norm == math.sqrt(_whole(scaled * scaled)), (attr, value)
            want = want or alone
            assert alone == want, (attr, value)  # nor on the CHUNK or the pool
            monkeypatch.undo()

    @pytest.mark.parametrize("shape,role,fmt", TestOnePass.CASES, ids=TestOnePass._id)
    def test_ordinary_data(self, monkeypatch, shape, role, fmt):
        x = np.random.default_rng(math.prod(shape)).normal(0.0, 0.02, shape)
        codec = parse_format(fmt)
        self._check(monkeypatch, x, codec.reconstruct(x, role), codec, role)

    # (k, j): the shifts of the error (which reruns its slices) and of x (read off max|x|)
    @pytest.mark.parametrize("case,shifts", [
        ("both huge", (True, True)), ("both tiny", (True, True)),
        ("x huge", (False, True)), ("x tiny, exact", (False, True)),
        ("error huge", (True, False)), ("error tiny", (True, False)),
    ])
    def test_each_shift_rerun(self, monkeypatch, case, shifts):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(300, 500))
        e = rng.normal(scale=1e-3, size=x.shape)
        if case.startswith("both"):
            scale = 2.0**512 if "huge" in case else 2.0**-500
            x, recon = x * scale, (x + e) * scale
        elif case == "x huge":
            x = x * 2.0**512
            recon = x * (1 + 2.0**-40)
        elif case == "x tiny, exact":
            x = recon = x * 2.0**-500
        elif case == "error huge":
            recon = x.copy()
            recon[::7] += e[::7] * 2.0**515
        else:  # the error only where x is tiny too
            x[::7] *= 2.0**-500
            recon = x.copy()
            recon[::7] += e[::7] * 2.0**-500
        k, j = metrics._abs_sums(x, recon)[3], metrics._norm(x)[1]
        assert (k != 0, j != 0) == shifts
        assert j == metrics._abs_sums(np.zeros_like(x), x)[3]  # read off max|x| by the same rule
        self._check(monkeypatch, x, recon)

    @staticmethod
    def _passes(monkeypatch):
        """Spy on metrics' pairwise passes: each is logged as the routine that made it and its
        length, e.g. ("_norm", 64)."""
        passes, inner = [], metrics.pairwise_reduce

        def spy(fn, join, n):
            passes.append((fn.__qualname__.split(".")[0], n))
            return inner(fn, join, n)

        monkeypatch.setattr(metrics, "pairwise_reduce", spy)
        return passes

    @staticmethod
    def _two_tensors(tmp_path):
        rng = np.random.default_rng(12)
        src = tmp_path / "a.lqt"
        save_tensors([tensor(rng.normal(0.0, 0.02, (64, 256)), "a"),
                      tensor(rng.normal(0.0, 0.02, (32, 64)), "b")], src)
        return src

    def test_one_pairwise_pass_per_tensor(self, tmp_path, monkeypatch):
        src = self._two_tensors(tmp_path)
        passes = self._passes(monkeypatch)
        assert main(["quantize", str(src), "-f", "hif4", "--role", "activation",
                     "-o", str(tmp_path / "o.lqt"), "--report", str(tmp_path / "r.json")]) == 0
        # one norm pass and one error pass per tensor, none of them rerun
        assert passes == [("_norm", 64 * 256), ("_abs_sums", 64 * 256),
                          ("_norm", 32 * 64), ("_abs_sums", 32 * 64)]

    def test_the_norm_reads_max_abs_off_the_tensor(self, tmp_path, monkeypatch):
        t = tensor(np.random.default_rng(13).normal(size=(64, 256)) * 2.0**600, "t")
        checks, inner = [], CHUNKS._check_finite

        def spy(arr, shown):
            checks.append(arr.size)
            return inner(arr, shown)

        monkeypatch.setattr(CHUNKS, "_check_finite", spy)
        assert metrics._norm(t)[1] != 0  # the shift comes from max|x|, with no check of x
        assert checks == []
        monkeypatch.undo()
        # compare forms |x|_F once per tensor and passes it to every format
        src = self._two_tensors(tmp_path)
        passes = self._passes(monkeypatch)
        assert main(["compare", "--input", str(src), "--formats", "int8,e4m3,hif4",
                     "--role", "activation", "-o", str(tmp_path / "r.json")]) == 0
        assert [p for p in passes if p[0] == "_norm"] == [("_norm", 64 * 256), ("_norm", 32 * 64)]
        assert len(passes) == 2 + 2 * 3


class TestSynth:
    def test_deterministic(self):
        spec = SyntheticSpec("uniform", (16, 16), seed=7)
        assert np.array_equal(synth(spec).data, synth(spec).data)

    def test_zero_fraction_is_pure_gaussian(self):
        a = synth(SyntheticSpec("gaussian", (64,), sigma=2.0, seed=3))
        b = synth(SyntheticSpec("gaussian_outlier", (64,), sigma=2.0,
                                outlier_fraction=0.0, seed=3))
        assert np.array_equal(a.data, b.data)

    def test_exact_outlier_count(self):
        spec = SyntheticSpec("gaussian_outlier", (1_000_000,), sigma=1.0,
                             outlier_fraction=0.001, outlier_scale=100.0, seed=5)
        base = synth(SyntheticSpec("gaussian", (1_000_000,), sigma=1.0, seed=5))
        out = synth(spec)
        changed = np.sum(out.data != base.data)
        assert changed == 1000  # ceil(0.001 * 1e6), minus any zero draws (none here)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            SyntheticSpec("cauchy", (4,))

    @pytest.mark.parametrize("kind, given, message", [
        ("uniform", {"sigma": 5.0}, "uniform reads no sigma, got 5.0"),
        ("gaussian", {"outlier_fraction": 0.5, "outlier_scale": 1e3},
         "gaussian reads no outlier_fraction, got 0.5"),
        ("gaussian", {"outlier_scale": 1e3}, "gaussian reads no outlier_scale, got 1000.0"),
        ("uniform", {"outlier_scale": math.nan}, "uniform reads no outlier_scale, got nan"),
    ])
    def test_fields_the_kind_does_not_read_are_refused(self, kind, given, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SyntheticSpec(kind, (2, 2), **given)

    def test_fields_the_kind_does_not_read_may_hold_their_defaults(self):
        spec = SyntheticSpec("uniform", (2, 2), sigma=1, outlier_fraction=0.0, outlier_scale=1.0)
        assert spec == SyntheticSpec("uniform", (2, 2))

    def test_shape_of_numpy_integers(self):
        spec = SyntheticSpec("gaussian_outlier", (np.int64(8), np.uint8(4)), sigma=0.5,
                             outlier_fraction=0.25, outlier_scale=10.0, seed=np.int32(2))
        plain = SyntheticSpec("gaussian_outlier", (8, 4), sigma=0.5, outlier_fraction=0.25,
                              outlier_scale=10.0, seed=2)
        assert spec == plain
        a, b = synth(spec), synth(plain)
        assert a.name == b.name == "gaussian_outlier-8x4-seed2"
        assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("shape, seed, error, message", [
        ((4, -4), 0, ValueError, r"shape must be a tuple of non-negative extents, got \(4, -4\)"),
        ([4, 4], 0, ValueError, r"shape must be a tuple of non-negative extents, got \[4, 4\]"),
        ((4, 4.0), 0, TypeError, "'float' object cannot be interpreted as an integer"),
        ((4, 4), 1.0, TypeError, "'float' object cannot be interpreted as an integer"),
    ])
    def test_bad_shape_or_seed(self, shape, seed, error, message):
        with pytest.raises(error, match=message):
            SyntheticSpec("gaussian", shape, seed=seed)


# the formats of perfbench/workloads.py
BENCH_FORMATS = ("int8", "int4", "e4m3", "e5m2", "hif8", "hif8-scaled",
                 "mxfp8-e4m3", "mxfp4", "mxint8", "nvfp4", "hif4")


class TestCompareFormats:
    def test_row_per_format(self):
        t = synth(SyntheticSpec("gaussian", (64, 64), sigma=0.02, seed=1))
        reports = compare_formats(t, ["int8", "hif8", "e4m3"], "weight")
        assert [r.format_name for r in reports] == ["int8", "hif8", "e4m3"]
        assert all(r.tensor_name == t.name for r in reports)

    def test_exact_input_reports_inf(self):
        t = tensor([[0.5, 1.0, -6.0, 4.0] * 8])
        (rep,) = compare_formats(t, ["mx:e2m1"], "activation")
        assert rep.sqnr_db == math.inf
        assert rep.max_abs_err == 0.0

    def test_order_independence(self):
        t = synth(SyntheticSpec("gaussian", (64, 64), sigma=0.02, seed=2))
        fwd = compare_formats(t, ["int8", "hif8"], "weight")
        rev = compare_formats(t, ["hif8", "int8"], "weight")
        assert fwd[0] == rev[1]
        assert fwd[1] == rev[0]

    def test_each_reconstruction_freed_before_the_next(self):
        # peak memory holds one reconstruction at a time, not two
        made = []

        class Spy:
            selector = "spy"

            def granularity(self, role, ndim):
                return "spy"

            def config(self, role):
                return {}

            def reconstruct(self, t, role, pad=False):
                assert all(ref() is None for ref in made)
                out = np.array(t.data)
                made.append(weakref.ref(out))
                return out

        t = synth(SyntheticSpec("gaussian", (8, 8), seed=3))
        assert len(compare_formats(t, [Spy(), Spy(), Spy()], "weight")) == 3

    def test_a_strided_input_is_converted_once(self, monkeypatch):
        module = sys.modules["lofiq.tensor"]  # the name lofiq.tensor is the function
        monkeypatch.setattr(module, "CHUNK", 1 << 12)  # slices of 32 KiB, next to a 1 MiB input
        x = np.random.default_rng(5).normal(0, 0.02, (512, 256)).T  # not C-ordered
        assert not x.flags.c_contiguous
        want = compare_formats(np.ascontiguousarray(x), BENCH_FORMATS, "weight")
        compare_formats(x, BENCH_FORMATS, "weight")  # the pool's threads start outside the trace
        checked = []
        inner = module._check_finite
        monkeypatch.setattr(module, "_check_finite",
                            lambda arr, shown: (checked.append(arr.size), inner(arr, shown))[1])
        tracemalloc.start()
        try:
            got = compare_formats(x, BENCH_FORMATS, "weight")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [repr(dataclasses.astuple(r)) for r in got] == \
            [repr(dataclasses.astuple(r)) for r in want]
        # one check of the whole input, by the one conversion; the outputs are checked by slice
        assert checked.count(x.size) == 1
        # the copy and one reconstruction at a time, with their slices (about 2.1 to 2.5 input
        # sizes); a copy per codec as well would be at least 3
        assert peak <= 2.75 * x.nbytes, f"{peak / x.nbytes:.3f} input sizes"

    def test_role_changes_granularity(self):
        t = synth(SyntheticSpec("gaussian", (32, 32), seed=0))
        (w,) = compare_formats(t, ["int8"], "weight")
        (a,) = compare_formats(t, ["int8"], "activation")
        assert "per-channel" in w.granularity
        assert "per-token" in a.granularity


class TestEmitReport:
    def _sample(self):
        return [FidelityReport("t0", "int8", "per-channel(axis=1,sym)",
                               math.inf, 0.0, 0.0, 0.0, {"bits": 8})]

    def test_empty_json(self, tmp_path):
        path = tmp_path / "r.json"
        emit_report([], "json", path)
        assert path.read_text().strip() == "[]"

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "r.json"
        emit_report(self._sample(), "json", path)
        rows = json.loads(path.read_text())
        assert rows[0]["sqnr_db"] == "inf"
        assert rows[0]["tensor"] == "t0"
        assert list(rows[0]) == ["tensor", "format", "granularity", "sqnr_db",
                                 "max_abs_err", "mean_abs_err", "rel_fro_err", "config"]

    def test_csv_line_count(self, tmp_path):
        t = synth(SyntheticSpec("gaussian", (32, 32), seed=4))
        reports = []
        for seed in range(10):
            reports.extend(compare_formats(t, ["hif8"], "weight"))
        path = tmp_path / "r.csv"
        emit_report(reports, "csv", path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 11
        assert lines[0] == "tensor,format,granularity,sqnr_db,max_abs_err,mean_abs_err,rel_fro_err,config"

    def test_db_rounded_to_four_places(self, tmp_path):
        rep = FidelityReport("t", "f", "g", 13.97940008672, 0.1, 0.1, 0.1, {})
        rows = report_rows([rep])
        assert rows[0]["sqnr_db"] == 13.9794

    def test_deterministic_bytes(self, tmp_path):
        t = synth(SyntheticSpec("gaussian", (32, 32), seed=9))
        reports = compare_formats(t, ["int8", "nvfp4"], "weight")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(reports, "json", p1)
        emit_report(reports, "json", p2)
        assert p1.read_bytes() == p2.read_bytes()
