"""Acceptance suite: every exit criterion with its stated tolerance and budget.

Each test prints one line:  ACCEPTANCE Cnn PASS (x.xxs): <criterion>
Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import time

import numpy as np
import pytest

from lofiq.cli import main as cli_main
from lofiq.codebook import builtin_spec, enumerate_codebook, project
from lofiq.hif4 import hif4_dequantize, hif4_quantize
from lofiq.hif8 import hif8_enumerate, hif8_quantize, hif8_scaled_quantize
from lofiq.intquant import int_quantize_symmetric
from lofiq.metrics import SyntheticSpec, compare_formats, synth
from lofiq.mx import mx_quantize, resolve_element
from lofiq.nvfp4 import V_MAX, nvfp4_quantize
from lofiq.ptq import apply_smoothing, search_alpha, smooth_scales, svd_split, svdquant_pipeline
from lofiq.tensor import load_tensors, save_tensors, tensor

from oracles import jacobi_singular_values, min_distances

SEEDS = range(10)


class _Budget:
    def __init__(self, number, seconds, label):
        self.number = number
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE C{self.number:02d} {status} ({elapsed:.2f}s): {self.label}")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget: {elapsed:.2f}s")


def test_c01_format_extremes_exact():
    with _Budget(1, 1.0, "enumerated 8-bit codebooks hit all four extreme values each"):
        e4m3 = enumerate_codebook("e4m3")
        e5m2 = enumerate_codebook("e5m2")
        hif8 = hif8_enumerate()

        def extremes(values):
            pos = values[values > 0]
            return pos[-1], pos[0]

        assert extremes(e4m3.values) == (1.75 * 2.0**8, 2.0**-9)
        s = builtin_spec("e4m3")
        assert (s.min_normal, s.max_subnormal) == (2.0**-6, 1.75 * 2.0**-7)

        assert extremes(e5m2.values) == (1.75 * 2.0**15, 2.0**-16)
        s = builtin_spec("e5m2")
        # the published max-subnormal cell (1.5 * 2**-16) contradicts the same
        # table's min subnormal 2**-16 with two mantissa bits; the consistent
        # value is asserted instead
        assert (s.min_normal, s.max_subnormal) == (2.0**-14, 3.0 * 2.0**-16)

        assert extremes(hif8) == (2.0**15, 2.0**-22)
        pos = hif8[hif8 > 0]
        normals = pos[pos >= 2.0**-15]
        subnormals = pos[pos < 2.0**-15]
        assert normals[0] == 2.0**-15
        assert subnormals[-1] == 2.0**-16


def test_c02_rtn_optimality_exhaustive():
    with _Budget(2, 5.0, "projection is exhaustively nearest with even-code ties, 1e5 inputs per format"):
        rng = np.random.default_rng(202)
        for name in ("e2m1", "e3m2", "e2m3", "e4m3", "e5m2"):
            cb = enumerate_codebook(name)
            x = rng.normal(size=100_000) * np.exp(rng.uniform(-14, 14, 100_000))
            # exercise the tie rule too: exact midpoints of every adjacent pair
            mids = (cb.values[:-1] + cb.values[1:]) * 0.5
            x[:mids.size] = mids
            p = project(cb, x)
            dmin = min_distances(cb.values, x, chunk=8192)
            interior = np.abs(x) <= cb.max_finite
            # optimal wherever no clipping applies, never worse than clipping elsewhere
            assert np.all(np.abs(p[interior] - x[interior]) == dmin[interior]), name
            clipped = ~interior
            assert np.all(p[clipped] == np.sign(x[clipped]) * cb.max_finite), name
            # ties resolve to the even mantissa code
            pm = project(cb, mids)
            left_even = cb.codes[:-1] % 2 == 0
            assert np.all(pm == np.where(left_even, cb.values[:-1], cb.values[1:])), name


def test_c03_hif8_worked_values_and_closure():
    with _Budget(3, 5.0, "adaptive 8-bit worked values exact; 1e6 outputs all in the codebook"):
        worked = hif8_quantize(tensor([0.3, 100.0, 1.0])).data
        assert worked[0] == 0.3125
        assert worked[1] == 96.0
        assert worked[2] == 1.0
        values = hif8_enumerate()
        rng = np.random.default_rng(203)
        x = rng.normal(size=1_000_000) * np.exp(rng.uniform(-25, 15, 1_000_000))
        out = hif8_quantize(tensor(x)).data
        idx = np.clip(np.searchsorted(values, out), 0, len(values) - 1)
        assert np.all(values[idx] == out)


def test_c04_hif4_hand_execution_and_identity():
    with _Budget(4, 5.0, "hierarchical 4-bit hand-executions exact; dequant identity bit-exact on 1e5 blocks"):
        q = hif4_quantize(tensor(np.full((1, 64), 7.0)), 1)
        assert np.all(hif4_dequantize(q).data == 7.0)
        qz = hif4_quantize(tensor(np.zeros((1, 64))), 1)
        assert np.all(hif4_dequantize(qz).data == 0.0)

        rng = np.random.default_rng(204)
        x = rng.normal(size=(100_000, 64)) * np.exp(rng.uniform(-20, 20, (100_000, 1)))
        q = hif4_quantize(tensor(x), 1)
        via_exponents = hif4_dequantize(q).data.reshape(-1, 8, 2, 4)
        s1 = np.ldexp(q.m1.astype(np.float64), q.e1 - 2)
        scale = (s1[:, None, None, None]
                 * np.ldexp(1.0, q.e2)[:, :, None, None]
                 * np.ldexp(1.0, q.e3)[:, :, :, None])
        via_scales = q.signs * scale * (q.xhat / 4.0)
        assert np.array_equal(via_exponents, via_scales)


def test_c05_mx_no_clip_invariant():
    with _Budget(5, 5.0, "block exponent ceil rule leaves no post-scale clipping, 1e4 blocks x 6 element types"):
        rng = np.random.default_rng(205)
        for elem in ("e5m2", "e4m3", "e3m2", "e2m3", "e2m1", "int8"):
            x = rng.normal(size=(10_000, 32)) * np.exp(rng.uniform(-25, 25, (10_000, 1)))
            q = mx_quantize(tensor(x), 1, elem)
            q_max = resolve_element(elem).max_finite
            amax = np.abs(x).max(axis=1)
            assert np.all(amax <= np.ldexp(q_max, q.shared_exponents)), elem


def test_c06_nvfp4_no_clip_and_overshoot():
    with _Budget(6, 5.0, "per-tensor scale never clips; element overshoot below 6*(1+2**-4), 1e4 blocks"):
        rng = np.random.default_rng(206)
        bound = 6.0 * (1 + 2.0**-4)
        total_blocks = 0
        for trial in range(10):
            x = rng.normal(size=(64, 512)) * np.exp(rng.uniform(-20, 20))
            q = nvfp4_quantize(tensor(x), 1)
            assert np.abs(x).max() / q.per_tensor_scale <= V_MAX
            assert q.max_overshoot <= bound
            total_blocks += x.size // 16
        assert total_blocks >= 10_000


def test_c07_smoothing_equivalence_and_argmin_invariance():
    with _Budget(7, 10.0, "migration preserves the product to 1e-12; optimum invariant to scaling x"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(64, 64))
            w = rng.normal(size=(64, 64))
            plan = smooth_scales(np.abs(x).max(axis=0), np.abs(w).max(axis=1), 0.5)
            xs, ws = apply_smoothing(tensor(x), tensor(w), plan)
            ref = x @ w
            rel = np.linalg.norm(xs.data @ ws.data - ref) / np.linalg.norm(ref)
            assert rel <= 1e-12

        rng = np.random.default_rng(207)
        x = rng.normal(size=(32, 16)) * 0.05
        x[:, 2] *= 300
        w = rng.normal(size=(16, 16)) * 0.02
        p1, _, _ = search_alpha(tensor(x), tensor(w), "int8")
        p2, _, _ = search_alpha(tensor(4.0 * x), tensor(w), "int8")
        assert p1.alpha == p2.alpha


def test_c08_svd_against_jacobi_oracle():
    with _Budget(8, 30.0, "low-rank split matches an independent one-sided Jacobi oracle"):
        rng = np.random.default_rng(208)
        for _ in range(100):
            m = int(rng.integers(2, 33))
            n = int(rng.integers(2, 33))
            r = int(rng.integers(1, min(m, n) + 1))
            w = rng.normal(size=(m, n))
            branch = svd_split(tensor(w), r)
            sv = jacobi_singular_values(w)
            tail = float(np.sum(sv[r:] ** 2))
            res = float(np.linalg.norm(branch.residual) ** 2)
            w_energy = float(np.linalg.norm(w) ** 2)
            assert abs(res - tail) <= 1e-8 * w_energy
            # optimal among 50 random competitors of the same rank
            best = np.linalg.norm(branch.residual)
            for _ in range(50):
                cand = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
                denom = float(np.vdot(cand, cand))
                if denom > 0:
                    cand = cand * (float(np.vdot(cand, w)) / denom)
                assert best <= np.linalg.norm(w - cand) + 1e-12


def test_c09_fidelity_hierarchy_reproduction():
    label = ("synthetic fidelity hierarchies match the reported orderings "
             "in >= 9/10 seeds")
    with _Budget(9, 60.0, label):
        w8 = w8_approx = w4 = a8 = a4 = 0
        a8_gaps = []
        for seed in SEEDS:
            t = synth(SyntheticSpec("gaussian", (512, 512), sigma=0.02, seed=seed))
            d = {r.format_name: r.sqnr_db for r in compare_formats(
                t, ["int8", "hif8-scaled:K=16", "e4m3", "hif8", "mxfp8-e4m3"], "weight")}
            w8 += d["int8"] > d["hif8-scaled:K=16"] > d["e4m3"] > d["hif8"]
            w8_approx += abs(d["hif8-scaled:K=16"] - d["mx:e4m3"]) <= 3.0
            d4 = {r.format_name: r.sqnr_db for r in compare_formats(
                t, ["hif4", "nvfp4", "mxfp4", "int4"], "weight")}
            w4 += d4["hif4"] > d4["nvfp4"] > d4["mx:e2m1"] > d4["int4"]

            # activations: token rows are wide (many features per token), as
            # in the transformer layers the comparison mirrors
            a = synth(SyntheticSpec("gaussian_outlier", (128, 2048), sigma=0.02,
                                    outlier_fraction=0.001, outlier_scale=100.0,
                                    seed=seed))
            da = {r.format_name: r.sqnr_db for r in compare_formats(
                a, ["mxfp8-e4m3", "int8"], "activation")}
            a8 += da["mx:e4m3"] > da["int8"]
            a8_gaps.append(round(da["mx:e4m3"] - da["int8"], 2))
            da4 = {r.format_name: r.sqnr_db for r in compare_formats(
                a, ["nvfp4", "mxfp4", "int4"], "activation")}
            a4 += (da4["nvfp4"] >= da4["mx:e2m1"]) and (da4["mx:e2m1"] > da4["int4"])

        print(f"  weights 8-bit chain {w8}/10, scaled-vs-mx within 3dB {w8_approx}/10, "
              f"4-bit chain {w4}/10")
        print(f"  activations 8-bit {a8}/10 (gaps dB: {a8_gaps}), 4-bit chain {a4}/10")
        assert w8 >= 9, f"8-bit weight ordering held in only {w8}/10 seeds"
        assert w8_approx >= 9
        assert w4 >= 9, f"4-bit weight ordering held in only {w4}/10 seeds"
        assert a8 >= 9, f"8-bit activation ordering held in only {a8}/10 seeds"
        assert a4 >= 9, f"4-bit activation ordering held in only {a4}/10 seeds"


def test_c10_pipeline_monotonicity():
    with _Budget(10, 60.0, "low-rank split <= migration-only <= plain rounding in >= 8/10 seeds"):
        for fmt in ("hif4", "nvfp4"):
            good = 0
            for seed in SEEDS:
                x = synth(SyntheticSpec("gaussian_outlier", (128, 256), sigma=0.02,
                                        outlier_fraction=0.001, outlier_scale=100.0,
                                        seed=seed))
                w = synth(SyntheticSpec("gaussian", (256, 128), sigma=0.02,
                                        seed=1000 + seed))
                rep = svdquant_pipeline(x, w, fmt, rank=16)
                good += rep.svdq_rel_err <= rep.smooth_rel_err <= rep.rtn_rel_err
            print(f"  {fmt}: monotone in {good}/10 seeds")
            assert good >= 8, f"{fmt}: monotone in only {good}/10 seeds"


def test_c11_byte_identical_runs_and_exit_codes(tmp_path, capsys):
    with _Budget(11, 10.0, "reruns are byte-identical; exit codes 0/1/2 honored"):
        # tensor container determinism
        rng = np.random.default_rng(211)
        ts = [tensor(rng.normal(size=(8, 8)), name="a")]
        p1, p2 = tmp_path / "a.lqt", tmp_path / "b.lqt"
        save_tensors(ts, p1)
        save_tensors(ts, p2)
        assert p1.read_bytes() == p2.read_bytes()
        (back,) = load_tensors(p1)
        assert back.data.tobytes() == ts[0].data.tobytes()

        # report determinism through the CLI with a fixed seed
        args = ["compare", "--synth", "gaussian_outlier:64x64:0.02:0.01:100",
                "--formats", "int8,nvfp4,hif4,hif8-scaled:K=4", "--role",
                "activation", "--seed", "3"]
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli_main(args + ["-o", str(r1)]) == 0
        assert cli_main(args + ["-o", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

        # exit-code contract
        assert cli_main(["enumerate", "e2m1"]) == 0
        assert cli_main(["enumerate", "e9m9"]) == 2  # usage: unknown format
        missing = str(tmp_path / "missing.lqt")
        assert cli_main(["quantize", missing, "--format", "hif8",
                         "-o", str(tmp_path / "o.lqt")]) == 1
        with pytest.raises(SystemExit) as exc:
            cli_main(["quantize"])
        assert exc.value.code == 2


def test_c12_throughput_floor():
    with _Budget(12, 120.0, "each format quantizes a 4096x4096 tensor in under 2 s"):
        rng = np.random.default_rng(212)
        big = tensor(rng.normal(0, 0.02, (4096, 4096)))
        e4m3 = enumerate_codebook("e4m3")
        e5m2 = enumerate_codebook("e5m2")
        ops = {
            "int8": lambda: int_quantize_symmetric(big, 1, 8),
            "int4": lambda: int_quantize_symmetric(big, 1, 4),
            "e4m3": lambda: project(e4m3, big.data),
            "e5m2": lambda: project(e5m2, big.data),
            "hif8": lambda: hif8_quantize(big),
            "hif8-scaled": lambda: hif8_scaled_quantize(big, 1, 16.0),
            "mxfp8-e4m3": lambda: mx_quantize(big, 0, "e4m3"),
            "mxfp4": lambda: mx_quantize(big, 0, "e2m1"),
            "mxint8": lambda: mx_quantize(big, 0, "int8"),
            "nvfp4": lambda: nvfp4_quantize(big, 0),
            "hif4": lambda: hif4_quantize(big, 0),
        }
        for name, op in ops.items():
            start = time.perf_counter()
            op()
            elapsed = time.perf_counter() - start
            print(f"  {name:12s} {elapsed:6.3f} s")
            assert elapsed < 2.0, f"{name} took {elapsed:.2f}s on 4096x4096"
