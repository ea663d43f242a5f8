import contextlib
import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

import lofiq
from lofiq import metrics
from lofiq.cli import main, parse_synth
from lofiq.metrics import SyntheticSpec
from lofiq.tensor import load_tensors, save_tensors, tensor


def run(*args):
    return main([str(a) for a in args])


def run_subprocess(*args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lofiq.__file__)))
    return subprocess.run([sys.executable, "-m", "lofiq.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=60)


def _parse_listing(text):
    fields = {}
    values = []
    in_values = False
    for line in text.strip().split("\n"):
        if in_values:
            values.append(float(line))
        elif line == "values:":
            in_values = True
        else:
            key, _, val = line.partition(": ")
            fields[key] = val
    return fields, values


class TestEnumerate:
    def test_e2m1(self, capsys):
        assert run("enumerate", "e2m1") == 0
        fields, values = _parse_listing(capsys.readouterr().out)
        assert fields["count"] == "15"
        assert float(fields["max_finite"]) == 6.0
        assert len(values) == 15
        assert max(values) == 6.0

    def test_hif8_extremes(self, capsys):
        assert run("enumerate", "hif8") == 0
        fields, _ = _parse_listing(capsys.readouterr().out)
        assert float(fields["max_finite"]) == 2.0**15
        assert float(fields["min_positive"]) == 2.0**-22

    def test_interval_filter(self, capsys):
        assert run("enumerate", "hif8", "--interval", "-1", "1") == 0
        fields, values = _parse_listing(capsys.readouterr().out)
        assert fields["count_in_interval"] == "129"
        assert len(values) == 129
        assert all(-1 <= v <= 1 for v in values)

    def test_infinite_bounds(self, capsys):
        assert run("enumerate", "e2m1", "--interval", "0", "inf") == 0
        fields, values = _parse_listing(capsys.readouterr().out)
        assert fields["count_in_interval"] == "8"
        assert values == [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]

    def test_negative_bounds_in_exponent_form(self, capsys):
        # argparse would take '-inf' and '-1e9' for options
        assert run("enumerate", "e2m1", "--interval", "-inf", "0") == 0
        fields, values = _parse_listing(capsys.readouterr().out)
        assert fields["interval"] == "[-inf, 0.0]"
        assert values == [-6.0, -4.0, -3.0, -2.0, -1.5, -1.0, -0.5, 0.0]
        assert run("enumerate", "e2m1", "--interval", "-1e9", "1e9") == 0
        fields, values = _parse_listing(capsys.readouterr().out)
        assert fields["interval"] == "[-1000000000.0, 1000000000.0]"
        assert fields["count_in_interval"] == "15" and len(values) == 15

    @pytest.mark.parametrize("lo,hi", [("1", "-1"), ("nan", "1"), ("0", "nan"), ("0", "-inf"),
                                       ("-1e9", "-nan")])
    def test_bad_interval_is_a_usage_error(self, capsys, tmp_path, lo, hi):
        out = tmp_path / "listing.txt"
        assert run("enumerate", "e2m1", "--interval", lo, hi, "-o", out) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: --interval ") and captured.err.count("\n") == 1

    def test_unknown_format_exits_2(self, capsys):
        assert run("enumerate", "e9m9") == 2
        assert "error" in capsys.readouterr().err

    def test_output_file(self, tmp_path):
        out = tmp_path / "listing.txt"
        assert run("enumerate", "e2m1", "-o", out) == 0
        fields, _ = _parse_listing(out.read_text())
        assert fields["count"] == "15"


def _spy_finiteness(monkeypatch):
    """Elements passed to the finiteness check, summed by tensor name, however they are chunked."""
    checked = {}
    module = sys.modules["lofiq.tensor"]  # the name lofiq.tensor is the function
    inner = module._check_finite

    def spy(arr, shown):
        checked[shown] = checked.get(shown, 0) + arr.size
        return inner(arr, shown)

    monkeypatch.setattr(module, "_check_finite", spy)
    return checked


class TestQuantize:
    def test_exact_tensor_reports_inf(self, tmp_path, capsys):
        grid = np.array([[0.5, 1.0, -6.0, 4.0] * 8])
        src = tmp_path / "in.lqt"
        save_tensors([tensor(grid, name="g")], src)
        out = tmp_path / "out.lqt"
        rep = tmp_path / "rep.json"
        assert run("quantize", src, "--format", "mx:e2m1", "--role", "activation",
                   "-o", out, "--report", rep) == 0
        rows = json.loads(rep.read_text())
        assert rows[0]["sqnr_db"] == "inf"
        (t,) = load_tensors(out)
        assert np.array_equal(t.data, grid)

    def test_pad_on_non_divisible_axis(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.choice([0.5, 1.0, 2.0, -1.5], size=(2, 60))  # exactly representable
        src = tmp_path / "in.lqt"
        save_tensors([tensor(vals, name="odd")], src)
        out = tmp_path / "out.lqt"
        # without --pad the 60-wide axis fails
        assert run("quantize", src, "--format", "mx:e2m1", "--role", "activation",
                   "-o", out) == 1
        assert run("quantize", src, "--format", "mx:e2m1", "--role", "activation",
                   "-o", out, "--pad") == 0
        (t,) = load_tensors(out)
        assert t.shape == (2, 60)
        assert np.array_equal(t.data, vals)  # unpadded region round-trips

    def test_each_array_checked_for_finiteness_once(self, tmp_path, monkeypatch):
        src = tmp_path / "in.lqt"
        save_tensors([tensor(np.ones((4, 8)), "a"), tensor(np.ones(8), "b")], src)
        checked = _spy_finiteness(monkeypatch)
        assert run("quantize", src, "--format", "e4m3", "-o", tmp_path / "o.lqt",
                   "--report", tmp_path / "r.json") == 0
        # every element twice: on load, and in the kernel's chunks of its
        # reconstruction, which becomes the output Tensor unscanned
        assert checked == {"a": 2 * 32, "b": 2 * 8}

    def test_a_padded_nvfp4_input_is_checked_for_finiteness_once(self, tmp_path, monkeypatch):
        src = tmp_path / "in.lqt"
        save_tensors([tensor(np.random.default_rng(3).normal(size=(3, 60)), "w")], src)
        checked = _spy_finiteness(monkeypatch)
        assert run("quantize", src, "-f", "nvfp4", "--role", "activation", "--pad",
                   "-o", tmp_path / "o.lqt") == 0
        # the input on load, then the kernel's chunks of the padded (3, 64)
        # reconstruction; the padded copy keeps the input's max|x|, which
        # NVFP4 takes its per-tensor scale from, so it is not scanned
        assert checked == {"w": 3 * 60 + 3 * 64}

    def test_all_zero_tensor_is_exact(self, tmp_path):
        # each codec reconstructs zeros exactly, and an exact result reports "inf"
        src, out, rep = tmp_path / "in.lqt", tmp_path / "out.lqt", tmp_path / "r.json"
        save_tensors([tensor(np.ones((32, 32)), "w"), tensor(np.zeros(32), "bias")], src)
        for fmt in ("int8", "hif8", "nvfp4", "mxfp4", "hif8-scaled"):
            assert run("quantize", src, "-f", fmt, "-o", out, "--report", rep) == 0
            rows = {r["tensor"]: r for r in json.loads(rep.read_text())}
            assert (rows["bias"]["sqnr_db"], rows["bias"]["rel_fro_err"]) == ("inf", 0.0), fmt
            assert not load_tensors(out)[1].data.any()
        assert run("compare", "--input", src, "--formats", "int8,hif8,nvfp4", "-o", rep) == 0
        rows = [r for r in json.loads(rep.read_text()) if r["tensor"] == "bias"]
        assert [r["sqnr_db"] for r in rows] == ["inf"] * 3

    def test_f32_overflow_exits_1_without_output(self, tmp_path):
        # int8 reconstructs 1e300, which f64 holds and f32 does not
        src, out = tmp_path / "in.lqt", tmp_path / "out.lqt"
        save_tensors([tensor(np.full((2, 2), 1e300), "big")], src)
        assert run("quantize", src, "-f", "int8", "-o", tmp_path / "f64.lqt") == 0
        proc = run_subprocess("quantize", src, "-f", "int8", "--dtype", "f32", "-o", out)
        assert proc.returncode == 1 and not out.exists()
        assert proc.stderr == "error: tensor 'big' holds values beyond the range of f32\n"

    def test_unknown_format_exits_2(self, tmp_path):
        src = tmp_path / "in.lqt"
        save_tensors([tensor([1.0])], src)
        assert run("quantize", src, "--format", "nope", "-o", tmp_path / "o.lqt") == 2

    def test_malformed_header_exits_1_without_traceback(self, tmp_path):
        header = json.dumps({"tensors": 5}).encode()
        src = tmp_path / "bad.lqt"
        src.write_bytes(b"LQT1" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header)
        proc = run_subprocess("quantize", src, "--format", "int8", "-o", tmp_path / "o.lqt")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_lone_surrogate_name_exits_1_with_one_error_line(self, tmp_path):
        # json.dumps writes the name as the ASCII escape \ud800, which loads as a lone surrogate
        header = json.dumps({"tensors": [{"name": "\ud800", "dtype": "f64", "shape": [2],
                                          "offset": 0}]}).encode()
        src, out = tmp_path / "bad.lqt", tmp_path / "o.lqt"
        src.write_bytes(b"LQT1" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header
                        + struct.pack("<2d", 1.0, -2.0))
        proc = run_subprocess("quantize", src, "--format", "int8", "-o", out)
        assert proc.returncode == 1 and not out.exists()
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("fmt", ["int8", "int4", "hif8-scaled"])
    def test_zero_size_exits_1_without_traceback(self, tmp_path, fmt):
        src = tmp_path / "z.lqt"
        save_tensors([tensor(np.zeros((0, 3)), name="z")], src)
        for proc in (run_subprocess("quantize", src, "-f", fmt, "-o", tmp_path / "o.lqt"),
                     run_subprocess("compare", "--input", src, "--formats", fmt,
                                    "--role", "activation", "-o", tmp_path / "r.json")):
            assert proc.returncode == 1
            assert proc.stderr.startswith("error: ")
            assert "Traceback" not in proc.stderr

    def test_zero_dim_tensor(self, tmp_path, capsys):
        src, dst = tmp_path / "s.lqt", tmp_path / "o.lqt"
        save_tensors([tensor(2.4, name="s")], src)
        assert run("quantize", src, "-f", "e4m3", "-o", dst) == 0
        (out,) = load_tensors(dst)
        assert out.shape == () and float(out.data) == 2.5
        assert run("quantize", src, "-f", "int8", "-o", dst) == 1
        assert "out of range for rank 0" in capsys.readouterr().err

    def test_missing_input_exits_1(self, tmp_path):
        assert run("quantize", tmp_path / "absent.lqt", "--format", "hif8",
                   "-o", tmp_path / "o.lqt") == 1

    def test_nonfinite_reconstruction_exits_1_without_traceback(self, tmp_path):
        # a finite input whose reconstruction is Inf, past the scale check:
        # K=19 rounds up to the code 20, and 1.75e308 * 20 / 19 overflows
        src = tmp_path / "big.lqt"
        save_tensors([tensor(np.full((4, 4), 1.75e308), name="big")], src)
        proc = run_subprocess("quantize", src, "-f", "hif8-scaled:K=19",
                              "-o", tmp_path / "o.lqt")
        assert proc.returncode == 1
        # the kernel's chunk threads print no numpy warning before the error line
        assert proc.stderr == "error: tensor 'big' contains NaN or Inf\n"
        assert not (tmp_path / "o.lqt").exists()

    @pytest.mark.parametrize("shape,pad", [((32, 64), ()), ((30, 60), ("--pad",))])
    def test_nvfp4_top_level_overflow_exits_1_naming_the_tensor(self, tmp_path, shape, pad):
        # a finite tensor at float64's maximum: NVFP4's 2688 * s2 overflows, and the
        # error says so, naming the tensor also when the kernel ran on a padded copy
        src = tmp_path / "big.lqt"
        save_tensors([tensor(np.full(shape, np.finfo(np.float64).max), name="big")], src)
        proc = run_subprocess("quantize", src, "-f", "nvfp4", *pad, "-o", tmp_path / "o.lqt")
        assert proc.returncode == 1
        assert proc.stderr == ("error: tensor 'big': the NVFP4 top level, 2688 times the "
                               "per-tensor scale 6.687846483862782e+304, overflows float64\n")
        assert not (tmp_path / "o.lqt").exists()

    @pytest.mark.parametrize("fmt,fill,want", [
        # 2**-22 over scales near 2e-299 gives finite values near 1e292, whose squares overflow
        ("hif8-scaled:K=1e-300", None, -5872.9009),
        # the input's own squares overflow; hif8 saturates at 2**15, far below 1e300
        ("hif8", 1e300, 0.0),
    ])
    def test_overflowing_squares_report_exact_figures(self, tmp_path, fmt, fill, want):
        data = (np.full((4, 4), fill) if fill else
                np.random.default_rng(0).normal(0.0, 0.02, (8, 8)))
        src, rep = tmp_path / "in.lqt", tmp_path / "r.json"
        save_tensors([tensor(data, name="t")], src)
        proc = run_subprocess("quantize", src, "-f", fmt, "-o", tmp_path / "o.lqt",
                              "--report", rep)
        assert (proc.returncode, proc.stderr) == (0, "")
        (row,) = json.loads(rep.read_text())
        assert row["sqnr_db"] == want
        assert all(math.isfinite(row[k]) for k in ("max_abs_err", "mean_abs_err", "rel_fro_err"))

    def test_underflowing_squares_report_the_scaled_figures(self, tmp_path):
        # every square of a N(0, 1e-200) tensor underflows; its figures are
        # those of the same tensor times 2**500, the errors scaled back
        x = np.random.default_rng(0).normal(0.0, 1e-200, (4, 4))
        rows = []
        for i, data in enumerate((x, np.ldexp(x, 500))):
            src, rep = tmp_path / f"in{i}.lqt", tmp_path / f"r{i}.json"
            save_tensors([tensor(data, name="t")], src)
            assert run("quantize", src, "-f", "int8", "-o", tmp_path / "o.lqt",
                       "--report", rep) == 0
            (row,) = json.loads(rep.read_text())
            rows.append(row)
        small, big = rows
        assert (small["sqnr_db"], small["rel_fro_err"]) == (big["sqnr_db"], big["rel_fro_err"])
        for key in ("max_abs_err", "mean_abs_err"):
            assert small[key] * 2.0**500 == big[key]

    @pytest.mark.parametrize("fill,K", [(1e300, "1e-300"), (1e15, "1e-300"), (0.0, "1e300")])
    def test_scale_out_of_range_is_one_error_line(self, tmp_path, fill, K):
        # a hif8-scaled scale of 0, of inf, or one too small to divide the
        # least nonzero code by: exit 1, no numpy warning, the tensor named once
        src = tmp_path / "big.lqt"
        save_tensors([tensor(np.full((4, 4), fill), name="big")], src)
        proc = run_subprocess("quantize", src, "-f", f"hif8-scaled:K={K}",
                              "-o", tmp_path / "o.lqt")
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: tensor 'big': ")
        assert proc.stderr.count("'big'") == 1
        assert not (tmp_path / "o.lqt").exists()

    @pytest.mark.parametrize("fmt", ["nvfp4:k=8", "mx:e8m0"])
    def test_unknown_selector_parameter_exits_2(self, tmp_path, fmt):
        src = tmp_path / "in.lqt"
        save_tensors([tensor(np.ones((32, 32)))], src)
        assert run("quantize", src, "--format", fmt, "-o", tmp_path / "o.lqt") == 2

    @pytest.mark.parametrize("k", [10**16, 2**62], ids=["k=10**16", "k=2**62"])
    def test_pad_to_a_block_past_the_axis_is_one_block_of_the_axis(self, tmp_path, capsys, k):
        # zeros raise no block maximum, so an MX block longer than the axis
        # rounds as one block of the whole axis (k=10 here), with no padding
        src = tmp_path / "a.lqt"
        save_tensors([tensor(np.random.default_rng(0).normal(size=(6, 10)), name="a")], src)
        outs = []
        for block in (k, 10):
            out = tmp_path / f"o{block}.lqt"
            assert run("quantize", src, "-f", f"mx:e2m1:k={block}", "--pad",
                       "--role", "activation", "-o", out) == 0
            assert capsys.readouterr().err == ""
            outs.append(out.read_bytes())
        assert outs[0][:4] == b"LQT1" and outs[0] == outs[1]

    # a block size numpy cannot index with
    @pytest.mark.parametrize("k", [10**20], ids=["index"])
    def test_pad_to_a_huge_block_is_one_error_line(self, tmp_path, capsys, k):
        src, out = tmp_path / "a.lqt", tmp_path / "o.lqt"
        save_tensors([tensor(np.ones((6, 10)), name="a")], src)
        assert run("quantize", src, "-f", f"mx:e2m1:k={k}", "--pad", "--role", "activation",
                   "-o", out) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1
        assert "block size k must be at most 9223372036854775807" in captured.err


class TestCompare:
    def test_synth_row_count(self, tmp_path):
        rep = tmp_path / "rep.json"
        assert run("compare", "--synth", "gaussian:64x64:0.02",
                   "--formats", "int8,mxfp8-e4m3,hif8,hif8-scaled:K=16",
                   "--role", "weight", "-o", rep) == 0
        rows = json.loads(rep.read_text())
        assert len(rows) == 4

    def test_single_tensor_single_format(self, tmp_path):
        src = tmp_path / "in.lqt"
        save_tensors([tensor(np.random.default_rng(1).normal(size=(16, 16)))], src)
        rep = tmp_path / "rep.json"
        assert run("compare", "--input", src, "--formats", "hif8", "-o", rep) == 0
        assert len(json.loads(rep.read_text())) == 1

    def test_activation_role_granularity(self, tmp_path):
        rep = tmp_path / "rep.json"
        assert run("compare", "--synth", "gaussian:32x32:1.0", "--formats", "int8",
                   "--role", "activation", "-o", rep) == 0
        rows = json.loads(rep.read_text())
        assert "per-token" in rows[0]["granularity"]

    def test_csv_output(self, tmp_path):
        rep = tmp_path / "rep.csv"
        assert run("compare", "--synth", "uniform:8x8", "--formats", "int8,int4",
                   "-o", rep, "--report-format", "csv") == 0
        assert len(rep.read_text().strip().split("\n")) == 3

    def test_no_format_selector_is_one_error_line(self, tmp_path, capsys):
        assert run("compare", "--synth", "gaussian:8x8", "--formats", ",",
                   "-o", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "at least one format selector is required" in err

    def test_byte_identical_reruns(self, tmp_path):
        args = ("compare", "--synth", "gaussian_outlier:64x64:0.02:0.01:100",
                "--formats", "int8,nvfp4,hif4", "--role", "activation", "--seed", "5")
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*args, "-o", r1) == 0
        assert run(*args, "-o", r2) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_parse_synth_grammar(self):
        spec = parse_synth("gaussian_outlier:512x512:0.02:0.001:100", 7)
        assert spec == SyntheticSpec("gaussian_outlier", (512, 512), sigma=0.02,
                                     outlier_fraction=0.001, outlier_scale=100.0, seed=7)
        with pytest.raises(ValueError):
            parse_synth("gaussian", 0)
        with pytest.raises(ValueError):
            parse_synth("gaussian_outlier:8x8", 0)

    def test_each_reconstruction_checked_for_finiteness_once(self, tmp_path, monkeypatch):
        src = tmp_path / "in.lqt"
        save_tensors([tensor(np.random.default_rng(2).normal(size=(64, 32)), "w")], src)
        formats = ["int8", "int4", "e4m3", "hif8", "hif8-scaled", "mxfp4", "nvfp4", "hif4"]
        checked = _spy_finiteness(monkeypatch)
        assert run("compare", "--input", src, "--formats", ",".join(formats),
                   "-o", tmp_path / "r.json") == 0
        # the loaded input, then each reconstruction in its kernel's chunks;
        # the scaled blocks mxfp4 and nvfp4 round from checked data are not
        # scanned, so no check carries the "array" label of a raw input
        assert checked == {"w": (1 + len(formats)) * 64 * 32}

    @pytest.mark.parametrize("cmd", ["compare", "quantize"])
    def test_codec_failure_names_the_tensor(self, tmp_path, capsys, cmd):
        src, out = tmp_path / "in.lqt", tmp_path / "out"
        save_tensors([tensor(np.ones((30, 8)), name="w")], src)
        args = ("--input", src, "--formats") if cmd == "compare" else (src, "-f")
        assert run(cmd, *args, "mxfp4", "-o", out) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("error: tensor 'w': extent 30 on axis 0 "
                                "is not divisible by block size 32\n")

    def test_bad_synth_exits_1(self, tmp_path):
        assert run("compare", "--synth", "cauchy:8x8", "--formats", "int8",
                   "-o", tmp_path / "r.json") == 1

    _BAD_SYNTH = [
        # 71.1 PiB: the allocation fails at once, so nothing is allocated
        ("gaussian:99999999x99999999", 0, "'gaussian:99999999x99999999': Unable to allocate"),
        ("gaussian:4x4:1:0.5", 0, "gaussian reads no field past kind:AxB:sigma"),
        ("uniform:8x8:0.3", 0, "uniform reads no field past kind:AxB"),
        ("gaussian_outlier:8x8:1:0.1:10:7", 0,
         "gaussian_outlier reads no field past kind:AxB:sigma:fraction:scale"),
        ("gaussian:4x4:nan", 0, "'gaussian:4x4:nan': sigma must be finite, got nan"),
        ("gaussian:4x4:inf", 0, "sigma must be finite, got inf"),
        ("gaussian_outlier:8x8:1:nan:10", 0, "outlier_fraction must be finite, got nan"),
        ("gaussian_outlier:8x8:1:0.1:-inf", 0, "outlier_scale must be finite, got -inf"),
        # finite numbers whose values overflow, a bad extent and a negative seed
        ("gaussian:4x4:1e308", 0, "'gaussian:4x4:1e308': sigma 1e+308 overflows float64"),
        ("gaussian_outlier:64x64:1:0.1:1e308", 0,
         "sigma 1.0 times outlier scale 1e+308 overflows float64"),
        ("gaussian:4xq", 0, "'gaussian:4xq': invalid literal for int()"),
        ("gaussian:4x4", -1, "'gaussian:4x4': seed must be non-negative, got -1"),
    ]

    @pytest.mark.parametrize("spec,seed,message", _BAD_SYNTH,
                             ids=[f"{spec}-seed{seed}" for spec, seed, _ in _BAD_SYNTH])
    def test_bad_synth_spec_is_one_error_line(self, tmp_path, capsys, spec, seed, message):
        out = tmp_path / "r.json"
        assert run("compare", "--synth", spec, "--seed", seed, "--formats", "int8",
                   "-o", out) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert message in captured.err

    @pytest.mark.parametrize("spec", ["gaussian:4x4:1:0.5", "uniform:8x8:0.3",
                                      "gaussian_outlier:8x8:1:0.1:10:7", "gaussian:4x4:nan"])
    def test_parse_synth_refuses_unread_fields_and_non_finite_numbers(self, spec):
        with pytest.raises(ValueError, match=f"^'{spec}': "):
            parse_synth(spec, 0)

    def test_one_table_of_synthetic_kinds(self, monkeypatch):
        # a kind added to metrics._SYNTH_FIELDS is one the grammar and SyntheticSpec both take
        monkeypatch.setitem(metrics._SYNTH_FIELDS, "new_kind", ("sigma",))
        assert parse_synth("new_kind:4x4:0.5", 0) == SyntheticSpec("new_kind", (4, 4), sigma=0.5)
        with pytest.raises(ValueError, match="new_kind reads no field past kind:AxB:sigma"):
            parse_synth("new_kind:4x4:0.5:0.1", 0)

    # the spec-level cases of _BAD_SYNTH, built directly; the sixth field of
    # gaussian_outlier:8x8:1:0.1:10:7 has no SyntheticSpec keyword at all
    _BAD_SPECS = {
        "gaussian:4x4:1:0.5": lambda: SyntheticSpec("gaussian", (4, 4), outlier_fraction=0.5),
        "uniform:8x8:0.3": lambda: SyntheticSpec("uniform", (8, 8), sigma=0.3),
        "gaussian:4x4:nan": lambda: SyntheticSpec("gaussian", (4, 4), sigma=math.nan),
        "gaussian:4x4:inf": lambda: SyntheticSpec("gaussian", (4, 4), sigma=math.inf),
        "gaussian_outlier:8x8:1:nan:10": lambda: SyntheticSpec(
            "gaussian_outlier", (8, 8), outlier_fraction=math.nan, outlier_scale=10.0),
        "gaussian_outlier:8x8:1:0.1:-inf": lambda: SyntheticSpec(
            "gaussian_outlier", (8, 8), outlier_fraction=0.1, outlier_scale=-math.inf),
        "gaussian:4x4": lambda: SyntheticSpec("gaussian", (4, 4), seed=-1),
    }

    @pytest.mark.parametrize("spec", sorted(_BAD_SPECS))
    def test_bad_synth_specs_fail_in_the_library_too(self, spec):
        assert spec in [s for s, _, _ in self._BAD_SYNTH]
        with pytest.raises(ValueError):
            self._BAD_SPECS[spec]()

    def test_negative_extent_fails_at_parse_time(self, tmp_path, capsys, monkeypatch):
        message = "'gaussian:4x-4': shape must be a tuple of non-negative extents, got (4, -4)"
        with pytest.raises(ValueError) as exc:
            parse_synth("gaussian:4x-4", 0)
        assert str(exc.value) == message

        def synth(spec):
            raise AssertionError("a refused spec is drawn")

        monkeypatch.setattr(sys.modules["lofiq.cli"], "synth", synth)
        assert run("compare", "--synth", "gaussian:4x-4", "--formats", "int8",
                   "-o", tmp_path / "r.json") == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    # the documented examples and the inputs of perfbench/workloads.py, with
    # the digests of their data as drawn before parse_synth moved to metrics
    _KNOWN_SPECS = [
        ("gaussian:512x512:0.02", 0, SyntheticSpec("gaussian", (512, 512), sigma=0.02),
         "f487f8decbce9986"),
        ("gaussian_outlier:128x2048:0.02:0.001:100", 0,
         SyntheticSpec("gaussian_outlier", (128, 2048), sigma=0.02, outlier_fraction=0.001,
                       outlier_scale=100.0), "0f4eb0ce4fc386ca"),
        ("gaussian_outlier:512x512:0.02:0.001:100", 7,
         SyntheticSpec("gaussian_outlier", (512, 512), sigma=0.02, outlier_fraction=0.001,
                       outlier_scale=100.0, seed=7), "5e2c40e8bab706a5"),
        ("uniform:70x45", 3, SyntheticSpec("uniform", (70, 45), seed=3), "2f175fccf52c46fc"),
        ("gaussian:4096x1024:0.02", 0, SyntheticSpec("gaussian", (4096, 1024), sigma=0.02),
         "9abfe22ab2bb62b4"),
        ("gaussian_outlier:256x4096:0.02:0.001:100.0", 3,
         SyntheticSpec("gaussian_outlier", (256, 4096), sigma=0.02, outlier_fraction=0.001,
                       outlier_scale=100.0, seed=3), "a19fa1aad52a3c84"),
        ("gaussian_outlier:256x2048:0.02:0.001:100.0", 16,
         SyntheticSpec("gaussian_outlier", (256, 2048), sigma=0.02, outlier_fraction=0.001,
                       outlier_scale=100.0, seed=16), "541f14e66d17c9a6"),
        ("gaussian:2048x2048:0.02", 17,
         SyntheticSpec("gaussian", (2048, 2048), sigma=0.02, seed=17), "95e915f826ddce0c"),
    ]

    @pytest.mark.parametrize("text,seed,spec,digest", _KNOWN_SPECS,
                             ids=[f"{text}-seed{seed}" for text, seed, _, _ in _KNOWN_SPECS])
    def test_known_specs_parse_and_draw_as_before(self, text, seed, spec, digest):
        assert parse_synth(text, seed) == spec
        data = metrics.synth(spec).data
        assert hashlib.sha256(data.tobytes()).hexdigest()[:16] == digest

    def test_readme_states_the_grammar_parse_synth_reports(self):
        readme = (Path(lofiq.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Synthetic tensor grammar\n", 1)[1].split("\n#", 1)[0]
        documented = section.split("```\n", 2)[1].splitlines()
        with pytest.raises(ValueError) as exc:
            parse_synth("?", 0)  # names every kind's grammar
        reported = str(exc.value).split("a synthetic spec is one of ", 1)[1].split(", ")
        assert documented == reported
        assert [line.split(":", 1)[0] for line in documented] == list(metrics._SYNTH_FIELDS)


class TestPtqCommands:
    def _pair(self, tmp_path, seed=0):
        rng = np.random.default_rng(seed)
        xp = tmp_path / "x.lqt"
        wp = tmp_path / "w.lqt"
        save_tensors([tensor(rng.normal(size=(64, 64)) * 0.02, name="x")], xp)
        save_tensors([tensor(rng.normal(size=(64, 64)) * 0.02, name="w")], wp)
        return xp, wp

    def test_smooth_grid_default(self, tmp_path, capsys):
        xp, wp = self._pair(tmp_path)
        rep = tmp_path / "rep.json"
        assert run("smooth", "--x", xp, "--w", wp, "--format", "int8", "-o", rep) == 0
        payload = json.loads(rep.read_text())
        assert payload["alpha"] in [round(0.1 * i, 1) for i in range(1, 10)]
        assert payload["rtn_rel_err"] > 0

    def test_smooth_fixed_alpha_echo(self, tmp_path):
        xp, wp = self._pair(tmp_path)
        rep = tmp_path / "rep.json"
        assert run("smooth", "--x", xp, "--w", wp, "--format", "int8",
                   "--alpha", "0.5", "-o", rep) == 0
        assert json.loads(rep.read_text())["alpha"] == 0.5

    def test_svdq_full_rank_beats_smooth(self, tmp_path):
        xp, wp = self._pair(tmp_path, seed=3)
        rep = tmp_path / "rep.json"
        assert run("svdq", "--x", xp, "--w", wp, "--format", "int8",
                   "--rank", "64", "-o", rep) == 0
        payload = json.loads(rep.read_text())
        assert payload["svdq_rel_err"] <= payload["smooth_rel_err"]
        assert payload["rank"] == 64

    def test_svdq_deterministic(self, tmp_path):
        xp, wp = self._pair(tmp_path, seed=4)
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run("svdq", "--x", xp, "--w", wp, "--format", "hif4", "-o", r1) == 0
        assert run("svdq", "--x", xp, "--w", wp, "--format", "hif4", "-o", r2) == 0
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.parametrize("cmd", ["smooth", "svdq"])
    @pytest.mark.parametrize("shape", [(4,), ()])
    def test_non_matrix_exits_1_without_traceback(self, tmp_path, cmd, shape):
        xp, wp = tmp_path / "x.lqt", tmp_path / "w.lqt"
        save_tensors([tensor(np.ones(shape), name="x")], xp)
        save_tensors([tensor(np.ones((4, 4)), name="w")], wp)
        for x, w in ((xp, wp), (wp, xp)):
            proc = run_subprocess(cmd, "--x", x, "--w", w, "-f", "int8")
            assert proc.returncode == 1
            assert proc.stderr.startswith("error: ")
            assert "Traceback" not in proc.stderr


    @pytest.mark.parametrize("cmd", ["smooth", "svdq"])
    def test_x_file_of_no_tensors_is_one_error_line(self, tmp_path, capsys, cmd):
        xp, wp = tmp_path / "x.lqt", tmp_path / "w.lqt"
        save_tensors([], xp)
        save_tensors([tensor(np.ones((4, 8)), name="w")], wp)
        assert run(cmd, "--x", xp, "--w", wp, "-f", "int8", "-o", tmp_path / "r.json") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "file contains no tensors" in err

    def test_vanishing_product_is_one_error_line(self, tmp_path, capsys):
        xp, wp = tmp_path / "x.lqt", tmp_path / "w.lqt"
        save_tensors([tensor(np.zeros((3, 4)), name="x")], xp)
        save_tensors([tensor(np.ones((4, 8)), name="w")], wp)
        assert run("smooth", "--x", xp, "--w", wp, "-f", "int8", "-o", tmp_path / "r.json") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "x @ w vanishes" in err

    @pytest.mark.parametrize("cmd", ["smooth", "svdq"])
    def test_squares_beyond_float64_write_valid_json(self, tmp_path, cmd):
        rng = np.random.default_rng(0)
        xp, wp, rep = tmp_path / "x.lqt", tmp_path / "w.lqt", tmp_path / "rep.json"
        save_tensors([tensor(rng.normal(0.0, 1e160, (16, 24)), name="x")], xp)
        save_tensors([tensor(rng.normal(size=(24, 20)), name="w")], wp)
        proc = run_subprocess(cmd, "--x", xp, "--w", wp, "-f", "int8", "-o", rep)
        assert (proc.returncode, proc.stderr) == (0, "")

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(rep.read_text(), parse_constant=refuse)
        assert all(0.0 < v < 0.1 for k, v in payload.items() if k.endswith("_rel_err"))

    @pytest.mark.parametrize("cmd,extra", [("svdq", ("--rank", "0")), ("svdq", ("--alpha", "1.5")),
                                           ("smooth", ("--alpha", "1.5"))])
    def test_bad_rank_or_alpha_exits_1_without_traceback(self, tmp_path, cmd, extra):
        xp, wp = self._pair(tmp_path)
        proc = run_subprocess(cmd, "--x", xp, "--w", wp, "-f", "int8", *extra)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("cmd,fmt,k", [("smooth", "mxfp4", 32), ("svdq", "hif4", 64)])
    def test_codec_failure_names_the_tensor(self, tmp_path, capsys, cmd, fmt, k):
        xp, wp = tmp_path / "x.lqt", tmp_path / "w.lqt"
        save_tensors([tensor(np.ones((30, 48)), name="act")], xp)
        save_tensors([tensor(np.ones((48, 16)), name="w")], wp)
        assert run(cmd, "--x", xp, "--w", wp, "-f", fmt, "-o", tmp_path / "r.json") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "r.json").exists()
        assert captured.err == ("error: tensor 'act': extent 48 on axis 1 "
                                f"is not divisible by block size {k}\n")

    @pytest.mark.parametrize("cmd", ["smooth", "svdq"])
    def test_selector_is_parsed_before_any_file_is_read(self, tmp_path, capsys, cmd):
        missing = tmp_path / "missing.lqt"
        assert run(cmd, "--x", missing, "--w", missing, "-f", "bogus") == 2
        assert capsys.readouterr().err == "error: unknown format 'bogus'\n"


@contextlib.contextmanager
def _bound_by_file_modes():
    """Run the block as a user whom file modes bind.

    Root may write to a read-only file, so a root process takes nobody's
    effective uid while the block runs.
    """
    if os.geteuid() != 0:
        yield
        return
    os.seteuid(65534)
    try:
        yield
    finally:
        os.seteuid(0)


@pytest.fixture
def open_dir():
    """A directory any user may enter (only its owner may enter pytest's tmp_path)."""
    d = tempfile.mkdtemp()
    os.chmod(d, 0o755)
    yield d
    shutil.rmtree(d)


class TestOutputFiles:
    """Every file is written in place by one helper; a non-regular target is written straight."""

    def _src(self, tmp_path, n=2):
        rng = np.random.default_rng(3)
        src = tmp_path / f"in{n}.lqt"
        save_tensors([tensor(rng.normal(0.0, 0.02, (8, 64)), f"t{i}") for i in range(n)], src)
        return src

    def _quantize(self, src, out, *extra):
        return run("quantize", src, "-f", "hif4", "--role", "activation", "-o", out, *extra)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_shorter_report_over_longer_gives_exactly_the_new_bytes(self, tmp_path, fmt):
        rep, fresh = tmp_path / "r", tmp_path / "fresh"
        assert self._quantize(self._src(tmp_path, 3), tmp_path / "o.lqt", "--report", rep,
                              "--report-format", fmt) == 0
        for path in (rep, fresh):
            assert self._quantize(self._src(tmp_path, 1), tmp_path / "o.lqt", "--report", path,
                                  "--report-format", fmt) == 0
        assert rep.read_bytes() == fresh.read_bytes()

    def test_shorter_listing_and_pipeline_report_over_longer(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run("enumerate", "e4m3", "-o", out) == 0
        assert run("enumerate", "e2m1", "-o", out) == 0
        assert run("enumerate", "e2m1", "-o", fresh) == 0
        assert out.read_bytes() == fresh.read_bytes()
        x, w = self._src(tmp_path, 1), tmp_path / "w.lqt"
        save_tensors([tensor(np.random.default_rng(4).normal(0.0, 0.02, (64, 16)), "w")], w)
        out.write_bytes(b"x" * 100_000)
        assert run("smooth", "--x", x, "--w", w, "-f", "int8", "-o", out) == 0
        assert run("smooth", "--x", x, "--w", w, "-f", "int8", "-o", fresh) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_dev_null(self, tmp_path, capsys):
        src = self._src(tmp_path)
        assert self._quantize(src, tmp_path / "o.lqt", "--report", tmp_path / "r.json") == 0
        want = capsys.readouterr()
        assert self._quantize(src, os.devnull, "--report", os.devnull) == 0
        assert capsys.readouterr() == want
        assert run("enumerate", "hif8", "-o", os.devnull) == 0
        assert run("compare", "--input", src, "--formats", "int8", "-o", os.devnull) == 0

    @pytest.mark.parametrize("target", ["lqt", "report"])
    def test_fifo(self, tmp_path, target):
        src, fifo = self._src(tmp_path), tmp_path / "fifo"
        os.mkfifo(fifo)
        out, rep = tmp_path / "o.lqt", tmp_path / "r.json"
        assert self._quantize(src, out, "--report", rep) == 0
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        if target == "lqt":
            code, want = self._quantize(src, fifo, "--report", rep), out.read_bytes()
        else:
            code, want = self._quantize(src, out, "--report", fifo), rep.read_bytes()
        reader.join(60)
        if reader.is_alive():  # nothing opened the FIFO: let the reader see an end of file
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(60)
        assert code == 0 and got == [want]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_to_stdout_through_a_pipe(self, tmp_path, fmt):
        src, rep = self._src(tmp_path), tmp_path / "r"
        args = ("quantize", src, "-f", "nvfp4", "--role", "activation", "-o", tmp_path / "o.lqt",
                "--report-format", fmt)
        regular = run_subprocess(*args, "--report", rep)
        piped = run_subprocess(*args, "--report", "/dev/stdout")
        assert (regular.returncode, regular.stderr, piped.returncode, piped.stderr) == (0, "", 0, "")
        assert piped.stdout == rep.read_text(encoding="utf-8") + regular.stdout
        listing = run_subprocess("enumerate", "e2m1", "-o", "/dev/stdout")
        assert listing.returncode == 0 and listing.stdout == run_subprocess("enumerate", "e2m1").stdout

    @pytest.mark.parametrize("command", ["quantize", "compare", "svdq"])
    def test_report_to_stdout_redirected_to_a_file(self, tmp_path, command):
        # the report goes through fd 1 in order, so the summary printed after it follows it
        src, rep, out = self._src(tmp_path), tmp_path / "r", tmp_path / "stdout.txt"
        if command == "quantize":
            args = ("quantize", src, "-f", "nvfp4", "--role", "activation",
                    "-o", tmp_path / "o.lqt", "--report")
        elif command == "compare":
            args = ("compare", "--input", src, "--formats", "int8,hif4", "--role", "activation",
                    "-o")
        else:
            w = tmp_path / "w.lqt"
            save_tensors([tensor(np.random.default_rng(4).normal(0.0, 0.02, (64, 16)), "w")], w)
            args = ("svdq", "--x", src, "--w", w, "-f", "int8", "--rank", "4", "-o")
        regular = run_subprocess(*args, rep)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lofiq.__file__)))
        with open(out, "wb") as fh:
            redirected = subprocess.run([sys.executable, "-m", "lofiq.cli", *map(str, args),
                                         "/dev/stdout"], stdout=fh, stderr=subprocess.PIPE,
                                        text=True, env=env, timeout=60)
        assert (regular.returncode, regular.stderr) == (0, "")
        assert (redirected.returncode, redirected.stderr) == (0, "")
        assert out.read_text(encoding="utf-8") == rep.read_text(encoding="utf-8") + regular.stdout

    def test_read_only_target_exits_1_and_is_left_unchanged(self, open_dir, capsys):
        src, out, listing = (os.path.join(open_dir, n) for n in ("in.lqt", "out.lqt", "list.txt"))
        save_tensors([tensor(np.ones((4, 64)), "t")], src)
        save_tensors([tensor(np.zeros(3), "old")], out)
        with open(listing, "w", encoding="utf-8") as fh:
            fh.write("old\n")
        before = []
        for path in (out, listing):
            os.chmod(path, 0o444)
            with open(path, "rb") as fh:
                before.append(fh.read())
        with _bound_by_file_modes():
            assert self._quantize(src, out) == 1
            assert run("enumerate", "e2m1", "-o", listing) == 1
        for path, old in zip((out, listing), before):
            with open(path, "rb") as fh:
                assert fh.read() == old
        assert capsys.readouterr().err == (f"error: [Errno 13] Permission denied: '{out}'\n"
                                           f"error: [Errno 13] Permission denied: '{listing}'\n")


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["quantize"])  # missing required arguments
        assert exc.value.code == 2

    def test_no_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_success_is_0(self, capsys):
        assert run("enumerate", "e2m1") == 0
