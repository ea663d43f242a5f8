import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import lofiq
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
        inner(arr, shown)

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
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
        assert errors == ["error: tensor 'big' contains NaN or Inf"]
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o.lqt").exists()

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

    def test_bad_synth_exits_1(self, tmp_path):
        assert run("compare", "--synth", "cauchy:8x8", "--formats", "int8",
                   "-o", tmp_path / "r.json") == 1


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


    @pytest.mark.parametrize("cmd,extra", [("svdq", ("--rank", "0")), ("svdq", ("--alpha", "1.5")),
                                           ("smooth", ("--alpha", "1.5"))])
    def test_bad_rank_or_alpha_exits_1_without_traceback(self, tmp_path, cmd, extra):
        xp, wp = self._pair(tmp_path)
        proc = run_subprocess(cmd, "--x", xp, "--w", wp, "-f", "int8", *extra)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


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
