"""Kernels run in chunks on a thread pool; every output must be the one-chunk output, bit for bit.

``lofiq.tensor.CHUNK`` sets how many elements a slice holds. These tests
shrink it so that every kernel splits small inputs into many slices, the
last one only partly filled, and compare record fields, reconstructions
(sign bits included, as raw bytes) and ``compare`` reports against a run
with one slice. They also check that a process pinned to one core writes
the same bytes, and that every kernel boundary the benchmark's tracer wraps
runs on the main thread.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from lofiq import cli, codebook, hif4, hif8, intquant, mx, nvfp4, registry
from lofiq.errors import LofiqError
from lofiq.tensor import Tensor, save_tensors

ROOT = Path(__file__).resolve().parents[1]
CHUNKS = sys.modules["lofiq.tensor"]  # the name lofiq.tensor is the function
ONE_CHUNK = 1 << 60
# depending on the array or view, a slice of 48 or 240 elements holds one row,
# or several rows with a partly filled last slice
SMALL_CHUNKS = (48, 240)

FORMATS = ("int8", "int4", "int8:asym", "int4:sym", "int8:axis=1", "e4m3", "e5m2", "hif8",
           "hif8-scaled", "hif8-scaled:K=3:axis=0", "mxfp8-e4m3", "mxfp4", "mxint8",
           "mx:e2m1:k=8", "mx:e3m2:k=16:axis=0", "nvfp4", "nvfp4:axis=0", "hif4",
           "hif4:mode=halfrange", "hif4:axis=0")
SHAPES = ((320,), (64, 80), (64, 3, 32))


def _data(shape, seed=0):
    """Gaussian values with zeros of both signs, exact ties, outliers and an all-zero block."""
    a = np.random.default_rng(seed).normal(0, 0.02, shape)
    flat = a.reshape(-1)
    specials = [0.0, -0.0, 1.0, -1.0, 0.75, -0.625, 2.5, 448.0, 6.0, 2688.0, 2.0**-30,
                -(2.0**15), 3e5, 5e-324]
    flat[: 7 * len(specials): 7] = specials
    flat[100:164] = 0.0
    flat[200] = -0.0
    return a


def _bytes(obj):
    """Everything ``obj`` holds, as bytes: arrays by dtype, shape and raw data."""
    if isinstance(obj, np.ndarray):
        return repr((obj.dtype.str, obj.shape)).encode() + np.ascontiguousarray(obj).tobytes()
    if isinstance(obj, Tensor):
        return _bytes(obj.data)
    if dataclasses.is_dataclass(obj):
        return b"".join(f.name.encode() + _bytes(getattr(obj, f.name))
                        for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(_bytes(o) for o in obj) + b"]"
    if isinstance(obj, (float, np.floating)):
        return np.float64(obj).tobytes()
    return repr(obj).encode()


def _attempt(fn):
    try:
        return _bytes(fn())
    except LofiqError as exc:  # the same error must come out either way
        return repr(exc).encode()


def _kernel_outputs(a):
    """Records and reconstructions of every kernel along every axis of ``a``."""
    t = Tensor(a, "t")
    out = [_attempt(lambda: hif8.hif8_quantize(t)),
           _attempt(lambda: [codebook.project(codebook.enumerate_codebook(n), t)
                             for n in ("e4m3", "e2m1", "e6m2u")])]
    for axis in range(-a.ndim, a.ndim):
        kernels = [
            (lambda: intquant.int_quantize_symmetric(t, axis, 8), intquant.int_dequantize),
            (lambda: intquant.int_quantize_asymmetric(t, axis, 4), intquant.int_dequantize),
            (lambda: hif8.hif8_scaled_quantize(t, axis, 4.0), hif8.hif8_scaled_dequantize),
            (lambda: mx.mx_quantize(t, axis, "e2m1", 32), mx.mx_dequantize),
            (lambda: mx.mx_quantize(t, axis, "int8", 16), mx.mx_dequantize),
            (lambda: nvfp4.nvfp4_quantize(t, axis), nvfp4.nvfp4_dequantize),
            (lambda: hif4.hif4_quantize(t, axis), hif4.hif4_dequantize),
            (lambda: hif4.hif4_quantize(t, axis, "halfrange"), hif4.hif4_dequantize),
        ]
        for quantize, dequantize in kernels:
            out.append(_attempt(lambda: (lambda q: [q, dequantize(q)])(quantize())))
    return out


def _reconstructions(a):
    """Reconstruction and fidelity report of every format, role and padding of ``a``."""
    from lofiq.metrics import fidelity_from_reconstruction

    t = Tensor(a, "t")
    out = []
    for fmt in FORMATS:
        codec = registry.parse_format(fmt)
        for role in registry.ROLES:
            for pad in (False, True):
                def run():
                    rec = Tensor.of_checked(codec.reconstruct(t, role, pad=pad))
                    return [rec, fidelity_from_reconstruction(t, rec, codec, role)]
                out.append(_attempt(run))
    return out


def _with_chunk(monkeypatch, size, fn, *args):
    monkeypatch.setattr(CHUNKS, "CHUNK", size)
    return fn(*args)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("produce", [_kernel_outputs, _reconstructions],
                         ids=["records", "reconstructions"])
def test_outputs_do_not_depend_on_chunk_size(monkeypatch, shape, produce):
    a = _data(shape)
    reference = _with_chunk(monkeypatch, ONE_CHUNK, produce, a)
    for size in SMALL_CHUNKS:
        assert _with_chunk(monkeypatch, size, produce, a) == reference, size


def test_small_chunks_split_and_leave_a_partial_last_slice(monkeypatch):
    monkeypatch.setattr(CHUNKS, "CHUNK", 48)
    seen = []
    CHUNKS.for_chunks(seen.append, np.empty(320))
    assert len(seen) == 7 and seen[-1] == slice(288, 336)  # 32 of 48 elements in the last
    seen.clear()
    CHUNKS.for_chunks(seen.append, np.empty((5, 10, 32)))  # rows of 320 elements: one each
    assert seen == [slice(i, i + 1) for i in range(5)]


@pytest.mark.parametrize("size", [1, 200, 1 << 16])
def test_pairwise_reduce_adds_as_numpy_does(monkeypatch, size):
    # sizes below numpy's 128-element block, between it and CHUNK, and past CHUNK
    monkeypatch.setattr(CHUNKS, "CHUNK", size)
    rng = np.random.default_rng(4)
    a = rng.normal(size=70001) * rng.choice([1.0, 1e8], 70001)  # the order of the sum shows
    for n in (0, 1, 7, 127, 128, 129, 1000, 65536, 65537, 70001):
        got = CHUNKS.pairwise_reduce(lambda s: float(np.add.reduce(a[s])), float.__add__, n)
        assert got == np.add.reduce(a[:n]), n


@pytest.mark.parametrize("name", ["w", None])
def test_made_in_chunks_returns_the_named_tensor(monkeypatch, name):
    monkeypatch.setattr(CHUNKS, "CHUNK", 48)  # rows of 9: slices of 5 rows and then 2
    out = CHUNKS.made_in_chunks((7, 9), lambda s, o: o.fill(s.start), name)
    assert type(out) is Tensor and out.name == name
    assert not out.data.flags.writeable
    assert np.array_equal(out.data, np.repeat([0.0] * 5 + [5.0] * 2, 9).reshape(7, 9))


def _compare_reports(tmp_path, tag):
    paths = []
    for role in registry.ROLES:
        for kind in ("json", "csv"):
            path = tmp_path / f"{tag}-{role}.{kind}"
            assert cli.main(["compare", "--input", str(tmp_path / "in.lqt"), "--formats",
                             ",".join(FORMATS),
                             "--role", role, "--report-format", kind, "-o", str(path)]) == 0
            paths.append(path)
    return [p.read_bytes() for p in paths]


def test_compare_reports_do_not_depend_on_chunk_size(tmp_path, monkeypatch):
    save_tensors([Tensor(_data((128, 64), seed=1), "w"), Tensor(_data((64, 64), seed=2), "x")],
                 tmp_path / "in.lqt")
    reference = _with_chunk(monkeypatch, ONE_CHUNK, _compare_reports, tmp_path, "one")
    assert _with_chunk(monkeypatch, 240, _compare_reports, tmp_path, "small") == reference


def test_chunk_errors_are_raised_after_every_slice_ran(monkeypatch):
    # with one usable core every slice runs inline and the first error stops the loop
    if len(os.sched_getaffinity(0)) == 1:
        pytest.skip("needs two usable cores")
    monkeypatch.setattr(CHUNKS, "CHUNK", 4)
    done = []

    def fn(s):
        done.append(s.start)
        if s.start in (8, 4):
            raise ValueError(s.start)

    with pytest.raises(ValueError) as info:
        CHUNKS.for_chunks(fn, np.empty(40))
    assert info.value.args == (4,)  # the first failing slice in slice order
    assert sorted(done) == list(range(0, 40, 4))


def test_concurrent_callers_each_get_every_slice_once(monkeypatch):
    # more calling threads than cores, switching as often as the interpreter allows
    monkeypatch.setattr(CHUNKS, "CHUNK", 8)
    failures = []

    def caller(extra):
        for _ in range(20):
            ran = []
            got = CHUNKS.for_chunks(lambda s: ran.append(s.start) or s.start, np.empty(800 + extra))
            if got != list(range(0, 800 + extra, 8)) or sorted(ran) != got:
                failures.append(extra)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


_PINNED = r"""
import os, sys
import numpy as np
import lofiq
from lofiq import cli

pin = sys.argv[1] == "pin"
if pin:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
tensors = sys.modules["lofiq.tensor"]
tensors.CHUNK = 1024
code = cli.main(["compare", "--input", sys.argv[2], "--formats", sys.argv[3],
                 "--role", "weight", "-o", sys.argv[4]])
print(code, tensors._pool and tensors._pool[1])
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_one_core_writes_the_same_bytes(tmp_path):
    src = tmp_path / "in.lqt"
    save_tensors([Tensor(_data((512, 256), seed=3), "w")], src)
    formats = ",".join(FORMATS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    results = {}
    for mode in ("pin", "free"):
        out = tmp_path / f"{mode}.json"
        proc = subprocess.run([sys.executable, "-c", _PINNED, mode, str(src), formats, str(out)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        results[mode] = (proc.stdout.splitlines()[-1].split(), out.read_bytes())
    assert results["pin"][0] == ["0", "False"]  # one usable core: no pool, every slice inline
    cores = len(os.sched_getaffinity(0))
    if cores > 1:
        assert results["free"][0] == ["0", str(cores - 1)]  # helpers beside the calling thread
    assert results["pin"][1] == results["free"][1]


class _ThreadSpy:
    """Stands in for perfbench's Tracer: records whether each boundary ran on the main thread."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.calls = []

    def wrap(self, owner, attr, label):
        inner = getattr(owner, attr)

        def spy(*args, **kwargs):
            on_main = threading.current_thread() is threading.main_thread()
            self.calls.append((label(*args, **kwargs)[0], on_main))
            return inner(*args, **kwargs)

        self.monkeypatch.setattr(owner, attr, spy)


def test_kernel_boundaries_run_on_the_main_thread(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    import workloads

    spy = _ThreadSpy(monkeypatch)
    tracing.install(spy)
    monkeypatch.setattr(CHUNKS, "CHUNK", 256)
    workers = set()
    check = CHUNKS._check_finite
    monkeypatch.setattr(CHUNKS, "_check_finite", lambda arr, label: (
        workers.add(threading.current_thread() is threading.main_thread()), check(arr, label))[1])

    rng = np.random.default_rng(4)
    save_tensors([Tensor(rng.normal(0, 0.02, (128, 64)), "w")], tmp_path / "w.lqt")
    save_tensors([Tensor(rng.normal(0, 0.02, (32, 128)), "x")], tmp_path / "x.lqt")
    assert cli.main(["compare", "--input", str(tmp_path / "w.lqt"), "--formats",
                     ",".join(workloads.FORMATS), "-o", str(tmp_path / "c.json")]) == 0
    assert cli.main(["quantize", str(tmp_path / "x.lqt"), "--format", "mxfp4", "--role",
                     "activation", "-o", str(tmp_path / "q.lqt"),
                     "--report", str(tmp_path / "q.json")]) == 0
    assert cli.main(["svdq", "--x", str(tmp_path / "x.lqt"), "--w", str(tmp_path / "w.lqt"),
                     "-f", "int8", "--rank", "4"]) == 0

    names = {name for name, _ in spy.calls}
    for fmt in workloads.FORMATS:
        assert f"registry.{fmt}" in names, fmt
        for call in tracing.CODEC_CALLS[fmt]:
            assert f"{tracing.CODEC_SPAN[fmt]}.{call}" in names, (fmt, call)
    for name in ("metrics.fidelity", "metrics.sqnr", "tensor.load", "tensor.save",
                 "ptq.pipeline", "ptq.search_alpha", "ptq.apply_smoothing", "ptq.svd_split"):
        assert name in names, name
    assert all(on_main for _, on_main in spy.calls)
    if len(os.sched_getaffinity(0)) > 1:
        assert False in workers  # chunks did run on the pool


def test_import_starts_no_pool():
    script = ("import sys, threading, lofiq, lofiq.cli\n"
              "print('concurrent.futures' in sys.modules, threading.active_count(),\n"
              "      sys.modules['lofiq.tensor']._pool)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "1", "None"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_pool(monkeypatch):
    monkeypatch.setattr(CHUNKS, "CHUNK", 64)
    a = _data((64, 64))
    expected = hif8.hif8_quantize(a).data.tobytes()  # the parent's pool now exists
    pid = os.fork()
    if pid == 0:  # the child exits without returning into pytest
        signal.alarm(60)  # a child waiting on threads it does not have dies instead of hanging
        os._exit(0 if hif8.hif8_quantize(a).data.tobytes() == expected else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
