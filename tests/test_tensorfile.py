import json
import os
import signal
import stat
import struct
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lofiq.errors import (
    AxisOutOfRange,
    BadMagic,
    BadVersion,
    HeaderParse,
    LofiqError,
    NonFiniteValue,
    NotDivisible,
    OffsetOutOfBounds,
)
import lofiq
from lofiq.tensor import block_view, group_axes, load_tensors, save_tensors, tensor

from oracles import f32_roundtrip_oracle


def test_f32_identity_roundtrip(tmp_path):
    path = tmp_path / "t.lqt"
    save_tensors([tensor([[1.0, 2.0], [3.0, 4.0]], name="a")], path, dtype="f32")
    (out,) = load_tensors(path)
    assert out.shape == (2, 2)
    assert out.name == "a"
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_empty_list_roundtrip(tmp_path):
    path = tmp_path / "empty.lqt"
    save_tensors([], path)
    assert load_tensors(path) == []


def test_exactly_representable_f32(tmp_path):
    path = tmp_path / "t.lqt"
    save_tensors([tensor([1.5, -2.25])], path, dtype="f32")
    (out,) = load_tensors(path)
    assert np.array_equal(out.data, [1.5, -2.25])


def test_f32_narrowing_one_third(tmp_path):
    path = tmp_path / "t.lqt"
    save_tensors([tensor([1.0 / 3.0])], path, dtype="f32")
    (out,) = load_tensors(path)
    assert out.data[0] == f32_roundtrip_oracle(1.0 / 3.0)
    assert out.data[0] == 0.3333333432674408


@pytest.mark.parametrize("v", [1e300, -1e300, 2.0**128 - 2.0**103])
def test_f32_overflow_rejected_before_the_file_is_opened(tmp_path, v):
    # 2**128 - 2**103 is the midpoint above float32's maximum: it rounds to Inf
    path = tmp_path / "t.lqt"
    with pytest.raises(NonFiniteValue, match="^tensor 'w' ") as exc:
        save_tensors([tensor([1.0], "a"), tensor([0.0, v], "w")], path, dtype="f32")
    assert exc.value.tensor == "w" and not path.exists()
    save_tensors([tensor([0.0, v], "w")], path)  # f64 holds it
    assert load_tensors(path)[0].data[1] == v


def test_f32_maximum_saves(tmp_path):
    m = float(np.finfo(np.float32).max)
    below = np.nextafter(2.0**128 - 2.0**103, 0.0)  # rounds down to the maximum
    path = tmp_path / "t.lqt"
    save_tensors([tensor([m, -m, below], "w")], path, dtype="f32")
    assert load_tensors(path)[0].data.tolist() == [m, -m, m]


def _raw_bytes(header_obj, payload):
    header = json.dumps(header_obj).encode()
    return b"LQT1" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header + payload


def _raw_file(path, header_obj, payload):
    path.write_bytes(_raw_bytes(header_obj, payload))


def test_nan_payload_rejected(tmp_path):
    path = tmp_path / "nan.lqt"
    payload = struct.pack("<f", 1.0) + struct.pack("<I", 0x7FC00000)  # second word is a NaN
    _raw_file(path, {"tensors": [{"name": "bad", "dtype": "f32", "shape": [2], "offset": 0}]},
              payload)
    with pytest.raises(NonFiniteValue, match="bad"):
        load_tensors(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "x.lqt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadMagic):
        load_tensors(path)


def test_bad_version(tmp_path):
    path = tmp_path / "x.lqt"
    header = json.dumps({"tensors": []}).encode()
    path.write_bytes(b"LQT1" + struct.pack("<I", 2) + struct.pack("<Q", len(header)) + header)
    with pytest.raises(BadVersion):
        load_tensors(path)


def test_header_parse_error(tmp_path):
    path = tmp_path / "x.lqt"
    garbage = b"{not json"
    path.write_bytes(b"LQT1" + struct.pack("<I", 1) + struct.pack("<Q", len(garbage)) + garbage)
    with pytest.raises(HeaderParse):
        load_tensors(path)


class TestHeaderRules:
    """Header fields that would otherwise load as a different tensor, or crash."""

    @pytest.mark.parametrize("shape", [[-1], [2, -3], [2.0], ["2"], [True], 2])
    def test_shape_entries_are_non_negative_ints(self, tmp_path, shape):
        path = tmp_path / "x.lqt"
        _raw_file(path, {"tensors": [{"name": "t", "dtype": "f64", "shape": shape,
                                      "offset": 0}]}, b"\x00" * 48)
        with pytest.raises(HeaderParse):
            load_tensors(path)

    @pytest.mark.parametrize("tensors", [5, "abc", {"name": "t"}, [5], [["t"]]])
    def test_tensors_is_a_list_of_objects(self, tmp_path, tensors):
        path = tmp_path / "x.lqt"
        _raw_file(path, {"tensors": tensors}, b"")
        with pytest.raises(HeaderParse):
            load_tensors(path)

    @pytest.mark.parametrize("header", [[1], 5, "tensors"])
    def test_header_is_an_object(self, tmp_path, header):
        path = tmp_path / "x.lqt"
        _raw_file(path, header, b"")
        with pytest.raises(HeaderParse):
            load_tensors(path)

    def test_names_are_unique(self, tmp_path):
        path = tmp_path / "x.lqt"
        header = {"tensors": [
            {"name": "a", "dtype": "f64", "shape": [1], "offset": 0},
            {"name": "a", "dtype": "f64", "shape": [1], "offset": 8},
        ]}
        _raw_file(path, header, b"\x00" * 16)
        with pytest.raises(HeaderParse):
            load_tensors(path)

    @pytest.mark.parametrize("field,value", [
        ("name", 7), ("name", ["a"]), ("dtype", ["f64"]), ("offset", 0.5), ("offset", "0"),
    ])
    def test_field_types(self, tmp_path, field, value):
        path = tmp_path / "x.lqt"
        entry = {"name": "t", "dtype": "f64", "shape": [1], "offset": 0, field: value}
        _raw_file(path, {"tensors": [entry]}, b"\x00" * 8)
        with pytest.raises(HeaderParse):
            load_tensors(path)

    def test_huge_shape_is_out_of_bounds(self, tmp_path):
        path = tmp_path / "x.lqt"
        _raw_file(path, {"tensors": [{"name": "t", "dtype": "f64", "shape": [2**40, 2**40],
                                      "offset": 0}]}, b"\x00" * 8)
        with pytest.raises(OffsetOutOfBounds):
            load_tensors(path)

    def test_save_rejects_names_load_would(self, tmp_path):
        # a file the writer produces must pass the reader's header rules
        with pytest.raises(ValueError, match="unique string"):
            save_tensors([tensor([1.0], name="a"), tensor([2.0], name="a")], tmp_path / "x.lqt")
        with pytest.raises(ValueError, match="unique string"):
            save_tensors([tensor([1.0], name=5)], tmp_path / "x.lqt")

    def test_save_rejects_nonfinite_arrays(self, tmp_path):
        with pytest.raises(NonFiniteValue):
            save_tensors([np.array([1.0, np.nan])], tmp_path / "x.lqt")


def test_offset_out_of_bounds(tmp_path):
    path = tmp_path / "x.lqt"
    _raw_file(path, {"tensors": [{"name": "t", "dtype": "f64", "shape": [4], "offset": 8}]},
              b"\x00" * 16)
    with pytest.raises(OffsetOutOfBounds):
        load_tensors(path)


def test_overlapping_offsets_rejected(tmp_path):
    path = tmp_path / "x.lqt"
    header = {"tensors": [
        {"name": "a", "dtype": "f64", "shape": [2], "offset": 0},
        {"name": "b", "dtype": "f64", "shape": [2], "offset": 8},
    ]}
    _raw_file(path, header, b"\x00" * 24)
    with pytest.raises(OffsetOutOfBounds):
        load_tensors(path)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1, max_size=64))
def test_f64_roundtrip_bit_identical(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "t.lqt"
    arr = np.array(values)
    save_tensors([tensor(arr)], path, dtype="f64")
    (out,) = load_tensors(path)
    assert out.data.tobytes() == arr.tobytes()


def test_file_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    ts = [tensor(rng.normal(size=(3, 4)), name="w"), tensor(rng.normal(size=7), name="v")]
    p1, p2 = tmp_path / "a.lqt", tmp_path / "b.lqt"
    save_tensors(ts, p1)
    save_tensors(ts, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _lqt1_oracle(arrays, dtype):
    """LQT1 bytes built from the format table, independent of save_tensors."""
    np_dtype = {"f32": "<f4", "f64": "<f8"}[dtype]
    entries, offset = [], 0
    for i, a in enumerate(arrays):
        entries.append({"name": f"tensor_{i}", "dtype": dtype, "shape": list(a.shape),
                        "offset": offset})
        offset += a.size * np.dtype(np_dtype).itemsize
    h = json.dumps({"tensors": entries}, separators=(",", ":")).encode()
    return (b"LQT1" + struct.pack("<I", 1) + struct.pack("<Q", len(h)) + h
            + b"".join(a.astype(np_dtype).tobytes() for a in arrays))


_ODD_SHAPES = [
    np.zeros((0, 3)),
    np.array(2.5),
    np.array([1.0, -0.5, 1.0 / 3.0]),
    np.arange(-6.0, 6.0).reshape(3, 4) / 7.0,
    np.zeros((2, 0, 5)),
]


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_save_matches_byte_oracle_and_loads_back(tmp_path, dtype):
    path = tmp_path / "odd.lqt"
    save_tensors(_ODD_SHAPES, path, dtype=dtype)
    assert path.read_bytes() == _lqt1_oracle(_ODD_SHAPES, dtype)
    loaded = load_tensors(path)
    assert [t.name for t in loaded] == [f"tensor_{i}" for i in range(len(_ODD_SHAPES))]
    np_dtype = {"f32": np.float32, "f64": np.float64}[dtype]
    for a, t in zip(_ODD_SHAPES, loaded):
        want = a.astype(np_dtype).astype(np.float64)
        assert t.data.dtype == np.float64 and t.size == a.size
        assert t.shape == a.shape  # a 0-d payload reloads as 0-d
        assert t.data.tobytes() == want.tobytes()


def test_truncated_mid_tensor(tmp_path):
    path = tmp_path / "t.lqt"
    save_tensors([tensor(np.ones(4), name="a"), tensor(np.ones(4), name="b")], path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-12])  # the last 12 of b's 32 bytes are gone
    with pytest.raises(OffsetOutOfBounds, match="'b'"):
        load_tensors(path)


def test_short_read_is_out_of_bounds(tmp_path, monkeypatch):
    # a file that shrinks after its size was taken: the bounds pass, the read comes up short
    path = tmp_path / "t.lqt"
    save_tensors([tensor(np.ones(4), name="a")], path)
    path.write_bytes(path.read_bytes()[:-8])
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat",
                        lambda fd: types.SimpleNamespace(st_size=fstat(fd).st_size + 8))
    with pytest.raises(OffsetOutOfBounds, match="truncated"):
        load_tensors(path)


def test_header_len_past_eof(tmp_path):
    path = tmp_path / "x.lqt"
    header = json.dumps({"tensors": []}).encode()
    path.write_bytes(b"LQT1" + struct.pack("<I", 1) + struct.pack("<Q", len(header) + 1) + header)
    with pytest.raises(HeaderParse, match="exceeds file size"):
        load_tensors(path)


@pytest.mark.parametrize("shape", [[1] * 65, [0, 2**62, 4], [0, 2**64]])
def test_shape_numpy_cannot_hold(tmp_path, shape):
    # within the payload bounds (size 1 or 0) but not an ndarray shape
    path = tmp_path / "x.lqt"
    _raw_file(path, {"tensors": [{"name": "t", "dtype": "f64", "shape": shape, "offset": 0}]},
              b"\x00" * 8)
    with pytest.raises(HeaderParse, match="'t'"):
        load_tensors(path)


_FUZZ_BASE = _raw_bytes(
    {"tensors": [{"name": "a", "dtype": "f32", "shape": [2, 3], "offset": 0},
                 {"name": "b", "dtype": "f64", "shape": [2], "offset": 24}]},
    np.arange(6, dtype="<f4").tobytes() + np.array([0.5, -1.5], dtype="<f8").tobytes(),
)


def test_fuzz_base_loads(tmp_path):
    path = tmp_path / "base.lqt"
    path.write_bytes(_FUZZ_BASE)
    a, b = load_tensors(path)
    assert np.array_equal(a.data, np.arange(6.0).reshape(2, 3))
    assert np.array_equal(b.data, [0.5, -1.5])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_FUZZ_BASE) - 1), st.integers(0, 255)),
                max_size=4),
       st.integers(0, len(_FUZZ_BASE)))
def test_mutated_file_loads_or_raises_lofiq_error(tmp_path_factory, edits, keep):
    blob = bytearray(_FUZZ_BASE)
    for pos, byte in edits:
        blob[pos] = byte
    path = tmp_path_factory.mktemp("fuzz") / "m.lqt"
    path.write_bytes(bytes(blob[:keep]))
    try:
        load_tensors(path)
    except LofiqError:
        pass


def test_load_and_save_copy_each_payload_byte_once(tmp_path):
    # four 2 MiB tensors, as the activation file of the benchmark is four tensors; besides
    # the arrays themselves, loading allocates one tensor's finiteness mask (1/8 of its bytes)
    rng = np.random.default_rng(0)
    ts = [tensor(rng.normal(size=(256, 1024)), name=f"a{i}") for i in range(4)]
    payload = sum(t.data.nbytes for t in ts)
    assert payload == 8 * 2**20
    path = tmp_path / "a.lqt"
    tracemalloc.start()
    try:
        save_tensors(ts, path)
        _, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before_load, _ = tracemalloc.get_traced_memory()
        loaded = load_tensors(path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert save_peak <= 0.1 * payload
    assert load_peak - before_load <= 1.1 * payload + 64 * 1024
    assert all(np.array_equal(a.data, b.data) for a, b in zip(ts, loaded))


class TestWriteInPlace:
    """save_tensors writes over an existing file in place, as open(path, "wb") did."""

    @staticmethod
    def _tensors(n, seed=0):
        return [tensor(np.random.default_rng(seed).normal(size=(n, 8)), "t")]

    def test_shorter_over_longer_gives_exactly_the_new_bytes(self, tmp_path):
        path, fresh = tmp_path / "t.lqt", tmp_path / "fresh.lqt"
        save_tensors(self._tensors(500) + [tensor(np.ones(9), "u")], path)
        save_tensors(self._tensors(3, seed=1), path)
        save_tensors(self._tensors(3, seed=1), fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert np.array_equal(load_tensors(path)[0].data, self._tensors(3, seed=1)[0].data)

    def test_symlink_is_written_through_and_kept(self, tmp_path):
        target, link, fresh = tmp_path / "target.lqt", tmp_path / "link.lqt", tmp_path / "f.lqt"
        save_tensors(self._tensors(50), target)
        link.symlink_to(target)
        save_tensors(self._tensors(20, seed=1), link)
        save_tensors(self._tensors(20, seed=1), fresh)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()

    def test_hard_link_sees_the_new_bytes(self, tmp_path):
        path, other, fresh = tmp_path / "t.lqt", tmp_path / "other.lqt", tmp_path / "f.lqt"
        save_tensors(self._tensors(50), path)
        os.link(path, other)
        inode = path.stat().st_ino
        save_tensors(self._tensors(20, seed=1), path)
        save_tensors(self._tensors(20, seed=1), fresh)
        assert path.stat().st_ino == inode == other.stat().st_ino
        assert other.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o604])
    def test_mode_is_kept(self, tmp_path, mode):
        path = tmp_path / "t.lqt"
        save_tensors(self._tensors(50), path)
        path.chmod(mode)
        save_tensors(self._tensors(20, seed=1), path)
        assert stat.S_IMODE(path.stat().st_mode) == mode

    def test_a_new_file_gets_the_mode_open_gives(self, tmp_path):
        path, opened = tmp_path / "t.lqt", tmp_path / "o.lqt"
        save_tensors(self._tensors(2), path)
        with open(opened, "wb"):
            pass
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(opened.stat().st_mode)

    def test_dev_null(self):
        save_tensors(self._tensors(20), os.devnull)  # no seek, no truncation

    # the child saves over a same-size file and stops partway: os._exit where
    # the payload is in and the magic not yet, or killed by the kernel at
    # half the file (RLIMIT_FSIZE, with SIGXFSZ's default action restored)
    _INTERRUPTED = r"""
import os, resource, signal, sys
import numpy as np
import lofiq
path, how = sys.argv[1], sys.argv[2]
ts = [lofiq.tensor(np.random.default_rng(1).normal(size=(512, 64)), "t")]
if how == "exit":
    os.ftruncate = lambda fd, length: os._exit(3)
else:
    signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
    half = os.path.getsize(path) // 2
    resource.setrlimit(resource.RLIMIT_FSIZE, (half, half))
lofiq.save_tensors(ts, path)
"""

    @pytest.mark.parametrize("how", ["exit", "killed"])
    def test_interrupted_save_leaves_bad_magic(self, tmp_path, how):
        path = tmp_path / "t.lqt"
        save_tensors([tensor(np.random.default_rng(0).normal(size=(512, 64)), "t")], path)
        size = path.stat().st_size
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lofiq.__file__)))
        proc = subprocess.run([sys.executable, "-c", self._INTERRUPTED, str(path), how],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == (3 if how == "exit" else -signal.SIGXFSZ), proc.stderr
        assert path.stat().st_size == size
        with pytest.raises(BadMagic):
            load_tensors(path)


def test_tensor_rejects_nonfinite():
    with pytest.raises(NonFiniteValue):
        tensor([1.0, np.nan])
    with pytest.raises(NonFiniteValue):
        tensor([np.inf])


def test_tensor_keeps_zero_dim():
    assert tensor(2.5).shape == ()
    assert tensor(np.array(-0.0)).ndim == 0


def test_zero_dim_tensor_roundtrip(tmp_path):
    path = tmp_path / "s.lqt"
    save_tensors([tensor(-0.0, name="s")], path)
    assert b'"shape":[]' in path.read_bytes()
    (t,) = load_tensors(path)
    assert t.shape == ()
    assert t.data.tobytes() == np.array(-0.0).tobytes()


def test_tensor_immutable():
    t = tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0
    with pytest.raises(AttributeError):
        t.name = "x"


class TestAxisBlocks:
    def test_counts(self):
        view = block_view(np.arange(128.0).reshape(2, 64), 1, 32)
        assert view.shape == (4, 32)  # 2 blocks per slice, 2 slices

    def test_single_block_per_slice(self):
        view = block_view(np.zeros((2, 64)), 1, 64)
        assert view.shape == (2, 64)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            block_view(np.zeros((2, 60)), 1, 32)
        with pytest.raises(NotDivisible):
            block_view(np.zeros((2, 64)), 1, 0)
        with pytest.raises(NotDivisible):
            block_view(np.zeros((2, 64)), -1, -32)

    def test_axis_out_of_range(self):
        with pytest.raises(AxisOutOfRange):
            block_view(np.zeros((2, 4)), 2, 2)
        with pytest.raises(AxisOutOfRange):
            block_view(np.zeros((2, 4)), -3, 2)
        with pytest.raises(AxisOutOfRange):
            block_view(np.array(1.0), 0, 1)

    def test_blocks_reconstruct_axis(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(3, 8, 5))
        for axis in (1, -2):
            view = block_view(arr, axis, 4)
            # leading axes merge into the block count; trailing axes stay
            assert view.shape == (6, 4, 5)
            assert np.shares_memory(view, arr)
            assert np.array_equal(view.reshape(arr.shape), arr)
            # block b of slice (i, :, j) holds arr[i, 4b:4b+4, j]
            assert np.array_equal(view[3, :, 2], arr[1, 4:8, 2])

    def test_zero_size(self):
        assert block_view(np.zeros((0, 64)), 1, 32).shape == (0, 32)
        assert block_view(np.zeros((32, 0)), 0, 16).shape == (2, 16, 0)


class TestGroupAxes:
    def test_every_axis_but_the_group_axis(self):
        assert group_axes(3, 1) == (0, 2)
        assert group_axes(3, -1) == (0, 1)
        assert group_axes(3, -3) == (1, 2)
        assert group_axes(1, 0) == ()

    @pytest.mark.parametrize("ndim,axis", [(2, 2), (2, -3), (1, 1), (0, 0), (0, -1)])
    def test_axis_out_of_range(self, ndim, axis):
        with pytest.raises(AxisOutOfRange):
            group_axes(ndim, axis)
