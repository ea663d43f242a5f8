import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lofiq.errors import (
    AxisOutOfRange,
    BadMagic,
    BadVersion,
    HeaderParse,
    NonFiniteValue,
    NotDivisible,
    OffsetOutOfBounds,
)
from lofiq.tensor import axis_to_blocks, blocks_to_axis, load_tensors, save_tensors, tensor

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


def _raw_file(path, header_obj, payload):
    header = json.dumps(header_obj).encode()
    with open(path, "wb") as fh:
        fh.write(b"LQT1")
        fh.write(struct.pack("<I", 1))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(payload)


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


def test_tensor_rejects_nonfinite():
    with pytest.raises(NonFiniteValue):
        tensor([1.0, np.nan])
    with pytest.raises(NonFiniteValue):
        tensor([np.inf])


def test_tensor_immutable():
    t = tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0
    with pytest.raises(AttributeError):
        t.name = "x"


class TestAxisBlocks:
    def test_counts(self):
        blocked, _ = axis_to_blocks(np.arange(128.0).reshape(2, 64), 1, 32)
        assert blocked.shape == (4, 32)  # 2 blocks per slice, 2 slices

    def test_single_block_per_slice(self):
        blocked, _ = axis_to_blocks(np.zeros((2, 64)), 1, 64)
        assert blocked.shape == (2, 64)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            axis_to_blocks(np.zeros((2, 60)), 1, 32)
        with pytest.raises(NotDivisible):
            axis_to_blocks(np.zeros((2, 64)), 1, 0)

    def test_axis_out_of_range(self):
        with pytest.raises(AxisOutOfRange):
            axis_to_blocks(np.zeros((2, 4)), 2, 2)

    def test_blocks_reconstruct_axis(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(3, 8, 5))
        mat, moved_shape = axis_to_blocks(arr, 1, 4)
        assert mat.shape == (30, 4)
        assert np.array_equal(blocks_to_axis(mat, moved_shape, 1), arr)
        # blocks of one axis slice, concatenated in order, equal the slice
        moved = np.moveaxis(arr, 1, -1).reshape(-1, 4)
        assert np.array_equal(mat, moved)
