"""Dense float64 tensor container, axis/block partitioning, and the LQT1 file format.

All codecs in this package consume and produce 64-bit tensors; narrower
on-disk dtypes are widened losslessly on load. Non-finite values are
rejected at ingest since no codec defines them: a Tensor is checked once
when built, and ``as_array`` checks any other array-like it is handed.
"""

import json
import math
import os
import struct

import numpy as np

from .errors import (
    AxisOutOfRange,
    BadMagic,
    BadVersion,
    HeaderParse,
    NonFiniteValue,
    NotDivisible,
    OffsetOutOfBounds,
)

MAGIC = b"LQT1"
VERSION = 1

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


class Tensor:
    """Immutable dense tensor of finite float64 values with an optional name."""

    __slots__ = ("data", "name")

    def __init__(self, values, name=None):
        arr = np.asarray(values, dtype=np.float64, order="C")  # 0-d stays 0-d
        _check_finite(arr, f"tensor {name or '<unnamed>'!r}")
        _hold(self, arr, name)

    @classmethod
    def of_checked(cls, values, name=None):
        """A Tensor of values that already passed the finiteness check, without a second scan.

        For a codec's reconstruction, whose kernel checked it when it was
        made; a strided view of one is copied to C order.
        """
        t = cls.__new__(cls)
        _hold(t, np.asarray(values, dtype=np.float64, order="C"), name)
        return t

    def __setattr__(self, key, value):
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label} shape={self.shape}"


def _hold(t, arr, name):
    arr.flags.writeable = False
    object.__setattr__(t, "data", arr)
    object.__setattr__(t, "name", name)


def tensor(values, name=None):
    """Build a Tensor from any array-like of finite reals."""
    return Tensor(values, name)


def _check_finite(arr, label):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{label} contains NaN or Inf")


def as_array(t):
    """The float64 array behind ``t``, the one ingest of every library entry point.

    A Tensor gives its (already checked) data; any other array-like is
    converted and must be finite, else NonFiniteValue.
    """
    if isinstance(t, Tensor):
        return t.data
    arr = np.asarray(t, dtype=np.float64)
    _check_finite(arr, "array")
    return arr


def block_view(arr, axis, k):
    """View ``arr`` as (blocks, k, *trailing): blocks of k consecutive elements along ``axis``.

    Every axis before ``axis`` merges into the block count, so on a
    C-contiguous array this is a free reshape and a block codec's output,
    reshaped back to ``arr.shape``, is born in the input's layout. Per-block
    fields keep the layout (blocks, *trailing); for the last axis that is
    flat block order.
    """
    if not -arr.ndim <= axis < arr.ndim:
        raise AxisOutOfRange(f"axis {axis} out of range for rank {arr.ndim}")
    extent = arr.shape[axis]
    if k <= 0 or extent % k != 0:
        raise NotDivisible(extent, k, axis)
    pos = axis % arr.ndim
    return arr.reshape((math.prod(arr.shape[:pos]) * (extent // k), k) + arr.shape[pos + 1:])


def group_axes(ndim, axis):
    """Every axis but ``axis``: what a per-group codec reduces over.

    Each index along ``axis`` is one group. Reducing over these axes with
    keepdims=True gives per-group fields that broadcast against the input
    in its own layout, so nothing is transposed.
    """
    if not -ndim <= axis < ndim:
        raise AxisOutOfRange(f"axis {axis} out of range for rank {ndim}")
    return tuple(i for i in range(ndim) if i != axis % ndim)


def group_absmax(arr, axis):
    """max|x| of each group along ``axis``, keepdims=True; 0 for an empty group.

    Two reductions of ``arr`` itself, so no |x| array is made.
    """
    others = group_axes(arr.ndim, axis)
    return np.maximum(arr.max(axis=others, keepdims=True, initial=0.0),
                      -arr.min(axis=others, keepdims=True, initial=0.0))


def save_tensors(tensors, path, dtype="f64"):
    """Write tensors to an LQT1 container.

    f32 narrowing uses the hardware round-to-nearest-even conversion; a
    value that overflows f32 becomes Inf on disk and is rejected on load.
    Every tensor is checked before the file is opened, and each array is
    written as is, without staging the payload in memory.
    """
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be f32 or f64, got {dtype!r}")
    np_dtype = _DTYPES[dtype]
    entries = []
    arrays = []
    names = set()
    offset = 0
    for i, t in enumerate(tensors):
        arr = as_array(t)
        name = getattr(t, "name", None) or f"tensor_{i}"
        if not isinstance(name, str) or name in names:
            raise ValueError(f"tensor name {name!r} is not a unique string")
        names.add(name)
        entries.append({"name": name, "dtype": dtype, "shape": list(arr.shape), "offset": offset})
        arrays.append(arr)
        offset += arr.size * np_dtype.itemsize
    header = json.dumps({"tensors": entries}, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype=np_dtype))


def _is_count(v):
    # JSON true/false load as bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _read_plan(path, entries, payload_len):
    """Check the header entries against a payload of ``payload_len`` bytes.

    Returns (name, dtype, shape, offset) per tensor. It runs before any
    array is allocated, so a hostile shape is rejected at no cost.
    """
    plan = []
    names = set()
    prev_end = 0
    for entry in entries:
        try:
            name = entry["name"]
            dtype = entry["dtype"]
            shape = entry["shape"]
            offset = entry["offset"]
        except KeyError as exc:
            raise HeaderParse(f"{path}: tensor entry lacks {exc}") from exc
        if not isinstance(name, str) or name in names:
            raise HeaderParse(f"{path}: tensor name {name!r} is not a unique string")
        names.add(name)
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise HeaderParse(f"{path}: unknown dtype {dtype!r} for tensor {name!r}")
        if not isinstance(shape, list) or not all(_is_count(s) for s in shape):
            raise HeaderParse(f"{path}: tensor {name!r} shape {shape!r} is not a list "
                              "of non-negative integers")
        if not _is_count(offset):
            raise HeaderParse(f"{path}: tensor {name!r} offset {offset!r} is not a "
                              "non-negative integer")
        nbytes = math.prod(shape) * _DTYPES[dtype].itemsize
        if offset < prev_end or offset + nbytes > payload_len:
            raise OffsetOutOfBounds(
                f"{path}: tensor {name!r} at offset {offset} (+{nbytes}B) "
                f"outside payload of {payload_len}B"
            )
        prev_end = offset + nbytes
        plan.append((name, _DTYPES[dtype], shape, offset))
    return plan


def load_tensors(path):
    """Read an LQT1 container into a list of Tensors (f32 widened losslessly).

    The header and every bound are checked against the file size before any
    array is allocated; each payload is then read straight into its array.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(16)
        if len(preamble) < 16 or preamble[:4] != MAGIC:
            raise BadMagic(f"{path}: not an LQT1 file")
        (version,) = struct.unpack_from("<I", preamble, 4)
        if version != VERSION:
            raise BadVersion(f"{path}: unsupported version {version}")
        (header_len,) = struct.unpack_from("<Q", preamble, 8)
        if 16 + header_len > size:
            raise HeaderParse(f"{path}: header length {header_len} exceeds file size")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            entries = header["tensors"]
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise HeaderParse(f"{path}: bad header ({exc})") from exc
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise HeaderParse(f"{path}: 'tensors' must be a list of objects")
        plan = _read_plan(path, entries, size - 16 - header_len)

        out = []
        for name, dtype, shape, offset in plan:
            try:
                arr = np.empty(shape, dtype=dtype)
            except ValueError as exc:  # over 64 axes, or a zero-size shape past numpy's limits
                raise HeaderParse(f"{path}: tensor {name!r} shape {shape!r}: {exc}") from None
            # memoryview.cast rejects zero-size arrays, which have nothing to read
            if arr.nbytes:
                fh.seek(16 + header_len + offset)
                if fh.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                    raise OffsetOutOfBounds(f"{path}: payload of tensor {name!r} is truncated")
            try:
                out.append(Tensor(arr, name))
            except NonFiniteValue as exc:
                raise NonFiniteValue(f"{path}: {exc}") from None
    return out
