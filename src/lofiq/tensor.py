"""Dense float64 tensor container, axis/block partitioning, slices run on every core, and LQT1.

All codecs in this package consume and produce 64-bit tensors; narrower
on-disk dtypes are widened losslessly on load. Non-finite values are
rejected at ingest since no codec defines them: a Tensor is checked once
when built, and ``as_array`` checks any other array-like it is handed. A
kernel's output is made, checked slice by slice and named by ``made_in_chunks``.
"""

import json
import math
import os
import struct
import threading

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
# The f32 midpoint between the largest finite value and 2**128: from here up, f32 rounds to Inf
_F32_INF = 2.0**128 - 2.0**103


class Tensor:
    """Immutable dense tensor of finite float64 values with an optional name."""

    __slots__ = ("data", "name")

    def __init__(self, values, name=None):
        arr = np.asarray(values, dtype=np.float64, order="C")  # 0-d stays 0-d
        _check_finite(arr, name or "<unnamed>")
        _hold(self, arr, name)

    @classmethod
    def of_checked(cls, values, name=None):
        """A Tensor of values that already passed the finiteness check, without a second scan.

        For an array ``made_in_chunks`` checked when it was made, or a view
        of one; a strided view is copied to C order.
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


def _check_finite(arr, shown):
    """NonFiniteValue unless ``arr`` is all finite; ``shown`` is the name of
    the tensor it belongs to, or None for a bare array."""
    if not np.all(np.isfinite(arr)):
        label = "array" if shown is None else f"tensor {shown!r}"
        raise NonFiniteValue(f"{label} contains NaN or Inf", tensor=shown)


# -- chunks on every core -----------------------------------------------------
#
# Kernels split their arrays along the first axis into slices of about CHUNK
# elements, so a slice and its temporaries stay in one core's L2 cache, and run
# the slices on every usable core: the calling thread and a pool of one thread
# per other core take slices from one shared list until it is empty. numpy
# releases the GIL inside its loops. Every chunk writes its own part of
# preallocated outputs and each element is computed by the same operations as
# in one whole-array pass, and sums are taken along numpy's own pairwise tree
# (pairwise_reduce), so results are bit-identical for any chunk size and core
# count.

CHUNK = 1 << 16  # elements per slice: 512 KiB of float64

_pool = None  # None until first use, then (executor, helper count), or False with one usable core
_pool_lock = threading.Lock()
_in_chunk = threading.local()


def _forget_pool():
    global _pool
    _pool = None  # a forked child has none of its parent's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _get_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
            if cores > 1:
                from concurrent.futures import ThreadPoolExecutor

                _pool = (ThreadPoolExecutor(cores - 1, thread_name_prefix="lofiq-chunk"),
                         cores - 1)
            else:
                _pool = False
    return _pool


def for_chunks(fn, arr):
    """Call ``fn(s)`` for each slice ``s`` of ``arr``'s first axis; the results in slice order.

    Only ``arr``'s shape is read; it has at least one axis. Each slice holds
    about CHUNK elements (at least one index). The slices run as ``for_each``
    runs its items.
    """
    step = max(1, CHUNK // max(1, math.prod(arr.shape[1:])))
    return for_each(fn, [slice(i, i + step) for i in range(0, arr.shape[0], step)])


def for_each(fn, items):
    """Call ``fn(item)`` for each of ``items`` on every usable core; the results in item order.

    With one item, one usable core, or when called from inside ``fn``, the
    calls run inline on the calling thread. Otherwise every item runs, and
    then the first error in item order is raised.
    """
    inline = len(items) <= 1 or getattr(_in_chunk, "flag", False)
    pool = False if inline else _get_pool()
    if not pool:
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors = [None] * len(items)
    todo = iter(range(len(items)))
    take = threading.Lock()

    def drain():
        _in_chunk.flag = True
        try:
            while True:
                with take:
                    i = next(todo, None)
                if i is None:
                    return
                try:
                    results[i] = fn(items[i])
                except Exception as exc:  # raised below, once every item is done
                    errors[i] = exc
        finally:
            _in_chunk.flag = False

    executor, count = pool
    helpers = [executor.submit(drain) for _ in range(count)]
    drain()
    for h in helpers:
        h.result()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


# numpy's pairwise sum adds a range of at most this many elements in one loop
_PAIRWISE_BLOCK = 128


def pairwise_reduce(fn, join, n):
    """Reduce the flat range [0, n) along numpy's pairwise-summation tree, on every core.

    numpy's ``np.add.reduce`` of a contiguous array splits a range of m
    elements at m // 2 rounded down to a multiple of 8, and adds the two
    halves' sums, until a range holds at most 128 elements. Here the split
    stops at ranges of at most max(CHUNK, 128) elements: ``fn(s)`` is called
    on each such leaf slice ``s`` through ``for_each``, and the results are
    joined as ``join(left, right)`` up the same tree. A leaf that sums with
    ``np.add.reduce`` of a contiguous array follows numpy's tree below it, so
    a join that adds gives, bit for bit, numpy's sum over the whole range,
    for any CHUNK and core count.
    """
    top = max(CHUNK, _PAIRWISE_BLOCK)
    leaves = []

    def split(lo, m):
        if m <= top:
            leaves.append(slice(lo, lo + m))
            return
        half = m // 2 - m // 2 % 8
        split(lo, half)
        split(lo + half, m - half)

    split(0, n)
    parts = iter(for_each(fn, leaves))

    def joined(m):
        if m <= top:
            return next(parts)
        half = m // 2 - m // 2 % 8
        return join(joined(half), joined(m - half))

    return joined(n)


def made_in_chunks(shape, fill, name, view=None):
    """A Tensor ``name`` of ``shape`` made slice by slice, each slice checked while it is in cache.

    ``fill(s, part)`` writes slice ``s`` of the output's first axis into
    ``part``; with ``view``, the slices are those of ``view(out)`` (np.ravel
    for an elementwise kernel, a block view for a block one). Each part is
    then checked for finiteness under the label of tensor ``name``, so the
    Tensor is built without a second scan.
    """
    out = np.empty(shape)
    parts = out if view is None else view(out)
    shown = name or "<unnamed>"

    @np.errstate(all="ignore")  # a NaN or Inf that fill makes is caught by the check
    def chunk(s):
        part = parts[s]
        fill(s, part)
        _check_finite(part, shown)

    for_chunks(chunk, parts)
    return Tensor.of_checked(out, name)


def as_array(t):
    """The float64 array behind ``t``, the one ingest of every library entry point.

    A Tensor gives its (already checked) data; any other array-like is
    converted and must be finite, else NonFiniteValue.
    """
    if isinstance(t, Tensor):
        return t.data
    arr = np.asarray(t, dtype=np.float64)
    _check_finite(arr, None)
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
        raise NotDivisible(f"extent {extent} on axis {axis} is not divisible by block size {k}")
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


def rows(field, s):
    """The part of a keepdims per-group ``field`` that meets slice ``s`` of the array's first axis.

    A field grouped along axis 0 is sliced with the array; any other has
    extent 1 there and broadcasts whole.
    """
    return field if field.shape[0] == 1 else field[s]


def save_tensors(tensors, path, dtype="f64"):
    """Write tensors to an LQT1 container.

    f32 narrowing uses the hardware round-to-nearest-even conversion; a
    tensor with a value that would round to Inf there raises NonFiniteValue.
    Every tensor is checked before the file is opened. An f64 array is
    written as is, without staging the payload in memory; for f32, each
    tensor is first converted into a full float32 copy, one tensor at a time.
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
        if dtype == "f32" and max(arr.max(initial=0.0), -arr.min(initial=0.0)) >= _F32_INF:
            raise NonFiniteValue(f"tensor {name!r} holds values beyond the range of f32",
                                 tensor=name)
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
                raise NonFiniteValue(f"{path}: {exc}", tensor=exc.tensor) from None
    return out
