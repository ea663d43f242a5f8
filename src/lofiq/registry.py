"""Format selectors and role conventions shared by the harness and the CLI.

Selector grammar (one canonical string per codec, parameters as suffixes):

    int8[:sym|:asym][:axis=N]      integer baseline, 8 or 4 bit
    int4[:sym|:asym][:axis=N]
    e4m3 | e5m2 | e3m2 | e2m3 | e2m1   direct elementwise cast
    mx:<elem>[:k=N][:axis=N]       block scaling; elem in e4m3,e5m2,e3m2,e2m3,e2m1,int8
    mxfp8-e4m3 | mxfp8-e5m2 | mxfp6-e3m2 | mxfp6-e2m3 | mxfp4 | mxint8   mx aliases
    nvfp4[:axis=N]
    hif8
    hif8-scaled[:K=X][:axis=N]
    hif4[:axis=N][:mode=literal|halfrange]

Any other parameter or flag, a repeated key or a second int mode flag is an
UnknownFormat error (CLI exit 2), and so is a block size k that numpy cannot
index (above 2**63 - 1). ``hif8-scaled`` also takes ``k=X`` for ``K=X``. The
MX elements are the five casts and int8; the unsigned scale formats e8m0 and
e6m2u are not elements.

parse_format is the one reader and writer of selectors. A codec's
``selector`` is the canonical form of what it parsed: the head (``mx:<elem>``
for an alias), the flag, then each parameter not at its default (``k=32``,
``mode=literal``), in the order above, K written with ``:g`` or as many more
digits as reading it back exactly takes: ``MXFP4:axis=0:k=32`` is
``mx:e2m1:axis=0``, ``hif8-scaled:k=16.0`` is ``hif8-scaled:K=16``.

Role conventions (defaults, overridable with axis=):
  per-channel/per-axis grouping: weights group along the last axis (output
  channels), activations and KV states along axis 0 (tokens). Block formats
  run along the reduction axis: axis 0 for weights, the last axis for
  activations and KV states. Integer codecs default to symmetric for
  weights and asymmetric (zero-point) elsewhere.
"""

import math

import numpy as np

from . import hif4, hif8, intquant, mx, nvfp4
from .codebook import enumerate_codebook, project
from .errors import LofiqError, UnknownFormat
from .tensor import Tensor, _hold, as_tensor

__all__ = ["ROLES", "parse_format", "as_codec", "group_axis_for", "block_axis_for"]

ROLES = ("weight", "activation", "kv")

_MX_ALIASES = {
    "mxfp8-e4m3": "e4m3",
    "mxfp8-e5m2": "e5m2",
    "mxfp6-e3m2": "e3m2",
    "mxfp6-e2m3": "e2m3",
    "mxfp4": "e2m1",
    "mxint8": "int8",
}
_CAST_NAMES = ("e4m3", "e5m2", "e3m2", "e2m3", "e2m1")
# The element formats of mx:<elem>. The unsigned scale formats e8m0 and e6m2u
# encode no sign (and e8m0 no zero), so they are not elements.
_MX_ELEMENTS = _CAST_NAMES + ("int8",)
# The parameter keys and bare flags each selector head takes after its name
# (after the element, for mx); anything else is an error. The keys are in the
# order the canonical selector writes them.
_SYNTAX = {
    "int8": (("axis",), ("sym", "asym")),
    "int4": (("axis",), ("sym", "asym")),
    **{name: ((), ()) for name in _CAST_NAMES},
    "mx": (("k", "axis"), ()),
    "nvfp4": (("axis",), ()),
    "hif8": ((), ()),
    "hif8-scaled": (("K", "axis"), ()),
    "hif4": (("axis", "mode"), ()),
}
# The value of each parameter a selector leaves out, if not None
_DEFAULTS = {"k": mx.DEFAULT_BLOCK, "mode": "literal"}
_MAX_INDEX = np.iinfo(np.intp).max


def _check_role(role):
    if role not in ROLES:
        raise ValueError(f"role must be one of {ROLES}, got {role!r}")


def group_axis_for(role, ndim):
    """Axis whose slices form the scale groups (per-channel / per-token)."""
    _check_role(role)
    if ndim <= 1:
        return 0
    return ndim - 1 if role == "weight" else 0


def block_axis_for(role, ndim):
    """Axis blocks run along (the reduction dimension of a matmul)."""
    _check_role(role)
    if ndim <= 1:
        return 0
    return 0 if role == "weight" else ndim - 1


class _Codec:
    """Routing shared by every codec: the axis it works along, and padding.

    ``role_axis`` is the role default (group_axis_for, block_axis_for, or
    None for elementwise codecs), ``axis`` the selector's axis= override, and
    ``block`` the multiple a block codec needs along that axis. Subclasses
    supply ``_reconstruct(t, role, axis)`` on top of their kernels.

    parse_format builds each codec from the canonical ``selector`` it wrote
    and ``params`` (``bits``, ``mode``, ``cb``, ``element``, ``block``,
    ``axis``, ``K``), each of which becomes an attribute of that name.
    """

    axis = None
    role_axis = None
    block = None

    def __init__(self, selector, **params):
        self.selector = selector
        vars(self).update(params)

    def axis_for(self, role, ndim):
        return self.axis if self.axis is not None else self.role_axis(role, ndim)

    def granularity(self, role, ndim):
        return "elementwise"

    def config(self, role):
        return {}

    def reconstruct(self, t, role, pad=False):
        """Quantize then dequantize ``t`` under ``role``'s conventions.

        With ``pad``, a block axis whose extent is not a multiple of the
        block is reconstructed by ``_padded``. The result is an ndarray,
        checked for finiteness as the kernel made it. A LofiqError that
        names no tensor is raised again, as the same class, naming ``t``
        when ``t`` has a name.
        """
        try:
            if self.role_axis is None:
                return self._reconstruct(t, role, None)
            ndim = np.ndim(t)
            axis = self.axis_for(role, ndim)
            if pad and self.block and -ndim <= axis < ndim and np.shape(t)[axis] % self.block:
                return self._padded(t, role, axis)
            return self._reconstruct(t, role, axis)
        except LofiqError as exc:
            name = getattr(t, "name", None)
            if exc.tensor is not None or name is None:
                raise
            raise type(exc)(f"tensor {name!r}: {exc}", tensor=name) from exc

    def _padded(self, t, role, axis):
        """``t`` zero-padded along ``axis`` to a multiple of the block, reconstructed and cropped
        back, so padded elements never reach the output or statistics built on it. The padded
        copy carries ``t``'s name, so a kernel error names ``t``."""
        src = as_tensor(t)
        widths = [(0, 0)] * src.ndim
        widths[axis] = (0, -src.shape[axis] % self.block)
        # the zeros are finite and leave max|x| as it was, so no second scan
        padded = _hold(Tensor.__new__(Tensor), np.pad(src.data, widths), src.name, src.absmax)
        return self._reconstruct(padded, role, axis).take(range(src.shape[axis]), axis)

    def __repr__(self):
        return f"<codec {self.selector}>"


class IntCodec(_Codec):
    role_axis = staticmethod(group_axis_for)

    def _mode(self, role):
        return self.mode or ("sym" if role == "weight" else "asym")

    def granularity(self, role, ndim):
        kind = "per-channel" if role == "weight" else "per-token"
        return f"{kind}(axis={self.axis_for(role, ndim)},{self._mode(role)})"

    def config(self, role):
        return {"bits": self.bits, "mode": self._mode(role)}

    def _reconstruct(self, t, role, axis):
        if self._mode(role) == "sym":
            q = intquant.int_quantize_symmetric(t, axis, self.bits)
        else:
            q = intquant.int_quantize_asymmetric(t, axis, self.bits)
        return intquant.int_dequantize(q).data


class CastCodec(_Codec):
    def _reconstruct(self, t, role, axis):
        return project(self.cb, t)


class MxCodec(_Codec):
    role_axis = staticmethod(block_axis_for)

    def granularity(self, role, ndim):
        return f"block(k={self.block},axis={self.axis_for(role, ndim)})"

    def config(self, role):
        return {"element": self.element, "k": self.block}

    def _reconstruct(self, t, role, axis):
        q = mx.mx_quantize(t, axis, self.element, self.block)
        return mx.mx_dequantize(q).data

    def _padded(self, t, role, axis):
        """A block longer than the axis is one block of the whole axis: zeros raise no block
        maximum, so it rounds as padding would, bit for bit, and padding at most doubles an axis."""
        extent = np.shape(t)[axis]
        if extent < self.block:
            return mx.mx_dequantize(mx.mx_quantize(t, axis, self.element, extent)).data
        return super()._padded(t, role, axis)


class Nvfp4Codec(_Codec):
    role_axis = staticmethod(block_axis_for)
    block = nvfp4.BLOCK

    def granularity(self, role, ndim):
        return f"per-tensor+block(k=16,axis={self.axis_for(role, ndim)})"

    def config(self, role):
        return {"k": nvfp4.BLOCK}

    def _reconstruct(self, t, role, axis):
        return nvfp4.nvfp4_dequantize(nvfp4.nvfp4_quantize(t, axis)).data


class Hif8Codec(_Codec):
    def _reconstruct(self, t, role, axis):
        return hif8.hif8_quantize(t).data


class ScaledHif8Codec(_Codec):
    role_axis = staticmethod(group_axis_for)

    def _K(self, role):
        return self.K if self.K is not None else hif8.DEFAULT_K[role]

    def granularity(self, role, ndim):
        return f"per-axis(K={_g(self._K(role))},axis={self.axis_for(role, ndim)})"

    def config(self, role):
        return {"K": self._K(role)}

    def _reconstruct(self, t, role, axis):
        q = hif8.hif8_scaled_quantize(t, axis, self._K(role))
        return hif8.hif8_scaled_dequantize(q).data


class Hif4Codec(_Codec):
    role_axis = staticmethod(block_axis_for)
    block = hif4.BLOCK

    def granularity(self, role, ndim):
        return f"hier(64/8/4,axis={self.axis_for(role, ndim)})"

    def config(self, role):
        return {"mode": self.mode}

    def _reconstruct(self, t, role, axis):
        return hif4.hif4_dequantize(hif4.hif4_quantize(t, axis, self.mode)).data


def _params(sel, head, parts):
    """The 'key=value' parameters of ``parts`` and their one bare flag (or None).

    Any key or flag that ``_SYNTAX[head]`` does not list, a repeated key or a
    second flag raises UnknownFormat. hif8-scaled reads ``k=`` as ``K=``.
    """
    keys, flags = _SYNTAX[head]
    params = {}
    flag = None
    for part in parts:
        key, eq, val = part.partition("=")
        key = "K" if (head, key) == ("hif8-scaled", "k") else key
        if not eq:
            if part not in flags:
                raise UnknownFormat(f"{sel!r}: unknown flag {part!r}")
            if flag is not None:
                raise UnknownFormat(f"{sel!r}: flags {flag!r} and {part!r} exclude each other")
            flag = part
        elif key not in keys:
            raise UnknownFormat(f"{sel!r}: unknown parameter {key!r}")
        elif key in params:
            raise UnknownFormat(f"{sel!r}: parameter {key!r} given twice")
        else:
            params[key] = val
    return params, flag


def _value(sel, key, text):
    """The checked value of parameter ``key``, written as ``text`` in ``sel``."""
    if key == "mode":
        if text not in hif4.MODES:
            raise UnknownFormat(f"{sel!r}: mode must be one of {hif4.MODES}")
        return text
    if key == "K":
        try:
            K = float(text)
        except ValueError as exc:
            raise UnknownFormat(f"{sel!r}: bad number for K") from exc
        if not 0.0 < K < math.inf:
            raise UnknownFormat(f"{sel!r}: K must be positive and finite")
        return K
    try:
        n = int(text)
    except ValueError as exc:
        raise UnknownFormat(f"{sel!r}: bad integer for {key}") from exc
    if key == "k" and n < 1:
        raise UnknownFormat(f"{sel!r}: block size k must be positive")
    if key == "k" and n > _MAX_INDEX:  # padding to a larger block cannot even be indexed
        raise UnknownFormat(f"{sel!r}: block size k must be at most {_MAX_INDEX}")
    return n


def _g(x):
    """``x`` written with ``:g``, or with the fewest more digits that read back as ``x``."""
    return next(text for digits in range(6, 18) if float(text := f"{x:.{digits}g}") == x)


def as_codec(fmt):
    """A codec passes through; a selector string is parsed."""
    return parse_format(fmt) if isinstance(fmt, str) else fmt


def parse_format(selector):
    """Parse one selector string into a codec; raises UnknownFormat.

    A parameter or flag the selector's head does not take is an error. Each
    parameter is checked once, and the codec gets the canonical selector
    (module docstring) and the checked values.
    """
    sel = selector.strip()
    head, *rest = sel.split(":")
    head = head.lower()
    if head in _MX_ALIASES:
        head, element = "mx", _MX_ALIASES[head]
    elif head == "mx":
        if not rest or "=" in rest[0]:
            raise UnknownFormat(f"{sel!r}: mx needs an element type, e.g. mx:e2m1")
        element = rest.pop(0).lower()
        if element not in _MX_ELEMENTS:
            raise UnknownFormat(f"{sel!r}: mx element must be one of {', '.join(_MX_ELEMENTS)}")
    if head not in _SYNTAX:
        raise UnknownFormat(f"unknown format {selector!r}")
    params, flag = _params(sel, head, rest)
    values = {key: _value(sel, key, params[key]) if key in params else _DEFAULTS.get(key)
              for key in _SYNTAX[head][0]}
    canonical = ":".join(filter(None, [
        f"mx:{element}" if head == "mx" else head, flag,
        *(f"{key}={_g(value)}" if key == "K" else f"{key}={value}"
          for key, value in values.items() if value != _DEFAULTS.get(key))]))

    if head in ("int8", "int4"):
        return IntCodec(canonical, bits=int(head[3]), mode=flag, **values)
    if head in _CAST_NAMES:
        return CastCodec(canonical, cb=enumerate_codebook(head))
    if head == "mx":
        return MxCodec(canonical, element=element, block=values.pop("k"), **values)
    if head == "nvfp4":
        return Nvfp4Codec(canonical, **values)
    if head == "hif8":
        return Hif8Codec(canonical)
    if head == "hif8-scaled":
        return ScaledHif8Codec(canonical, **values)
    return Hif4Codec(canonical, **values)
