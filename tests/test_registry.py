import numpy as np
import pytest

from lofiq import nvfp4, registry
from lofiq.codebook import enumerate_codebook
from lofiq.errors import AxisOutOfRange, NonFiniteValue, NotDivisible, UnknownFormat
from lofiq.mx import resolve_element
from lofiq.registry import block_axis_for, group_axis_for, parse_format
from lofiq.tensor import tensor

# One selector per head (one per element for mx) and every alias.
EVERY_SELECTOR = ([head for head in registry._SYNTAX if head != "mx"]
                  + [f"mx:{element}" for element in registry._MX_ELEMENTS]
                  + list(registry._MX_ALIASES))


def _grids(codec):
    """The element grids a codec rounds onto; int, hif8 and hif4 round by their own formulas."""
    if isinstance(codec, registry.CastCodec):
        return [codec.cb]
    if isinstance(codec, registry.MxCodec):
        return [resolve_element(codec.element)]
    if isinstance(codec, registry.Nvfp4Codec):
        return [enumerate_codebook("e4m3"), enumerate_codebook("e2m1")]
    return []


class TestParse:
    @pytest.mark.parametrize("sel,canon", [
        ("int8", "int8"),
        ("int4:sym", "int4:sym"),
        ("int8:asym:axis=0", "int8:asym:axis=0"),
        ("e4m3", "e4m3"),
        ("mx:e2m1", "mx:e2m1"),
        ("mx:e2m1:k=16", "mx:e2m1:k=16"),
        ("mxfp8-e4m3", "mx:e4m3"),
        ("mxfp8-e5m2", "mx:e5m2"),
        ("mxfp6-e3m2", "mx:e3m2"),
        ("mxfp6-e2m3", "mx:e2m3"),
        ("mxfp4", "mx:e2m1"),
        ("mxint8", "mx:int8"),
        ("nvfp4", "nvfp4"),
        ("hif8", "hif8"),
        ("hif8-scaled:K=16", "hif8-scaled:K=16"),
        ("hif4", "hif4"),
        ("hif4:mode=halfrange", "hif4:mode=halfrange"),
        # every form the grammar documents keeps its canonical selector
        ("int8:sym:axis=1", "int8:sym:axis=1"),
        ("int4:asym:axis=-1", "int4:asym:axis=-1"),
        (" INT8 ", "int8"),
        ("e5m2", "e5m2"),
        ("e3m2", "e3m2"),
        ("e2m3", "e2m3"),
        ("e2m1", "e2m1"),
        ("mx:e4m3", "mx:e4m3"),
        ("mx:e5m2", "mx:e5m2"),
        ("mx:e3m2", "mx:e3m2"),
        ("mx:e2m3", "mx:e2m3"),
        ("mx:int8", "mx:int8"),
        ("mx:E2M1", "mx:e2m1"),
        ("mx:e2m1:k=32", "mx:e2m1"),
        ("mx:e4m3:k=16:axis=0", "mx:e4m3:k=16:axis=0"),
        ("mxfp4:k=16", "mx:e2m1:k=16"),
        ("mxint8:axis=0", "mx:int8:axis=0"),
        ("nvfp4:axis=0", "nvfp4:axis=0"),
        ("hif8-scaled", "hif8-scaled"),
        ("hif8-scaled:k=16", "hif8-scaled:K=16"),
        ("hif8-scaled:K=3:axis=0", "hif8-scaled:K=3:axis=0"),
        ("hif4:mode=literal", "hif4"),
        ("hif4:axis=1:mode=halfrange", "hif4:axis=1:mode=halfrange"),
    ])
    def test_selector_normalization(self, sel, canon):
        assert parse_format(sel).selector == canon

    @pytest.mark.parametrize("sel", [
        "int7", "e9m9", "mx", "mx:e9m9", "int8:weird", "hif5",
        "mx:e2m1:k=x", "int8:axis=one",
        # parameters out of range: each used to pass parsing and crash in a kernel
        "mx:e2m1:k=0", "mx:e2m1:k=-32", "mxfp4:k=0", "hif4:mode=bogus",
        "hif8-scaled:K=-1", "hif8-scaled:K=0", "hif8-scaled:K=inf",
    ])
    def test_unknown_rejected(self, sel):
        with pytest.raises(UnknownFormat):
            parse_format(sel)

    @pytest.mark.parametrize("sel", [
        # a key or flag the head does not take, a repeated key, or a second flag
        "nvfp4:k=8", "hif4:k=32", "hif8:axis=0", "hif8:junk", "int8:k=4", "mx:e2m1:foo=1",
        "mxfp4:e4m3", "int8:sym:asym", "int8:axis=0:axis=1",
        "int8:sym:sym", "hif8-scaled:K=2:k=2", "hif4:mode=halfrange:mode=literal",
        "mx:e2m1:e4m3", "mx:e2m1:k=16:k=8", "nvfp4:", "hif8-scaled:mode=literal",
    ])
    def test_unknown_parameter_rejected(self, sel):
        with pytest.raises(UnknownFormat):
            parse_format(sel)

    @pytest.mark.parametrize("sel", ["mx:e8m0", "mx:e6m2u", "mx:E8M0", "mx:e6m2u:k=16"])
    def test_unsigned_scale_format_is_not_an_mx_element(self, sel):
        # no sign and no zero: mx:e8m0 would reconstruct -1 and 0 as 3.4e-77
        with pytest.raises(UnknownFormat, match="element"):
            parse_format(sel)

    @pytest.mark.parametrize("sel", EVERY_SELECTOR)
    def test_every_reachable_grid_has_a_rounding_rule(self, sel):
        codec = parse_format(sel)
        for cb in _grids(codec):
            assert cb._exmy is not None, cb.spec.name
        x = tensor(np.random.default_rng(5).normal(size=(64, 64)))
        for role in registry.ROLES:
            assert codec.reconstruct(x, role).shape == (64, 64)


class TestRoleConventions:
    def test_group_axes(self):
        assert group_axis_for("weight", 2) == 1
        assert group_axis_for("activation", 2) == 0
        assert group_axis_for("kv", 2) == 0
        assert group_axis_for("weight", 1) == 0

    def test_block_axes(self):
        assert block_axis_for("weight", 2) == 0
        assert block_axis_for("activation", 2) == 1
        assert block_axis_for("kv", 3) == 2

    def test_bad_role(self):
        with pytest.raises(ValueError):
            group_axis_for("bias", 2)

    def test_int_mode_defaults(self):
        c = parse_format("int8")
        assert c.config("weight")["mode"] == "sym"
        assert c.config("activation")["mode"] == "asym"

    def test_scaled_k_defaults(self):
        c = parse_format("hif8-scaled")
        assert c.config("weight")["K"] == 16.0
        assert c.config("activation")["K"] == 4.0
        assert c.config("kv")["K"] == 1.0
        assert parse_format("hif8-scaled:K=2").config("weight")["K"] == 2.0

    def test_axis_override(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 64))
        a0 = parse_format("mx:e2m1:axis=1").reconstruct(x, "weight")
        a1 = parse_format("mx:e2m1").reconstruct(x, "activation")
        assert np.array_equal(a0, a1)  # both block along axis 1

    def test_reconstruct_shapes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(64, 64))
        for sel in ("int8", "int4", "e4m3", "mxfp4", "mxint8", "nvfp4",
                    "hif8", "hif8-scaled", "hif4"):
            codec = parse_format(sel)
            for role in ("weight", "activation", "kv"):
                out = codec.reconstruct(x, role)
                assert out.shape == x.shape, (sel, role)

    @pytest.mark.parametrize("sel,k", [("mx:e2m1", 32), ("nvfp4", 16), ("hif4", 64)])
    @pytest.mark.parametrize("role,axis", [("weight", 0), ("activation", 1)])
    def test_pad_reconstruct(self, sel, k, role, axis):
        rng = np.random.default_rng(2)
        codec = parse_format(sel)
        shape = [2 * k, 2 * k]
        shape[axis] = k + 3  # only the role's block axis fails to divide
        x = rng.normal(size=shape)
        with pytest.raises(NotDivisible):
            codec.reconstruct(x, role)
        out = codec.reconstruct(x, role, pad=True)
        assert out.shape == x.shape
        # the padding runs along the block axis: equal to quantizing the
        # zero-padded tensor by hand and cropping it
        widths = [(0, 0), (0, 0)]
        widths[axis] = (0, k - 3)
        full = codec.reconstruct(np.pad(x, widths), role)
        assert np.array_equal(out, full[: shape[0], : shape[1]])
        # an extent that divides is left alone
        even = x[:k] if axis == 0 else x[:, :k]
        assert np.array_equal(codec.reconstruct(even, role, pad=True),
                              codec.reconstruct(even, role))

    @pytest.mark.parametrize("name", ["w", None])
    def test_pad_hands_the_kernel_the_tensor_name(self, monkeypatch, name):
        # so a failure inside the kernel names the input, not '<unnamed>'
        seen = []
        inner = nvfp4.nvfp4_quantize
        monkeypatch.setattr(nvfp4, "nvfp4_quantize",
                            lambda t, axis: seen.append((t.name, t.shape)) or inner(t, axis))
        x = tensor(np.random.default_rng(5).normal(size=(30, 60)), name)
        parse_format("nvfp4").reconstruct(x, "weight", pad=True)
        assert seen == [(name, (32, 60))]  # weight blocks run along axis 0

    @pytest.mark.parametrize("sel", ["int8", "hif8", "hif8-scaled", "e4m3"])
    def test_pad_leaves_unblocked_codecs_alone(self, sel):
        x = np.random.default_rng(3).normal(size=(35, 67))
        codec = parse_format(sel)
        for role in ("weight", "activation"):
            assert np.array_equal(codec.reconstruct(x, role, pad=True), codec.reconstruct(x, role))

    @pytest.mark.parametrize("sel", ["int8", "int4:asym", "hif8-scaled"])
    def test_negative_group_axis(self, sel):
        x = np.random.default_rng(4).normal(size=(64, 64))
        for role in ("weight", "activation"):
            assert np.array_equal(parse_format(f"{sel}:axis=-1").reconstruct(x, role),
                                  parse_format(f"{sel}:axis=1").reconstruct(x, role))
            assert np.array_equal(parse_format(f"{sel}:axis=-2").reconstruct(x, role),
                                  parse_format(f"{sel}:axis=0").reconstruct(x, role))
        with pytest.raises(AxisOutOfRange):
            parse_format(f"{sel}:axis=-3").reconstruct(x, "weight")

    def test_block_axis_out_of_range(self):
        x = np.zeros((64, 64))
        for sel in ("mx:e2m1:axis=5", "nvfp4:axis=2", "hif4:axis=-3"):
            for pad in (False, True):
                with pytest.raises(AxisOutOfRange):
                    parse_format(sel).reconstruct(x, "weight", pad=pad)


class TestRankZero:
    @pytest.mark.parametrize("sel", ["int8", "int4:asym", "hif8-scaled", "mxfp4", "nvfp4", "hif4"])
    @pytest.mark.parametrize("pad", [False, True])
    def test_grouped_and_blocked_codecs_raise(self, sel, pad):
        for role in ("weight", "activation"):
            with pytest.raises(AxisOutOfRange):
                parse_format(sel).reconstruct(tensor(2.5), role, pad=pad)

    @pytest.mark.parametrize("sel,want", [("e4m3", 2.5), ("e2m1", 2.0), ("hif8", 2.5)])
    def test_elementwise_codecs_keep_the_shape(self, sel, want):
        out = parse_format(sel).reconstruct(tensor(2.4), "weight")
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert out == want


class TestIngest:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sel", ["int8", "int4", "e4m3", "hif8", "hif8-scaled",
                                     "mxfp4", "nvfp4", "hif4"])
    def test_nonfinite_raw_array_rejected(self, sel, bad):
        x = np.ones((64, 64))
        x[5, 7] = bad
        with pytest.raises(NonFiniteValue):
            parse_format(sel).reconstruct(x, "weight")

    def test_array_like_accepted(self):
        x = [[0.5, -1.25], [2.0, 3.0]]
        assert np.array_equal(parse_format("int8").reconstruct(x, "weight"),
                              parse_format("int8").reconstruct(np.array(x), "weight"))


class TestFailuresNameTheTensor:
    MESSAGE = "extent 30 on axis 0 is not divisible by block size 32"

    def test_named_input(self):
        with pytest.raises(NotDivisible) as exc:
            parse_format("mxfp4").reconstruct(tensor(np.ones((30, 8)), "w"), "weight")
        assert exc.value.tensor == "w"
        assert str(exc.value) == f"tensor 'w': {self.MESSAGE}"

    @pytest.mark.parametrize("x", [np.ones((30, 8)), tensor(np.ones((30, 8)))],
                             ids=["array", "unnamed"])
    def test_input_without_a_name_keeps_the_message(self, x):
        with pytest.raises(NotDivisible) as exc:
            parse_format("mxfp4").reconstruct(x, "weight")
        assert exc.value.tensor is None
        assert str(exc.value) == self.MESSAGE

    def test_class_is_kept(self):
        with pytest.raises(AxisOutOfRange) as exc:
            parse_format("nvfp4").reconstruct(tensor(2.5, "s"), "weight", pad=True)
        assert exc.value.tensor == "s"
        assert str(exc.value) == "tensor 's': axis 0 out of range for rank 0"

    def test_a_message_naming_the_tensor_is_left_alone(self):
        # the hif8-scaled scale check names the tensor itself
        with pytest.raises(NonFiniteValue) as exc:
            parse_format("hif8-scaled:K=1e-300").reconstruct(
                tensor(np.full((4, 4), 1e300), "big"), "weight")
        assert exc.value.tensor == "big"
        assert str(exc.value).startswith("tensor 'big': ") and str(exc.value).count("big") == 1
