import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import seu_forge.tensor as tensor
from seu_forge.tensor import (ENCODINGS, INVALID_CLASS, BnParams, ShapeError, Tensor,
                              argmax_channels, batchnorm_forward,
                              concat_channels, conv2d_forward,
                              conv2d_transpose_forward, maxpool2d, relu)

from oracles import bn_scalar, conv2d_quadruple_loop, convtr_scatter_add


def t(a):
    return Tensor.from_array(np.asarray(a, dtype=np.float32))


class TestConv2d:
    def test_scalar_case(self):
        out = conv2d_forward(t(np.full((1, 1, 1, 1), 3.0)),
                             t(np.full((1, 1, 1, 1), 2.0)), [1.0])
        assert out.data.reshape(-1).tolist() == [7.0]

    def test_zero_kernel_gives_bias(self):
        rng = np.random.Generator(np.random.PCG64(0))
        x = t(rng.normal(size=(1, 4, 4, 2)).astype(np.float32))
        out = conv2d_forward(x, t(np.zeros((3, 3, 2, 3))), [0.5, -1.0, 2.0])
        assert np.array_equal(out.data[..., 0], np.full((1, 4, 4), 0.5, np.float32))
        assert np.array_equal(out.data[..., 1], np.full((1, 4, 4), -1.0, np.float32))
        assert np.array_equal(out.data[..., 2], np.full((1, 4, 4), 2.0, np.float32))

    def test_ones_valid_sum(self):
        out = conv2d_forward(t(np.ones((1, 3, 3, 1))), t(np.ones((3, 3, 1, 1))),
                             [0.0], padding="valid")
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data.reshape(-1)[0] == 9.0

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_bit_for_bit_vs_quadruple_loop(self, padding, stride):
        rng = np.random.Generator(np.random.PCG64(7))
        x = rng.normal(size=(2, 8, 8, 4)).astype(np.float32)
        k = rng.normal(size=(3, 3, 4, 5)).astype(np.float32)
        b = rng.normal(size=5).astype(np.float32)
        ours = conv2d_forward(t(x), t(k), b, stride=stride, padding=padding).data
        ref = conv2d_quadruple_loop(x, k, b, stride=stride, padding=padding)
        assert ours.shape == ref.shape
        assert np.array_equal(ours.view(np.uint32), ref.view(np.uint32))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            conv2d_forward(t(np.zeros((1, 4, 4, 3))), t(np.zeros((3, 3, 2, 1))), [0.0])
        assert "(1, 4, 4, 3)" in str(err.value) and "(3, 3, 2, 1)" in str(err.value)

    def test_deterministic_across_runs(self):
        rng = np.random.Generator(np.random.PCG64(9))
        x = rng.normal(size=(1, 6, 6, 3)).astype(np.float32)
        k = rng.normal(size=(3, 3, 3, 4)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        a = conv2d_forward(t(x), t(k), b).data
        c = conv2d_forward(t(x), t(k), b).data
        assert np.array_equal(a.view(np.uint32), c.view(np.uint32))


# Values a single bit flip can leave in a float32 weight. A NaN carries a
# payload so that a lost or replaced payload shows. Each set is placed on its
# own, so at most one NaN payload reaches any output cell: where two
# different NaNs meet, which one survives depends on numpy's inner loop (the
# SIMD body or the scalar tail), not on the accumulation order.
FAULT_VALUES = {
    "nan": [np.uint32(0x7FC01234).view(np.float32), np.float32(np.nan)],
    "inf": [np.inf, -np.inf, np.inf],
    "overflow": [3e38, -3e38, 3e38],
    "subnormal": [1e-45, -1e-40, 1e-39],
    "negative_zero": [-0.0, -0.0, -0.0],
}


def with_faulted_weights(k, values, seed):
    k = k.copy()
    rng = np.random.Generator(np.random.PCG64(seed))
    flat = k.reshape(-1)
    for pos, v in zip(rng.choice(flat.size, size=len(values), replace=False), values):
        flat[pos] = v
    return k


def assert_same_bits(ours, ref):
    assert ours.shape == ref.shape
    assert np.array_equal(ours.view(np.uint32), ref.view(np.uint32))


class TestConv2dOracleShapes:
    """Bit-for-bit agreement with the quadruple loop on faulted weights and
    on shapes the basic oracle test does not reach."""

    @pytest.mark.parametrize("kind", sorted(FAULT_VALUES))
    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "valid")])
    def test_faulted_weights(self, kind, stride, padding):
        rng = np.random.Generator(np.random.PCG64(31))
        x = rng.normal(size=(2, 7, 6, 3)).astype(np.float32)
        k = with_faulted_weights(rng.normal(size=(3, 3, 3, 4)).astype(np.float32),
                                 FAULT_VALUES[kind], 5)
        b = rng.normal(size=4).astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = conv2d_quadruple_loop(x, k, b, stride=stride, padding=padding)
        ours = conv2d_forward(t(x), t(k), b, stride=stride, padding=padding).data
        assert_same_bits(ours, ref)
        if kind in ("nan", "inf", "overflow"):
            assert not np.isfinite(ours).all()

    @pytest.mark.parametrize("shape_x,shape_k,stride,padding", [
        ((2, 5, 5, 3), (1, 1, 3, 4), 1, "same"),     # 1x1 kernel
        ((1, 9, 7, 2), (3, 3, 2, 3), 2, "valid"),    # stride 2, no padding, odd sizes
        ((3, 6, 4, 5), (3, 3, 5, 2), 1, "same"),     # N > 1, Cin != Cout
        ((2, 6, 6, 3), (2, 2, 3, 6), 2, "same"),     # even kernel, stride 2
    ])
    def test_shapes(self, shape_x, shape_k, stride, padding):
        rng = np.random.Generator(np.random.PCG64(32))
        x = rng.normal(size=shape_x).astype(np.float32)
        k = rng.normal(size=shape_k).astype(np.float32)
        b = rng.normal(size=shape_k[3]).astype(np.float32)
        ours = conv2d_forward(t(x), t(k), b, stride=stride, padding=padding).data
        assert_same_bits(ours, conv2d_quadruple_loop(x, k, b, stride=stride,
                                                     padding=padding))


class TestConv2dBlocks:
    """A conv whose grid columns run in several blocks gives the quadruple loop's bits."""

    @pytest.fixture
    def block_widths(self, monkeypatch):
        """The grid columns of each block ``conv2d_forward`` fills."""
        widths, real = [], tensor._float_fill

        def float_fill(out, *args, **kwargs):
            widths.append(out.shape[1])
            return real(out, *args, **kwargs)

        monkeypatch.setattr(tensor, "_float_fill", float_fill)
        return widths

    @pytest.mark.parametrize("kind", [None] + sorted(FAULT_VALUES))
    # 5 images of 8x7 (same) or 7x6 (valid) grid cells, in blocks of 84 or 12 columns
    @pytest.mark.parametrize("stride,padding,widths", [(1, "same", [84, 84, 84, 28]),
                                                       (2, "valid", [12] * 17 + [6])])
    def test_five_images_in_blocks(self, block_widths, monkeypatch, kind, stride, padding,
                                   widths):
        rng = np.random.Generator(np.random.PCG64(41))
        x = rng.normal(size=(5, 7, 6, 3)).astype(np.float32)
        k = rng.normal(size=(3, 3, 3, 4)).astype(np.float32)
        if kind is not None:
            k = with_faulted_weights(k, FAULT_VALUES[kind], 8)
        b = rng.normal(size=4).astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = conv2d_quadruple_loop(x, k, b, stride=stride, padding=padding)
        # room for two images' (Cout, OH*OW) accumulators, not three
        monkeypatch.setattr(tensor, "_BLOCK_CELLS", 2 * int(np.prod(ref.shape[1:])))
        ours = conv2d_forward(t(x), t(k), b, stride=stride, padding=padding).data
        assert block_widths == widths
        assert_same_bits(ours, ref)

    def test_default_budget_keeps_small_batch_whole(self, block_widths):
        conv2d_forward(t(np.ones((5, 7, 6, 3))), t(np.ones((3, 3, 3, 4))), np.zeros(4))
        assert block_widths == [5 * 8 * 7]


class TestKernelNumpyState:
    def test_convolutions_restore_buffer_size(self):
        x = t(np.ones((2, 4, 4, 3)))
        old = np.setbufsize(4096)
        try:
            conv2d_forward(x, t(np.ones((3, 3, 3, 2))), [0.0, 1.0])
            assert np.getbufsize() == 4096
            conv2d_transpose_forward(x, t(np.ones((2, 2, 3, 2))), [0.0, 1.0])
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(old)


class TestConvTranspose:
    def test_single_pixel_broadcast(self):
        out = conv2d_transpose_forward(t(np.ones((1, 1, 1, 1))),
                                       t(np.ones((2, 2, 1, 1))), [0.0])
        assert np.array_equal(out.data, np.ones((1, 2, 2, 1), np.float32))

    def test_bias_only(self):
        out = conv2d_transpose_forward(t(np.ones((1, 2, 2, 1))),
                                       t(np.zeros((2, 2, 1, 1))), [3.5])
        assert np.array_equal(out.data, np.full((1, 4, 4, 1), 3.5, np.float32))

    def test_vs_scatter_add_oracle(self):
        rng = np.random.Generator(np.random.PCG64(21))
        x = rng.normal(size=(1, 2, 2, 3)).astype(np.float32)
        k = rng.normal(size=(2, 2, 3, 2)).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        ours = conv2d_transpose_forward(t(x), t(k), b, stride=2).data
        ref = convtr_scatter_add(x, k, b, stride=2)
        assert ours.shape == (1, 4, 4, 2)
        assert np.array_equal(ours.view(np.uint32), ref.view(np.uint32))

    @pytest.mark.parametrize("kind", [None] + sorted(FAULT_VALUES))
    def test_multi_pixel_vs_scatter_add_oracle(self, kind):
        rng = np.random.Generator(np.random.PCG64(22))
        x = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        k = rng.normal(size=(2, 2, 5, 3)).astype(np.float32)
        if kind is not None:
            k = with_faulted_weights(k, FAULT_VALUES[kind], 6)
        b = rng.normal(size=3).astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = convtr_scatter_add(x, k, b, stride=2)
        ours = conv2d_transpose_forward(t(x), t(k), b, stride=2).data
        assert_same_bits(ours, ref)

    def test_rejects_stride_kernel_mismatch(self):
        with pytest.raises(ValueError, match="unsupported"):
            conv2d_transpose_forward(t(np.ones((1, 2, 2, 1))),
                                     t(np.ones((3, 3, 1, 1))), [0.0], stride=2)


class TestBatchnorm:
    def test_identity(self):
        x = t(np.linspace(-2, 2, 16).reshape(1, 2, 2, 4).astype(np.float32))
        p = BnParams(np.ones(4, np.float32), np.zeros(4, np.float32),
                     np.zeros(4, np.float32), np.ones(4, np.float32) - np.float32(1e-3),
                     1e-3)
        out = batchnorm_forward(x, p)
        assert np.allclose(out.data, x.data, atol=1e-6)

    def test_hand_evaluation(self):
        # x=2, gamma=0.5, mu=1, sigma=4, beta=0.2 (tiny eps) -> ~0.45
        x = t(np.full((1, 1, 1, 1), 2.0))
        p = BnParams(np.array([0.5], np.float32), np.array([0.2], np.float32),
                     np.array([1.0], np.float32), np.array([4.0], np.float32), 1e-12)
        assert batchnorm_forward(x, p).data.reshape(-1)[0] == pytest.approx(0.45, abs=1e-6)

    def test_nan_gamma_poisons_channel_only(self):
        x = t(np.ones((1, 2, 2, 2)))
        p = BnParams(np.array([np.nan, 1.0], np.float32), np.zeros(2, np.float32),
                     np.zeros(2, np.float32), np.ones(2, np.float32), 1e-3)
        out = batchnorm_forward(x, p).data
        assert np.isnan(out[..., 0]).all()
        assert np.isfinite(out[..., 1]).all()

    def test_matches_scalar_oracle(self):
        rng = np.random.Generator(np.random.PCG64(5))
        x = rng.normal(size=(1, 3, 3, 2)).astype(np.float32)
        gamma = rng.uniform(0.5, 1.5, 2).astype(np.float32)
        beta = rng.normal(size=2).astype(np.float32)
        mu = rng.normal(size=2).astype(np.float32)
        sigma = rng.uniform(0.01, 1.0, 2).astype(np.float32)
        ours = batchnorm_forward(t(x), BnParams(gamma, beta, mu, sigma, 1e-3)).data
        ref = bn_scalar(x, gamma, beta, mu, sigma, 1e-3)
        assert np.array_equal(ours.view(np.uint32), ref.view(np.uint32))

    def test_monotone_in_x_for_positive_gamma(self):
        p = BnParams(np.array([0.7], np.float32), np.array([0.3], np.float32),
                     np.array([0.1], np.float32), np.array([0.5], np.float32), 1e-3)
        xs = np.linspace(-3, 3, 64, dtype=np.float32).reshape(1, 8, 8, 1)
        ys = batchnorm_forward(t(xs), p).data.reshape(-1)
        assert (np.diff(ys) >= 0).all()

    def test_validation(self):
        with pytest.raises(ShapeError):
            BnParams(np.ones(2, np.float32), np.ones(3, np.float32),
                     np.ones(2, np.float32), np.ones(2, np.float32), 1e-3)
        with pytest.raises(ValueError):
            BnParams(np.ones(2, np.float32), np.ones(2, np.float32),
                     np.ones(2, np.float32), np.ones(2, np.float32), 0.0)
        # a negative variance is a value, not an error: sigma + eps < 0 has a
        # NaN square root, as in a deployed rsqrt, so that channel is NaN and
        # the others are untouched
        x = t(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2))
        sigma = np.array([-1.0, 0.25], np.float32)
        ones, zeros = np.ones(2, np.float32), np.zeros(2, np.float32)
        y = batchnorm_forward(x, BnParams(ones, zeros, zeros, sigma, 1e-3)).data
        assert np.isnan(y[..., 0]).all()
        healthy = batchnorm_forward(
            x, BnParams(ones, zeros, zeros, np.full(2, 0.25, np.float32), 1e-3)).data
        assert np.array_equal(y[..., 1].view(np.uint32), healthy[..., 1].view(np.uint32))


class TestReluPool:
    def test_relu_basics(self):
        out = relu(t(np.array([[[[-1.0], [0.0]], [[2.0], [-0.5]]]])))
        assert out.data.reshape(-1).tolist() == [0.0, 0.0, 2.0, 0.0]

    def test_relu_neg_inf_and_nan(self):
        out = relu(t(np.array([-np.inf, np.nan, np.inf, -0.0]).reshape(1, 2, 2, 1)))
        v = out.data.reshape(-1)
        assert v[0] == 0.0
        assert math.isnan(v[1])
        assert v[2] == math.inf

    def test_maxpool(self):
        x = t(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        assert maxpool2d(x).data.reshape(-1)[0] == 4.0
        const = t(np.full((1, 4, 4, 2), 1.25))
        assert np.array_equal(maxpool2d(const).data, np.full((1, 2, 2, 2), 1.25, np.float32))

    def test_maxpool_nan_poisons_window(self):
        x = np.zeros((1, 2, 2, 1), np.float32)
        x[0, 0, 0, 0] = np.nan
        assert math.isnan(maxpool2d(t(x)).data.reshape(-1)[0])

    def test_maxpool_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            maxpool2d(t(np.zeros((1, 3, 4, 1))))


class TestConcatArgmax:
    def test_concat_order(self):
        a = t(np.full((1, 2, 2, 1), 1.0))
        b = t(np.full((1, 2, 2, 1), 2.0))
        out = concat_channels(a, b)
        assert out.data.shape == (1, 2, 2, 2)
        assert (out.data[..., 0] == 1.0).all() and (out.data[..., 1] == 2.0).all()

    def test_concat_roundtrip(self):
        rng = np.random.Generator(np.random.PCG64(2))
        x = rng.normal(size=(1, 2, 2, 5)).astype(np.float32)
        out = concat_channels(t(x[..., :2]), t(x[..., 2:]))
        assert np.array_equal(out.data, x)

    def test_concat_mismatch(self):
        with pytest.raises(ShapeError):
            concat_channels(t(np.zeros((1, 2, 2, 1))), t(np.zeros((1, 4, 2, 1))))

    def test_argmax_and_ties(self):
        x = t(np.array([[0.1, 0.9], [0.5, 0.5]], np.float32).reshape(1, 1, 2, 2))
        m = argmax_channels(x)
        assert m.reshape(-1).tolist() == [1, 0]

    def test_argmax_nan_is_invalid(self):
        x = t(np.array([np.nan, 1.0], np.float32).reshape(1, 1, 1, 2))
        assert argmax_channels(x).reshape(-1)[0] == INVALID_CLASS

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=50)
    def test_argmax_shift_invariance(self, shift):
        rng = np.random.Generator(np.random.PCG64(17))
        x = rng.normal(size=(1, 4, 4, 3)).astype(np.float32)
        base = argmax_channels(t(x))
        shifted = argmax_channels(t(x + np.float32(shift)))
        assert np.array_equal(base, shifted)


class TestTensorContainer:
    def test_invariants(self):
        with pytest.raises(TypeError):
            Tensor(np.zeros(4, np.float16))
        with pytest.raises(ValueError):
            Tensor.from_array(np.zeros(4, np.float32), "f16")

    @given(st.sampled_from(sorted(ENCODINGS)), st.sampled_from(("c", "channel_major", "strided")),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_tensor_is_its_array(self, encoding, layout, data):
        """The plain constructor wraps any array in its own layout, with no copy;
        ``from_array`` copies it into C order, byte for byte."""
        n, h, w, c = data.draw(hnp.array_shapes(min_dims=4, max_dims=4, max_side=4))
        a = data.draw(hnp.arrays(ENCODINGS[encoding], (n, h, 2 * w, c)))
        if layout == "channel_major":
            a = np.ascontiguousarray(a.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
        elif layout == "strided":
            a = a[:, :, ::2]
        x = Tensor(a)
        assert x.data is a
        assert x.shape == a.shape and x.size == a.size
        assert np.dtype(ENCODINGS[x.encoding]) == a.dtype
        y = Tensor.from_array(a, encoding)
        assert y.data.flags.c_contiguous
        assert y.data.shape == a.shape and y.data.tobytes() == a.tobytes()

    @pytest.mark.parametrize("dtype", [np.float16, np.float64, np.int16, np.bool_])
    def test_refuses_a_dtype_no_encoding_holds(self, dtype):
        with pytest.raises(TypeError, match=f"dtype {np.dtype(dtype)}.*f32 .*i8 .*i32 "):
            Tensor(np.zeros((1, 2, 2, 1), dtype))

    def test_refuses_a_zero_extent(self):
        with pytest.raises(ShapeError, match=r"zero extent in shape \(1, 0, 2, 1\)"):
            Tensor(np.zeros((1, 0, 2, 1), np.float32))

    def test_from_array_refuses_an_unknown_encoding(self):
        with pytest.raises(ValueError, match="unknown encoding 'f16'; the encodings are "
                                             "f32, i8, i32"):
            Tensor.from_array(np.zeros(4, np.float32), "f16")

    def test_flat_view_writes_through(self):
        x = Tensor.from_array(np.zeros((2, 2), np.float32))
        x.flat[3] = 7.0
        assert x.data[1, 1] == 7.0

    def test_flat_refused_where_no_flat_view_exists(self):
        """A channel-major activation has no row-major flat view: a reshape would
        copy it and lose writes, so ``flat`` refuses it."""
        x = conv2d_forward(t(np.zeros((1, 2, 2, 3))), t(np.ones((1, 1, 3, 2))), [0.0, 0.0])
        assert not x.data.flags.c_contiguous
        with pytest.raises(ValueError, match="not C-contiguous"):
            x.flat

    def test_parameters_keep_a_write_through_flat_view(self, tmp_path):
        """Parameters are C-contiguous however a graph is made, so faults and
        protection write through ``flat``."""
        import seu_forge as sf
        built = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)
        sf.save_model(built, str(tmp_path / "m.sfm"))
        inputs, _ = sf.generate_calibration_set((8, 8, 3), count=2, seed=1)
        for graph in (built, built.copy(), sf.load_model(str(tmp_path / "m.sfm")),
                      sf.fold_bn(built), sf.quantize_ptq(built, inputs)):
            for p in graph.params:
                assert np.shares_memory(p.tensor.flat, p.tensor.data), p.index


_F32_SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38,
                          -1.1754942e-38, 1.0, -1.0, 3.4028235e38], dtype=np.float32)


@st.composite
def pool_inputs(draw):
    """An NHWC array with even H and W, float32 rich in NaN, infinities, signed
    zeros and subnormals, or int8; C-contiguous or laid out channel-major."""
    shape = (draw(st.integers(1, 2)), 2 * draw(st.integers(1, 4)), 2 * draw(st.integers(1, 4)),
             draw(st.integers(1, 9)))
    size = int(np.prod(shape))
    if draw(st.booleans()):
        words = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=size, max_size=size))
        picks = draw(st.lists(st.integers(-1, len(_F32_SPECIALS) - 1),
                              min_size=size, max_size=size))
        x = np.array(words, dtype=np.uint32).view(np.float32)
        x = np.where(np.array(picks) >= 0, _F32_SPECIALS[picks], x).astype(np.float32)
    else:
        x = np.array(draw(st.lists(st.integers(-128, 127), min_size=size, max_size=size)),
                     dtype=np.int8)
    x = x.reshape(shape)
    if draw(st.booleans()):
        x = np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
    return x


class TestMax2x2:
    @settings(max_examples=300, deadline=None)
    @given(x=pool_inputs())
    def test_matches_reshape_max(self, x):
        """The pairwise max serving both modes equals a reshape-and-max reduction:
        the same bytes outside NaN cells, NaN in the same cells, the input's layout."""
        n, h, w, c = x.shape
        want = x.reshape(n, h // 2, 2, w // 2, 2, c).max(axis=(2, 4))
        got = tensor._max2x2(x)
        assert got.dtype == x.dtype and got.shape == want.shape
        nan = np.isnan(want) if x.dtype == np.float32 else np.zeros(want.shape, bool)
        if x.dtype == np.float32:
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(maxpool2d(Tensor.from_array(x)).data.view(np.uint32)[~nan],
                                  want.view(np.uint32)[~nan])
        assert got[~nan].tobytes() == want[~nan].tobytes()
        if not x.flags.c_contiguous:
            assert got.transpose(3, 0, 1, 2).flags.c_contiguous

    @pytest.mark.parametrize("shape", [(1, 3, 4, 2), (1, 4, 5, 2)])
    def test_odd_sides_refused(self, shape):
        with pytest.raises(ShapeError, match="even"):
            tensor._max2x2(np.zeros(shape, np.int8))


class TestChannelMajorLayout:
    """Each float op gives the same bytes for a row-major and a channel-major
    NHWC input. Conv, transposed conv, batch-norm and concat write one new
    channel-major buffer; ReLU and max-pool keep their input's layout; so a
    channel-major input gives a channel-major output from every op."""

    @settings(max_examples=80, deadline=None)
    @given(x=pool_inputs().filter(lambda x: x.dtype == np.float32),
           seed=st.integers(0, 2 ** 32 - 1), stride=st.integers(1, 2),
           padding=st.sampled_from(["same", "valid"]))
    def test_same_bytes_in_any_layout_channel_major_out(self, x, seed, stride, padding):
        rng = np.random.Generator(np.random.PCG64(seed))
        n, h, w, c = x.shape
        size = int(rng.integers(1, min(3, h, w) + 1))
        k = t(rng.normal(size=(size, size, c, 3)))
        kt = t(rng.normal(size=(stride, stride, c, 2)))
        b = rng.normal(size=3).astype(np.float32)
        # a normal variance is negative half the time: NaN channels
        bn = BnParams(*rng.normal(size=(4, c)).astype(np.float32), 1e-3)
        ops = {"conv2d_forward": lambda a: conv2d_forward(a, k, b, stride, padding),
               "conv2d_transpose_forward": lambda a: conv2d_transpose_forward(a, kt, b[:2],
                                                                             stride),
               "batchnorm_forward": lambda a: batchnorm_forward(a, bn),
               "relu": relu,
               "maxpool2d": maxpool2d,
               "concat_channels": lambda a: concat_channels(a, relu(a))}
        row_major = np.ascontiguousarray(x)
        channel_major = np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
        for name, op in ops.items():
            rows, channels = (op(Tensor(a)) for a in (row_major, channel_major))
            assert channels.data.transpose(3, 0, 1, 2).flags.c_contiguous, name
            keeps_layout = name in ("relu", "maxpool2d")
            assert (rows.data.flags.c_contiguous if keeps_layout
                    else rows.data.transpose(3, 0, 1, 2).flags.c_contiguous), name
            # where two different NaNs meet in a cell, the payload kept may differ
            nan = np.isnan(rows.data)
            assert np.array_equal(np.isnan(channels.data), nan), name
            assert rows.data[~nan].tobytes() == channels.data[~nan].tobytes(), name
            assert np.array_equal(argmax_channels(rows), argmax_channels(channels)), name


def signed_zeros(rng, shape):
    """float32 +0 and -0, drawn half and half."""
    return np.where(rng.random(shape) < 0.5, np.float32(0.0), np.float32(-0.0))


class TestDeadChannels:
    """An input channel that is +0 or -0 in every cell of a call's input is
    dropped from that call, unless a weight reading it is Inf or NaN. The
    accumulator starts at +0.0 and so is never -0, and adding a +-0 product
    to it changes no bit: the bits stay the oracles'."""

    @staticmethod
    def kept_channels(mp):
        """The channels ``_channel_major`` writes, for each call."""
        calls, real = [], tensor._channel_major

        def channel_major(x, channels, *layout):
            calls.append(list(channels))
            return real(x, channels, *layout)

        mp.setattr(tensor, "_channel_major", channel_major)
        return calls

    @staticmethod
    def expected_kept(x, k):
        """The channels nonzero in one cell of ``x`` or read by a weight that is not finite."""
        unsafe = ~np.isfinite(k).all(axis=(0, 1, 3))
        return np.flatnonzero((x != 0).any(axis=(0, 1, 2)) | unsafe).tolist()

    @given(seed=st.integers(0, 2**32 - 1), transpose=st.booleans(), n=st.integers(1, 3),
           h=st.integers(1, 4), w=st.integers(1, 4), cin=st.integers(1, 5),
           cout=st.integers(1, 3), stride=st.integers(1, 2),
           padding=st.sampled_from(["same", "valid"]),
           fault=st.sampled_from([None] + sorted(FAULT_VALUES)),
           budget=st.integers(1, 200), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_oracles_with_dead_channels(self, seed, transpose, n, h, w, cin, cout,
                                                stride, padding, fault, budget, data):
        rng = np.random.Generator(np.random.PCG64(seed))
        kinds = ["live", "dead", "part", "negative"]
        if fault in (None, "subnormal", "negative_zero"):
            # an input NaN where no weight can make another NaN in its cells
            kinds.append("nan")
        states = data.draw(st.lists(st.sampled_from(kinds), min_size=cin, max_size=cin))
        x = rng.normal(size=(n, h, w, cin)).astype(np.float32)
        for c, state in enumerate(states):
            if state == "dead":
                x[..., c] = signed_zeros(rng, (n, h, w))
            elif state == "part":  # dead in some images
                images = rng.random(n) < 0.5
                x[images, ..., c] = signed_zeros(rng, (int(images.sum()), h, w))
            elif state == "negative":  # no positive cell, yet live
                x[..., c] = np.where(rng.random((n, h, w)) < 0.7, signed_zeros(rng, (n, h, w)),
                                     -np.abs(x[..., c]))
            elif state == "nan":  # one NaN cell among zeros
                x[..., c] = signed_zeros(rng, (n, h, w))
                x[tuple(rng.integers(0, (n, h, w))) + (c,)] = np.nan
        size = stride if transpose else int(rng.integers(1, min(3, h, w) + 1))
        k = rng.normal(size=(size, size, cin, cout)).astype(np.float32)
        dead = [c for c, state in enumerate(states) if state == "dead"]
        if fault is not None and dead:
            # one NaN payload at most, so that no two different NaNs meet in a cell
            values = FAULT_VALUES[fault][:1 if fault == "nan" else None]
            k_dead = k[:, :, dead]
            k[:, :, dead] = with_faulted_weights(k_dead, values[:k_dead.size], seed)
        b = rng.normal(size=cout).astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = (convtr_scatter_add(x, k, b, stride=stride) if transpose
                   else conv2d_quadruple_loop(x, k, b, stride=stride, padding=padding))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "_BLOCK_CELLS", budget)
            calls = self.kept_channels(mp)
            ours = (conv2d_transpose_forward(t(x), t(k), b, stride=stride) if transpose
                    else conv2d_forward(t(x), t(k), b, stride=stride, padding=padding))
        assert_same_bits(ours.data, ref)
        assert calls == [self.expected_kept(x, k)]

    @pytest.mark.parametrize("transpose", [False, True])
    def test_channel_dead_in_one_image_only_is_kept(self, transpose):
        rng = np.random.Generator(np.random.PCG64(50))
        x = rng.normal(size=(3, 3, 4, 3)).astype(np.float32)
        x[1, ..., 0] = signed_zeros(rng, (3, 4))        # dead in the second image only
        x[..., 2] = signed_zeros(rng, (3, 3, 4))        # dead in every image
        k = rng.normal(size=(2, 2, 3, 2)).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        ref = (convtr_scatter_add(x, k, b, stride=2) if transpose
               else conv2d_quadruple_loop(x, k, b))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "_BLOCK_CELLS", 1)       # one column a block
            calls = self.kept_channels(mp)
            ours = (conv2d_transpose_forward(t(x), t(k), b, stride=2) if transpose
                    else conv2d_forward(t(x), t(k), b))
        assert calls == [[0, 1]]
        assert_same_bits(ours.data, ref)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_every_channel_zero_gives_the_bias(self, transpose):
        rng = np.random.Generator(np.random.PCG64(51))
        x = signed_zeros(rng, (3, 4, 5, 6))
        k = rng.normal(size=(2, 2, 6, 3)).astype(np.float32)
        b = np.array([0.25, -1.5, 3.0], np.float32)
        with pytest.MonkeyPatch.context() as mp:
            calls = self.kept_channels(mp)
            ours = (conv2d_transpose_forward(t(x), t(k), b, stride=2) if transpose
                    else conv2d_forward(t(x), t(k), b))
        assert calls == [[]]
        assert_same_bits(ours.data, np.broadcast_to(b, ours.shape))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_inf_weight_on_dead_channel_gives_the_oracles_nan_cells(self, transpose):
        rng = np.random.Generator(np.random.PCG64(52))
        x = rng.normal(size=(2, 4, 4, 3)).astype(np.float32)
        x[..., 1] = signed_zeros(rng, (2, 4, 4))
        k = rng.normal(size=(2, 2, 3, 2)).astype(np.float32)
        k[1, 1, 1, 0] = np.inf                 # reads the dead channel 1
        b = rng.normal(size=2).astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = (convtr_scatter_add(x, k, b, stride=2) if transpose
                   else conv2d_quadruple_loop(x, k, b))
        ours = (conv2d_transpose_forward(t(x), t(k), b, stride=2) if transpose
                else conv2d_forward(t(x), t(k), b)).data
        assert_same_bits(ours, ref)
        nan = np.isnan(ref)
        assert nan[..., 0].any() and not nan[..., 1].any()


# -0.0 and +-Inf, the smallest subnormals, the smallest normal, NaN and the largest finite
F32_EDGES = [-0.0, 0.0, math.inf, -math.inf, 1e-45, -1e-45, 1.1754944e-38, math.nan,
             -3.4028235e38]


@st.composite
def staging_cases(draw, dtype):
    """(NHWC ``x``, (ph, pw, top, left), channels, tail) for ``_channel_major``; ``x``
    is row-major or, as activations are, an NHWC view of channel-major memory."""
    shape = tuple(draw(st.integers(1, hi)) for hi in (2, 4, 4, 4))
    elements = st.one_of(st.sampled_from(F32_EDGES), st.floats(width=32)) \
        if dtype == np.float32 else None
    x = draw(hnp.arrays(dtype, shape, elements=elements))
    if draw(st.booleans()):
        x = np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
    ph, pw = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    extent = (ph, pw, draw(st.integers(0, ph)), draw(st.integers(0, pw)))
    channels = draw(st.lists(st.integers(0, shape[3] - 1), unique=True, max_size=shape[3]))
    return x, extent, np.array(channels, dtype=np.intp), draw(st.integers(0, 8))


class TestChannelMajorStaging:
    """The convolution core stages its input through ``_channel_major``: the kept
    channels less a zero point, in their order, each image's cells inside
    max(top, bottom) zero rows and max(left, right) zero columns that it
    shares with its neighbours, then ``tail`` zeros; every zero is +0.0."""

    @staticmethod
    def staged(case, zero):
        """The staged cells, as (C, N, H, W), and the bits of every other column."""
        x, (ph, pw, top, left), channels, tail = case
        n, h, w, _ = x.shape
        hs, ws = h + max(top, ph - top), w + max(left, pw - left)
        rows = tensor._channel_major(x, channels, top, left, hs, ws, tail, zero)
        assert rows.dtype == np.float32 and rows.shape == (len(channels), n * hs * ws + tail)
        cell = np.zeros(rows.shape[1], dtype=bool)
        cell[:n * hs * ws].reshape(n, hs, ws)[:, top:top + h, left:left + w] = True
        return rows[:, cell].reshape(len(channels), n, h, w), rows[:, ~cell].view(np.uint32)

    @given(case=staging_cases(np.float32))
    @example(case=(np.full((1, 1, 1, 1), -0.0, np.float32), (0, 0, 0, 0), np.array([0]), 0))
    @settings(max_examples=60, deadline=None)
    def test_float_channels_keep_every_bit(self, case):
        inner, border = self.staged(case, 0)
        want = case[0][..., case[2]].transpose(3, 0, 1, 2)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(inner), nan)
        assert np.array_equal(inner.view(np.uint32)[~nan], want.view(np.uint32)[~nan])
        assert not border.any()  # +0.0

    @given(case=staging_cases(np.int8), zero=st.integers(-128, 127))
    @settings(max_examples=60, deadline=None)
    def test_int8_channels_less_their_zero_point(self, case, zero):
        inner, border = self.staged(case, zero)
        want = case[0][..., case[2]].transpose(3, 0, 1, 2).astype(np.int32) - zero
        assert np.array_equal(inner, want.astype(np.float32))
        assert not border.any()
