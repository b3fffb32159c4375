from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seu_forge as sf
from seu_forge import engine, tensor
from seu_forge.engine import _quantized_conv, _walk, run_float, run_quantized
from seu_forge.tensor import BnParams, Tensor, _conv_grid, _depth_to_space, _stacked_taps

from conftest import single_conv_graph
from oracles import (conv2d_quadruple_loop, convtr_scatter_add, eq5_scalar,
                     quantized_convtr_scalar, quantized_mac)
from test_tensor import FAULT_VALUES, with_faulted_weights


def _int32_fill(out, rows, taps, bias, start, ws):
    """The int8 fill's sums, bias included, kept as they are."""
    out[...] = bias[:, None]
    engine._tap_sum(taps, rows, ws, start, out)


def _int32_conv(x_shifted, kernel, bias, stride, padding):
    """The int32 conv of integer ``x_shifted`` (int8 activations less their zero
    point) by int8 ``kernel`` plus ``bias``: the integer core's sums, kept as they are."""
    return _conv_grid(x_shifted, kernel, bias, stride, padding, _int32_fill,
                      engine._BLOCK_CELLS, np.int32)


def _conv_transpose_int(x_shifted, kernel, bias, stride):
    """The int32 transposed conv (stride == kernel size) as the quantized path runs it:
    ``_int32_conv`` of its stacked taps, then depth-to-space."""
    kernel, bias = _stacked_taps(kernel, bias, stride)
    return _depth_to_space(_int32_conv(x_shifted, kernel, bias, 1, "valid"), stride)


def test_run_twice_identical_bits(tiny_graph, tiny_batch):
    a = run_float(tiny_graph, tiny_batch).logits.data
    b = run_float(tiny_graph, tiny_batch).logits.data
    assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_zeroed_model_gives_class_zero(tiny_graph, tiny_batch):
    g = tiny_graph.copy()
    for p in g.params:
        p.tensor.data[...] = 0.0 if p.role != "bn_sigma" else 1.0
    res = run_float(g, tiny_batch)
    assert (res.class_map == 0).all()


def test_matches_manual_composition(tiny_graph, tiny_batch):
    """Forward pass equals composing tensor-core ops layer by layer."""
    outputs = {"input": tiny_batch}
    eps = tiny_graph.bn_epsilon
    for layer in tiny_graph.layers:
        ins = [outputs[r] for r in layer.inputs]
        ps = tiny_graph.layer_params(layer.name)
        if layer.kind in ("conv2d", "output_conv"):
            out = sf.conv2d_forward(ins[0], ps["conv_kernel"].tensor,
                                    ps["conv_bias"].tensor.data,
                                    padding=layer.hyperparams["padding"])
        elif layer.kind == "conv2d_transpose":
            out = sf.conv2d_transpose_forward(ins[0], ps["convtr_kernel"].tensor,
                                              ps["convtr_bias"].tensor.data)
        elif layer.kind == "batchnorm":
            out = sf.batchnorm_forward(ins[0], BnParams(
                ps["bn_gamma"].tensor.data, ps["bn_beta"].tensor.data,
                ps["bn_mu"].tensor.data, ps["bn_sigma"].tensor.data, eps))
        elif layer.kind == "relu":
            out = sf.relu(ins[0])
        elif layer.kind == "maxpool":
            out = sf.maxpool2d(ins[0])
        elif layer.kind == "concat":
            out = sf.concat_channels(ins[0], ins[1])
        outputs[layer.name] = out
    manual = outputs[tiny_graph.output_layer.name].data
    engine = run_float(tiny_graph, tiny_batch).logits.data
    assert np.array_equal(manual.view(np.uint32), engine.view(np.uint32))


def test_thread_interleaving_matches_serial(tiny_graph, tiny_inputs):
    inputs = tiny_inputs[0]
    serial = [run_float(tiny_graph, x).logits.data for x in inputs]
    with ThreadPoolExecutor(max_workers=4) as ex:
        parallel = list(ex.map(lambda x: run_float(tiny_graph, x).logits.data, inputs))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_collect_survives_freed_activations(tiny_graph, tiny_batch):
    names = ["input"] + [layer.name for layer in tiny_graph.layers]
    full = run_float(tiny_graph, tiny_batch, collect=names)
    assert sorted(full.collected) == sorted(names)
    assert full.collected["input"] is tiny_batch
    first = tiny_graph.layers[0]
    ps = tiny_graph.layer_params(first.name)
    direct = sf.conv2d_forward(tiny_batch, ps["conv_kernel"].tensor,
                               ps["conv_bias"].tensor.data)
    # each layer requested on its own, the rest freed along the way
    for name in (first.name, names[len(names) // 2], names[-2]):
        res = run_float(tiny_graph, tiny_batch, collect=(name,))
        assert list(res.collected) == [name]
        got = res.collected[name].data
        assert np.array_equal(got.view(np.uint32), full.collected[name].data.view(np.uint32))
    got = run_float(tiny_graph, tiny_batch, collect=(first.name,)).collected[first.name].data
    assert np.array_equal(got.view(np.uint32), direct.data.view(np.uint32))


def test_every_float_activation_is_channel_major(tiny_graph, tiny_batch):
    """Every layer's output and the logits are NHWC views of channel-major
    memory, the integer path's layout, so no layer copies between layouts."""
    kinds = {layer.kind for layer in tiny_graph.layers}
    assert {"conv2d", "conv2d_transpose", "batchnorm", "relu", "maxpool", "concat"} <= kinds
    res = run_float(tiny_graph, tiny_batch, collect=[l.name for l in tiny_graph.layers])
    for name, value in [*res.collected.items(), ("logits", res.logits)]:
        assert value.data.transpose(3, 0, 1, 2).flags.c_contiguous, name


def test_quantized_logits_are_channel_major(tiny_graph, tiny_inputs, tiny_batch):
    """The dequantized logits keep the int8 logits' channel-major layout, as
    float mode's do, and the class maps are those of a row-major copy."""
    res = run_quantized(sf.quantize_ptq(tiny_graph, tiny_inputs[0]), tiny_batch)
    assert res.logits.data.transpose(3, 0, 1, 2).flags.c_contiguous
    row_major = Tensor.from_array(res.logits.data)
    assert row_major.data.flags.c_contiguous
    assert np.array_equal(res.class_map, tensor.argmax_channels(row_major))


def test_conv_defaults_match_explicit_hyperparams(tiny_graph, tiny_inputs, tiny_batch,
                                                  tmp_path):
    """A transposed conv without a stride runs at stride 2, a conv without a
    padding as "same": shapes and logit bits equal the explicit graph's, in
    both numeric modes and after a save and load."""
    dropped = {"conv2d_transpose": "stride", "conv2d": "padding"}

    def implicit(graph):
        out = graph.copy()
        for layer in out.layers:
            if layer.kind in dropped:
                del layer.hyperparams[dropped[layer.kind]]
        return out

    quantized = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
    for graph, run in ((tiny_graph, run_float), (quantized, run_quantized)):
        path = tmp_path / "implicit.sfm"
        sf.save_model(implicit(graph), path)
        for other in (implicit(graph), sf.load_model(path)):
            assert all(dropped[l.kind] not in l.hyperparams
                       for l in other.layers if l.kind in dropped)
            assert sf.infer_shapes(other, 16, 16, 6) == sf.infer_shapes(graph, 16, 16, 6)
            got, want = run(other, tiny_batch).logits.data, run(graph, tiny_batch).logits.data
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_rejects_wrong_input_channels(tiny_graph):
    bad = Tensor.from_array(np.zeros((1, 16, 16, 5), np.float32))
    with pytest.raises(sf.ShapeError):
        run_float(tiny_graph, bad)


def test_rejects_quantized_graph_in_float_mode(tiny_graph, tiny_inputs):
    q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
    with pytest.raises(ValueError, match="quantized"):
        run_float(q, sf.batch_inputs(tiny_inputs[0]))
    with pytest.raises(ValueError, match="not quantized"):
        run_quantized(tiny_graph, sf.batch_inputs(tiny_inputs[0]))


class TestQuantizedMac:
    def test_identity_scales(self):
        # S_w = S_x = S_y = 1, Z = 0: q_y = 2*3 + 1 = 7
        assert quantized_mac([2], [3], 1, 0) == 7
        assert eq5_scalar([2], [3], 1, 0) == 7

    def test_zero_point_term(self):
        # Z_x = 1: q_y = 2*3 - 1*2 + 0 = 4
        assert quantized_mac([2], [3], 0, 1) == 4
        assert eq5_scalar([2], [3], 0, 1) == 4

    def test_matches_eq5_on_random_vectors(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(50):
            qw = rng.integers(-127, 128, size=9)
            qx = rng.integers(-128, 128, size=9)
            qb = int(rng.integers(-1000, 1000))
            zx = int(rng.integers(-128, 128))
            assert quantized_mac(qw, qx, qb, zx) == eq5_scalar(qw, qx, qb, zx)


def conv_int_mac_loop(q_x, z_x, q_w, q_b, stride, padding):
    """Scalar int32 conv: one quantized_mac per output cell, padding with Z_x."""
    kh, kw, cin, cout = q_w.shape
    n, h, w, _ = q_x.shape
    if padding == "same":
        oh, ow = -(-h // stride), -(-w // stride)
        ph = max((oh - 1) * stride + kh - h, 0)
        pw = max((ow - 1) * stride + kw - w, 0)
        padded = np.full((n, h + ph, w + pw, cin), z_x, np.int32)
        padded[:, ph // 2:ph // 2 + h, pw // 2:pw // 2 + w, :] = q_x
        q_x, h, w = padded, h + ph, w + pw
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    out = np.zeros((n, oh, ow, cout), np.int32)
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                patch = q_x[b, i * stride:i * stride + kh, j * stride:j * stride + kw, :]
                for co in range(cout):
                    out[b, i, j, co] = quantized_mac(q_w[..., co].ravel(), patch.ravel(),
                                                     q_b[co], z_x)
    return out


class TestConvInt:
    """The integer conv agrees with a scalar quantized_mac loop at the extremes."""

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "valid"), (2, "same")])
    def test_extreme_operands(self, stride, padding):
        rng = np.random.Generator(np.random.PCG64(41))
        z_x = -128
        q_x = rng.integers(-128, 128, size=(2, 6, 5, 3)).astype(np.int8)
        q_x[0, 0, 0, :] = 127                                   # |x - Z| = 255
        q_w = rng.integers(-128, 128, size=(3, 3, 3, 4)).astype(np.int8)
        q_w[1, 1, :, 0] = -128
        q_b = rng.integers(-2**20, 2**20, size=4).astype(np.int32)
        x_shift = q_x.astype(np.int32) - np.int32(z_x)
        ours = _int32_conv(x_shift, q_w, q_b, stride, padding)
        assert ours.dtype == np.int32
        assert np.array_equal(ours, conv_int_mac_loop(q_x, z_x, q_w, q_b, stride, padding))

    def test_wide_layer_runs_in_chunks_and_bias_wraps(self):
        # K = 3*3*64 = 576 > 2**24 // (128*255) = 514, so the GEMM needs two
        # chunks. With |x - Z| = 255 and one odd weight among -128s, a full
        # patch sums to an odd integer beyond 2**24 in magnitude, which no
        # float32 holds: one float32 GEMM over all of K would round it.
        z_x = -128
        q_x = np.full((1, 4, 4, 64), 127, np.int8)
        q_w = np.full((3, 3, 64, 2), -128, np.int8)
        q_w[0, 2, 17, 0] = q_w[2, 1, 40, 1] = -127
        q_b = np.array([-2**31 + 5, 0], np.int32)
        x_shift = q_x.astype(np.int32) - np.int32(z_x)
        ours = _int32_conv(x_shift, q_w, q_b, 1, "same")
        ref = conv_int_mac_loop(q_x, z_x, q_w, q_b, 1, "same")
        assert np.array_equal(ours, ref)
        sums = np.array([eq5_scalar(q_w[..., co].ravel(), q_x[0, :3, :3].ravel(), 0, z_x)
                         for co in range(2)])
        assert (np.abs(sums) > 2**24).all() and (sums % 2 == 1).all()
        # -2**31 + 5 plus a negative sum wraps round to a positive int32
        assert (ours[..., 0] > 0).all() and (ours[..., 1] < 0).all()

    @given(seed=st.integers(0, 2**32 - 1), stride=st.integers(1, 2),
           padding=st.sampled_from(["same", "valid"]), z_x=st.integers(-128, 127),
           kh=st.integers(1, 3), kw=st.integers(1, 3), cin=st.integers(1, 70),
           cout=st.integers(1, 3), h=st.integers(3, 5), w=st.integers(3, 5),
           x_fill=st.sampled_from([None, -128, 127]),
           w_fill=st.sampled_from([None, -128, 127]))
    # all of a 3x3x70 patch at |x - Z| = 255 against -128 weights: 630 rows
    # whose products sum beyond 2**24
    @example(seed=0, stride=1, padding="same", z_x=-128, kh=3, kw=3, cin=70, cout=2,
             h=3, w=3, x_fill=127, w_fill=-128)
    @settings(max_examples=60, deadline=None)
    def test_matches_mac_loop(self, seed, stride, padding, z_x, kh, kw, cin, cout, h, w,
                              x_fill, w_fill):
        """Any layer shape, zero point and operands, 3x3 layers past 514 rows included."""
        rng = np.random.Generator(np.random.PCG64(seed))

        def operand(size, fill):
            # random int8 values, or ``fill`` with a tenth of them random
            values = rng.integers(-128, 128, size=size)
            if fill is not None:
                values[rng.random(size) >= 0.1] = fill
            return values.astype(np.int8)

        q_x = operand((2, h, w, cin), x_fill)
        q_w = operand((kh, kw, cin, cout), w_fill)
        q_b = rng.integers(-2**31, 2**31, size=cout).astype(np.int32)
        x_shift = q_x.astype(np.int32) - np.int32(z_x)
        ours = _int32_conv(x_shift, q_w, q_b, stride, padding)
        assert ours.dtype == np.int32
        assert np.array_equal(ours, conv_int_mac_loop(q_x, z_x, q_w, q_b, stride, padding))


def quantized_conv_graph(q_w, q_b, stride, padding, s_w, s_x, z_x, s_y, z_y):
    """One int8 conv2d layer, input "input", output "conv", with its scale tables."""
    kh, _, cin, cout = q_w.shape
    layer = sf.LayerSpec("conv2d", "conv", {"kernel_size": kh, "stride": stride,
                                            "padding": padding, "filters": cout}, ["input"])
    params = [sf.ParamSet(1, "conv", "conv_kernel", Tensor.from_array(q_w, "i8")),
              sf.ParamSet(2, "conv", "conv_bias", Tensor.from_array(q_b, "i32"))]
    meta = {
        "input_channels": cin,
        "flags": {"pruned": False, "folded": True, "quantized": True},
        "quantization": {
            "activations": {"input": {"scale": s_x, "zero_point": z_x},
                            "conv": {"scale": s_y, "zero_point": z_y}},
            "params": {"1": {"scale": s_w, "zero_point": 0, "bits": 8},
                       "2": {"scale": s_w * s_x, "zero_point": 0, "bits": 32}},
        },
    }
    return sf.ModelGraph([layer], params, cout, meta)


class TestConvIntBlocks:
    """Column blocks of the integer conv change no bit, wherever their boundaries fall."""

    @pytest.fixture
    def widths(self, monkeypatch):
        """The columns of each block the integer conv sums."""
        widths, real = [], engine._tap_sum

        def tap_sum(*args):
            widths.append(args[-1].shape[1])
            return real(*args)

        monkeypatch.setattr(engine, "_tap_sum", tap_sum)
        return widths

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "valid")])
    def test_boundaries_mid_row(self, widths, monkeypatch, stride, padding):
        rng = np.random.Generator(np.random.PCG64(43))
        z_x = 127
        q_x = rng.integers(-128, 128, size=(2, 7, 9, 3)).astype(np.int8)
        q_x[1, 3, 4, :] = -128                                  # |x - Z| = 255
        q_w = rng.integers(-128, 128, size=(3, 3, 3, 4)).astype(np.int8)
        q_b = rng.integers(-2**31, 2**31, size=4).astype(np.int32)
        # 4 output channels, 13 columns a block: most blocks start inside
        # a grid row of 9 or 10 cells
        monkeypatch.setattr(engine, "_BLOCK_CELLS", 4 * 13 + 3)
        ours = _int32_conv(q_x.astype(np.int32) - np.int32(z_x), q_w, q_b, stride, padding)
        assert len(widths) > 5 and set(widths[:-1]) == {13}
        assert np.array_equal(ours, conv_int_mac_loop(q_x, z_x, q_w, q_b, stride, padding))

    def test_wide_layer_groups_split_inside_each_block(self, widths, monkeypatch):
        # K = 3*3*64 = 576 > 514: within each block the first eight taps
        # (512 rows) make one exact float32 group and the ninth another. At
        # |x - Z| = 255 against -128 weights, one odd, a whole patch sums to
        # an odd integer beyond 2**24, which one float32 group would round.
        z_x = -128
        q_x = np.full((2, 5, 6, 64), 127, np.int8)
        q_x[1, 2, 3, 7] = 0
        q_w = np.full((3, 3, 64, 2), -128, np.int8)
        q_w[0, 2, 17, 0] = q_w[2, 1, 40, 1] = -127
        q_b = np.array([-2**31 + 5, 2**31 - 9], np.int32)
        monkeypatch.setattr(engine, "_BLOCK_CELLS", 2 * 10)
        ours = _int32_conv(q_x.astype(np.int32) - np.int32(z_x), q_w, q_b, 1, "same")
        assert len(widths) > 5 and set(widths[:-1]) == {10}
        assert np.array_equal(ours, conv_int_mac_loop(q_x, z_x, q_w, q_b, 1, "same"))
        sums = np.array([eq5_scalar(q_w[..., co].ravel(), q_x[0, 1:4, 1:4].ravel(), 0, z_x)
                         for co in range(2)])
        assert (np.abs(sums) > 2**24).all() and (sums % 2 == 1).all()

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "valid")])
    def test_requantized_blocks_equal_one_block(self, widths, monkeypatch, stride, padding):
        # M = 0.5 puts every odd accumulator on a tie, which rounds half to
        # even; the extreme operands of the first image saturate
        rng = np.random.Generator(np.random.PCG64(44))
        z_x, z_y = -3, 1
        q_x = rng.integers(-8, 9, size=(2, 8, 7, 5)).astype(np.int8)
        q_x[0, :4] = rng.choice(np.array([-128, 127], np.int8), size=(4, 7, 5))
        q_w = rng.integers(-3, 4, size=(3, 3, 5, 6)).astype(np.int8)
        q_w[..., 5] = 127
        q_b = rng.integers(-40, 41, size=6).astype(np.int32)
        g = quantized_conv_graph(q_w, q_b, stride, padding, 1.0, 0.5, z_x, 1.0, z_y)
        one = _quantized_conv(g, g.layers[0], [q_x])
        assert len(widths) == 1
        monkeypatch.setattr(engine, "_BLOCK_CELLS", 6 * 11)
        blocked = _quantized_conv(g, g.layers[0], [q_x])
        assert len(widths) > 5
        assert blocked.dtype == np.int8 and blocked.shape == one.shape
        assert np.ascontiguousarray(blocked).tobytes() == np.ascontiguousarray(one).tobytes()
        acc = conv_int_mac_loop(q_x, z_x, q_w, q_b, stride, padding)
        ref = np.clip(np.rint(acc * 0.5 + z_y), -128, 127).astype(np.int8)
        assert np.array_equal(blocked, ref)
        assert (blocked == 127).any() and (blocked == -128).any()
        ties = (acc % 2 == 1) & (np.abs(acc * 0.5 + z_y) < 127)
        assert ties.sum() > 20

    @given(seed=st.integers(0, 2**32 - 1), budget=st.integers(1, 300),
           stride=st.integers(1, 2), padding=st.sampled_from(["same", "valid"]),
           z_x=st.integers(-128, 127), kh=st.integers(1, 3), kw=st.integers(1, 3),
           cin=st.integers(1, 6), cout=st.integers(1, 5), h=st.integers(3, 6),
           w=st.integers(3, 6))
    @settings(max_examples=60, deadline=None)
    def test_any_budget_matches_mac_loop(self, seed, budget, stride, padding, z_x, kh, kw,
                                         cin, cout, h, w):
        rng = np.random.Generator(np.random.PCG64(seed))
        q_x = rng.integers(-128, 128, size=(2, h, w, cin)).astype(np.int8)
        q_w = rng.integers(-128, 128, size=(kh, kw, cin, cout)).astype(np.int8)
        q_b = rng.integers(-2**31, 2**31, size=cout).astype(np.int32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_BLOCK_CELLS", budget)
            ours = _int32_conv(q_x.astype(np.int32) - np.int32(z_x), q_w, q_b, stride, padding)
        assert np.array_equal(ours, conv_int_mac_loop(q_x, z_x, q_w, q_b, stride, padding))


class TestSharedZeros:
    """Neighbouring images and rows of the core's staged grid share their zero
    rows and columns, and no output cell reads another image's or row's cells:
    a batch of three images whose border cells hold extremes convolves to its
    single-image convs joined along N, and to the oracles', in both modes."""

    CASES = [pytest.param((kh, kw), stride, padding, id=f"{kh}x{kw}-{stride}-{padding}")
             for kh in (1, 2, 3) for kw in (1, 2, 3) for stride in (1, 2)
             for padding in ("same", "valid")]

    @staticmethod
    def border(rng, h, w, share):
        """A random ``share`` of the first and last rows' and columns' cells."""
        edge = np.ones((h, w), dtype=bool)
        edge[1:-1, 1:-1] = False
        return edge & (rng.random((h, w)) < share)

    @staticmethod
    def batch_and_joined(conv, x):
        return conv(x), np.concatenate([conv(x[i:i + 1]) for i in range(len(x))])

    @pytest.mark.parametrize("size,stride,padding", CASES)
    def test_float(self, size, stride, padding):
        rng = np.random.Generator(np.random.PCG64(61))
        x = rng.normal(size=(3, 5, 6, 2)).astype(np.float32)
        extremes = np.array([np.inf, -np.inf, np.nan, 3e38, -3e38], np.float32)
        for image in x:
            # half the border cells: a NaN or Inf cell makes its own window's
            # outputs NaN or Inf, where a cell read from a neighbour would hide
            edge = self.border(rng, 5, 6, 0.5)
            image[edge] = rng.choice(extremes, size=(int(edge.sum()), 2))
        k = rng.normal(size=size + (2, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        batch, joined = self.batch_and_joined(
            lambda images: sf.conv2d_forward(Tensor.from_array(images), Tensor.from_array(k),
                                             b, stride, padding).data, x)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = conv2d_quadruple_loop(x, k, b, stride=stride, padding=padding)
        for want in (joined, ref):
            # where two different NaNs meet in a cell, the payload kept may differ
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(batch), nan)
            assert np.array_equal(batch.view(np.uint32)[~nan], want.view(np.uint32)[~nan])
        assert np.isfinite(batch).any()

    @pytest.mark.parametrize("z_x", [-128, 127])
    @pytest.mark.parametrize("size,stride,padding", CASES)
    def test_int8(self, size, stride, padding, z_x):
        rng = np.random.Generator(np.random.PCG64(62))
        q_x = rng.integers(-128, 128, size=(3, 5, 6, 2)).astype(np.int8)
        for image in q_x:  # |x - Z| = 255 or 0 at every border cell
            edge = self.border(rng, 5, 6, 1.0)
            image[edge] = rng.choice(np.array([-128, 127], np.int8), size=(int(edge.sum()), 2))
        q_w = rng.integers(-128, 128, size=size + (2, 3)).astype(np.int8)
        q_b = rng.integers(-2**20, 2**20, size=3).astype(np.int32)
        sums, joined = self.batch_and_joined(
            lambda q: _int32_conv(q.astype(np.int32) - np.int32(z_x), q_w, q_b, stride,
                                  padding), q_x)
        mac = conv_int_mac_loop(q_x, z_x, q_w, q_b, stride, padding)
        assert np.array_equal(sums, joined) and np.array_equal(sums, mac)
        multiplier, z_y = 1 / 4096, 3
        g = quantized_conv_graph(q_w, q_b, stride, padding, 1.0, 1.0, z_x, 4096.0, z_y)
        ours, joined = self.batch_and_joined(lambda q: _quantized_conv(g, g.layers[0], [q]), q_x)
        ref = np.clip(np.rint(mac * multiplier + z_y), -128, 127).astype(np.int8)
        assert np.array_equal(ours, joined) and np.array_equal(ours, ref)


class TestQuantizedConcat:
    @pytest.mark.parametrize("channel_major", [False, True])
    def test_matches_table_lookup_and_concatenate(self, channel_major):
        rng = np.random.Generator(np.random.PCG64(45))
        parts = [rng.integers(-128, 128, size=(2, 3, 4, c)).astype(np.int8) for c in (3, 5)]
        if channel_major:  # as the convolutions leave them
            parts = [np.ascontiguousarray(p.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
                     for p in parts]
        entries = {"a": {"scale": 0.031, "zero_point": -128},
                   "b": {"scale": 0.117, "zero_point": 127},
                   "cat": {"scale": 0.05, "zero_point": 9}}
        graph = SimpleNamespace(metadata={"quantization": {"activations": entries}})
        layer = SimpleNamespace(name="cat", inputs=["a", "b"])
        ours = engine._quantized_concat(graph, layer, parts)

        def table(ref):
            # round() in Python rounds half to even, as np.rint does
            e, out = entries[ref], entries["cat"]
            # entry u holds the rescale of the int8 value with bit pattern u
            return np.array([min(127, max(-128, round((u - 256 * (u > 127) - e["zero_point"])
                                                       * (e["scale"] / out["scale"])
                                                       + out["zero_point"])))
                             for u in range(256)], np.int8)

        ref = np.concatenate([table(r)[p.view(np.uint8)] for r, p in zip("ab", parts)],
                             axis=3)
        assert ours.dtype == np.int8 and np.array_equal(ours, ref)
        assert ours.transpose(3, 0, 1, 2).flags.c_contiguous
        assert (ref == 127).any() or (ref == -128).any()


class TestReluMaxpoolRescale:
    """A quantized ReLU or max-pool computes its values at its input's entry and
    rescales them to its own entry where the two differ."""

    @pytest.mark.parametrize("channel_major", [False, True])
    @pytest.mark.parametrize("kind", ["relu", "maxpool"])
    def test_double_output_scale(self, kind, channel_major):
        z_in, z_out = -7, 90
        entries = {"a": {"scale": 0.25, "zero_point": z_in},
                   "op": {"scale": 0.5, "zero_point": z_out}}
        graph = SimpleNamespace(metadata={"quantization": {"activations": entries}})
        layer = SimpleNamespace(name="op", inputs=["a"])
        v = np.arange(-128, 128).astype(np.int8)  # every int8 value
        x = v.reshape(1, 16, 16, 1)
        if kind == "maxpool":  # each value fills one 2x2 window
            x = x.repeat(2, axis=1).repeat(2, axis=2)
        if channel_major:  # as the convolutions leave them
            x = np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
        ours = engine._QUANTIZED.ops[kind](graph, layer, [x])
        kept = np.maximum(v, z_in) if kind == "relu" else v
        want = np.clip(np.rint((kept.astype(np.float64) - z_in) / 2) + z_out, -128, 127)
        assert ours.dtype == np.int8 and np.array_equal(ours.reshape(-1), want)
        assert ours.transpose(3, 0, 1, 2).flags.c_contiguous
        assert (want == 127).any()

    def test_lowered_zero_points_keep_the_maps(self, tiny_graph, tiny_inputs, tiny_batch):
        # every ReLU and max-pool entry 20 below its input's: each value is
        # looked up 20 lower, and its consumers subtract a zero point 20 lower
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        lowered = q.copy()
        entries = lowered.metadata["quantization"]["activations"]
        for layer in lowered.layers:
            if layer.kind in ("relu", "maxpool"):
                entries[layer.name]["zero_point"] -= 20
        assert min(entries[l.name]["zero_point"] for l in lowered.layers) >= -128
        ours, want = run_quantized(lowered, tiny_batch), run_quantized(q, tiny_batch)
        assert ours.logits.data.tobytes() == want.logits.data.tobytes()
        assert np.array_equal(ours.class_map, want.class_map)


class TestQuantizedConvTranspose:
    """A quantized transposed-conv layer agrees with a scalar oracle."""

    @staticmethod
    def graph(q_w, q_b, s_w, s_x, z_x, s_y, z_y):
        kh, _, cin, cout = q_w.shape
        layer = sf.LayerSpec("conv2d_transpose", "up",
                             {"kernel_size": kh, "stride": kh, "filters": cout}, ["input"])
        params = [sf.ParamSet(1, "up", "convtr_kernel", Tensor.from_array(q_w, "i8")),
                  sf.ParamSet(2, "up", "convtr_bias", Tensor.from_array(q_b, "i32"))]
        meta = {
            "input_channels": cin,
            "flags": {"pruned": False, "folded": True, "quantized": True},
            "quantization": {
                "activations": {"input": {"scale": s_x, "zero_point": z_x},
                                "up": {"scale": s_y, "zero_point": z_y}},
                "params": {"1": {"scale": s_w, "zero_point": 0, "bits": 8},
                           "2": {"scale": s_w * s_x, "zero_point": 0, "bits": 32}},
            },
        }
        return sf.ModelGraph([layer], params, cout, meta)

    # 520 input channels split within each tap (more than 514 rows)
    @pytest.mark.parametrize("cin,z_x", [(5, -128), (16, 37), (520, 127)])
    def test_matches_scalar_oracle(self, cin, z_x):
        rng = np.random.Generator(np.random.PCG64(cin))
        q_x = rng.integers(-128, 128, size=(2, 3, 2, cin)).astype(np.int8)
        q_x[0, 0, 0] = -128 if z_x > 0 else 127                 # |x - Z| = 255
        q_w = rng.integers(-128, 128, size=(2, 2, cin, 3)).astype(np.int8)
        q_w[1, 0, :, 1] = -128
        q_b = rng.integers(-2**16, 2**16, size=3).astype(np.int32)
        s_w, s_x, s_y, z_y = 0.0123, 0.0456, 0.1 * cin, -5
        g = self.graph(q_w, q_b, s_w, s_x, z_x, s_y, z_y)
        ours = _quantized_conv(g, g.layers[0], [q_x])
        ref = quantized_convtr_scalar(q_x, z_x, q_w, q_b, (s_w * s_x) / s_y, z_y)
        assert ours.dtype == np.int8 and ours.shape == (2, 6, 4, 3)
        assert np.array_equal(ours, ref)
        assert len(np.unique(ref)) > 10  # not saturated throughout

    def test_wide_accumulator_exact(self):
        # 520 rows of |x - Z| = 255 against -128 weights, one of them -127,
        # sum to an odd integer beyond 2**24, which no float32 holds: the
        # tap's GEMM must split Cin to stay exact
        z_x = 127
        q_x = np.full((1, 2, 2, 520), -128, np.int8)
        q_w = np.full((2, 2, 520, 2), -128, np.int8)
        q_w[:, :, 17, 0] = -127
        q_b = np.array([3, -2**31], np.int32)
        acc = _conv_transpose_int(q_x.astype(np.int32) - z_x, q_w, q_b, 2)
        ref = np.array([[[[quantized_mac(q_w[i % 2, j % 2, :, co], q_x[0, i // 2, j // 2],
                                         q_b[co], z_x) for co in range(2)]
                          for j in range(4)] for i in range(4)]], np.int32)
        assert np.array_equal(acc, ref)
        sums = ref.astype(np.int64) - q_b
        assert (np.abs(sums[..., 0]) > 2**24).all() and (sums[..., 0] % 2 == 1).all()

    def test_kernel_size_other_than_stride_refused(self):
        # as in the float path; a 3x3 kernel at stride 2 would drop taps
        g = self.graph(np.ones((3, 3, 2, 2), np.int8), np.zeros(2, np.int32),
                       1.0, 1.0, 0, 1.0, 0)
        g.layers[0].hyperparams["stride"] = 2
        with pytest.raises(ValueError, match="kernel 3x3 with stride 2"):
            _quantized_conv(g, g.layers[0], [np.zeros((1, 2, 2, 2), np.int8)])

    @pytest.mark.parametrize("section,name,entry,message", [
        ("activations", "input", {"scale": 0.5, "zero_point": 2**20}, "zero_point 1048576"),
        ("activations", "input", {"scale": 0.5, "zero_point": None}, "zero_point None"),
        ("activations", "up", {"scale": 0.5, "zero_point": "7"}, "zero_point '7'"),
        ("activations", "up", {"scale": 0.5, "zero_point": 1.5}, "zero_point 1.5"),
        ("params", "1", {"scale": float("nan"), "zero_point": 0}, "scale nan"),
        ("params", "1", {"scale": 1.0, "zero_point": False}, "zero_point False"),
    ])
    def test_bad_table_entry_refused(self, section, name, entry, message):
        q_w = np.ones((2, 2, 3, 2), np.int8)
        g = self.graph(q_w, np.zeros(2, np.int32), 1.0, 1.0, 0, 1.0, 0)
        g.metadata["quantization"][section][name] = entry
        with pytest.raises(ValueError, match=message):
            run_quantized(g, Tensor.from_array(np.zeros((1, 2, 2, 3), np.float32)))



class TestConvTransposeOneCore:
    """A transposed conv runs as the one convolution core's 1x1 conv of the
    stacked taps, then depth-to-space: bit for bit the scatter-add and scalar
    oracles, at any shape, stride, channel subset and column block."""

    @staticmethod
    def float_graph(k, b):
        kh, _, cin, cout = k.shape
        layer = sf.LayerSpec("conv2d_transpose", "up",
                             {"kernel_size": kh, "stride": kh, "filters": cout}, ["input"])
        params = [sf.ParamSet(1, "up", "convtr_kernel", Tensor.from_array(k)),
                  sf.ParamSet(2, "up", "convtr_bias", Tensor.from_array(b))]
        return sf.ModelGraph([layer], params, cout, {"input_channels": cin})

    @staticmethod
    def subset(rng, cout, pick):
        return np.sort(rng.choice(cout, size=rng.integers(1, cout + 1), replace=False)) \
            if pick else None

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), h=st.integers(1, 4),
           w=st.integers(1, 4), stride=st.integers(1, 3), cin=st.integers(1, 6),
           cout=st.integers(1, 4), fault=st.sampled_from([None] + sorted(FAULT_VALUES)),
           pick=st.booleans(), budget=st.integers(1, 1200))
    # blocks of one column each
    @example(seed=1, n=3, h=2, w=3, stride=2, cin=4, cout=3, fault="nan", pick=False, budget=1)
    @settings(max_examples=60, deadline=None)
    def test_float_matches_scatter_add(self, seed, n, h, w, stride, cin, cout, fault, pick,
                                       budget):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.normal(size=(n, h, w, cin)).astype(np.float32)
        k = rng.normal(size=(stride, stride, cin, cout)).astype(np.float32)
        if fault is not None:
            k = with_faulted_weights(k, FAULT_VALUES[fault][:k.size], seed % 1000)
        b = rng.normal(size=cout).astype(np.float32)
        channels = self.subset(rng, cout, pick)
        sel = slice(None) if channels is None else channels
        g = self.float_graph(k, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "_BLOCK_CELLS", budget)
            ours = engine._float_conv(g, g.layers[0], [Tensor.from_array(x)], channels)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = convtr_scatter_add(x, k[..., sel], b[sel], stride=stride)
        assert isinstance(ours, Tensor) and ours.data.transpose(3, 0, 1, 2).flags.c_contiguous
        assert ours.shape == ref.shape
        # where two different NaNs meet in a cell, the payload kept may differ
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(ours.data), nan)
        assert np.array_equal(ours.data.view(np.uint32)[~nan], ref.view(np.uint32)[~nan])

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), h=st.integers(1, 3),
           w=st.integers(1, 3), stride=st.integers(1, 3),
           cin=st.sampled_from([1, 2, 5, 9, 515, 530]), cout=st.integers(1, 4),
           z_x=st.integers(-128, 127), x_fill=st.sampled_from([None, -128, 127]),
           w_fill=st.sampled_from([None, -128, 127]), pick=st.booleans(),
           budget=st.integers(1, 300))
    # 530 rows of |x - Z| = 255 against -128 weights sum beyond 2**24, in
    # column blocks of 7 cells
    @example(seed=2, n=2, h=3, w=2, stride=2, cin=530, cout=2, z_x=-128, x_fill=127,
             w_fill=-128, pick=False, budget=4 * 2 * 7)
    @settings(max_examples=40, deadline=None)
    def test_quantized_matches_scalar_oracles(self, seed, n, h, w, stride, cin, cout, z_x,
                                              x_fill, w_fill, pick, budget):
        rng = np.random.Generator(np.random.PCG64(seed))

        def operand(size, fill):
            # random int8 values, or ``fill`` with a tenth of them random
            values = rng.integers(-128, 128, size=size)
            if fill is not None:
                values[rng.random(size) >= 0.1] = fill
            return values.astype(np.int8)

        q_x = operand((n, h, w, cin), x_fill)
        q_w = operand((stride, stride, cin, cout), w_fill)
        q_b = rng.integers(-2**31, 2**31, size=cout).astype(np.int32)
        channels = self.subset(rng, cout, pick)
        sel = slice(None) if channels is None else channels
        s_w, s_x, s_y, z_y = 0.0123, 0.0456, 20.0 * cin, 3
        g = TestQuantizedConvTranspose.graph(q_w, q_b, s_w, s_x, z_x, s_y, z_y)
        x_shift = q_x.astype(np.int32) - np.int32(z_x)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_BLOCK_CELLS", budget)
            ours = _quantized_conv(g, g.layers[0], [q_x], channels)
            acc = _conv_transpose_int(x_shift, q_w[..., sel], q_b[sel], stride)
        ref = quantized_convtr_scalar(q_x, z_x, q_w[..., sel], q_b[sel], (s_w * s_x) / s_y,
                                      z_y, stride=stride)
        assert ours.dtype == np.int8 and np.array_equal(ours, ref)
        # channel-major in memory, as concat and the next conv read it
        assert ours.transpose(3, 0, 1, 2).flags.c_contiguous
        mac = np.array([[[[quantized_mac(q_w[i % stride, j % stride, :, co],
                                         q_x[b, i // stride, j // stride], q_b[co], z_x)
                           for co in np.arange(cout)[sel]]
                          for j in range(w * stride)] for i in range(h * stride)]
                        for b in range(n)], np.int32)
        assert acc.dtype == np.int32 and np.array_equal(acc, mac)


class TestQuantizedEngine:
    def _mini_quantized_graph(self, q_w, q_b, s_w, s_x, z_x, s_y, z_y):
        g = single_conv_graph(np.zeros((1, 1, 1, 1)), [0.0])
        params = [
            sf.ParamSet(1, "conv", "conv_kernel",
                        Tensor.from_array(np.array(q_w, np.int8).reshape(1, 1, 1, 1), "i8")),
            sf.ParamSet(2, "conv", "conv_bias",
                        Tensor.from_array(np.array(q_b, np.int32), "i32")),
        ]
        meta = {
            "input_channels": 1,
            "flags": {"pruned": False, "folded": True, "quantized": True},
            "quantization": {
                "activations": {"input": {"scale": s_x, "zero_point": z_x},
                                "conv": {"scale": s_y, "zero_point": z_y}},
                "params": {"1": {"scale": s_w, "zero_point": 0, "bits": 8},
                           "2": {"scale": s_w * s_x, "zero_point": 0, "bits": 32}},
            },
        }
        return sf.ModelGraph(list(g.layers), params, 1, meta)

    def test_eq5_identity_case_through_engine(self):
        g = self._mini_quantized_graph([2], [1], 1.0, 1.0, 0, 1.0, 0)
        x = Tensor.from_array(np.full((1, 1, 1, 1), 3.0, np.float32))
        res = run_quantized(g, x)
        assert res.logits.data.reshape(-1)[0] == 7.0

    def test_eq5_zero_point_case_through_engine(self):
        g = self._mini_quantized_graph([2], [0], 1.0, 1.0, 1, 1.0, 0)
        # input 4.0 quantizes to q_x = 4/1 + 1 = 5; q_y = 2*5 - 1*2 = 8
        x = Tensor.from_array(np.full((1, 1, 1, 1), 4.0, np.float32))
        assert run_quantized(g, x).logits.data.reshape(-1)[0] == 8.0

    def test_requantization_saturates(self):
        g = self._mini_quantized_graph([100], [0], 1.0, 1.0, 0, 1.0, 0)
        x = Tensor.from_array(np.full((1, 1, 1, 1), 100.0, np.float32))
        # accumulator 100*100 = 10000 saturates to 127 at the int8 output
        assert run_quantized(g, x).logits.data.reshape(-1)[0] == 127.0

    def test_requantization_range_property(self):
        from seu_forge.engine import _round_half_even_clip_i8
        rng = np.random.Generator(np.random.PCG64(6))
        accs = rng.integers(np.iinfo(np.int32).min, np.iinfo(np.int32).max,
                            size=10_000, dtype=np.int64).astype(np.float64)
        out = _round_half_even_clip_i8(accs * rng.uniform(1e-9, 10.0))
        assert out.dtype == np.int8
        assert out.min() >= -128 and out.max() <= 127
        # round-half-even at the .5 boundaries
        assert np.array_equal(_round_half_even_clip_i8(np.array([0.5, 1.5, 2.5, -0.5, 63.5])),
                              np.array([0, 2, 2, 0, 64], np.int8))

    def test_missing_scale_table(self, tiny_graph, tiny_inputs):
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        del q.metadata["quantization"]["params"]["1"]
        with pytest.raises(ValueError, match="missing scale table"):
            run_quantized(q, sf.batch_inputs(tiny_inputs[0]))

    def test_agreement_with_float(self, tiny_graph, tiny_inputs):
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        batch = sf.batch_inputs(tiny_inputs[0])
        fmap = run_float(tiny_graph, batch).class_map
        qmap = run_quantized(q, batch).class_map
        assert (fmap == qmap).mean() > 0.9


class TestParameterStats:
    def test_reference_output_bias_census(self):
        biases = [-0.8494, 0.3171, -0.0275, 0.0394, -0.1706, 0.1090]
        g = single_conv_graph(np.zeros((1, 1, 1, 6)), biases, input_channels=1)
        stats = sf.capture_parameter_stats(g)
        assert stats[2]["positive"] == 3 and stats[2]["total"] == 6

    def test_all_positive(self):
        g = single_conv_graph(np.ones((1, 1, 1, 4)), [1.0, 2.0, 3.0, 4.0])
        stats = sf.capture_parameter_stats(g)
        assert stats[2]["positive"] == 4
        assert stats[2]["min"] == 1.0 and stats[2]["max"] == 4.0


class TestFrontierResume:
    """A forward resumed at a golden frontier equals a forward from the input."""

    @pytest.fixture(scope="class")
    def model_b(self):
        graph = sf.generate_toy_weights(sf.build_unet(2, 8, 4, 4), 42)
        inputs, _ = sf.generate_calibration_set((16, 16, 4), count=2, seed=7,
                                                class_count=4)
        return {False: graph, True: sf.quantize_ptq(graph, inputs)}, sf.batch_inputs(inputs)

    @staticmethod
    def layer_fault(graph, layer):
        """A fault in the first parameter set of ``layer``; None if it has none."""
        params = sorted(graph.layer_params(layer.name).values(), key=lambda p: p.index)
        if not params:
            return None
        p = params[0]
        # f32: scale by 2**+-16, large but finite; ints: a high magnitude bit
        bit = 27 if p.tensor.encoding == "f32" else p.width - 2
        return sf.FaultSpec(pset=p.index, element=p.tensor.size // 2, bit=bit,
                            encoding=p.tensor.encoding)

    @staticmethod
    def values(frontier):
        return {name: np.array(v.data if isinstance(v, Tensor) else v, copy=True)
                for name, v in frontier.live.items()}

    @pytest.mark.parametrize("quantized", [False, True])
    def test_fault_in_every_layer_matches_full_forward(self, model_b, quantized):
        graphs, batch = model_b
        graph = graphs[quantized].copy()
        run = run_quantized if quantized else run_float
        golden = run(graph, batch).logits.data
        frontiers = list(islice(_walk(graph, batch), len(graph.layers)))
        assert [f.start for f in frontiers] == list(range(len(graph.layers)))
        faulted = changed = 0
        for frontier, layer in zip(frontiers, graph.layers):
            spec = self.layer_fault(graph, layer)
            faulted += spec is not None
            token = sf.apply_fault(graph, spec) if spec is not None else None
            try:
                resumed = run(graph, frontier)
                full = run(graph, batch)
            finally:
                if token is not None:
                    sf.revert(graph, token)
            assert np.array_equal(resumed.logits.data.view(np.uint32),
                                  full.logits.data.view(np.uint32)), layer.name
            assert np.array_equal(resumed.class_map, full.class_map), layer.name
            changed += not np.array_equal(full.logits.data, golden)
        assert changed >= faulted // 2  # the faults reach the logits

    @pytest.mark.parametrize("quantized", [False, True])
    def test_golden_frontiers_unchanged_by_faulted_forwards(self, model_b, quantized):
        graphs, batch = model_b
        graph = graphs[quantized].copy()
        run = run_quantized if quantized else run_float
        frontiers = list(islice(_walk(graph, batch), len(graph.layers)))
        before = [self.values(f) for f in frontiers]
        for frontier, layer in zip(frontiers, graph.layers):
            spec = self.layer_fault(graph, layer)
            token = sf.apply_fault(graph, spec) if spec is not None else None
            run(graph, frontier)
            if token is not None:
                sf.revert(graph, token)
        for frontier, snapshot in zip(frontiers, before):
            after = self.values(frontier)
            assert after.keys() == snapshot.keys()
            for name in snapshot:
                assert after[name].tobytes() == snapshot[name].tobytes(), name

    def test_walk_stops_at_requested_layer(self, model_b):
        graphs, batch = model_b
        starts = [f.start for f in islice(_walk(graphs[False], batch), 3 + 1)]
        assert starts == [0, 1, 2, 3]
        first = next(islice(_walk(graphs[True], batch), len(graphs[True].layers)))
        assert list(first.live) == ["input"] and first.live["input"].dtype == np.int8

    def test_collect_from_a_frontier(self, model_b):
        graphs, batch = model_b
        graph = graphs[False]
        *_, frontier = islice(_walk(graph, batch), 5 + 1)
        late = graph.layers[5].name
        resumed = run_float(graph, frontier, collect=(late,)).collected[late].data
        full = run_float(graph, batch, collect=(late,)).collected[late].data
        assert np.array_equal(resumed.view(np.uint32), full.view(np.uint32))


class TestChannelRestriction:
    """Ops on a subset of output channels, the chain they run along, and the poison rule."""

    @pytest.fixture(scope="class")
    def graphs(self):
        from conftest import chain_graph
        graph = chain_graph(dead_branch=True)
        # a faulted copy: a huge kernel weight and a NaN gamma in channel 2
        faulted = graph.copy()
        faulted.layer_params("conv_b")["conv_kernel"].tensor.data[1, 1, 0, 2] = 3.0e38
        faulted.layer_params("bn_a")["bn_gamma"].tensor.data[2] = np.nan
        inputs, _ = sf.generate_calibration_set((16, 16, 4), count=2, seed=7, class_count=4)
        quantized = sf.quantize_ptq(graph, inputs)
        return {"float": graph, "faulted": faulted, "quantized": quantized}, \
            sf.batch_inputs(inputs)

    def test_chains(self, graphs):
        from seu_forge.engine import channel_chain
        graph = graphs[0]["float"]
        index = {layer.name: i for i, layer in enumerate(graph.layers)}

        def chain(name):
            return [layer.name for layer in channel_chain(graph, index[name])]

        assert chain("conv_a") == ["conv_a", "bn_a", "relu_a", "pool_a"]
        assert chain("bn_b") == ["bn_b", "relu_b"]   # relu_b also feeds the concat
        assert chain("conv_d") == ["conv_d", "relu_d"]
        assert chain("up") == ["up"] and chain("out") == ["out"]

    @pytest.mark.parametrize("kind", ["float", "faulted", "quantized"])
    def test_each_op_on_a_channel_subset_equals_those_channels_of_the_full_op(self, graphs,
                                                                            kind):
        from seu_forge.engine import _FLOAT, _QUANTIZED, CHANNELWISE
        graphs, batch = graphs
        graph = graphs[kind]
        mode = _QUANTIZED if kind == "quantized" else _FLOAT
        frontiers = list(islice(_walk(graph, batch), len(graph.layers)))
        checked = set()
        for frontier, layer in zip(frontiers, graph.layers):
            if layer.kind == "concat":
                continue
            ins = [frontier.live[r] for r in layer.inputs]
            full = mode.ops[layer.kind](graph, layer, ins)
            full = full.data if isinstance(full, Tensor) else full
            for channels in (np.array([2]), np.array([0, 2, 3]), np.arange(full.shape[-1])):
                x = ins[0]
                if layer.kind in CHANNELWISE:
                    x = Tensor.from_array(x.data[..., channels]) if isinstance(x, Tensor) \
                        else x[..., channels]
                part = mode.ops[layer.kind](graph, layer, [x], channels)
                part = part.data if isinstance(part, Tensor) else part
                assert part.tobytes() == full[..., channels].tobytes(), (layer.name, channels)
            checked.add(layer.kind)
        assert checked >= ({"conv2d", "conv2d_transpose", "output_conv", "relu", "maxpool"}
                           | ({"batchnorm"} if kind != "quantized" else set()))

    @pytest.mark.parametrize("kind", ["float", "faulted", "quantized"])
    def test_run_channels_equals_those_channels_of_the_chain_end(self, graphs, kind):
        from seu_forge.engine import channel_chain, run_channels
        graphs, batch = graphs
        graph = graphs[kind]
        frontiers = list(islice(_walk(graph, batch), len(graph.layers)))
        for idx, layer in enumerate(graph.layers):
            if not graph.layer_params(layer.name):
                continue
            chain = channel_chain(graph, idx)
            after = frontiers[idx + len(chain)] if idx + len(chain) < len(frontiers) else None
            if after is None or chain[-1].name not in after.live:
                continue
            end = after.live[chain[-1].name]
            end = end.data if isinstance(end, Tensor) else end
            channels = np.array([0, 2])
            part = run_channels(graph, chain, frontiers[idx].live[layer.inputs[0]], channels)
            part = part.data if isinstance(part, Tensor) else part
            assert part.tobytes() == end[..., channels].tobytes(), layer.name

    def test_poisoned(self):
        from seu_forge.engine import poisoned
        x = np.ones((2, 3, 3, 4), dtype=np.float32)
        assert not poisoned(x)
        x[..., 1] = np.nan
        assert poisoned(x)
        x[1, 2, 0, 1] = 0.0   # NaN almost everywhere is not enough
        assert not poisoned(x)
        x[..., 3] = np.nan
        assert poisoned(x)
        assert not poisoned(np.zeros((1, 2, 2, 3), dtype=np.int8))

    def test_reaching_output_leaves_out_the_dead_branch(self, graphs):
        from seu_forge.engine import reaching_output
        graph = graphs[0]["float"]
        reach = reaching_output(graph)
        assert reach == {"input"} | {l.name for l in graph.layers} - {"conv_d", "relu_d",
                                                                          "conv_e"}


class TestInputEdge:
    """Both numeric modes refuse the same batches and layer kinds, before any layer runs."""

    @pytest.fixture(scope="class")
    def models(self):
        graph = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 4), 5)
        calibration, _ = sf.generate_calibration_set((16, 16, 4), count=2, seed=1)
        return {run_float: graph, run_quantized: sf.quantize_ptq(graph, calibration)}

    @pytest.mark.parametrize("channels", [8, 2, 3, 5])
    @pytest.mark.parametrize("run", [run_float, run_quantized])
    def test_wrong_channel_count_refused(self, models, run, channels):
        # a quantized graph once read an 8-channel batch as if it had 4 channels
        # and returned class maps; a 2-channel one failed inside numpy
        batch = Tensor.from_array(np.random.default_rng(channels).random(
            (2, 16, 16, channels), dtype=np.float32))
        with pytest.raises(sf.ShapeError, match="input channels 4"):
            run(models[run], batch)

    @pytest.mark.parametrize("run", [run_float, run_quantized])
    def test_non_f32_batch_refused(self, models, run):
        with pytest.raises(TypeError, match="f32"):
            run(models[run], Tensor.from_array(np.zeros((1, 16, 16, 4)), "i8"))

    @pytest.mark.parametrize("run, kind", [(run_float, "gelu"), (run_quantized, "gelu"),
                                           (run_quantized, "batchnorm")])
    def test_kind_without_op_refused_before_any_op(self, models, monkeypatch, run, kind):
        graph = models[run].copy()
        # the last layer, so that a refusal made on reaching it would come too late
        last = graph.layers[-1]
        graph.layers[-1] = sf.LayerSpec(kind, last.name, last.hyperparams, last.inputs)
        name = "quantized" if run is run_quantized else "float"
        calls = self.spy_ops(monkeypatch, run)
        batch = Tensor.from_array(np.zeros((1, 16, 16, 4), np.float32))
        with pytest.raises(ValueError, match=f"layer kind '{kind}' not supported in {name} mode"):
            run(graph, batch)
        with pytest.raises(ValueError, match="not supported"):
            next(islice(_walk(graph, batch), len(graph.layers)))
        assert calls == []

    @staticmethod
    def spy_ops(monkeypatch, run):
        """The kinds of the ops that ``run``'s numeric mode runs from now on, in order."""
        mode = engine._QUANTIZED if run is run_quantized else engine._FLOAT
        calls = []
        for op_kind, op in mode.ops.items():
            monkeypatch.setitem(mode.ops, op_kind, lambda *args, op_kind=op_kind, op=op:
                                calls.append(op_kind) or op(*args))
        return calls

    # Graphs built in memory, which no load checks: each one's parameters or
    # tables do not fit its numeric mode, and each is refused at the input edge.
    UNFIT = {
        "output_zero_point": (run_quantized, "zero_point 300",
                              lambda g: g.metadata["quantization"]["activations"][
                                  g.output_layer.name].__setitem__("zero_point", 300)),
        "no_activations": (run_quantized, "no quantization tables with 'activations'",
                           lambda g: g.metadata["quantization"].__delitem__("activations")),
        "no_params": (run_quantized, "no quantization tables with 'activations' and 'params'",
                      lambda g: g.metadata["quantization"].__delitem__("params")),
        "i32_conv_bias": (run_float, r"float graph holds p2 as i32",
                          lambda g: TestInputEdge.recode(g.param(2), "i32")),
        "i8_bn_gamma": (run_float, r"float graph holds p3 as i8",
                        lambda g: TestInputEdge.recode(g.param(3), "i8")),
    }

    @staticmethod
    def recode(p, encoding):
        assert (p.role, p.tensor.encoding) in {("conv_bias", "f32"), ("bn_gamma", "f32")}
        p.tensor = Tensor.from_array(np.round(p.tensor.data), encoding)

    def unfit(self, models, case):
        run, message, edit = self.UNFIT[case]
        graph = models[run].copy()
        edit(graph)
        return run, message, graph

    @pytest.mark.parametrize("case", list(UNFIT))
    def test_unfit_graph_refused_before_any_op(self, models, monkeypatch, case):
        run, message, graph = self.unfit(models, case)
        calls = self.spy_ops(monkeypatch, run)
        batch = Tensor.from_array(np.zeros((1, 16, 16, 4), np.float32))
        with pytest.raises(ValueError, match=message):
            run(graph, batch)
        assert calls == []
        # a frontier of the graph's faultless pass is refused the same way
        frontier = next(_walk(models[run], batch))
        with pytest.raises(ValueError, match=message):
            run(graph, frontier)
        assert calls == []

    @pytest.mark.parametrize("case", list(UNFIT))
    def test_unfit_graph_refused_before_any_chain_exit(self, models, monkeypatch, case):
        import seu_forge.campaign as campaign
        run, message, graph = self.unfit(models, case)
        exits, real = [], campaign._chain_exit
        monkeypatch.setattr(campaign, "_chain_exit",
                            lambda g, chain, *rest: exits.append(chain[-1].name)
                            or real(g, chain, *rest))
        # faults in the first layer's kernel, whose exits come before any later layer runs
        kernel = graph.param(1)
        sets = [[sf.FaultSpec(1, element, 1, kernel.tensor.encoding)] for element in (0, 5)]
        batch = Tensor.from_array(np.zeros((1, 16, 16, 4), np.float32))
        with pytest.raises(ValueError, match=message):
            campaign.run_fault_sets([graph], sets, batch, campaign._errors)
        assert exits == []

    def test_tables_lacking_a_section_are_a_value_error(self, models):
        from seu_forge.model import check_numeric_mode
        for case in ("no_activations", "no_params"):
            _, message, graph = self.unfit(models, case)
            with pytest.raises(ValueError, match=message):
                check_numeric_mode(graph)


class TestKernelLargerThanPaddedInput:
    """Both numeric modes refuse a kernel larger than its padded input alike."""

    @pytest.mark.parametrize("images", [1, 2, 3])
    @pytest.mark.parametrize("run", [run_float, run_quantized])
    def test_valid_conv_on_small_images_refused(self, run, images):
        # a quantized 3x3 "valid" conv on 2x2 images once failed inside numpy
        # (one image) or on a (n, 0, 0, 3) output shape (two or three)
        rng = np.random.default_rng(images)
        graph = single_conv_graph(rng.normal(size=(3, 3, 2, 3)), [0.1, -0.2, 0.3],
                                  padding="valid")
        if run is run_quantized:
            calibration, _ = sf.generate_calibration_set((8, 8, 2), count=2, seed=1)
            graph = sf.quantize_ptq(graph, calibration)
        batch = Tensor.from_array(rng.normal(size=(images, 2, 2, 2)))
        with pytest.raises(sf.ShapeError, match=rf"kernel \(3, 3, 2, 3\) larger than padded "
                                                rf"input \({images}, 2, 2, 2\)"):
            run(graph, batch)


class TestZeroPointChannels:
    """An input channel at the zero point in every cell adds exactly 0 to every
    int32 sum, so the integer core drops it from its grid and kernel and forms
    its exact groups of at most 514 rows over the kept channels. Every sum
    keeps the scalar MAC loops' bits, and with no channel kept it is the bias."""

    @staticmethod
    def kept_counts(mp):
        """The channels ``_channel_major`` writes, for each grid the core builds."""
        counts, real = [], tensor._channel_major

        def channel_major(*args):
            counts.append(len(args[1]))
            return real(*args)

        mp.setattr(tensor, "_channel_major", channel_major)
        return counts

    @staticmethod
    def mac_transpose(q_x, z_x, q_w, q_b):
        """Each cell of the int32 transposed conv, one quantized_mac over Cin."""
        stride, _, _, cout = q_w.shape
        n, h, w, _ = q_x.shape
        return np.array([[[[quantized_mac(q_w[i % stride, j % stride, :, co],
                                          q_x[b, i // stride, j // stride], q_b[co], z_x)
                            for co in range(cout)]
                           for j in range(w * stride)] for i in range(h * stride)]
                         for b in range(n)], np.int32).reshape(n, h * stride, w * stride, cout)

    @given(seed=st.integers(0, 2**32 - 1), transpose=st.booleans(), n=st.integers(1, 2),
           h=st.integers(2, 4), w=st.integers(2, 4), stride=st.integers(1, 2),
           padding=st.sampled_from(["same", "valid"]), size=st.integers(1, 3),
           cin=st.integers(1, 530), cout=st.integers(1, 2), z_x=st.integers(-128, 127),
           held=st.sampled_from([0.0, 0.03, 0.5, 0.97, 1.0]), below=st.booleans(),
           x_fill=st.sampled_from([None, -128, 127]),
           w_fill=st.sampled_from([None, -128, 127]), budget=st.integers(1, 300))
    # 16 of 530 channels held: the 514 kept make one exact group a tap, and at
    # |x - Z| = 255 against -128 weights a 3x3 window sums beyond 2**24
    @example(seed=5, transpose=False, n=1, h=3, w=3, stride=1, padding="same", size=3,
             cin=530, cout=2, z_x=-128, held=0.03, below=False, x_fill=127, w_fill=-128,
             budget=300)
    @example(seed=6, transpose=True, n=2, h=2, w=3, stride=2, padding="valid", size=2,
             cin=530, cout=2, z_x=-128, held=0.03, below=False, x_fill=127, w_fill=-128,
             budget=40)
    # every channel held: bias-only sums
    @example(seed=7, transpose=False, n=2, h=3, w=4, stride=2, padding="same", size=3,
             cin=9, cout=2, z_x=5, held=1.0, below=False, x_fill=None, w_fill=None, budget=7)
    @example(seed=8, transpose=True, n=1, h=2, w=2, stride=2, padding="valid", size=2,
             cin=20, cout=2, z_x=-7, held=1.0, below=False, x_fill=None, w_fill=None,
             budget=300)
    @settings(max_examples=40, deadline=None)
    def test_matches_mac_loops(self, seed, transpose, n, h, w, stride, padding, size, cin,
                               cout, z_x, held, below, x_fill, w_fill, budget):
        rng = np.random.Generator(np.random.PCG64(seed))

        def operand(shape, fill):
            # random int8 values, or ``fill`` with a tenth of them random
            values = rng.integers(-128, 128, size=shape)
            if fill is not None:
                values[rng.random(shape) >= 0.1] = fill
            return values.astype(np.int8)

        size = stride if transpose else min(size, h, w)
        q_x = operand((n, h, w, cin), x_fill)
        if below:  # every other channel at or below the zero point, yet live
            q_x[..., ::2] = np.minimum(q_x[..., ::2], np.int8(z_x))
        q_x[..., rng.permutation(cin)[:round(held * cin)]] = z_x
        q_w = operand((size, size, cin, cout), w_fill)
        q_b = rng.integers(-2**31, 2**31, size=cout).astype(np.int32)
        x_shift = q_x.astype(np.int32) - np.int32(z_x)
        s_w, s_x, s_y, z_y = 0.0123, 0.0456, 20.0 * cin, 3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_BLOCK_CELLS", budget)
            counts = self.kept_counts(mp)
            if transpose:
                g = TestQuantizedConvTranspose.graph(q_w, q_b, s_w, s_x, z_x, s_y, z_y)
                acc = _conv_transpose_int(x_shift, q_w, q_b, stride)
                mac = self.mac_transpose(q_x, z_x, q_w, q_b)
                ref = quantized_convtr_scalar(q_x, z_x, q_w, q_b, (s_w * s_x) / s_y, z_y,
                                              stride=stride)
            else:
                g = quantized_conv_graph(q_w, q_b, stride, padding, s_w, s_x, z_x, s_y, z_y)
                acc = _int32_conv(x_shift, q_w, q_b, stride, padding)
                mac = conv_int_mac_loop(q_x, z_x, q_w, q_b, stride, padding)
                ref = np.clip(np.rint(mac * ((s_w * s_x) / s_y) + z_y), -128, 127)
            ours = _quantized_conv(g, g.layers[0], [q_x])
        assert acc.dtype == np.int32 and np.array_equal(acc, mac)
        assert ours.dtype == np.int8 and np.array_equal(ours, ref.astype(np.int8))
        live = int((q_x != z_x).any(axis=(0, 1, 2)).sum())
        assert counts == [live, live]
        if live == 0:
            assert np.array_equal(mac, np.broadcast_to(q_b, mac.shape))
