from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import seu_forge as sf
from seu_forge.engine import (_conv_int, golden_frontiers, quantized_mac, run_float,
                             run_quantized)
from seu_forge.tensor import BnParams, Tensor

from conftest import single_conv_graph
from oracles import eq5_scalar


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


def test_capture_trace(tiny_graph, tiny_batch):
    res = run_float(tiny_graph, tiny_batch, capture=True)
    assert "input" in res.trace
    for layer in tiny_graph.layers:
        st = res.trace[layer.name]
        assert st.min is not None and st.min <= st.max
        assert st.nan_count == 0 and st.inf_count == 0
        binned = sum(st.histogram["pos"]) + sum(st.histogram["neg"]) + st.histogram["zeros"]
        assert binned > 0


def test_trace_counts_nan_inf(tiny_graph, tiny_batch):
    g = tiny_graph.copy()
    g.layer_params("bn")["bn_gamma"].tensor.data[0] = np.nan
    res = run_float(g, tiny_batch, capture=True)
    assert res.trace["bn"].nan_count > 0
    assert res.trace[g.output_layer.name].nan_count > 0
    assert (res.class_map == sf.INVALID_CLASS).any()


def test_collect_and_capture_survive_freed_activations(tiny_graph, tiny_batch):
    names = ["input"] + [layer.name for layer in tiny_graph.layers]
    full = run_float(tiny_graph, tiny_batch, capture=True, collect=names)
    assert sorted(full.collected) == sorted(names)
    assert sorted(full.trace) == sorted(names)
    assert full.collected["input"] is tiny_batch
    first = tiny_graph.layers[0]
    ps = tiny_graph.layer_params(first.name)
    direct = sf.conv2d_forward(tiny_batch, ps["conv_kernel"].tensor,
                               ps["conv_bias"].tensor.data)
    # each layer requested on its own, the rest freed along the way
    for name in (first.name, names[len(names) // 2], names[-2]):
        res = run_float(tiny_graph, tiny_batch, capture=True, collect=(name,))
        assert list(res.collected) == [name]
        got = res.collected[name].data
        assert np.array_equal(got.view(np.uint32), full.collected[name].data.view(np.uint32))
        assert sorted(res.trace) == sorted(names)
        assert all(res.trace[n].to_dict() == full.trace[n].to_dict() for n in names)
    got = run_float(tiny_graph, tiny_batch, collect=(first.name,)).collected[first.name].data
    assert np.array_equal(got.view(np.uint32), direct.data.view(np.uint32))


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
        ours = _conv_int(x_shift, q_w, q_b, stride, padding)
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
        ours = _conv_int(x_shift, q_w, q_b, 1, "same")
        ref = conv_int_mac_loop(q_x, z_x, q_w, q_b, 1, "same")
        assert np.array_equal(ours, ref)
        sums = np.array([eq5_scalar(q_w[..., co].ravel(), q_x[0, :3, :3].ravel(), 0, z_x)
                         for co in range(2)])
        assert (np.abs(sums) > 2**24).all() and (sums % 2 == 1).all()
        # -2**31 + 5 plus a negative sum wraps round to a positive int32
        assert (ours[..., 0] > 0).all() and (ours[..., 1] < 0).all()


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
        frontiers = list(golden_frontiers(graph, batch))
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
        frontiers = list(golden_frontiers(graph, batch))
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
        starts = [f.start for f in golden_frontiers(graphs[False], batch, stop=3)]
        assert starts == [0, 1, 2, 3]
        first = next(golden_frontiers(graphs[True], batch))
        assert list(first.live) == ["input"] and first.live["input"].dtype == np.int8

    def test_collect_from_a_frontier(self, model_b):
        graphs, batch = model_b
        graph = graphs[False]
        *_, frontier = golden_frontiers(graph, batch, stop=5)
        late = graph.layers[5].name
        resumed = run_float(graph, frontier, collect=(late,)).collected[late].data
        full = run_float(graph, batch, collect=(late,)).collected[late].data
        assert np.array_equal(resumed.view(np.uint32), full.view(np.uint32))
