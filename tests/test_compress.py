import copy
import json

import numpy as np
import pytest

import seu_forge as sf
from seu_forge.compress import fold_bn, prune_structured, quantize_ptq, sparse_zero
from seu_forge.model import infer_shapes


class TestFoldBn:
    def test_identity_params_leave_conv_unchanged(self):
        g = sf.build_unet(2, 4, 3, 3)
        g = sf.generate_toy_weights(g, 1)
        eps = np.float32(g.bn_epsilon)
        for p in g.params_of(roles=("bn_gamma",)):
            p.tensor.data[...] = 1.0
        for p in g.params_of(roles=("bn_beta", "bn_mu")):
            p.tensor.data[...] = 0.0
        for p in g.params_of(roles=("bn_sigma",)):
            p.tensor.data[...] = np.float32(1.0) - eps
        w_before = g.param(1).tensor.data.copy()
        b_before = g.param(2).tensor.data.copy()
        folded = fold_bn(g)
        assert np.allclose(folded.param(1).tensor.data, w_before, rtol=1e-6)
        assert np.allclose(folded.param(2).tensor.data, b_before, atol=1e-6)

    def test_hand_folded_values(self):
        # w=2, b=1, gamma=0.5, sigma=4, mu=1, beta=0.2 -> w_hat=0.5, b_hat=0.2
        g = sf.build_unet(2, 4, 3, 3)
        g.metadata["bn_epsilon"] = 1e-12
        ps = g.layer_params("conv2D")
        ps["conv_kernel"].tensor.data[...] = 2.0
        ps["conv_bias"].tensor.data[...] = 1.0
        bn = g.layer_params("bn")
        bn["bn_gamma"].tensor.data[...] = 0.5
        bn["bn_sigma"].tensor.data[...] = 4.0
        bn["bn_mu"].tensor.data[...] = 1.0
        bn["bn_beta"].tensor.data[...] = 0.2
        folded = fold_bn(g)
        assert folded.param(1).tensor.data.flat[0] == pytest.approx(0.5, rel=1e-6)
        assert folded.param(2).tensor.data.flat[0] == pytest.approx(0.2, abs=1e-6)

    def test_removes_bn_and_rewires(self, tiny_graph):
        folded = fold_bn(tiny_graph)
        assert not any(l.kind == "batchnorm" for l in folded.layers)
        assert folded.flags["folded"]
        assert not folded.params_of(roles=("bn_gamma",))
        assert [p.index for p in folded.params] == list(range(1, len(folded.params) + 1))

    def test_double_fold_rejected(self, tiny_graph):
        folded = fold_bn(tiny_graph)
        with pytest.raises(ValueError, match="already folded"):
            fold_bn(folded)

    def test_bn_without_conv_producer_rejected(self):
        t = lambda a, enc="f32": sf.Tensor.from_array(np.asarray(a, np.float32))
        layers = [
            sf.LayerSpec("conv2d", "c", {"kernel_size": 1, "stride": 1,
                                         "padding": "same", "filters": 2}, ["input"]),
            sf.LayerSpec("relu", "r", {}, ["c"]),
            sf.LayerSpec("batchnorm", "b", {}, ["r"]),
        ]
        params = [
            sf.ParamSet(1, "c", "conv_kernel", t(np.ones((1, 1, 1, 2)))),
            sf.ParamSet(2, "c", "conv_bias", t(np.zeros(2))),
            sf.ParamSet(3, "b", "bn_gamma", t(np.ones(2))),
            sf.ParamSet(4, "b", "bn_beta", t(np.zeros(2))),
            sf.ParamSet(5, "b", "bn_mu", t(np.zeros(2))),
            sf.ParamSet(6, "b", "bn_sigma", t(np.ones(2))),
        ]
        g = sf.ModelGraph(layers, params, 2, {"input_channels": 1})
        with pytest.raises(ValueError, match="does not follow a convolution"):
            fold_bn(g)

    def test_equivalence_on_calibration_set(self, tiny_graph, tiny_batch):
        golden = sf.run_float(tiny_graph, tiny_batch)
        folded = fold_bn(tiny_graph)
        res = sf.run_float(folded, tiny_batch)
        assert np.abs(res.logits.data - golden.logits.data).max() <= 1e-4
        assert np.array_equal(res.class_map, golden.class_map)


class TestQuantize:
    def test_weight_scale_example(self):
        from conftest import single_conv_graph
        g = single_conv_graph(np.array([-1.0, 0.5, 1.0]).reshape(1, 1, 1, 3),
                              [0.0, 0.0, 0.0], input_channels=1)
        g.metadata["flags"] = {"pruned": False, "folded": True, "quantized": False}
        inputs = [sf.Tensor.from_array(np.full((1, 2, 2, 1), v, np.float32))
                  for v in (0.0, 1.0)]
        q = quantize_ptq(g, inputs)
        table = q.metadata["quantization"]["params"]["1"]
        assert table["scale"] == pytest.approx(1 / 127)
        assert q.param(1).tensor.data.reshape(-1).tolist() == [-127, 64, 127]

    def test_zero_maps_to_zero(self):
        from conftest import single_conv_graph
        g = single_conv_graph(np.zeros((1, 1, 1, 2)), [0.0, 0.0], input_channels=1)
        g.metadata["flags"] = {"pruned": False, "folded": True, "quantized": False}
        inputs = [sf.Tensor.from_array(np.ones((1, 2, 2, 1), np.float32))]
        q = quantize_ptq(g, inputs)
        assert q.metadata["quantization"]["params"]["1"]["degenerate"]
        assert (q.param(1).tensor.data == 0).all()

    def test_activation_range_skips_nonfinite_values(self):
        from conftest import single_conv_graph
        from seu_forge.compress import _affine_entry
        g = single_conv_graph(np.array([1.0, -1.0]).reshape(1, 1, 1, 2), [0.5, 0.0],
                              input_channels=1)
        g.metadata["flags"] = {"pruned": False, "folded": True, "quantized": False}
        inputs = [sf.Tensor.from_array(np.array(v, np.float32).reshape(1, 2, 2, 1))
                  for v in ([np.inf, 2.0, -3.0, np.nan], [-np.inf, 1.0, 0.0, 4.0])]
        activations = quantize_ptq(g, inputs).metadata["quantization"]["activations"]
        # the input and the conv output both hold +Inf, -Inf and NaN; the
        # entries span their finite values only: [-3, 4] and [-4, 4.5]
        assert activations["input"] == _affine_entry(-3.0, 4.0)
        assert activations["conv"] == _affine_entry(-4.0, 4.5)

    def test_folds_internally_and_flags(self, tiny_graph, tiny_inputs):
        q = quantize_ptq(tiny_graph, tiny_inputs[0])
        assert q.flags["quantized"] and q.flags["folded"]
        assert not any(l.kind == "batchnorm" for l in q.layers)
        kinds = {p.tensor.encoding for p in q.params if "kernel" in p.role}
        assert kinds == {"i8"}
        assert {p.tensor.encoding for p in q.params if "bias" in p.role} == {"i32"}

    def test_bias_scale_invariant(self, tiny_graph, tiny_inputs):
        q = quantize_ptq(tiny_graph, tiny_inputs[0])
        tables = q.metadata["quantization"]
        for layer in q.layers:
            ps = q.layer_params(layer.name)
            if not ps:
                continue
            krole = "convtr_kernel" if layer.kind == "conv2d_transpose" else "conv_kernel"
            brole = "convtr_bias" if layer.kind == "conv2d_transpose" else "conv_bias"
            s_w = tables["params"][str(ps[krole].index)]["scale"]
            s_x = tables["activations"][layer.inputs[0]]["scale"]
            s_b = tables["params"][str(ps[brole].index)]["scale"]
            assert s_b == pytest.approx(s_w * s_x, rel=1e-12)
            assert tables["params"][str(ps[krole].index)]["zero_point"] == 0
            assert tables["params"][str(ps[brole].index)]["bits"] == 32

    def test_determinism(self, tiny_graph, tiny_inputs):
        q1 = quantize_ptq(tiny_graph, tiny_inputs[0])
        q2 = quantize_ptq(tiny_graph, tiny_inputs[0])
        assert q1.metadata["quantization"] == q2.metadata["quantization"]
        assert sf.model_hash(q1) == sf.model_hash(q2)

    def test_empty_calibration_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="calibration"):
            quantize_ptq(tiny_graph, [])

    def test_double_quantize_rejected(self, tiny_graph, tiny_inputs):
        q = quantize_ptq(tiny_graph, tiny_inputs[0])
        with pytest.raises(ValueError, match="already quantized"):
            quantize_ptq(q, tiny_inputs[0])


class TestPrune:
    def test_keep_all_is_identity(self, tiny_graph):
        pruned = prune_structured(tiny_graph, keep_fraction=1.0)
        assert sf.model_hash(pruned) == sf.model_hash(tiny_graph)
        assert pruned.flags["pruned"]

    def test_hand_two_filter_case(self):
        g = sf.build_unet(2, 4, 3, 3)
        g = sf.generate_toy_weights(g, 3)
        # make conv2D's first two filters tiny so they are pruned away
        k = g.layer_params("conv2D")["conv_kernel"].tensor.data
        k[..., 0] = 1e-6
        k[..., 1] = 1e-6
        pruned = prune_structured(g, keep_fraction=0.5)
        assert pruned.layer("conv2D").hyperparams["filters"] == 2
        kept = pruned.layer_params("conv2D")["conv_kernel"].tensor.data
        assert np.array_equal(kept, k[..., 2:4])
        # downstream conv loses the matching input channels (its own filters
        # are pruned too, by original L1 rank)
        down = pruned.layer_params("conv2D_1")["conv_kernel"].tensor
        assert down.shape[2] == 2
        orig = g.layer_params("conv2D_1")["conv_kernel"].tensor.data
        norms = np.abs(orig).sum(axis=(0, 1, 2))
        own_kept = np.sort(np.argsort(norms, kind="stable")[::-1][:2])
        assert np.array_equal(down.data, orig[:, :, 2:4, :][:, :, :, own_kept])
        # BN vectors sliced the same way
        gam = pruned.layer_params("bn")["bn_gamma"].tensor.data
        assert np.array_equal(gam, g.layer_params("bn")["bn_gamma"].tensor.data[2:4])

    def test_never_below_two_filters(self, tiny_graph):
        pruned = prune_structured(tiny_graph, keep_fraction=0.01)
        for layer in pruned.layers:
            if layer.kind in ("conv2d", "conv2d_transpose"):
                assert layer.hyperparams["filters"] >= 2

    def test_output_conv_untouched(self, tiny_graph):
        pruned = prune_structured(tiny_graph, keep_fraction=0.5)
        out = pruned.output_layer
        assert pruned.layer_params(out.name)["conv_bias"].tensor.size == \
            tiny_graph.class_count

    def test_ninety_percent_removal_stays_valid(self):
        g = sf.generate_toy_weights(sf.build_unet(3, 8, 4, 4), 5)
        pruned = prune_structured(g, keep_fraction=0.1)
        shapes = infer_shapes(pruned, 32, 32)
        assert shapes[pruned.output_layer.name] == (1, 32, 32, 4)
        before = sum(p.tensor.size for p in g.params)
        after = sum(p.tensor.size for p in pruned.params)
        assert after < before * 0.2

    def test_forward_matches_when_pruned_filters_are_dead(self, tiny_batch):
        # zero out two filters entirely: removing them cannot change outputs
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 3)
        name = "conv2D_2"
        ps = g.layer_params(name)
        k = ps["conv_kernel"].tensor.data
        k[..., :2] = 0.0
        ps["conv_bias"].tensor.data[:2] = -5.0  # ReLU-dead after BN? make harmless:
        bn = g.layer_params("bn_2")
        bn["bn_gamma"].tensor.data[:2] = 0.0
        bn["bn_beta"].tensor.data[:2] = 0.0
        golden = sf.run_float(g, tiny_batch)
        pruned = prune_structured(g, keep_fraction=0.5)
        res = sf.run_float(pruned, tiny_batch)
        assert np.array_equal(res.class_map, golden.class_map)

    def test_validation(self, tiny_graph, tiny_inputs):
        with pytest.raises(ValueError):
            prune_structured(tiny_graph, keep_fraction=0.0)
        with pytest.raises(ValueError):
            prune_structured(tiny_graph)
        with pytest.raises(ValueError):
            prune_structured(tiny_graph, keep_fraction=0.5, threshold=1.0)
        folded = fold_bn(tiny_graph)
        with pytest.raises(ValueError, match="unfolded"):
            prune_structured(folded, keep_fraction=0.5)


class TestSparseZero:
    def test_no_match_is_identity(self, tiny_graph):
        out, count = sparse_zero(tiny_graph, lambda v: np.zeros_like(v, bool))
        assert count == 0
        assert sf.model_hash(out) == sf.model_hash(tiny_graph)

    def test_zeroes_nan_candidates(self, tiny_graph):
        g = tiny_graph.copy()
        g.param(1).tensor.flat[0] = np.float32(1.5)
        out, count = sparse_zero(g, lambda v: (np.abs(v) >= 1.0) & (np.abs(v) < 2.0))
        assert count >= 1
        for p in out.params_of(roles=("conv_kernel", "conv_bias",
                                      "convtr_kernel", "convtr_bias")):
            words = p.tensor.flat.view(np.uint32)
            exp = (words >> np.uint32(23)) & np.uint32(0xFF)
            assert not np.any(exp == 0x7F)  # no bit-30 NaN candidates left

    def test_dead_path_zeroing_preserves_maps(self, tiny_graph, tiny_batch):
        golden = sf.run_float(tiny_graph, tiny_batch)
        g = tiny_graph.copy()
        # a kernel weight of the first conv whose output channel is killed by
        # BN gamma=beta=0 contributes nothing; zeroing it changes no maps
        g.layer_params("bn")["bn_gamma"].tensor.data[0] = 0.0
        g.layer_params("bn")["bn_beta"].tensor.data[0] = 0.0
        base = sf.run_float(g, tiny_batch)
        target = g.layer_params("conv2D")["conv_kernel"].tensor.data[0, 0, 0, 0]
        out, count = sparse_zero(g, lambda v: v == target)
        assert count >= 1
        res = sf.run_float(out, tiny_batch)
        assert np.array_equal(res.class_map, base.class_map)

    def test_positive_zero_written(self, tiny_graph):
        g = tiny_graph.copy()
        g.param(1).tensor.flat[0] = np.float32(-1.5)
        out, _ = sparse_zero(g, lambda v: np.abs(v) == 1.5)
        word = int(out.param(1).tensor.flat.view(np.uint32)[0])
        assert word == 0  # +0.0, sign bit cleared

    def test_quantized_rejected(self, tiny_graph, tiny_inputs):
        q = quantize_ptq(tiny_graph, tiny_inputs[0])
        with pytest.raises(ValueError, match="float"):
            sparse_zero(q, lambda v: np.zeros_like(v, bool))


# ---------------------------------------------------------------------------
# the transforms' contract: each edits its own copy of its input

# name -> transform(graph, calibration images); the last two take a folded graph
TRANSFORMS = {
    "fold_bn": lambda g, images: fold_bn(g),
    "quantize_ptq": quantize_ptq,
    "prune_structured": lambda g, images: prune_structured(g, keep_fraction=0.5),
    "sparse_zero": lambda g, images: sparse_zero(g, lambda v: v < 0)[0],
    "protect_parameters": lambda g, images: sf.protect_parameters(g, sf.PT_LEVELS[2])[0],
    "recondition_bn": lambda g, images: sf.recondition_bn(g)[0],
    "generate_toy_weights": lambda g, images: sf.generate_toy_weights(g, 9),
    "cross_layer_equalize": lambda g, images: sf.cross_layer_equalize(
        g, np.array([2.0, 0.5, 4.0, 1.0], np.float32), "conv2D", "conv2D_1"),
    "absorb_bias": lambda g, images: sf.absorb_bias(
        g, np.zeros(4, np.float32), [l.name for l in g.layers if l.kind == "conv2d"][-1],
        g.output_layer.name, images),
}
ON_FOLDED = ("cross_layer_equalize", "absorb_bias")


def _toy_graph():
    return sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)


def _swapped_first_conv():
    """The toy graph with its first conv's bias as p1 and its kernel as p2."""
    g = _toy_graph()
    kernel, bias = g.params[:2]
    kernel.index, bias.index = 2, 1
    return sf.ModelGraph(g.layers, [bias, kernel, *g.params[2:]], g.class_count, g.metadata)


@pytest.mark.parametrize("name", TRANSFORMS)
def test_transform_leaves_its_input_unchanged(name, tiny_inputs):
    g = fold_bn(_toy_graph()) if name in ON_FOLDED else _toy_graph()
    before = (sf.model_hash(g), json.dumps(g.metadata, sort_keys=True), copy.deepcopy(g.layers))
    out = TRANSFORMS[name](g, tiny_inputs[0])
    assert (sf.model_hash(g), json.dumps(g.metadata, sort_keys=True), g.layers) == before
    # nor can a later edit of the result reach the input
    assert not any(np.shares_memory(p.tensor.data, q.tensor.data)
                   for p in g.params for q in out.params)


@pytest.mark.parametrize("name", ["fold_bn", "quantize_ptq", "prune_structured"])
def test_transform_keeps_a_hand_built_set_order(name, tiny_inputs, tiny_batch):
    """Each set keeps its place: the first conv's bias stays p1 and its
    kernel p2, every other set keeps the index it has in the layer/role
    ordered graph, and both results hold and compute the same values."""
    out = TRANSFORMS[name](_swapped_first_conv(), tiny_inputs[0])
    ref = TRANSFORMS[name](_toy_graph(), tiny_inputs[0])
    assert [(p.index, p.layer, p.role) for p in out.params[:2]] == [
        (1, "conv2D", "conv_bias"), (2, "conv2D", "conv_kernel")]
    assert [(p.index, p.role) for p in out.params[2:]] == [(p.index, p.role) for p in ref.params[2:]]
    for p in out.params:
        assert np.array_equal(p.tensor.data, ref.layer_params(p.layer)[p.role].tensor.data)
    run = sf.run_quantized if out.flags["quantized"] else sf.run_float
    assert np.array_equal(run(out, tiny_batch).logits.data, run(ref, tiny_batch).logits.data)
    if name == "quantize_ptq":
        # the scale table entries follow the sets they scale
        table, ref_table = (g.metadata["quantization"]["params"] for g in (out, ref))
        assert (table["1"]["bits"], table["2"]["bits"]) == (32, 8)
        assert (table["1"], table["2"]) == (ref_table["2"], ref_table["1"])
        assert {k: v for k, v in table.items() if k not in ("1", "2")} == \
            {k: v for k, v in ref_table.items() if k not in ("1", "2")}
