import json
import re

import numpy as np
import pytest

import seu_forge as sf
from seu_forge.model import FormatError, infer_shapes

from conftest import single_conv_graph


def test_unet_full_scale_parameter_count():
    # 5 levels, 32 base filters, 6 classes, 25 channels: the full-scale
    # configuration totals 31.13M parameters (31.1M-class model)
    g = sf.build_unet(5, 32, 6, 25)
    count = sum(p.data.size for p in g.params)
    assert count == 31_125_062
    # p-index bookkeeping at full scale: 23 convs, 22 BNs, 5 transposed convs
    assert len(g.params) == 2 * 23 + 4 * 22 + 2 * 5


def test_unet_structure_and_pindex_convention():
    g = sf.build_unet(2, 4, 3, 3)
    # p1 = first conv kernel, p2 = its bias, then gamma/beta/mu/sigma
    roles = [g.param(i).role for i in range(1, 9)]
    assert roles == ["conv_kernel", "conv_bias", "bn_gamma", "bn_beta",
                     "bn_mu", "bn_sigma", "conv_kernel", "conv_bias"]
    assert [p.index for p in g.params] == list(range(1, len(g.params) + 1))
    # one maxpool per encoder level, one transposed conv per decoder level
    assert sum(1 for l in g.layers if l.kind == "maxpool") == 2
    assert sum(1 for l in g.layers if l.kind == "conv2d_transpose") == 2
    assert g.output_layer.kind == "output_conv"
    assert g.layer_params(g.output_layer.name)["conv_bias"].data.size == 3


def test_pset_count_formula():
    g = sf.build_unet(3, 8, 4, 4)
    convs = sum(1 for l in g.layers if l.kind in ("conv2d", "output_conv"))
    bns = sum(1 for l in g.layers if l.kind == "batchnorm")
    trs = sum(1 for l in g.layers if l.kind == "conv2d_transpose")
    assert len(g.params) == 2 * convs + 4 * bns + 2 * trs


def test_shape_propagation_all_divisible_sizes():
    g = sf.build_unet(2, 4, 3, 3)
    for side in (4, 8, 16, 32):
        shapes = infer_shapes(g, side, side)
        assert shapes[g.output_layer.name] == (1, side, side, 3)
    with pytest.raises(sf.ShapeError):
        infer_shapes(g, 6, 6)  # not divisible by 2^levels


def test_shape_inference_refuses_a_valid_kernel_larger_than_its_input():
    """Shape inference refuses a "valid" 3x3 conv on 2x2 images, as the
    executor does, instead of giving it a zero extent."""
    g = sf.build_unet(2, 4, 3, 3)
    g.layer("conv2D").hyperparams["padding"] = "valid"
    with pytest.raises(sf.ShapeError, match="conv2D: kernel"):
        infer_shapes(g, 2, 2, 2)
    with pytest.raises(sf.ShapeError, match="kernel"):
        sf.run_float(g, np.zeros((2, 2, 2, 3), np.float32))


def test_a_valid_conv_model_saves_and_loads(tmp_path):
    """A model of "valid" 3x3 convs loads and runs as saved: loading checks
    the container at a side no kernel outgrows."""
    kernel = np.arange(3 * 3 * 2 * 2, dtype=np.float32).reshape(3, 3, 2, 2) / 36
    g = single_conv_graph(kernel, [0.5, -0.25], padding="valid")
    sf.save_model(g, tmp_path / "valid.sfm")
    back = sf.load_model(tmp_path / "valid.sfm")
    batch = np.linspace(-1, 1, 5 * 5 * 2, dtype=np.float32).reshape(1, 5, 5, 2)
    assert np.array_equal(sf.run_float(back, batch).logits,
                          sf.run_float(g, batch).logits)


def test_build_validation():
    with pytest.raises(ValueError):
        sf.build_unet(1, 4, 3, 3)
    with pytest.raises(ValueError):
        sf.build_unet(2, 1, 3, 3)


def test_graph_invariants_enforced():
    g = sf.build_unet(2, 4, 3, 3)
    # missing parameter complement
    with pytest.raises(ValueError, match="missing parameter sets"):
        sf.ModelGraph(g.layers, g.params[:-1], g.class_count, dict(g.metadata))
    # class count must equal output-conv filter count
    with pytest.raises(ValueError, match="class_count"):
        sf.ModelGraph(g.layers, g.params, 7, dict(g.metadata))
    # dangling input reference
    bad = [sf.LayerSpec("relu", "r", {}, ["ghost"])]
    with pytest.raises(ValueError, match="undefined input"):
        sf.ModelGraph(bad, [], 1, {})


class TestToyWeights:
    def test_same_seed_identical(self):
        g = sf.build_unet(2, 4, 3, 3)
        a = sf.generate_toy_weights(g, 123)
        b = sf.generate_toy_weights(g, 123)
        assert sf.model_hash(a) == sf.model_hash(b)
        c = sf.generate_toy_weights(g, 124)
        assert sf.model_hash(a) != sf.model_hash(c)

    def test_zero_positive_fraction(self):
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 7,
                                    positive_bias_fraction=0.0)
        rows = sf.positive_ratio_table(g)
        assert all(r["positive"] == 0 for r in rows)

    def test_fraction_binomial_bound(self):
        # ~0.5 fraction over all bias-like elements: ratio within 0.05
        g = sf.generate_toy_weights(sf.build_unet(3, 8, 4, 4), 7,
                                    positive_bias_fraction=0.5)
        rows = sf.positive_ratio_table(g)
        pos = sum(r["positive"] for r in rows)
        total = sum(r["total"] for r in rows)
        assert total >= 300
        assert abs(pos / total - 0.5) < 0.05

    def test_sigma_range_and_gamma_compensation(self):
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 7)
        eps = g.bn_epsilon
        for p in g.params_of(roles=("bn_sigma",)):
            assert (p.data > 0.01 - 1e-6).all()
            assert (p.data < 1.0).all()
            gamma = g.layer_params(p.layer)["bn_gamma"].data
            u = gamma / np.sqrt(p.data + np.float32(eps))
            assert (u > 0.45).all() and (u < 1.55).all()

    def test_raw_gamma_range(self):
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 7,
                                    gamma_range=(1.0, 2.0), gamma_mode="raw")
        for p in g.params_of(roles=("bn_gamma",)):
            assert (p.data >= 1.0).all() and (p.data < 2.0).all()

    def test_span_fractions_cover_range(self):
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 7,
                                    positive_bias_fraction="span")
        rows = sf.positive_ratio_table(g)
        percents = [r["percent"] for r in rows]
        assert min(percents) < 15 and max(percents) > 85

    @pytest.mark.parametrize("option,value", [
        ("kernel_scale", float("nan")), ("kernel_scale", float("inf")), ("kernel_scale", -1.0),
        ("gamma_range", (float("nan"), 1.5)), ("gamma_range", (0.5, float("inf"))),
        ("gamma_range", (2.0, 1.0)),
        ("positive_bias_fraction", 3.0), ("positive_bias_fraction", -0.5),
        ("positive_bias_fraction", float("nan")),
    ])
    def test_bad_weight_options_refused(self, option, value):
        """An option no weights can be drawn from is refused by name."""
        with pytest.raises(ValueError, match=f"^{option} must be"):
            sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 7, **{option: value})


class TestCalibrationSet:
    def test_deterministic(self):
        a, la = sf.generate_calibration_set((16, 16, 3), count=4, seed=9, class_count=3)
        b, lb = sf.generate_calibration_set((16, 16, 3), count=4, seed=9, class_count=3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        for x, y in zip(la, lb):
            assert np.array_equal(x, y)

    def test_default_count_and_label_range(self):
        inputs, labels = sf.generate_calibration_set((16, 16, 2), seed=1, class_count=5)
        assert len(inputs) == 10 and len(labels) == 10
        for lab in labels:
            assert lab.min() >= 0 and lab.max() < 5

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sf.generate_calibration_set((8, 8, 1), count=0, seed=0)


class TestBatchInputs:
    def test_stacks_images_along_n(self):
        inputs, _ = sf.generate_calibration_set((8, 8, 3), count=3, seed=2)
        batch = sf.batch_inputs(inputs)
        assert batch.shape == (3, 8, 8, 3)
        assert np.array_equal(batch[1:2], inputs[1])

    def test_casts_into_one_c_contiguous_float32_array(self):
        inputs, _ = sf.generate_calibration_set((8, 8, 3), count=2, seed=2)
        channel_major = np.ascontiguousarray(inputs[1].transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
        batch = sf.batch_inputs([inputs[0].astype(np.float64), channel_major])
        assert batch.dtype == np.float32 and batch.flags.c_contiguous
        assert batch.tobytes() == np.concatenate(inputs).tobytes()

    @pytest.mark.parametrize("item, got", [
        # arrays were once read through ``.data``, a memoryview, and ten
        # (64, 64, 4) images became one (640, 64, 4) batch
        (np.zeros((8, 8, 3), np.float32), r"ndarray of shape \(8, 8, 3\)"),
        (sf.Tensor(np.zeros((1, 8, 8, 3), np.float32)), r"Tensor of shape \(1, 8, 8, 3\)"),
        (sf.Tensor(np.zeros((8, 8, 3), np.float32)), r"Tensor of shape \(8, 8, 3\)"),
        ([1.0], "list"),
    ], ids=["hwc-array", "nhwc-tensor", "hwc-tensor", "list"])
    def test_an_item_that_is_not_a_4d_tensor_is_refused(self, item, got):
        inputs, _ = sf.generate_calibration_set((8, 8, 3), count=1, seed=2)
        with pytest.raises(TypeError, match=f"stacked from 4-D arrays, got {got}$"):
            sf.batch_inputs([inputs[0], item])

    def test_empty_list_keeps_numpys_message(self):
        with pytest.raises(ValueError, match="need at least one array to concatenate"):
            sf.batch_inputs([])


class TestContainerFormat:
    def test_roundtrip_bit_identical(self, tiny_graph, tmp_path):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        back = sf.load_model(path)
        assert sf.model_hash(back) == sf.model_hash(tiny_graph)
        assert [(p.index, p.layer, p.role) for p in back.params] == \
               [(p.index, p.layer, p.role) for p in tiny_graph.params]
        assert back.metadata["bn_epsilon"] == tiny_graph.metadata["bn_epsilon"]

    def test_corrupt_magic(self, tiny_graph, tmp_path):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            sf.load_model(path)

    def test_version_mismatch(self, tiny_graph, tmp_path):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            sf.load_model(path)

    def test_truncation(self, tiny_graph, tmp_path):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])
        with pytest.raises(FormatError, match="truncated"):
            sf.load_model(path)

    def test_checksum(self, tiny_graph, tmp_path):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        raw = bytearray(path.read_bytes())
        raw[-4] ^= 0x01  # flip a blob bit
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="checksum"):
            sf.load_model(path)

    def test_quantized_tables_roundtrip_exact(self, tiny_graph, tmp_path, tiny_inputs):
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        path = tmp_path / "model.sfq"
        sf.save_model(q, path)
        back = sf.load_model(path)
        assert back.metadata["quantization"] == q.metadata["quantization"]
        assert sf.model_hash(back) == sf.model_hash(q)

    def test_serialized_bytes_are_deterministic(self, tiny_graph, tmp_path):
        p1, p2 = tmp_path / "a.sfm", tmp_path / "b.sfm"
        sf.save_model(tiny_graph, p1)
        sf.save_model(tiny_graph, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_golden_file_hash_frozen(self, tmp_path):
        # container format stability gate: byte changes mean a version bump
        import hashlib
        g = sf.generate_toy_weights(sf.build_unet(2, 2, 2, 1), 2024)
        path = tmp_path / "golden.sfm"
        sf.save_model(g, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == ("01720b43acc7a19e4e4219ca1c2352d7"
                          "5d8276e5d6d7ae7d5f4a019323d8842e")


def test_pindex_stable_across_save_load(tiny_graph, tmp_path):
    path = tmp_path / "m.sfm"
    sf.save_model(tiny_graph, path)
    back = sf.load_model(path)
    for p, q in zip(tiny_graph.params, back.params):
        assert (p.index, p.layer, p.role, p.data.shape) == \
               (q.index, q.layer, q.role, q.data.shape)
        assert np.array_equal(p.data, q.data)


def test_sets_listed_out_of_order_are_held_in_index_order(tmp_path):
    """With p1 and p2 listed the other way round the graph is the sorted one:
    the same hash, kept over a save/load round trip, and p1 before p2 in
    ``params_of`` and in ``fold_bn``'s renumbering."""
    graph = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)
    p1, p2, *rest = graph.params
    assert (p1.role, p2.role) == ("conv_kernel", "conv_bias")
    swapped = sf.ModelGraph(graph.layers, [p2, p1, *rest], graph.class_count,
                            json.loads(json.dumps(graph.metadata)))
    assert sf.model_hash(swapped) == sf.model_hash(graph)
    sf.save_model(swapped, tmp_path / "m.sfm")
    assert sf.model_hash(sf.load_model(tmp_path / "m.sfm")) == sf.model_hash(graph)
    assert [p.index for p in swapped.params_of(("conv_kernel", "conv_bias"))][:2] == [1, 2]
    folded = sf.fold_bn(swapped)
    assert [(p.index, p.layer, p.role) for p in folded.params[:2]] == [
        (1, "conv2D", "conv_kernel"), (2, "conv2D", "conv_bias")]
    assert sf.model_hash(folded) == sf.model_hash(sf.fold_bn(graph))


class TestContainerRefusals:
    """Corrupt manifests are refused with FormatError, not a raw exception."""

    @staticmethod
    def rewrite(path, edit):
        """Pass the container's manifest through ``edit``, which changes it in place
        or returns a replacement; the blob is kept as it was."""
        import struct
        raw = path.read_bytes()
        (mlen,) = struct.unpack_from("<Q", raw, 12)
        manifest = json.loads(raw[20:20 + mlen])
        replacement = edit(manifest)
        mbytes = json.dumps(manifest if replacement is None else replacement).encode()
        path.write_bytes(raw[:12] + struct.pack("<Q", len(mbytes)) + mbytes
                         + raw[20 + mlen:])

    @pytest.mark.parametrize("byte", [0xFF, ord("#")])  # not UTF-8; not JSON
    def test_undecodable_manifest(self, tiny_graph, tmp_path, byte):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        raw = bytearray(path.read_bytes())
        raw[21] = byte   # the first key's opening quote
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="manifest is not UTF-8 JSON"):
            sf.load_model(path)

    @pytest.mark.parametrize("drop", ["blob_crc32", "layers", "param offset"])
    def test_missing_key(self, tiny_graph, tmp_path, drop):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        if drop == "param offset":
            self.rewrite(path, lambda m: m["params"][3].__delitem__("offset"))
        else:
            self.rewrite(path, lambda m: m.__delitem__(drop))
        with pytest.raises(FormatError, match="missing key"):
            sf.load_model(path)

    @pytest.mark.parametrize("offset", [-4, "end - 2", "end + 40"])
    def test_param_outside_blob(self, tiny_graph, tmp_path, offset):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)

        def edit(m):
            p = m["params"][-1]
            end = m["blob_size"]
            p["offset"] = {"end - 2": end - 2, "end + 40": end + 40}.get(offset, offset)

        self.rewrite(path, edit)
        with pytest.raises(FormatError, match="outside the"):
            sf.load_model(path)

    @pytest.mark.parametrize("manifest", [[1, 2], 7, "model"])
    def test_manifest_not_an_object(self, tiny_graph, tmp_path, manifest):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        self.rewrite(path, lambda m: manifest)
        with pytest.raises(FormatError, match="manifest is not a JSON object"):
            sf.load_model(path)

    @pytest.mark.parametrize("key,value", [("offset", "0"), ("offset", 4.0),
                                           ("nbytes", None), ("nbytes", True),
                                           ("shape", 3), ("shape", [2, "2"]),
                                           ("shape", [2, -2])])
    def test_param_field_of_wrong_type(self, tiny_graph, tmp_path, key, value):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        self.rewrite(path, lambda m: m["params"][2].__setitem__(key, value))
        with pytest.raises(FormatError, match="offset, nbytes or shape"):
            sf.load_model(path)

    def test_zero_extent_param_is_a_format_error(self, tiny_graph, tmp_path, capsys):
        """A set whose shape holds a 0 (and so 0 bytes) is refused among the
        entry's field checks, naming the file, and ``model info`` prints one
        error line."""
        from seu_forge.cli import main
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        self.rewrite(path, lambda m: m["params"][1].update(shape=[0], nbytes=0))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: p2 "):
            sf.load_model(path)
        assert main(["model", "info", "--model", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}: p2 ")

    @pytest.mark.parametrize("key,value", [("blob_size", "big"), ("params", {"p1": 1}),
                                           ("layers", 3)])
    def test_manifest_field_of_wrong_type(self, tiny_graph, tmp_path, key, value):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        self.rewrite(path, lambda m: m.__setitem__(key, value))
        with pytest.raises(FormatError, match="has the wrong type"):
            sf.load_model(path)

    @pytest.mark.parametrize("target", ["layer", "param"])
    def test_entry_not_an_object(self, tiny_graph, tmp_path, target):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        self.rewrite(path, lambda m: m[target + "s"].__setitem__(0, [target]))
        with pytest.raises(FormatError, match=f"{target} is not a JSON object"):
            sf.load_model(path)

    def test_unhashable_encoding(self, tiny_graph, tmp_path):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        self.rewrite(path, lambda m: m["params"][0].__setitem__("encoding", ["f32"]))
        with pytest.raises(FormatError, match="unknown encoding"):
            sf.load_model(path)

    @pytest.mark.parametrize("edit,message", [
        # each escaped as another exception: ValueError, TypeError, ValueError
        # from ModelGraph, AttributeError
        (lambda m: m["layers"][1].__setitem__("kind", "gelu"), "unknown layer kind 'gelu'"),
        (lambda m: next(l for l in m["layers"] if "stride" in l["hyperparams"])[
            "hyperparams"].__setitem__("stride", "2"), "stride '2'"),
        (lambda m: m["params"].__delitem__(3), "p-indices must be contiguous"),
        (lambda m: m["layers"][0].__setitem__("hyperparams", [["stride", 1]]),
         "hyperparams or inputs has the wrong type"),
    ], ids=["unknown_kind", "string_stride", "dropped_param", "list_hyperparams"])
    def test_inconsistent_layer_entries(self, tiny_graph, tmp_path, edit, message):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        self.rewrite(path, edit)
        with pytest.raises(FormatError, match=message):
            sf.load_model(path)

    @pytest.mark.parametrize("owner,copied,message", [
        ("ghost", 2, "belongs to no layer: 'ghost'"),
        ("relu", 3, "is a bn_gamma set, which a relu layer"),
        ("conv2D", 2, "layer conv2D has two conv_bias sets"),
    ], ids=["ghost_owner", "role_not_carried", "repeated_role"])
    def test_parameter_set_no_op_reads(self, tiny_graph, tmp_path, owner, copied, message):
        # each loaded: a sweep on the ghost set failed in its fault plan, and
        # faults on the others read 0.0 error (the repeated role's later set
        # is the one inference read)
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)

        def edit(m):
            m["params"].append(dict(m["params"][copied - 1], index=len(m["params"]) + 1,
                                    layer=owner))

        self.rewrite(path, edit)
        with pytest.raises(FormatError, match=message):
            sf.load_model(path)

    def test_trailing_bytes(self, tiny_graph, tmp_path):
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            sf.load_model(path)

    @pytest.mark.parametrize("kind,key,value,message", [
        ("conv2d_transpose", "stride", 3, "transposed conv kernel 2x2 != stride 3"),
        ("maxpool", "window", 3, "'stride': 2, 'window': 3} is not 2x2/2"),
        ("maxpool", "stride", 3, "'stride': 3, 'window': 2} is not 2x2/2"),
    ], ids=["convtr_stride", "maxpool_window", "maxpool_stride"])
    def test_layer_no_forward_runs(self, tiny_graph, tmp_path, kind, key, value, message):
        # each loaded and failed only in inference, or (the maxpool) ran as 2x2/2
        path = tmp_path / "model.sfm"
        sf.save_model(tiny_graph, path)
        self.rewrite(path, lambda m: next(l for l in m["layers"] if l["kind"] == kind)[
            "hyperparams"].__setitem__(key, value))
        with pytest.raises(FormatError, match=message):
            sf.load_model(path)

    def test_kernel_shape_disagreeing_with_graph(self, tiny_graph, tmp_path):
        # conv2D_1 reads conv2D's 4 channels; a 5-channel kernel used to load
        # and fail only in inference
        wide = np.zeros((3, 3, 5, 4), dtype=np.float32)
        params = [sf.ParamSet(p.index, p.layer, p.role,
                              wide if (p.layer, p.role) == ("conv2D_1", "conv_kernel")
                              else p.data)
                  for p in tiny_graph.params]
        path = tmp_path / "model.sfm"
        sf.save_model(sf.ModelGraph(tiny_graph.layers, params, tiny_graph.class_count,
                                    dict(tiny_graph.metadata)), path)
        with pytest.raises(FormatError, match="input channels 4 != kernel Cin 5"):
            sf.load_model(path)


class TestNumericMode:
    """A container whose numeric mode disagrees with its contents is refused at load."""

    @pytest.fixture(scope="class")
    def models(self):
        graph = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), seed=5)
        images, _ = sf.generate_calibration_set((16, 16, 3), count=3, seed=1)
        return {False: graph, True: sf.quantize_ptq(graph, images)}

    @pytest.mark.parametrize("quantized,edit,message", [
        (True, lambda m: m["metadata"]["quantization"]["activations"].__delitem__("conv2D_1"),
         "missing scale table for activation 'conv2D_1'"),
        (True, lambda m: m["metadata"]["quantization"]["params"].__delitem__("3"),
         "missing scale table for p3"),
        (True, lambda m: m["metadata"].__delitem__("quantization"),
         "carries no quantization tables"),
        (True, lambda m: m["metadata"]["flags"].__setitem__("quantized", False),
         "float graph holds p1 as i8"),
        (False, lambda m: m["metadata"]["flags"].__setitem__("quantized", True),
         "quantized graph has batch-norm layer 'bn'"),
    ], ids=["activation_entry", "param_entry", "no_tables", "quantized_as_float",
            "float_as_quantized"])
    def test_refused(self, models, tmp_path, quantized, edit, message):
        # each loaded and failed only in inference (the quantized_as_float
        # one inside a campaign's golden walk)
        path = tmp_path / "model.sfm"
        sf.save_model(models[quantized], path)
        sf.load_model(path)
        TestContainerRefusals.rewrite(path, edit)
        with pytest.raises(FormatError, match=message):
            sf.load_model(path)


class TestQuantizationTables:
    """A quantization entry with an unusable zero point or scale is refused at load."""

    BAD = [("zero_point", 2**20), ("zero_point", None), ("zero_point", "7"),
           ("zero_point", 1.5), ("zero_point", True), ("zero_point", -129),
           ("scale", 0.0), ("scale", -1.0), ("scale", "0.5"), ("scale", None),
           ("scale", False)]

    @pytest.fixture(scope="class")
    def quantized(self, tiny_graph, tiny_inputs):
        return sf.quantize_ptq(tiny_graph, tiny_inputs[0])

    @pytest.mark.parametrize("key,value", BAD)
    @pytest.mark.parametrize("section,name", [("activations", "relu"), ("params", "1")])
    def test_bad_entry_refused(self, quantized, tmp_path, section, name, key, value):
        path = tmp_path / "model.sfq"
        sf.save_model(quantized, path)
        TestContainerRefusals.rewrite(
            path, lambda m: m["metadata"]["quantization"][section][name].__setitem__(key, value))
        with pytest.raises(FormatError, match=f"{section} entry '{name}' has {key}"):
            sf.load_model(path)

    @pytest.mark.parametrize("tables,message", [
        ([], "quantization is not a JSON object"),
        ({"activations": {}}, "quantization is missing key 'params'"),
        ({"activations": {}, "params": [1]}, "quantization params is not a JSON object"),
        ({"activations": {"input": 1.0}, "params": {}}, "entry 'input' is not a JSON object"),
    ])
    def test_malformed_tables_refused(self, quantized, tmp_path, tables, message):
        path = tmp_path / "model.sfq"
        sf.save_model(quantized, path)
        TestContainerRefusals.rewrite(
            path, lambda m: m["metadata"].__setitem__("quantization", tables))
        with pytest.raises(FormatError, match=message):
            sf.load_model(path)

    @pytest.mark.parametrize("zero_point", [-128, 127])
    def test_int8_range_ends_load_and_run(self, quantized, tmp_path, tiny_batch, zero_point):
        edited = quantized.copy()   # metadata included
        edited.metadata["quantization"]["activations"]["relu"]["zero_point"] = zero_point
        path = tmp_path / "model.sfq"
        sf.save_model(edited, path)
        back = sf.load_model(path)
        assert back.metadata["quantization"] == edited.metadata["quantization"]
        assert sf.run_quantized(back, tiny_batch).logits.shape[:3] == (6, 16, 16)
