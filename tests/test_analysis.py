import numpy as np
import pytest

import seu_forge as sf
from seu_forge.analysis import (bits_needed_table, calibration_report,
                                correlate, positive_ratio_table,
                                risky_exponent_scan)

from conftest import single_conv_graph
from oracles import risky_class_struct


class TestPositiveRatio:
    def test_reference_float_biases(self):
        biases = [-0.8494, 0.3171, -0.0275, 0.0394, -0.1706, 0.1090]
        g = single_conv_graph(np.zeros((1, 1, 1, 6)), biases, input_channels=1)
        rows = positive_ratio_table(g, roles=("conv_bias",))
        assert rows[0]["positive"] == 3 and rows[0]["total"] == 6
        assert rows[0]["percent"] == pytest.approx(50.0)

    def test_reference_quantized_biases(self):
        g = single_conv_graph(np.zeros((1, 1, 1, 6)), np.zeros(6), input_channels=1)
        g.params[1].tensor = sf.Tensor.from_array(
            np.array([-25983, 2355, -187, 300, -1494, 923], np.int32), "i32")
        rows = positive_ratio_table(g, roles=("conv_bias",))
        assert rows[0]["positive"] == 3 and rows[0]["percent"] == pytest.approx(50.0)

    def test_all_negative_and_zero_not_positive(self):
        g = single_conv_graph(np.zeros((1, 1, 1, 3)), [-1.0, 0.0, -0.5],
                              input_channels=1)
        rows = positive_ratio_table(g, roles=("conv_bias",))
        assert rows[0]["positive"] == 0 and rows[0]["percent"] == 0.0


class TestRiskyScan:
    def test_examples(self):
        vals = [1.5,   # exponent 01111111 -> full risky
                0.1,   # exponent 01111011, six low ones -> partial risky
                0.75,  # exponent 01111110 -> partial risky, non-protectable
                3.0,   # exponent 10000000 -> flagged separately
                0.6]   # exponent 01111110 -> also partial, non-protectable
        g = single_conv_graph(np.zeros((1, 1, 1, 5)),
                              vals, input_channels=1)
        rows = risky_exponent_scan(g)
        bias_row = next(r for r in rows if r["role"] == "conv_bias")
        assert bias_row["full_risky"] == 1
        assert bias_row["partial_risky"] == 3      # 0.1, 0.75, 0.6
        assert bias_row["non_protectable"] == 2    # the two exp-126 values
        assert bias_row["exp_0x80"] == 1

    def test_subnormals_and_zero_not_risky(self):
        g = single_conv_graph(np.zeros((1, 1, 1, 3)),
                              [0.0, 1e-40, -0.0], input_channels=1)
        rows = risky_exponent_scan(g)
        bias_row = next(r for r in rows if r["role"] == "conv_bias")
        assert bias_row["full_risky"] == 0 and bias_row["partial_risky"] == 0

    def test_agrees_with_struct_oracle_on_1e5_random(self):
        rng = np.random.Generator(np.random.PCG64(42))
        # mix magnitudes across many exponent octaves
        vals = (rng.uniform(-2.0, 2.0, size=100_000) *
                2.0 ** rng.integers(-40, 3, size=100_000)).astype(np.float32)
        g = single_conv_graph(np.zeros((1, 1, 1, vals.size)), vals, input_channels=1)
        rows = risky_exponent_scan(g)
        bias_row = next(r for r in rows if r["role"] == "conv_bias")
        ref_full = ref_partial = 0
        for v in vals:
            c = risky_class_struct(float(v))
            ref_full += c == "full"
            ref_partial += c == "partial"
        assert bias_row["full_risky"] == ref_full
        assert bias_row["partial_risky"] == ref_partial


class TestBitsNeeded:
    def _quantized_bias_graph(self, values):
        g = single_conv_graph(np.zeros((1, 1, 1, len(values))),
                              np.zeros(len(values)), input_channels=1)
        g.params[0].tensor = sf.Tensor.from_array(
            np.zeros((1, 1, 1, len(values)), np.int8), "i8")
        g.params[1].tensor = sf.Tensor.from_array(np.asarray(values, np.int32), "i32")
        g.metadata["flags"]["quantized"] = True
        return g

    def test_reference_row(self):
        g = self._quantized_bias_graph([-25983, 2355, -187, 300, -1494, 923])
        rows = bits_needed_table(g)
        bias_row = next(r for r in rows if r["role"] == "conv_bias")
        assert bias_row["positive_bits"] == 13   # 2355
        assert bias_row["negative_bits"] == 16   # -25983

    def test_absent_sign(self):
        g = self._quantized_bias_graph([5, 100])
        row = next(r for r in bits_needed_table(g) if r["role"] == "conv_bias")
        assert row["negative_bits"] is None
        assert row["positive_bits"] == 8

    def test_requires_quantized(self, tiny_graph):
        with pytest.raises(ValueError):
            bits_needed_table(tiny_graph)

    def test_exactness_property(self):
        rng = np.random.Generator(np.random.PCG64(8))
        vals = rng.integers(-(2**20), 2**20, size=64, dtype=np.int32)
        g = self._quantized_bias_graph(list(vals))
        row = next(r for r in bits_needed_table(g) if r["role"] == "conv_bias")
        k = row["positive_bits"]
        mx = int(vals[vals > 0].max())
        assert mx <= 2 ** (k - 1) - 1
        assert mx > 2 ** (k - 2) - 1


class TestCalibrationReport:
    def test_capture_trace(self, tiny_graph, tiny_inputs):
        acts = calibration_report(tiny_graph, tiny_inputs[0])["activations"]
        assert "input" in acts
        for layer in tiny_graph.layers:
            st = acts[layer.name]
            assert st["min"] is not None and st["min"] <= st["max"]
            assert st["nan_count"] == 0 and st["inf_count"] == 0
            hist = st["histogram"]
            assert sum(hist["pos"]) + sum(hist["neg"]) + hist["zeros"] > 0

    def test_trace_counts_nan_inf(self, tiny_graph, tiny_inputs, tiny_batch):
        g = tiny_graph.copy()
        g.layer_params("bn")["bn_gamma"].tensor.data[0] = np.nan
        acts = calibration_report(g, tiny_inputs[0])["activations"]
        assert acts["bn"]["nan_count"] > 0
        assert acts[g.output_layer.name]["nan_count"] > 0
        assert (sf.run_float(g, tiny_batch).class_map == sf.INVALID_CLASS).any()

    def test_capture_survives_freed_activations(self, tiny_graph, tiny_inputs, tiny_batch):
        names = ["input"] + [layer.name for layer in tiny_graph.layers]
        acts = calibration_report(tiny_graph, tiny_inputs[0])["activations"]
        assert sorted(acts) == sorted(names)
        # each activation's statistics are those of the activation itself,
        # recorded before the pass freed it
        full = sf.run_float(tiny_graph, tiny_batch, collect=names)
        for name in names:
            st = sf.LayerStats.of(full.collected[name].data)
            assert acts[name] == st.to_dict()

    def test_reproducible(self, tiny_graph, tiny_inputs):
        a = calibration_report(tiny_graph, tiny_inputs[0])
        b = calibration_report(tiny_graph, tiny_inputs[0])
        assert a == b

    def test_zero_input_zero_biases(self):
        g = sf.build_unet(2, 4, 3, 3)  # zero-initialized weights
        for p in g.params_of(roles=("bn_sigma",)):
            p.tensor.data[...] = 1.0
        x = [sf.Tensor.from_array(np.zeros((1, 8, 8, 3), np.float32))]
        report = calibration_report(g, x)
        for name, st in report["activations"].items():
            assert st["min"] == 0.0 and st["max"] == 0.0

    def test_logit_extremes_contained(self, tiny_graph, tiny_inputs):
        report = calibration_report(tiny_graph, tiny_inputs[0])
        out_name = tiny_graph.output_layer.name
        per_image = [sf.run_float(tiny_graph, x).logits.data for x in tiny_inputs[0]]
        lo = min(float(x.min()) for x in per_image)
        hi = max(float(x.max()) for x in per_image)
        assert report["activations"][out_name]["min"] == pytest.approx(lo)
        assert report["activations"][out_name]["max"] == pytest.approx(hi)


class TestCorrelate:
    def test_identical_and_negated(self):
        a = [1.0, 2.0, 5.0, 3.0]
        assert correlate(a, a) == pytest.approx(1.0)
        assert correlate(a, [-x for x in a]) == pytest.approx(-1.0)

    def test_hand_three_point(self):
        # {(1,2),(2,4),(3,5)} -> r = sqrt(27/28) ~ 0.9820
        r = correlate([1, 2, 3], [2, 4, 5])
        assert r == pytest.approx(np.sqrt(27 / 28), abs=1e-9)
        assert round(r, 4) == 0.9820

    def test_rejects_bad_series(self):
        with pytest.raises(ValueError):
            correlate([1.0], [2.0])
        with pytest.raises(ValueError):
            correlate([1.0, 1.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            correlate([1.0, 2.0], [2.0, 3.0, 4.0])
