import dataclasses
import hashlib
import json
import math
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seu_forge as sf
from seu_forge import bits
from seu_forge.protect import (PT_LEVELS, RULE_DECREMENT, RULE_INCREMENT, AbsorptionError,
                               EqualizationError, ProtectionRecord,
                               ProtectionTarget, absorb_bias, cross_layer_equalize,
                               danger_bit, evaluate_protection,
                               protect_parameters, recondition_bn,
                               suggest_cle_scales)

from conftest import single_conv_graph
from oracles import (assemble_f32, classify_candidate, danger_bit_struct, mantissa_field,
                     protect_parameters_scalar)


def word_of(value):
    return bits.f32_to_bits(float(np.float32(value)))


class TestClassify:
    def test_full_exponent(self):
        cls = classify_candidate(word_of(1.5))
        assert cls.candidate and cls.allow_increment and cls.allow_decrement

    def test_exp_126_blocked_both_ways(self):
        cls = classify_candidate(word_of(0.75))
        assert cls.candidate and cls.label == "non-protectable"

    def test_exp_125_decrement_only(self):
        cls = classify_candidate(word_of(0.3))  # exponent 01111101
        assert cls.candidate and not cls.allow_increment and cls.allow_decrement

    def test_exp_0x80_omitted(self):
        cls = classify_candidate(word_of(2.5))
        assert not cls.candidate and cls.label == "non-protectable"

    def test_not_candidates(self):
        assert not classify_candidate(word_of(5.0)).candidate       # exp 10000001
        assert not classify_candidate(word_of(0.0)).candidate       # zero
        assert not classify_candidate(word_of(1e-40)).candidate     # subnormal
        assert not classify_candidate(word_of(0.04)).candidate      # exp 01111010

    def test_partial_candidates_all_exponents(self):
        # exponents with exactly one low-7 zero: 63, 95, 111, 119, 123, 125, 126
        for exp, inc, dec in [(63, True, True), (95, True, True), (111, True, True),
                              (119, True, True), (123, True, True),
                              (125, False, True), (126, False, False)]:
            cls = classify_candidate(assemble_f32(0, exp, 1234))
            assert cls.candidate
            assert cls.allow_increment == inc and cls.allow_decrement == dec

    def test_nan_inf_rejected(self):
        with pytest.raises(ValueError):
            classify_candidate(word_of(math.inf))
        with pytest.raises(ValueError):
            classify_candidate(word_of(math.nan))

    def test_candidate_set_closed_form_over_all_exponents(self):
        # candidates are exactly the exponents one low-7 flip from filled
        expected = {63, 95, 111, 119, 123, 125, 126, 127}
        for exp in range(0, 255):
            cls = classify_candidate(assemble_f32(0, exp, 0x2A))
            assert cls.candidate == (exp in expected), exp
            if exp >= 0x80:
                assert not cls.candidate

    def test_danger_bits(self):
        assert danger_bit(word_of(1.5)) == 30
        assert danger_bit(word_of(0.1)) == 25   # low-7 zero at position 2
        assert danger_bit(word_of(0.75)) == 23

    @pytest.mark.parametrize("value", [5.0, 0.0, 2.5, 1e-40])
    def test_danger_bit_refuses_non_candidates(self, value):
        with pytest.raises(ValueError, match="not a risky candidate"):
            danger_bit(word_of(value))


class TestProtectionTarget:
    def test_levels(self):
        assert PT_LEVELS[1].full_threshold == 1.999
        assert PT_LEVELS[1].empty_threshold == 1.001
        assert PT_LEVELS[2] == ProtectionTarget("PT2", 1.99, 1.01)
        assert (PT_LEVELS[3].full_threshold, PT_LEVELS[3].empty_threshold) == (1.95, 1.05)
        assert (PT_LEVELS[4].full_threshold, PT_LEVELS[4].empty_threshold) == (1.9, 1.1)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            ProtectionTarget("bad", 1.0, 1.5)


class TestProtectParameters:
    def _planted_graph(self):
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)
        flat = g.layer_params("conv2D")["conv_kernel"].data.flat
        flat[0] = np.float32(1.99951)    # PT1 full-mantissa case
        flat[1] = np.float32(1.0)        # PT1 empty-mantissa case
        flat[2] = np.float32(0.75)       # non-protectable
        flat[3] = np.float32(-1.9995)    # negative full-mantissa
        return g

    def test_spec_increment_example(self):
        g = self._planted_graph()
        prot, report = protect_parameters(g, PT_LEVELS[1])
        assert prot.layer_params("conv2D")["conv_kernel"].data.flat[0] == 2.0

    def test_spec_decrement_example(self):
        g = self._planted_graph()
        prot, report = protect_parameters(g, PT_LEVELS[1])
        v = prot.layer_params("conv2D")["conv_kernel"].data.flat[1]
        assert v == np.float32(0.99999994)
        word = int(np.asarray(v, np.float32).view(np.uint32))
        assert bits.exponent_field(word) == 0x7E
        assert mantissa_field(word) == bits.F32_MANT_MASK

    def test_non_protectable_untouched(self):
        g = self._planted_graph()
        prot, report = protect_parameters(g, PT_LEVELS[1])
        assert prot.layer_params("conv2D")["conv_kernel"].data.flat[2] == 0.75
        recs = {(r.pset, r.element): r for r in report.records}
        rec = recs[(1, 2)]
        assert rec.rule == "skipped non-protectable"

    def test_negative_value_sign_untouched(self):
        g = self._planted_graph()
        prot, _ = protect_parameters(g, PT_LEVELS[1])
        assert prot.layer_params("conv2D")["conv_kernel"].data.flat[3] == -2.0

    def test_risky_count_never_increases(self):
        g = self._planted_graph()
        for pt in (1, 2, 3, 4):
            prot, _ = protect_parameters(g, PT_LEVELS[pt])
            assert sf.risky_pattern_count(prot) <= sf.risky_pattern_count(g)

    def test_delta_bounds(self):
        g = self._planted_graph()
        for pt in (1, 2, 3, 4):
            target = PT_LEVELS[pt]
            _, report = protect_parameters(g, target)
            inc_bound = 2.0 / target.full_threshold - 1.0
            dec_bound = 1.0 - target.empty_threshold / 2.0
            for r in report.applied():
                if r.rule.startswith("exponent++"):
                    assert 0 <= r.relative_delta <= inc_bound + 1e-12
                else:
                    assert 0 <= -r.relative_delta <= dec_bound + 1e-12

    def test_idempotent(self):
        g = self._planted_graph()
        prot, _ = protect_parameters(g, PT_LEVELS[2])
        again, report = protect_parameters(prot, PT_LEVELS[2])
        assert not report.applied()
        assert sf.model_hash(again) == sf.model_hash(prot)

    def test_protected_positions_flip_safe(self):
        g = self._planted_graph()
        prot, report = protect_parameters(g, PT_LEVELS[2])
        for r in report.applied():
            for bit in range(23, 31):
                v = bits.bits_to_f32(bits.flip_bit_f32(r.after_bits, bit))
                assert math.isfinite(v)

    def test_pt_hierarchy_monotone_candidates(self):
        g = self._planted_graph()
        protected = [len(protect_parameters(g, PT_LEVELS[pt])[1].applied())
                     for pt in (1, 2, 3, 4)]
        assert protected == sorted(protected)

    def test_roles_filter(self):
        g = self._planted_graph()
        _, report = protect_parameters(g, PT_LEVELS[4], roles=("bn_gamma",))
        assert all(g.param(r.pset).role == "bn_gamma" for r in report.records)

    def test_report_jsonl(self, tmp_path):
        g = self._planted_graph()
        _, report = protect_parameters(g, PT_LEVELS[1])
        path = tmp_path / "report.jsonl"
        report.write_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(report.records)
        s = report.summary()
        assert s["candidates"] == len(report.records)
        assert s["protected"] == len(report.applied())


class TestEvaluateProtection:
    def test_zero_candidate_pt_identical_metrics(self, tiny_inputs):
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)
        # convtr biases are zeroed: no candidates in the targeted roles
        for p in g.params_of(roles=("convtr_bias",)):
            p.data[...] = 0.0
        prot, report = protect_parameters(g, PT_LEVELS[4], roles=("convtr_bias",))
        assert not report.applied()
        ev = evaluate_protection(g, prot, tiny_inputs[0], bit_filter={30})
        assert ev.faultless["original"] == ev.faultless["protected"]
        for row in ev.per_bit:
            assert row["original"] == row["protected"]

    def test_planted_gamma_nan_eliminated(self, tiny_inputs):
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)
        gamma = g.layer_params("bn")["bn_gamma"]
        gamma.data[...] = np.float32(1.9995)  # all full-risky, PT2-protectable
        prot, report = protect_parameters(g, PT_LEVELS[2], roles=("bn_gamma",))
        assert len(report.applied()) >= gamma.data.size
        ev = evaluate_protection(g, prot, tiny_inputs[0], bit_filter={30})
        row = next(r for r in ev.per_bit if r["bit"] == 30)
        # original model: bit-30 flip of gamma in (1,2) -> NaN -> 100% error
        assert row["original"]["error_rate"] >= 99.0
        # protected gammas are 2.0 (exp 0x80): flips stay finite
        assert row["protected"]["error_rate"] < row["original"]["error_rate"]

    def test_faultless_giou_baseline(self, tiny_graph, tiny_inputs):
        ev = evaluate_protection(tiny_graph, tiny_graph, tiny_inputs[0],
                                 bit_filter=set())
        assert ev.faultless["original"]["giou"] == 100.0
        assert ev.faultless["original"]["error_rate"] == 0.0


class TestReconditionBn:
    def test_pow2_move_preserves_function(self, tiny_graph, tiny_batch):
        g = tiny_graph.copy()
        g.layer_params("bn")["bn_gamma"].data[0] = np.float32(1.0005)
        out, report = recondition_bn(g)
        assert report["channels_changed"] >= 1
        assert report["risky_after"] <= report["risky_before"]
        a = sf.run_float(g, tiny_batch)
        b = sf.run_float(out, tiny_batch)
        scale = np.abs(a.logits).max()
        assert np.abs(a.logits - b.logits).max() <= 1e-6 * scale
        assert np.array_equal(a.class_map, b.class_map)

    def test_joint_move_algebra(self):
        # gamma'=2*gamma, sigma'=4*sigma+3*eps keeps W=gamma/sqrt(sigma+eps)
        gamma, sigma, eps = np.float32(1.0005), np.float32(0.37), np.float32(1e-3)
        w = gamma / np.sqrt(np.float64(sigma) + np.float64(eps))
        g2 = np.float32(2.0) * gamma
        s2 = np.float32(4.0) * np.float32(sigma + eps) - eps
        w2 = g2 / np.sqrt(np.float64(s2) + np.float64(eps))
        assert abs(w2 - w) / w < 1e-6

    def test_risky_gamma_moved_out(self):
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)
        gamma = g.layer_params("bn")["bn_gamma"]
        gamma.data[0] = np.float32(1.0005)
        out, _ = recondition_bn(g)
        new_word = int(out.layer_params("bn")["bn_gamma"].words[0])
        assert not classify_candidate(new_word).candidate

    def test_rejects_folded(self, tiny_graph):
        folded = sf.fold_bn(tiny_graph)
        with pytest.raises(ValueError, match="unfolded"):
            recondition_bn(folded)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variance, gamma", [(math.nan, 1.5), (math.inf, 1.5),
                                                 (1e38, 1.5), (3e37, 3.0)])
    def test_trial_without_finite_variance_is_skipped(self, variance, gamma):
        """A NaN or Inf variance, or one whose x2 trial overflows, leaves the
        risky gamma as it was; 3e37 still rescales by 2."""
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)
        ps = g.layer_params("bn")
        ps["bn_gamma"].data[0] = np.float32(1.5)
        ps["bn_sigma"].data[0] = np.float32(variance)
        out, report = recondition_bn(g)
        assert out.layer_params("bn")["bn_gamma"].data[0] == np.float32(gamma)
        scales = [c["scale"] for c in report["changes"]
                  if (c["layer"], c["channel"]) == ("bn", 0)]
        assert scales == ([] if gamma == 1.5 else [2.0])

    @pytest.mark.filterwarnings("error")
    def test_channel_without_positive_variance_is_left_untouched(self, tmp_path):
        """A negative variance loads, as any parameter value does, and leaves
        its risky gamma as it was, as does a variance of -eps."""
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)
        ps = g.layer_params("bn")
        ps["bn_gamma"].data[:2] = np.float32(1.5)
        ps["bn_sigma"].data[:2] = [-1.0, -g.bn_epsilon]
        sf.save_model(g, tmp_path / "m.sfm")
        out, report = recondition_bn(sf.load_model(tmp_path / "m.sfm"))
        assert out.layer_params("bn")["bn_gamma"].data[:2].tolist() == [1.5, 1.5]
        assert not [c for c in report["changes"] if c["layer"] == "bn" and c["channel"] < 2]


class TestCLE:
    def test_all_ones_identity(self, tiny_graph, tiny_batch):
        folded = sf.fold_bn(tiny_graph)
        out = cross_layer_equalize(folded, np.ones(4, np.float32), "conv2D", "conv2D_1")
        a = sf.run_float(folded, tiny_batch).logits
        b = sf.run_float(out, tiny_batch).logits
        assert np.array_equal(a, b)

    def test_pow2_scales_bit_exact(self, tiny_graph, tiny_batch):
        folded = sf.fold_bn(tiny_graph)
        s = np.array([2.0, 0.5, 4.0, 1.0], np.float32)
        out = cross_layer_equalize(folded, s, "conv2D", "conv2D_1")
        a = sf.run_float(folded, tiny_batch).logits
        b = sf.run_float(out, tiny_batch).logits
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_scalar_pair_equivalence(self, tiny_graph, tiny_batch):
        folded = sf.fold_bn(tiny_graph)
        s = np.full(4, 3.0, np.float32)  # non-pow2: fp tolerance applies
        out = cross_layer_equalize(folded, s, "conv2D", "conv2D_1")
        a = sf.run_float(folded, tiny_batch).logits
        b = sf.run_float(out, tiny_batch).logits
        assert np.abs(a - b).max() <= 1e-6 * max(1.0, np.abs(a).max())

    def test_negative_scale_rejected(self, tiny_graph):
        folded = sf.fold_bn(tiny_graph)
        s = np.array([2.0, -1.0, 1.0, 1.0], np.float32)
        with pytest.raises(EqualizationError, match="positive"):
            cross_layer_equalize(folded, s, "conv2D", "conv2D_1")

    def test_unsupported_path_rejected(self, tiny_graph):
        folded = sf.fold_bn(tiny_graph)
        # conv2D_1 feeds maxpool AND the skip concat: multiple consumers
        with pytest.raises(EqualizationError, match="consumers"):
            cross_layer_equalize(folded, np.ones(4, np.float32), "conv2D_1", "conv2D_2")

    def test_unfolded_pair_blocked_by_bn(self, tiny_graph):
        with pytest.raises(EqualizationError, match="batchnorm|unsupported"):
            cross_layer_equalize(tiny_graph, np.ones(4, np.float32), "conv2D", "conv2D_1")

    def test_suggested_scales_positive(self, tiny_graph):
        folded = sf.fold_bn(tiny_graph)
        s = suggest_cle_scales(folded, "conv2D", "conv2D_1")
        assert (s > 0).all()
        assert np.allclose(np.log2(s), np.rint(np.log2(s)))  # powers of two


class TestAbsorbBias:
    @pytest.fixture()
    def folded(self, tiny_graph):
        return sf.fold_bn(tiny_graph)

    def _pair(self, folded):
        convs = [l.name for l in folded.layers if l.kind == "conv2d"]
        return convs[-1], folded.output_layer.name

    def test_zero_amounts_identity(self, folded, tiny_inputs, tiny_batch):
        n, n1 = self._pair(folded)
        cout = folded.layer_params(n)["conv_bias"].data.size
        out = absorb_bias(folded, np.zeros(cout, np.float32), n, n1, tiny_inputs[0])
        a = sf.run_float(folded, tiny_batch).logits
        b = sf.run_float(out, tiny_batch).logits
        assert np.array_equal(a, b)

    def test_valid_absorption_preserves_maps(self, folded, tiny_inputs, tiny_batch):
        n, n1 = self._pair(folded)
        pre = sf.run_float(folded, tiny_batch, collect=(n,)).collected[n]
        min_pre = pre.min(axis=(0, 1, 2))
        c = np.where(min_pre > 0,
                     2.0 ** np.floor(np.log2(np.maximum(min_pre, 1e-30))),
                     0.0).astype(np.float32)
        out = absorb_bias(folded, c, n, n1, tiny_inputs[0])
        a = sf.run_float(folded, tiny_batch)
        b = sf.run_float(out, tiny_batch)
        assert np.array_equal(a.class_map, b.class_map)
        # the bias actually moved
        if (c > 0).any():
            assert not np.array_equal(
                folded.layer_params(n)["conv_bias"].data,
                out.layer_params(n)["conv_bias"].data)

    def test_violation_refused_with_channels(self, folded, tiny_inputs):
        n, n1 = self._pair(folded)
        cout = folded.layer_params(n)["conv_bias"].data.size
        with pytest.raises(AbsorptionError, match="channels"):
            absorb_bias(folded, np.full(cout, 100.0, np.float32), n, n1, tiny_inputs[0])

    def test_negative_amounts_refused(self, folded, tiny_inputs):
        n, n1 = self._pair(folded)
        cout = folded.layer_params(n)["conv_bias"].data.size
        with pytest.raises(AbsorptionError, match="negative"):
            absorb_bias(folded, np.full(cout, -0.5, np.float32), n, n1, tiny_inputs[0])

    def test_padded_consumer_refused(self, folded, tiny_inputs):
        with pytest.raises(AbsorptionError, match="border"):
            absorb_bias(folded, np.zeros(4, np.float32), "conv2D", "conv2D_1",
                        tiny_inputs[0])

    def test_identity_activation_any_amount(self, tiny_inputs):
        # hand graph: conv -> output conv (1x1), no relu between: linearity
        rng = np.random.Generator(np.random.PCG64(4))
        layers = [
            sf.LayerSpec("conv2d", "a", {"kernel_size": 1, "stride": 1,
                                         "padding": "same", "filters": 3}, ["input"]),
            sf.LayerSpec("output_conv", "o", {"kernel_size": 1, "stride": 1,
                                              "padding": "same", "filters": 2}, ["a"]),
        ]
        t = lambda arr: np.asarray(arr, np.float32)
        params = [
            sf.ParamSet(1, "a", "conv_kernel", t(rng.normal(size=(1, 1, 3, 3)))),
            sf.ParamSet(2, "a", "conv_bias", t(rng.normal(size=3))),
            sf.ParamSet(3, "o", "conv_kernel", t(rng.normal(size=(1, 1, 3, 2)))),
            sf.ParamSet(4, "o", "conv_bias", t(rng.normal(size=2))),
        ]
        g = sf.ModelGraph(layers, params, 2, {"input_channels": 3})
        c = np.array([-1.5, 0.75, 2.0], np.float32)  # negatives fine: no ReLU
        out = absorb_bias(g, c, "a", "o", tiny_inputs[0])
        batch = sf.batch_inputs(tiny_inputs[0])
        a = sf.run_float(g, batch)
        b = sf.run_float(out, batch)
        assert np.array_equal(a.class_map, b.class_map)


def test_protection_records_and_risky_scan_bytes_are_pinned(tmp_path):
    """The PT1-PT4 record files and the risky scan of model_b, byte for byte."""
    graph = sf.generate_toy_weights(sf.build_unet(2, 8, 4, 4), 42)
    digests = {}
    for level in PT_LEVELS:
        _, report = protect_parameters(graph, PT_LEVELS[level])
        path = tmp_path / f"pt{level}.jsonl"
        report.write_jsonl(path)
        digests[level] = hashlib.sha256(path.read_bytes()).hexdigest()
    scan = json.dumps(sf.risky_exponent_scan(graph), sort_keys=True).encode()
    digests["scan"] = hashlib.sha256(scan).hexdigest()
    assert digests == {
        1: "71d10cee74f001e651df70cdb9861f42bbb30b6c549c9dcc42230f76a3eae5a9",
        2: "d78c2ab766d517cbfc8ce80b3acd75c4c4d297a473f3a91640fd1336688d8ced",
        3: "9795400fce4eff57c7d94f0fbcea9f7eae850e8c957bc307ba8d1b36dba8e79c",
        4: "92122620f377bce9507e3a1296697f552a8b568e1b9f737339ab55760df0417f",
        "scan": "c7e45197aa59f1d8c7f0c84bcde34ece8246ec5b266530bffcf442f15d347063",
    }


def test_evaluation_matches_full_forward_oracle(tiny_graph, tiny_inputs):
    from oracles import evaluate_protection_full_forward
    graph = tiny_graph.copy()
    graph.layer_params("bn_1")["bn_gamma"].data[::2] = np.float32(1.9995)
    # partial-risky biases: danger bit 29 (exponent 0x3F) and 28 (exponent 0x5F)
    for layer in ("conv2D_3", graph.output_layer.name):
        bias = graph.layer_params(layer)["conv_bias"].data
        bias[::2] = np.float32(1.5 * 2.0 ** -64)
        bias[1::2] = np.float32(-1.9995 * 2.0 ** -32)
    prot, _ = protect_parameters(graph, PT_LEVELS[2])
    ev = evaluate_protection(graph, prot, tiny_inputs[0], bit_filter={30, 29, 28})
    faultless, per_bit = evaluate_protection_full_forward(
        graph, prot, tiny_inputs[0], bit_filter={30, 29, 28})
    assert [row["bit"] for row in per_bit] == [30, 29, 28]
    assert ev.faultless == faultless
    assert ev.per_bit == per_bit


def _planted_risky(graph):
    """A copy of ``graph`` with risky values planted at danger bits 30, 29 and 28."""
    graph = graph.copy()
    graph.layer_params("bn_1")["bn_gamma"].data[::2] = np.float32(1.9995)
    for layer in ("conv2D_3", graph.output_layer.name):
        bias = graph.layer_params(layer)["conv_bias"].data
        bias[::2] = np.float32(1.5 * 2.0 ** -64)
        bias[1::2] = np.float32(-1.9995 * 2.0 ** -32)
    return graph


def test_evaluation_with_workers_matches_full_forward_oracle(tiny_graph, tiny_inputs):
    from oracles import evaluate_protection_full_forward
    graph = _planted_risky(tiny_graph)
    prot, _ = protect_parameters(graph, PT_LEVELS[2])
    ev = evaluate_protection(graph, prot, tiny_inputs[0], bit_filter={30, 29, 28},
                             workers=2)
    faultless, per_bit = evaluate_protection_full_forward(
        graph, prot, tiny_inputs[0], bit_filter={30, 29, 28})
    assert [row["bit"] for row in per_bit] == [30, 29, 28]
    assert ev.faultless == faultless
    assert ev.per_bit == per_bit
    assert ev.failed == []


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluation_with_labels_matches_full_forward_oracle(workers):
    """IoU is scored against given labels, in the parent and in spawned workers."""
    from oracles import evaluate_protection_full_forward
    graph = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5, gamma_range=(1, 2),
                                    gamma_mode="raw")
    prot, _ = protect_parameters(graph, PT_LEVELS[2])
    images, labels = sf.generate_calibration_set((16, 16, 3), count=3, seed=11,
                                                 class_count=3)
    ev = evaluate_protection(graph, prot, images, labels=labels, bit_filter={30, 29, 28},
                             workers=workers)
    faultless, per_bit = evaluate_protection_full_forward(
        graph, prot, images, labels=labels, bit_filter={30, 29, 28})
    assert sum(row["n"] for row in per_bit) == 80
    assert faultless["original"]["giou"] < 100.0    # not self-labels
    assert ev.faultless == faultless
    assert ev.per_bit == per_bit
    assert ev.failed == []


def test_failed_fault_is_recorded_and_left_out(tiny_graph, tiny_inputs, tmp_path,
                                               monkeypatch):
    """The second position gets bit 32, which apply_fault refuses: the pair is
    left out of both models' rows, exactly as if it had been filtered out, and
    the report bytes do not depend on the worker count."""
    import seu_forge.protect as protect
    graph = _planted_risky(tiny_graph)
    prot, _ = protect_parameters(graph, PT_LEVELS[2])
    real = protect.run_fault_sets

    bits = {30, 29, 28}

    def evaluate(bit_filter, workers):
        def second_is_bit_32(graphs, fault_sets, *rest):
            # the evaluation's own list: the bit it records is the one run
            if 32 in bit_filter:
                fault_sets[1] = [dataclasses.replace(fault_sets[1][0], bit=32)]
            else:
                del fault_sets[1]
            return real(graphs, fault_sets, *rest)

        monkeypatch.setattr(protect, "run_fault_sets", second_is_bit_32)
        return evaluate_protection(graph, prot, tiny_inputs[0], bit_filter=bit_filter,
                                   workers=workers)

    ev = evaluate(bits | {32}, 1)
    dropped = evaluate(bits, 1)
    assert [(f["bit"], f["model"]) for f in ev.failed] == [(32, "original"),
                                                           (32, "protected")]
    assert all(f["error"].startswith("ValueError: bit 32 out of range") for f in ev.failed)
    assert dropped.failed == []
    assert ev.faultless == dropped.faultless and ev.per_bit == dropped.per_bit
    assert {row["bit"] for row in ev.per_bit} >= {30, 29, 28}

    for workers, run in ((1, ev), (2, evaluate(bits | {32}, 2))):
        run.write_json(tmp_path / f"eval{workers}.json")
    report = (tmp_path / "eval1.json").read_bytes()
    assert report == (tmp_path / "eval2.json").read_bytes()
    assert b"bit 32 out of range" in report


def test_evaluation_takes_each_bit_from_its_danger_lookup(tiny_graph, tiny_inputs,
                                                          monkeypatch):
    """The positions' bits come from the one ``bits.DANGER_BIT`` lookup per
    set: ``danger_bit`` is not called, and every risky position is evaluated."""
    import seu_forge.protect as protect
    graph = _planted_risky(tiny_graph)
    prot, report = protect_parameters(graph, PT_LEVELS[2])
    calls = []
    monkeypatch.setattr(protect, "danger_bit", lambda word: calls.append(word))
    ev = evaluate_protection(graph, prot, tiny_inputs[0][:1])
    assert calls == []
    assert sum(row["n"] for row in ev.per_bit) == len(report.records) > 0


def test_evaluation_walks_hold_at_most_the_maps_budget(tiny_graph, tiny_inputs, monkeypatch):
    """With a budget of two class maps, each walk takes at most two positions
    and the evaluation does not change."""
    import seu_forge.campaign as campaign
    from conftest import spy_walks
    graph = _planted_risky(tiny_graph)
    prot, _ = protect_parameters(graph, PT_LEVELS[2])
    images = tiny_inputs[0][:3]
    whole = evaluate_protection(graph, prot, images, bit_filter={30, 29, 28})
    monkeypatch.setattr(campaign, "HELD_MAPS_BYTES", 2 * 3 * 16 * 16 * 4 + 1)
    walks = spy_walks(monkeypatch, campaign)
    bounded = evaluate_protection(graph, prot, images, bit_filter={30, 29, 28})
    assert len(walks) > 2 and all(n <= 2 for n, _ in walks)
    assert sum(resumed for _, resumed in walks) > 2
    assert bounded.faultless == whole.faultless and bounded.per_bit == whole.per_bit


def test_quantized_original_refused_before_any_walk(tiny_graph, tiny_inputs, monkeypatch):
    """A quantized model holds no f32 set to protect: evaluate_protection
    refuses it, as protect_parameters does, before any forward runs."""
    import seu_forge.campaign as campaign
    from conftest import spy_walks
    images = tiny_inputs[0][:3]
    quantized = sf.quantize_ptq(tiny_graph, images)
    walks = spy_walks(monkeypatch, campaign)
    with pytest.raises(ValueError, match="protection applies to float graphs"):
        evaluate_protection(quantized, quantized, images)
    assert walks == []


# ---------------------------------------------------------------------------
# the array pass against the element loop it replaced


RISKY_EXPONENTS = [e for e in range(256) if bits.RISKY[e]]
# a target whose thresholds are f32 significands, where ">=" and ">" differ;
# no PT level's threshold is one
EXACT_TARGET = ProtectionTarget("exact", 1.75, 1.25)
TARGETS = [*PT_LEVELS.values(), EXACT_TARGET]


def _near(threshold):
    """The mantissas of the f32 significands nearest ``threshold``, and one ulp
    either side of them."""
    m = (threshold - 1.0) * (1 << bits.F32_MANT_BITS)
    return [x for x in range(math.floor(m) - 1, math.ceil(m) + 2) if 0 <= x <= bits.F32_MANT_MASK]


THRESHOLD_MANTISSAS = sorted({m for t in TARGETS
                              for m in _near(t.full_threshold) + _near(t.empty_threshold)})
SIGNS = st.integers(0, 1)
WORDS = st.one_of(
    st.builds(assemble_f32, SIGNS, st.sampled_from(RISKY_EXPONENTS),
              st.integers(0, bits.F32_MANT_MASK)),
    st.builds(assemble_f32, SIGNS, st.sampled_from(RISKY_EXPONENTS),
              st.sampled_from(THRESHOLD_MANTISSAS)),
    st.builds(assemble_f32, SIGNS, st.just(0), st.integers(0, bits.F32_MANT_MASK)),
    st.builds(assemble_f32, SIGNS, st.just(0xFF), st.integers(0, bits.F32_MANT_MASK)),
    st.integers(0, 2**32 - 1),
)


NON_RISKY_WORDS = st.builds(assemble_f32, SIGNS,
                            st.sampled_from([e for e in range(256) if not bits.RISKY[e]]),
                            st.integers(0, bits.F32_MANT_MASK))


def _word_graph(data):
    """A one-conv graph whose kernel and bias hold drawn f32 words."""
    cin, cout = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    kernel = data.draw(st.lists(WORDS, min_size=cin * cout, max_size=cin * cout))
    bias = data.draw(st.lists(WORDS, min_size=cout, max_size=cout))
    as_f32 = lambda words, shape: np.array(words, np.uint32).view(np.float32).reshape(shape)
    return single_conv_graph(as_f32(kernel, (1, 1, cin, cout)), as_f32(bias, (cout,)))


def _record_fields(record):
    """A record's fields, each float as its bits."""
    return [struct.pack("<d", v) if isinstance(v, float) else (type(v), v)
            for v in record.__dict__.values()]


@pytest.mark.parametrize("roles", [None, ("conv_bias",)])
@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.level)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_protection_matches_the_element_loop(target, roles, data):
    """Protected words and records equal the element-by-element loop's, floats
    by their bits: every risky exponent with either sign, zeros, subnormals,
    infinities, NaN payloads and mantissas at and beside each threshold."""
    graph = _word_graph(data)
    prot, report = protect_parameters(graph, target, roles=roles)
    expected, oracle = protect_parameters_scalar(graph, target, roles=roles)
    for p, q in zip(prot.params, expected.params):
        assert p.data.tobytes() == q.data.tobytes()
    assert [_record_fields(r) for r in report.records] == \
        [_record_fields(r) for r in oracle.records]
    assert [r.to_json() for r in report.records] == [r.to_json() for r in oracle.records]


@pytest.mark.parametrize("bit_filter", [None, {30}, set(range(23, 30))])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_evaluation_targets_are_the_danger_bits(bit_filter, data, tiny_inputs):
    """The evaluated positions are each risky element's danger bit, as the
    struct oracle finds it, kept where the filter admits the bit."""
    import seu_forge.protect as protect
    graph = _word_graph(data)
    expected = [(p.index, element, bit)
                for p in graph.params for element, value in enumerate(p.data.flat)
                for bit in [danger_bit_struct(value)]
                if bit is not None and (bit_filter is None or bit in bit_filter)]
    seen = []

    def run_fault_sets(graphs, fault_sets, batch, score, workers):
        seen.extend((spec.pset, spec.element, spec.bit) for (spec,) in fault_sets)
        return [{}, {}], [((None, "skipped"), (None, "skipped"))] * len(fault_sets)

    with mock.patch.object(protect, "run_fault_sets", run_fault_sets):
        evaluate_protection(graph, graph, tiny_inputs[0][:1], bit_filter=bit_filter)
    assert seen == expected


# ---------------------------------------------------------------------------
# the report's columns


def test_protection_and_its_summary_build_no_record_objects(monkeypatch):
    """protect_parameters and summary() keep model_b's records as columns;
    a record object is built only when one is read."""
    graph = sf.generate_toy_weights(sf.build_unet(2, 8, 4, 4), 42)
    built = []
    init = ProtectionRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProtectionRecord, "__init__", counting_init)
    _, report = protect_parameters(graph, PT_LEVELS[2])
    summary = report.summary()
    assert not built
    assert sum(1 for _ in report.records) == len(built) == summary["candidates"] > 0


def _jsonl_bytes(report):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "records.jsonl")
        report.write_jsonl(path)
        with open(path, "rb") as f:
            return f.read()


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.level)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_appended_records_read_as_the_array_pass_columns(target, data):
    """A report filled through ``records.add_set``, as the element loop fills
    it, has the array pass's summary, applied records and JSONL bytes; in
    both, length and iteration agree."""
    graph = _word_graph(data)
    _, report = protect_parameters(graph, target)
    _, oracle = protect_parameters_scalar(graph, target)
    assert oracle.summary() == report.summary()
    assert [_record_fields(r) for r in oracle.applied()] == \
        [_record_fields(r) for r in report.applied()]
    assert _jsonl_bytes(oracle) == _jsonl_bytes(report)
    for records in (report.records, oracle.records):
        listed = [_record_fields(r) for r in records]
        n = len(listed)
        assert len(records) == n


def _gap_graph(data):
    """A conv feeding a 1x1 output conv whose kernels each hold a risky word
    among drawn ones, and whose first bias (p2) holds none."""
    cin, mid, cout = (data.draw(st.integers(1, 3)) for _ in range(3))

    def f32(words, size, shape):
        drawn = data.draw(st.lists(words, min_size=size, max_size=size))
        return np.array(drawn, np.uint32).view(np.float32).reshape(shape)

    def risky_among(size, shape):
        values = f32(WORDS, size, shape)
        values.view(np.uint32).flat[data.draw(st.integers(0, size - 1))] = data.draw(
            st.builds(assemble_f32, SIGNS, st.sampled_from(RISKY_EXPONENTS),
                      st.integers(0, bits.F32_MANT_MASK)))
        return values

    layers = [sf.LayerSpec("conv2d", "a", {"kernel_size": 1, "stride": 1, "padding": "same",
                                           "filters": mid}, ["input"]),
              sf.LayerSpec("output_conv", "o", {"kernel_size": 1, "stride": 1,
                                                "padding": "same", "filters": cout}, ["a"])]
    params = [sf.ParamSet(1, "a", "conv_kernel", risky_among(cin * mid, (1, 1, cin, mid))),
              sf.ParamSet(2, "a", "conv_bias", f32(NON_RISKY_WORDS, mid, (mid,))),
              sf.ParamSet(3, "o", "conv_kernel", risky_among(mid * cout, (1, 1, mid, cout))),
              sf.ParamSet(4, "o", "conv_bias", f32(WORDS, cout, (cout,)))]
    return sf.ModelGraph(layers, params, cout, {"input_channels": cin})


def _json_line(record):
    """A record's line as json.dumps writes its fields, the values as reprs."""
    return json.dumps({"pset": record.pset, "element": record.element, "rule": record.rule,
                       "before_bits": record.before_bits, "after_bits": record.after_bits,
                       "before_value": repr(record.before_value),
                       "after_value": repr(record.after_value),
                       "relative_delta": record.relative_delta}, sort_keys=True)


@pytest.mark.parametrize("build", [_word_graph, _gap_graph], ids=["words", "gap"])
@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.level)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_record_lines_are_the_json_of_the_records(target, build, data):
    """The record file written from the columns holds, line for line, what
    json.dumps writes for each record read out; ``applied()`` is the moves
    among them; the words equal the element loop's, also across a set with
    no candidate between two with some."""
    graph = build(data)
    prot, report = protect_parameters(graph, target)
    expected, _ = protect_parameters_scalar(graph, target)
    for p, q in zip(prot.params, expected.params):
        assert p.data.tobytes() == q.data.tobytes()
    records = list(report.records)
    if build is _gap_graph:
        assert {1, 3} <= {r.pset for r in records} and 2 not in {r.pset for r in records}
    assert _jsonl_bytes(report) == "".join(_json_line(r) + "\n" for r in records).encode()
    assert [r.to_json() for r in records] == [_json_line(r) for r in records]
    assert [_record_fields(r) for r in report.applied()] == \
        [_record_fields(r) for r in records if r.rule in (RULE_INCREMENT, RULE_DECREMENT)]
