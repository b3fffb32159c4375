import numpy as np
import pytest

import seu_forge as sf
from seu_forge.campaign import (CampaignPlan, error_rate,
                                generate_sweep_faults, golden_class_shares,
                                plan_single_bit_sweep, predict_bit30_error,
                                predict_sign_bit_error_quantized,
                                run_multi_bit_campaign, run_single_bit_sweep,
                                sample_size, segmentation_metrics,
                                weighted_bit_error)
from seu_forge.tensor import INVALID_CLASS

from oracles import confusion_matrix_by_hand

# Frozen reference cases for the bit-30 predictor: per-class addends (error
# contribution of a flip in bias j). With signs (-,+,-,+,-,+), addend = share
# for negative biases and 100-share for positive ones, so the underlying
# golden shares are recovered by complementing the positive-bias entries;
# each recovered share vector sums to ~100, confirming the reading.
REFERENCE_SIGNS = [-1, 1, -1, 1, -1, 1]
ADDENDS_UNPRUNED = [0.0, 55.09, 4.41, 73.05, 7.47, 83.73]     # -> 37.29
ADDENDS_PRUNED = [0.0, 55.66, 4.35, 72.93, 7.37, 83.13]       # -> 37.24
ADDENDS_QUANTIZED = [0.0, 54.91, 4.28, 72.42, 6.91, 83.86]    # -> 37.06


def shares_from_addends(addends, signs):
    return [a if s < 0 else 100.0 - a for a, s in zip(addends, signs)]


class TestSampleSize:
    def test_reference_value(self):
        assert sample_size(996_480_000, 0.025, 1.96, 0.5) == 1537

    def test_clamps(self):
        assert sample_size(1, 0.025, 1.96, 0.5) == 1
        assert sample_size(1000, 1e-9, 1.96, 0.5) == 1000

    def test_domain_checks(self):
        for bad in [(0, 0.1, 1.96, 0.5), (10, 0.0, 1.96, 0.5), (10, 1.0, 1.96, 0.5),
                    (10, 0.1, 0.0, 0.5), (10, 0.1, 1.96, 0.0), (10, 0.1, 1.96, 1.0)]:
            with pytest.raises(ValueError):
                sample_size(*bad)

    def test_monotonicity_grid(self):
        es = np.linspace(0.005, 0.2, 100)
        ns = [sample_size(10**6, float(e), 1.96, 0.5) for e in es]
        assert all(a >= b for a, b in zip(ns, ns[1:]))  # non-increasing in e
        Ns = np.unique(np.logspace(1, 8, 100).astype(int))
        ns = [sample_size(int(N), 0.025, 1.96, 0.5) for N in Ns]
        assert all(a <= b for a, b in zip(ns, ns[1:]))  # non-decreasing in N


class TestErrorRate:
    def test_identical_zero(self):
        m = np.arange(12).reshape(3, 4) % 3
        assert error_rate(m, m) == 0.0

    def test_inverted_binary(self):
        m = np.arange(12).reshape(3, 4) % 2
        assert error_rate(m, 1 - m) == 100.0

    def test_partial(self):
        golden = np.zeros(12, int).reshape(3, 4)
        faulty = golden.copy()
        faulty.reshape(-1)[:3] = 1
        assert error_rate(golden, faulty) == 25.0

    def test_invalid_mismatches_everything(self):
        golden = np.zeros((2, 2), int)
        faulty = np.full((2, 2), INVALID_CLASS)
        assert error_rate(golden, faulty) == 100.0
        assert error_rate(faulty, faulty) == 100.0  # INVALID != INVALID

    def test_shape_check(self):
        with pytest.raises(sf.ShapeError):
            error_rate(np.zeros((2, 2), int), np.zeros((2, 3), int))


class TestSegmentationMetrics:
    def test_perfect_prediction(self):
        labels = np.arange(16).reshape(4, 4) % 3
        m = segmentation_metrics(labels, labels, 3)
        assert m.global_iou == 100.0 and m.weighted_iou == 100.0
        assert all(v == 100.0 for v in m.per_class_iou)

    def test_complement_two_classes(self):
        labels = (np.arange(16).reshape(4, 4) % 2)
        m = segmentation_metrics(1 - labels, labels, 2)
        assert m.per_class_iou == [0.0, 0.0]
        assert m.global_iou == 0.0

    def test_hand_confusion_case(self):
        # 4 pixels: labels (0,0,1,1), predictions (0,1,1,1)
        labels = np.array([[0, 0], [1, 1]])
        pred = np.array([[0, 1], [1, 1]])
        conf, _ = confusion_matrix_by_hand(pred, labels, 2)
        assert conf.tolist() == [[1, 1], [0, 2]]
        m = segmentation_metrics(pred, labels, 2)
        # class 0: TP=1 FN=1 FP=0 -> rec 50, prec 100, IoU 50
        # class 1: TP=2 FN=0 FP=1 -> rec 100, prec 66.67, IoU 66.67
        assert m.per_class_recall == pytest.approx([50.0, 100.0])
        assert m.per_class_precision == pytest.approx([100.0, 200 / 3])
        assert m.per_class_iou == pytest.approx([50.0, 200 / 3])
        # micro: correct 3/4
        assert m.global_recall == pytest.approx(75.0)
        assert m.global_iou == pytest.approx(100.0 * 3 / 5)
        # weighted: equal class frequency
        assert m.weighted_iou == pytest.approx((50.0 + 200 / 3) / 2)

    def test_unseen_class_rejected(self):
        with pytest.raises(ValueError):
            segmentation_metrics(np.zeros((2, 2), int), np.full((2, 2), 7), 3)

    def test_invalid_predictions_count_against_recall(self):
        labels = np.zeros((2, 2), int)
        pred = np.full((2, 2), INVALID_CLASS)
        m = segmentation_metrics(pred, labels, 2)
        assert m.per_class_recall[0] == 0.0
        assert m.global_iou == 0.0


class TestPredictors:
    @pytest.mark.parametrize("addends,expected", [
        (ADDENDS_UNPRUNED, 37.29), (ADDENDS_PRUNED, 37.24), (ADDENDS_QUANTIZED, 37.06)])
    def test_reference_worked_examples(self, addends, expected):
        shares = shares_from_addends(addends, REFERENCE_SIGNS)
        assert sum(shares) == pytest.approx(100.0, abs=0.02)
        est = predict_bit30_error(REFERENCE_SIGNS, shares)
        assert round(est, 2) == expected

    def test_sign_bit_complement(self):
        shares = shares_from_addends(ADDENDS_QUANTIZED, REFERENCE_SIGNS)
        pred = predict_sign_bit_error_quantized(REFERENCE_SIGNS, shares)
        assert round(pred.estimate, 2) == 62.94
        # per-class values match the frozen reference list
        assert [round(v, 2) for v in pred.per_class] == \
            [100.0, 45.09, 95.72, 27.58, 93.09, 16.14]
        assert pred.high_variance
        # per-class: bit-30 addend + sign-bit addend complement to 100
        assert np.allclose(np.array(ADDENDS_QUANTIZED) + np.array(pred.per_class),
                           100.0, atol=1e-9)

    def test_sign_bit_trivial_cases(self):
        # flooding a class that already wins everywhere changes nothing
        assert predict_sign_bit_error_quantized([-1], [100.0]).estimate == 0.0
        # suppressing a class that never wins changes nothing
        assert predict_sign_bit_error_quantized([1], [0.0]).estimate == 0.0
        # suppressing an omnipresent class inverts every pixel
        assert predict_sign_bit_error_quantized([1], [100.0]).estimate == 100.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            predict_bit30_error([1, -1], [50.0])

    def test_golden_shares(self):
        maps = [np.array([[0, 1], [1, 2]]), np.array([[2, 2], [2, 0]])]
        shares = golden_class_shares(maps, 3)
        assert shares.tolist() == [25.0, 25.0, 50.0]
        assert shares.sum() == pytest.approx(100.0)


class TestWeightedBitError:
    def test_constant(self):
        assert weighted_bit_error({24: 5.0, 25: 5.0, 26: 5.0}) == pytest.approx(5.0)

    def test_single_bit(self):
        assert weighted_bit_error({30: 42.0}) == 42.0

    def test_two_bit_example(self):
        assert weighted_bit_error({24: 10.0, 25: 30.0}) == pytest.approx(70.0 / 3)

    def test_empty(self):
        with pytest.raises(ValueError):
            weighted_bit_error({})


class TestSweep:
    def test_plan_validation(self, tiny_graph, tiny_inputs):
        with pytest.raises(ValueError, match="no parameter sets"):
            plan_single_bit_sweep(tiny_graph, roles=[])
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        with pytest.raises(ValueError, match=r"restrict --bits"):
            plan_single_bit_sweep(q, roles=["conv_kernel"], bits=(23, 30))

    def test_plan_json_roundtrip(self, tiny_graph):
        plan = plan_single_bit_sweep(tiny_graph, psets=[1, 2], bits=(30, 31), seed=5)
        back = CampaignPlan.from_json(plan.to_json())
        assert back == plan

    def test_fault_generation_deterministic_without_replacement(self, tiny_graph):
        plan = plan_single_bit_sweep(tiny_graph, psets=[1, 2], bits=(20, 31),
                                     injections_per_target=30, seed=9)
        a = generate_sweep_faults(tiny_graph, plan)
        b = generate_sweep_faults(tiny_graph, plan)
        assert a == b
        per_target = {}
        for s in a:
            per_target.setdefault(s.pset, set()).add((s.element, s.bit))
        assert all(len(v) == 30 for v in per_target.values())

    def test_zero_weight_kernel_low_bits_immune(self, tiny_inputs):
        # all-zero kernel multiplied by activations: mantissa/low-exponent
        # flips keep the value small -> zero output disturbance
        from conftest import single_conv_graph
        g = single_conv_graph(np.zeros((3, 3, 3, 2)), [0.5, -0.5], input_channels=3)
        plan = plan_single_bit_sweep(g, psets=[1], bits=(0, 22),
                                     injections_per_target=40, seed=3)
        res = run_single_bit_sweep(g, plan, tiny_inputs[0])
        assert all(r["mean_error"] == 0.0 for r in res.rows)

    def test_sweep_reproducible_and_reverts(self, tiny_graph, tiny_inputs):
        before = sf.model_hash(tiny_graph)
        plan = plan_single_bit_sweep(tiny_graph, psets=[1, 3], bits=(28, 31),
                                     injections_per_target=6, seed=21)
        r1 = run_single_bit_sweep(tiny_graph, plan, tiny_inputs[0])
        r2 = run_single_bit_sweep(tiny_graph, plan, tiny_inputs[0])
        assert sf.model_hash(tiny_graph) == before
        assert r1.rows == r2.rows
        assert [o.to_json() for o in r1.outcomes] == [o.to_json() for o in r2.outcomes]

    def test_evaluation_errors_recorded_not_fatal(self, tiny_graph, tiny_inputs,
                                                  monkeypatch):
        import seu_forge.campaign as campaign_mod
        plan = plan_single_bit_sweep(tiny_graph, psets=[1], bits=(30, 30),
                                     injections_per_target=3, seed=4)
        calls = {"n": 0}
        real = campaign_mod._errors_vs_golden

        def flaky(graph, batch, golden):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic evaluation failure")
            return real(graph, batch, golden)

        monkeypatch.setattr(campaign_mod, "_errors_vs_golden", flaky)
        res = run_single_bit_sweep(tiny_graph, plan, tiny_inputs[0])
        failed = [o for o in res.outcomes if o.evaluation_error]
        assert len(failed) == 1
        assert "synthetic evaluation failure" in failed[0].evaluation_error
        assert res.rows[0]["n"] == 2  # aggregates cover only evaluated faults
        # the working copy was reverted despite the failure: later faults ran
        assert sum(1 for o in res.outcomes if o.evaluation_error is None) == 2

    def test_worker_count_invariance(self, tiny_graph, tiny_inputs):
        plan = plan_single_bit_sweep(tiny_graph, psets=[1, 3], bits=(29, 31),
                                     injections_per_target=4, seed=2)
        r1 = run_single_bit_sweep(tiny_graph, plan, tiny_inputs[0], workers=1)
        r2 = run_single_bit_sweep(tiny_graph, plan, tiny_inputs[0], workers=3)
        assert r1.rows == r2.rows
        assert [o.to_json() for o in r1.outcomes] == [o.to_json() for o in r2.outcomes]

    def test_golden_self_error_zero(self, tiny_graph, tiny_inputs, tiny_batch):
        maps = sf.run_float(tiny_graph, tiny_batch).class_map
        for i in range(maps.shape[0]):
            assert error_rate(maps[i], maps[i]) == 0.0

    def test_gamma_in_one_two_bit30_always_catastrophic(self, tiny_inputs):
        # NaN from a gamma flip poisons its whole channel map and from there
        # every downstream logit: 100% error on every image, every element
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)
        gamma = g.layer_params("bn_1")["bn_gamma"].tensor
        gamma.data[...] = np.linspace(1.25, 1.75, gamma.data.size, dtype=np.float32)
        pset = g.layer_params("bn_1")["bn_gamma"].index
        plan = plan_single_bit_sweep(g, psets=[pset], bits=(30, 30),
                                     injections_per_target=10**9, seed=1)
        res = run_single_bit_sweep(g, plan, tiny_inputs[0])
        assert all(o.produced_nan for o in res.outcomes)
        assert all(o.mean_error == 100.0 for o in res.outcomes)
        assert all(e == 100.0 for o in res.outcomes for e in o.per_image_error)

    def test_write_outputs(self, tiny_graph, tiny_inputs, tmp_path):
        plan = plan_single_bit_sweep(tiny_graph, psets=[1], bits=(30, 30),
                                     injections_per_target=3, seed=2)
        res = run_single_bit_sweep(tiny_graph, plan, tiny_inputs[0])
        res.write(tmp_path)
        assert (tmp_path / "sweep_plan.json").exists()
        lines = (tmp_path / "sweep_outcomes.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        header = (tmp_path / "sweep_aggregate.csv").read_text().splitlines()[0]
        assert header == "pset,bit,n,mean_error,nan_count,inf_count"


class TestMultiBit:
    def test_count_zero_and_reproducibility(self, tiny_graph, tiny_inputs):
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        r1 = run_multi_bit_campaign(q, [0, 2], 3, 77, tiny_inputs[0])
        r2 = run_multi_bit_campaign(q, [0, 2], 3, 77, tiny_inputs[0])
        assert r1.means[0] == 0.0 and r1.stds[0] == 0.0
        assert r1.means == r2.means and r1.per_rep_errors == r2.per_rep_errors

    def test_count_exceeding_space(self, tiny_graph, tiny_inputs):
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        space = sf.fault_space_size(q, psets=[p.index for p in q.params])
        with pytest.raises(ValueError, match="exceeds fault space"):
            run_multi_bit_campaign(q, [space + 1], 1, 0, tiny_inputs[0])

    def test_hash_preserved(self, tiny_graph, tiny_inputs):
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        before = sf.model_hash(q)
        run_multi_bit_campaign(q, [5], 4, 3, tiny_inputs[0])
        assert sf.model_hash(q) == before

    def test_writes_plan_and_aggregates(self, tiny_graph, tiny_inputs, tmp_path):
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        res = run_multi_bit_campaign(q, [1, 3], 2, 9, tiny_inputs[0])
        res.write(tmp_path)
        plan = CampaignPlan.from_json((tmp_path / "multibit_plan.json").read_text())
        assert plan.mode == "multi_bit_random"
        assert plan.counts == [1, 3] and plan.repetitions == 2 and plan.seed == 9
        header = (tmp_path / "multibit_aggregate.csv").read_text().splitlines()[0]
        assert header == "flip_count,repetitions,mean_error,std_error"


class TestResumedFaultLoop:
    """Campaigns resume each fault set at its first faulted layer."""

    @pytest.fixture(scope="class")
    def quantized(self, tiny_graph, tiny_inputs):
        return sf.quantize_ptq(tiny_graph, tiny_inputs[0])

    def test_multibit_workers_agree_with_counts_spanning_layers(self, quantized,
                                                                tiny_inputs):
        r1 = run_multi_bit_campaign(quantized, [0, 1, 8], 4, 5, tiny_inputs[0], workers=1)
        r2 = run_multi_bit_campaign(quantized, [0, 1, 8], 4, 5, tiny_inputs[0], workers=2)
        assert r1.per_rep_errors == r2.per_rep_errors
        assert r1.means == r2.means and r1.stds == r2.stds
        assert r1.per_rep_errors[0] == [0.0] * 4

    @pytest.mark.parametrize("graph_kind", ["float", "quantized"])
    def test_fault_sets_over_several_layers_match_full_forwards(self, tiny_graph,
                                                                quantized, tiny_batch,
                                                                graph_kind):
        from seu_forge.campaign import _errors_vs_golden, _multibit_chunk
        graph = quantized if graph_kind == "quantized" else tiny_graph
        run = sf.run_quantized if graph_kind == "quantized" else sf.run_float
        golden = run(graph, tiny_batch).class_map

        def spec(p, bit_from_top):
            return sf.FaultSpec(pset=p.index, element=p.tensor.size // 3,
                                bit=p.width - bit_from_top, encoding=p.tensor.encoding)

        biases = [p for p in graph.params if p.role in ("conv_bias", "convtr_bias")]
        first, middle, last = biases[0], biases[len(biases) // 2], biases[-1]
        reps = [[spec(last, 1)], [], [spec(middle, 2), spec(last, 1)],
                [spec(biases[-2], 1), spec(first, 2)], [spec(middle, 2)],
                [spec(first, 1), spec(middle, 1), spec(biases[-3], 1)]]
        expected = []
        for specs in reps:
            tokens = [sf.apply_fault(graph, s) for s in specs]
            errs = _errors_vs_golden(graph, tiny_batch, golden)
            for tok in reversed(tokens):
                sf.revert(graph, tok)
            expected.append(float(np.mean(errs)))
        assert len(set(expected)) > 2  # the faults do change the class maps
        assert _multibit_chunk((graph, reps, tiny_batch, golden)) == expected
