import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seu_forge as sf
from seu_forge.campaign import (CampaignPlan, error_rate, fault_outcomes,
                                generate_sweep_faults, golden_class_shares,
                                plan_single_bit_sweep, predict_bit30_error,
                                role_bit_means,
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

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_cut_off_must_be_finite(self, tiny_graph, t):
        # t <= 0 is False for NaN: a NaN t once sized a campaign by int(NaN), an
        # infinite one as the whole fault space
        with pytest.raises(ValueError, match=f"confidence cut-off t must be finite, got {t}"):
            sample_size(100, 0.025, t, 0.5)
        with pytest.raises(ValueError, match="confidence cut-off t must be finite"):
            plan_single_bit_sweep(tiny_graph, psets=[2], injections_per_target=1, z_value=t)

    @pytest.mark.parametrize("N", [10.5, True])
    def test_refuses_an_N_that_is_not_an_integer(self, N):
        with pytest.raises(ValueError, match=re.escape(f"N must be an integer, got {N!r}")):
            sample_size(N, 0.05, 1.96, 0.5)

    def test_accepts_a_numpy_integer_N(self):
        assert sample_size(np.int64(996_480_000), 0.025, 1.96, 0.5) == 1537

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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_counts_match_the_confusion_matrix_by_hand(self, data):
        """Per-class and global scores are those of the hand-counted confusion
        matrix, with INVALID and out-of-range predictions counted per label,
        for label maps of any integer type (label * classes overflows uint8)."""
        classes = data.draw(st.integers(1, 20))
        size = data.draw(st.integers(1, 40))
        labels = np.array(data.draw(st.lists(st.integers(0, classes - 1),
                                             min_size=size, max_size=size)),
                          data.draw(st.sampled_from([np.uint8, np.int32, np.int64])))
        pred = np.array(data.draw(st.lists(
            st.sampled_from([INVALID_CLASS, -2, classes, classes + 3]) |
            st.integers(0, classes - 1), min_size=size, max_size=size)), np.int32)
        conf, invalid = confusion_matrix_by_hand(pred, labels, classes)
        m = segmentation_metrics(pred.reshape(1, size), labels.reshape(1, size), classes)

        def pct(num, den):
            return 100.0 * num / den if den > 0 else 100.0

        tp = [float(conf[c, c]) for c in range(classes)]
        fn = [int(conf[c].sum()) + int(invalid[c]) - conf[c, c] for c in range(classes)]
        fp = [int(conf[:, c].sum()) - conf[c, c] for c in range(classes)]
        assert m.per_class_recall == [pct(tp[c], tp[c] + fn[c]) for c in range(classes)]
        assert m.per_class_precision == [pct(tp[c], tp[c] + fp[c]) for c in range(classes)]
        assert m.per_class_iou == [pct(tp[c], tp[c] + fn[c] + fp[c]) for c in range(classes)]
        assert m.global_recall == 100.0 * sum(tp) / size
        assert m.global_iou == pct(sum(tp), sum(tp) + sum(fn) + sum(fp))


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

    @pytest.mark.parametrize("bits", [(-2, 31), (-1, 0)])
    def test_plan_refuses_a_negative_bit(self, tiny_graph, bits):
        with pytest.raises(ValueError, match=f"bit {bits[0]} is negative"):
            plan_single_bit_sweep(tiny_graph, psets=[2], bits=bits)

    @pytest.mark.parametrize("n", [0, -3])
    def test_plan_refuses_a_non_positive_n(self, tiny_graph, n):
        with pytest.raises(ValueError, match=f"must be >= 1, got {n}"):
            plan_single_bit_sweep(tiny_graph, psets=[2], bits=(30, 31),
                                  injections_per_target=n)

    @pytest.mark.parametrize("options, field, value", [
        ({"bits": (23.5, 31)}, "bit_lo", 23.5),
        ({"bits": (0, True)}, "bit_hi", True),
        ({"injections_per_target": 2.5}, "injections_per_target", 2.5),
        ({"injections_per_target": True}, "injections_per_target", True),
        ({"seed": 1.5}, "seed", 1.5),
    ])
    def test_plan_refuses_a_value_that_is_not_an_integer(self, tiny_graph, options, field,
                                                         value):
        """Refused, not truncated or recorded for numpy to fail on later."""
        with pytest.raises(ValueError,
                           match=re.escape(f"{field} must be an integer, got {value!r}")):
            plan_single_bit_sweep(tiny_graph, psets=[2], **{"bits": (30, 31), **options})

    def test_plan_accepts_numpy_integers(self, tiny_graph):
        plan = plan_single_bit_sweep(tiny_graph, psets=[2], bits=(np.int64(30), np.int32(31)),
                                     injections_per_target=np.int64(2), seed=np.uint8(3))
        assert plan == plan_single_bit_sweep(tiny_graph, psets=[2], bits=(30, 31),
                                             injections_per_target=2, seed=3)
        assert CampaignPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize("changes, message", [
        ({"injections_per_target": 2.5}, "injections_per_target must be an integer, got 2.5"),
        ({"injections_per_target": True}, "injections_per_target must be an integer, got True"),
        ({"bit_lo": 1.5}, "bit_lo must be an integer, got 1.5"),
        ({"seed": None}, "seed must be an integer, got None"),
    ])
    def test_json_plan_refuses_a_value_that_is_not_an_integer(self, tiny_graph, tiny_inputs,
                                                             changes, message):
        plan = plan_single_bit_sweep(tiny_graph, psets=[2], bits=(0, 31),
                                     injections_per_target=3, seed=1)
        edited = CampaignPlan.from_json(json.dumps({**json.loads(plan.to_json()), **changes}))
        with pytest.raises(ValueError, match=re.escape(message)):
            run_single_bit_sweep(tiny_graph, edited, tiny_inputs[0])

    def test_plan_json_roundtrip(self, tiny_graph):
        plan = plan_single_bit_sweep(tiny_graph, psets=[1, 2], bits=(30, 31), seed=5)
        back = CampaignPlan.from_json(plan.to_json())
        assert back == plan

    @pytest.mark.parametrize("changes, message", [
        ({"bit_lo": -2, "injections_per_target": 0}, "bit -2 is negative"),
        ({"injections_per_target": 0}, "must be >= 1, got 0"),
        ({"bit_hi": 40}, r"bit range \[0-40\] exceeds p2"),
        ({"bit_lo": 5, "bit_hi": 4}, r"empty bit range \[5, 4\]"),
        # the plan records its sizing, so it is checked although n leaves it unused
        ({"margin": 5.0}, r"error margin e must be in \(0, 1\), got 5.0"),
        ({"z_value": -2.0}, "confidence cut-off t must be positive, got -2.0"),
        ({"prior": 7.0}, r"prior p must be in \(0, 1\), got 7.0"),
    ])
    def test_json_plan_is_checked_before_faults_are_drawn(self, tiny_graph, tiny_inputs,
                                                          changes, message):
        plan = plan_single_bit_sweep(tiny_graph, psets=[2], bits=(0, 31),
                                     injections_per_target=3, seed=1)
        edited = CampaignPlan.from_json(json.dumps({**json.loads(plan.to_json()), **changes}))
        with pytest.raises(ValueError, match=message):
            run_single_bit_sweep(tiny_graph, edited, tiny_inputs[0])

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
        real = campaign_mod.with_faults

        def flaky(work, specs, evaluate):
            calls["n"] += 1
            if calls["n"] == 2:
                def evaluate(graph):
                    raise RuntimeError("synthetic evaluation failure")
            return real(work, specs, evaluate)

        monkeypatch.setattr(campaign_mod, "with_faults", flaky)
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

    def test_bn_variance_sign_flips_are_measured(self, tiny_graph, tiny_inputs):
        # bit 31 makes a variance negative; sigma + eps < 0 then turns its
        # channel NaN, a poisoned outcome like any other, not a failed fault
        plan = plan_single_bit_sweep(tiny_graph, roles=["bn_sigma"], bits=(31, 31),
                                     injections_per_target=4, seed=3)
        res = run_single_bit_sweep(tiny_graph, plan, tiny_inputs[0])
        assert res.outcomes and all(o.evaluation_error is None for o in res.outcomes)
        assert all(o.mean_error == 100.0 for o in res.outcomes)
        assert res.rows and all(r["n"] >= 1 for r in res.rows)

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

    def test_zero_repetitions_raise_before_any_walk(self, tiny_graph, tiny_inputs,
                                                    monkeypatch):
        import seu_forge.campaign as campaign
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        walks = []
        real = campaign._fault_loop

        def spy(*args):
            walks.append(args[2])   # the fault sets it walks
            return real(*args)

        monkeypatch.setattr(campaign, "_fault_loop", spy)
        with pytest.raises(ValueError, match="repetitions must be >= 1, got 0"):
            run_multi_bit_campaign(q, [1, 2], 0, 0, tiny_inputs[0])
        assert walks == []

    @pytest.mark.parametrize("counts, repetitions, seed, field, value", [
        ([1.5], 2, 0, "flip count", 1.5),
        ([True], 2, 0, "flip count", True),
        ([1], 2.5, 0, "repetitions", 2.5),
        ([1], True, 0, "repetitions", True),
        ([1], 2, 0.5, "seed", 0.5),
    ])
    def test_refuses_a_value_that_is_not_an_integer(self, tiny_graph, tiny_inputs, counts,
                                                    repetitions, seed, field, value):
        """Refused, not truncated: a count of 1.5 once ran and reported flip count 1."""
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        with pytest.raises(ValueError,
                           match=re.escape(f"{field} must be an integer, got {value!r}")):
            run_multi_bit_campaign(q, counts, repetitions, seed, tiny_inputs[0])

    def test_accepts_numpy_integers(self, tiny_graph, tiny_inputs):
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        r1 = run_multi_bit_campaign(q, [np.int64(2)], np.int32(2), np.int64(77), tiny_inputs[0])
        r2 = run_multi_bit_campaign(q, [2], 2, 77, tiny_inputs[0])
        assert r1.plan.to_json() == r2.plan.to_json()
        assert r1.per_rep_errors == r2.per_rep_errors

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

    def test_every_worker_gets_repetitions_of_every_count(self, tiny_graph, tiny_inputs,
                                                          monkeypatch):
        import seu_forge.campaign as campaign
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        counts = [1, 10, 50]
        serial = run_multi_bit_campaign(q, counts, 4, 12, tiny_inputs[0], workers=1)
        chunks = []

        def spy(worker, jobs, workers):
            chunks.extend(chunk for _, chunk, _, _ in jobs)
            return [worker(j) for j in jobs]

        monkeypatch.setattr(campaign, "_run_chunks", spy)
        dealt = run_multi_bit_campaign(q, counts, 4, 12, tiny_inputs[0], workers=2)
        assert len(chunks) == 2
        for chunk in chunks:
            assert sorted({len(specs) for specs in chunk}) == counts
        assert dealt.per_rep_errors == serial.per_rep_errors
        assert (dealt.means, dealt.stds) == (serial.means, serial.stds)


class TestEveryFaultMeasured:
    """No parameter value makes a forward fail: every drawn fault is measured,
    a batch-norm variance flipped negative (a NaN channel) included."""

    @pytest.fixture(scope="class")
    def models(self, tiny_graph, tiny_inputs):
        images = tiny_inputs[0][:2]
        return (tiny_graph, sf.quantize_ptq(tiny_graph, images)), sf.batch_inputs(images)

    @pytest.mark.parametrize("quantized, role", [
        *((False, role) for role in sf.ROLES),
        *((True, role) for role in sf.ROLES if not role.startswith("bn_"))])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_single_fault(self, models, quantized, role, data):
        graphs, batch = models
        graph = graphs[quantized]
        p = data.draw(st.sampled_from(graph.params_of((role,))))
        encoding = p.tensor.encoding
        top = 7 if encoding == "i8" else 31
        # the sign bit and the top exponent bit are drawn often: they make
        # values negative or non-finite
        bit = data.draw(st.integers(0, top) | st.sampled_from([top - 1, top]))
        spec = sf.FaultSpec(pset=p.index, element=data.draw(st.integers(0, p.tensor.size - 1)),
                            bit=bit, encoding=encoding)
        outcome, = fault_outcomes(graph, [spec], batch)
        assert outcome.evaluation_error is None

    def test_float_multi_bit_campaign_fails_no_repetition(self, tiny_graph, tiny_inputs,
                                                          tmp_path):
        res = run_multi_bit_campaign(tiny_graph, [250], 20, 3, tiny_inputs[0][:3])
        assert res.failed == [] and len(res.per_rep_errors[250]) == 20
        res.write(tmp_path)
        assert "failed" not in json.loads((tmp_path / "multibit_reps.json").read_text())


class TestResumedFaultLoop:
    """Fault sets spanning several layers, and empty ones, agree with full forwards."""

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
        from seu_forge.campaign import _errors, _forward_maps, _score_chunk
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
            errs = _errors(golden, _forward_maps(graph, tiny_batch))
            for tok in reversed(tokens):
                sf.revert(graph, tok)
            expected.append(float(np.mean(errs)))
        assert len(set(expected)) > 2  # the faults do change the class maps
        _, pairs = _score_chunk(([graph], reps, tiny_batch, _errors))
        assert [float(np.mean(e)) for (e, _), in pairs] == expected


class TestRepeatedFlipCounts:
    """A repeated flip count would silently replace the earlier count's repetitions."""

    def test_plan_refuses_repeated_count(self, tiny_graph):
        from seu_forge.campaign import plan_multi_bit_campaign
        with pytest.raises(ValueError, match="flip count 3 is repeated"):
            plan_multi_bit_campaign(tiny_graph, [3, 1, 3], 2)

    def test_campaign_refuses_repeated_count(self, tiny_graph, tiny_inputs):
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        with pytest.raises(ValueError, match="flip count 3 is repeated"):
            run_multi_bit_campaign(q, [3, 1, 3], 2, 0, tiny_inputs[0])


class TestMultiBitOnVaryingMaps:
    """A quantized model whose class maps vary, so a wrong repetition error shows."""

    @pytest.fixture(scope="class")
    def model(self):
        graph = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5, kernel_scale=2.0)
        images = sf.generate_calibration_set((16, 16, 3), count=3, seed=11,
                                             class_count=3)[0]
        return sf.quantize_ptq(graph, images), images

    def test_repetitions_match_full_forwards_at_any_worker_count(self, model, monkeypatch):
        import seu_forge.campaign as campaign
        q, images = model
        batch = sf.batch_inputs(images)
        golden = sf.run_quantized(q, batch).class_map
        assert all(np.unique(m).size == 3 for m in golden)  # every map shows every class

        counts = [1, 3, 12]
        jobs = []
        real = campaign._run_chunks

        def spy(worker, js, workers):
            jobs.extend(js)
            return real(worker, js, workers)

        monkeypatch.setattr(campaign, "_run_chunks", spy)
        r1 = run_multi_bit_campaign(q, counts, 5, 8, images, workers=1)
        monkeypatch.undo()
        r2 = run_multi_bit_campaign(q, counts, 5, 8, images, workers=2)
        assert r1.per_rep_errors == r2.per_rep_errors

        expected = []
        for specs in (r for _, chunk, _, _ in jobs for r in chunk):
            work = q.copy()
            for spec in specs:
                sf.apply_fault(work, spec)
            maps = sf.run_quantized(work, batch).class_map
            expected.append(float(np.mean([error_rate(golden[i], maps[i])
                                           for i in range(maps.shape[0])])))
        assert [e for c in counts for e in r1.per_rep_errors[c]] == expected
        assert sum(e > 0.0 for e in expected) >= 3


class TestEarlyExits:
    """Fault sets measured after their channel chain agree with full forwards.

    The float graph has planted faults for each exit: a bit-30 flip of a
    batch-norm gamma of 1.5 gives NaN (poisoned, at a chain ending in a
    maxpool and at one ending in a layer with two consumers); a bias of
    -0.75 on a channel with zero kernel stays negative when doubled, so its
    ReLU output stays 0 (masked); a NaN bias in the dead branch never
    reaches the output (resumed, error 0, not poisoned).
    """

    @pytest.fixture(scope="class")
    def images(self):
        return sf.generate_calibration_set((16, 16, 4), count=3, seed=11, class_count=4)[0]

    @pytest.fixture(scope="class")
    def graphs(self, images):
        from conftest import chain_graph
        g = chain_graph(dead_branch=True)
        g.layer_params("bn_a")["bn_gamma"].tensor.data[1] = 1.5
        g.layer_params("bn_b")["bn_gamma"].tensor.data[2] = 1.5
        g.layer_params("conv_d")["conv_bias"].tensor.data[0] = 1.5
        g.layer_params("conv_b")["conv_kernel"].tensor.data[..., 3] = 0.0
        g.layer_params("conv_b")["conv_bias"].tensor.data[3] = -0.75
        for role, value in (("bn_gamma", 0.5), ("bn_beta", 0.0), ("bn_mu", 0.0)):
            g.layer_params("bn_b")[role].tensor.data[3] = value
        return {"float": g, "quantized": sf.quantize_ptq(g, images)}

    @staticmethod
    def planted(graph):
        def spec(layer, role, element, bit):
            p = graph.layer_params(layer)[role]
            return sf.FaultSpec(p.index, element, bit, p.tensor.encoding)
        return [spec("bn_a", "bn_gamma", 1, 30), spec("bn_b", "bn_gamma", 2, 30),
                spec("conv_b", "conv_bias", 3, 23), spec("conv_d", "conv_bias", 0, 30)]

    @staticmethod
    def spread(graph):
        """Faults at five bits of two elements of every default-role parameter set."""
        specs = []
        for p in graph.params_of(roles=sf.DEFAULT_TARGET_ROLES):
            top = p.width - 1
            for element in (p.tensor.size // 3, 2 * p.tensor.size // 3):
                for bit in (top, top - 1, top - 4, 1, 0):
                    specs.append(sf.FaultSpec(p.index, element, bit, p.tensor.encoding))
        return specs

    @pytest.fixture
    def exits(self, monkeypatch):
        """(chain end, exit kind) of every fault set measured after its chain.

        Each such exit's class maps, taken with the faultless maps its walk
        returns, must equal a full forward of its faulted graph from the
        input batch.
        """
        import seu_forge.campaign as campaign
        seen, pending, batches = [], [], []
        real_exit, real_loop = campaign._chain_exit, campaign._fault_loop
        class_maps = campaign.Exit.class_maps

        def chain_exit(graph, chain, *rest):
            ex = real_exit(graph, chain, *rest)
            pending.append((chain[-1].name, ex, campaign._forward_maps(graph, batches[-1])))
            return ex

        def fault_loop(graph, batch, fault_sets):
            batches.append(batch)
            exits, golden = real_loop(graph, batch, fault_sets)
            for end, ex, full in pending:
                assert np.array_equal(class_maps(ex, golden), full), (end, ex.kind)
                seen.append((end, ex.kind))
            pending.clear()
            return exits, golden

        monkeypatch.setattr(campaign, "_chain_exit", chain_exit)
        monkeypatch.setattr(campaign, "_fault_loop", fault_loop)
        return seen

    @pytest.mark.parametrize("mode", ["float", "quantized"])
    def test_sweep_matches_full_forward_oracle(self, graphs, images, exits, mode):
        from oracles import sweep_full_forward
        from seu_forge.campaign import fault_outcomes
        graph = graphs[mode]
        specs = self.spread(graph) + (self.planted(graph) if mode == "float" else [])
        batch = sf.batch_inputs(images)
        outcomes = fault_outcomes(graph, specs, batch)
        assert all(o.evaluation_error is None for o in outcomes)
        assert [o.per_image_error for o in outcomes] == sweep_full_forward(graph, specs, images)

        kinds = set(exits)
        assert {"pool_a", "relu_b"} <= {end for end, _ in kinds}
        if mode == "float":
            assert {("pool_a", "poisoned"), ("relu_b", "poisoned"), ("relu_b", "masked"),
                    ("relu_d", "resumed")} <= kinds
            assert ("relu_d", "poisoned") not in kinds  # the dead-branch NaN
            assert outcomes[-1].per_image_error == [0.0] * len(images)
        else:
            assert {kind for _, kind in kinds} == {"masked", "resumed"}

    @pytest.mark.parametrize("mode", ["float", "quantized"])
    def test_multibit_sets_within_one_layer_match_full_forwards(self, graphs, images,
                                                                exits, mode):
        from seu_forge.campaign import _errors, _forward_maps, _score_chunk
        graph = graphs[mode]
        spread = self.spread(graph)
        by_layer = {}
        for spec in spread:
            by_layer.setdefault(graph.param(spec.pset).layer, []).append(spec)
        reps = [specs[::7] for specs in by_layer.values()]       # several channels, one layer
        reps += [specs[3::5] for specs in by_layer.values()]
        reps += [spread[::37], spread[5::41]]                     # several layers
        if mode == "float":
            reps += [self.planted(graph)[:1] + by_layer["bn_a"][:3]]
        batch = sf.batch_inputs(images)
        golden = sf.run_quantized(graph, batch).class_map if mode == "quantized" else \
            sf.run_float(graph, batch).class_map
        expected = []
        for specs in reps:
            work = graph.copy()
            for spec in specs:
                sf.apply_fault(work, spec)
            expected.append(float(np.mean(_errors(golden, _forward_maps(work, batch)))))
        _, pairs = _score_chunk(([graph], reps, batch, _errors))
        assert [float(np.mean(e)) for (e, _), in pairs] == expected
        assert len({kind for _, kind in exits}) >= 2
        assert len(set(expected)) > 3

    def test_protection_scores_masked_faults_with_each_models_own_maps(self, graphs, images,
                                                                      exits, monkeypatch):
        import seu_forge.campaign as campaign
        from oracles import evaluate_protection_full_forward
        from seu_forge.protect import PT_LEVELS, evaluate_protection, protect_parameters
        original = graphs["float"]
        protected, _ = protect_parameters(original, PT_LEVELS[2])
        # shift one logit, so the protected model's faultless maps differ from the original's
        protected.layer_params("out")["conv_bias"].tensor.data[0] += np.float32(1.0)
        protected_maps = sf.run_float(protected, sf.batch_inputs(images)).class_map
        scored = []     # (exit kind, the faultless maps it was scored with)
        real = campaign.Exit.class_maps

        def class_maps(ex, golden):
            scored.append((ex.kind, golden))
            return real(ex, golden)

        monkeypatch.setattr(campaign.Exit, "class_maps", class_maps)
        ev = evaluate_protection(original, protected, images, bit_filter={30, 23})
        faultless, per_bit = evaluate_protection_full_forward(original, protected, images,
                                                              bit_filter={30, 23})
        assert ev.faultless == faultless and ev.per_bit == per_bit
        assert faultless["protected"]["error_rate"] > 0.0
        assert any(kind == "masked" and np.array_equal(golden, protected_maps)
                   for kind, golden in scored)
        assert {kind for _, kind in exits} == {"masked", "poisoned", "resumed"}


def _class_maps(golden, maps):
    """A ``run_fault_sets`` score: the class maps themselves."""
    return maps


class TestDeadInputChannels:
    """Campaigns on a model whose ReLUs leave whole conv inputs at zero agree
    with full forwards from the input batch. Both convolution cores drop an
    input channel that is zero in every cell (at the zero point, quantized),
    but keep one that a faulted weight turned Inf or NaN reads, as 0 * Inf
    and 0 * NaN are NaN."""

    @pytest.fixture(scope="class")
    def images(self):
        # the CLI's image set at --images 3 --image-size 16
        return sf.generate_calibration_set((16, 16, 3), count=3, seed=1000)[0]

    @pytest.fixture(scope="class")
    def graphs(self, images):
        # model build --levels 2 --base-filters 4 --classes 3 --channels 3 --seed 5
        #     --positive-bias-fraction 0: every bias negative, so many ReLUs are dead
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5, kernel_scale=0.25,
                                    positive_bias_fraction=0.0)
        return {"float": g, "quantized": sf.quantize_ptq(g, images)}

    @staticmethod
    def kept_channels(graph, batch):
        """The channels of each grid the convolution core builds in a faultless
        forward, one grid a call."""
        from seu_forge import tensor
        counts, real = [], tensor._channel_major

        def grid(*args):
            counts.append(len(args[1]))
            return real(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "_channel_major", grid)
            (sf.run_quantized if graph.flags.get("quantized") else sf.run_float)(graph, batch)
        return counts

    @pytest.mark.parametrize("mode", ["float", "quantized"])
    def test_sweep_matches_full_forward_oracle(self, graphs, images, mode):
        from oracles import sweep_full_forward
        graph = graphs[mode]
        batch = sf.batch_inputs(images)
        kept = self.kept_channels(graph, batch)
        assert kept.count(0) >= 3  # whole layers read no live channel
        specs = TestEarlyExits.spread(graph)
        outcomes = fault_outcomes(graph, specs, batch)
        assert all(o.evaluation_error is None for o in outcomes)
        assert [o.per_image_error for o in outcomes] == sweep_full_forward(graph, specs, images)
        assert any(o.mean_error > 0 for o in outcomes)

    # a bit-30 flip makes 1.0 +Inf and 1.5 a NaN
    @pytest.mark.parametrize("value", [1.0, 1.5])
    @pytest.mark.parametrize("layer", ["conv2D_1", "conv2Dtr", "conv2D_9"])
    def test_nonfinite_weight_on_a_dead_channel_matches_full_forward(self, graphs, images,
                                                                      layer, value):
        from oracles import fault_sets_full_forward
        from seu_forge.campaign import run_fault_sets
        graph = graphs["float"].copy()
        batch = sf.batch_inputs(images)
        src = graph.layers[[l.name for l in graph.layers].index(layer)].inputs[0]
        dead = sf.run_float(graph, batch, collect=[src]).collected[src].data
        assert (dead[..., 0] == 0).all()
        kernel = graph.layer_params(layer)
        kernel = kernel.get("conv_kernel") or kernel["convtr_kernel"]
        kernel.tensor.data[0, 0, 0, 0] = value     # reads input channel 0
        spec = sf.FaultSpec(kernel.index, 0, 30, "f32")
        (faultless,), [((maps, failure),)] = run_fault_sets([graph], [[spec]], batch,
                                                            _class_maps)
        golden, (full,) = fault_sets_full_forward(graph, [[spec]], images)
        assert failure is None
        assert np.array_equal(faultless, golden)
        assert np.array_equal(maps == INVALID_CLASS, full == INVALID_CLASS)
        assert (maps == INVALID_CLASS).any()
        assert ([error_rate(golden[i], maps[i]) for i in range(len(images))]
                == [error_rate(golden[i], full[i]) for i in range(len(images))])
        assert np.array_equal(maps, full)


class TestOneMeasuringPath:
    """Every fault set is measured just after its first faulted layer's
    channel chain L..E: sets spanning layers, chains ending at the output
    layer, chains ending in an activation nothing reads and empty sets.

    Each exit's class maps, taken with the faultless maps of its walk, must
    equal a full forward of the faulted graph from the input. Planted on
    ``chain_graph(dead_branch=True)``: bn_a's gamma[1] and the output bias[1]
    are 1.5, whose bit-30 flips give NaN; up_2's channel 0 is zero (kernel
    and bias), so no flip of an output kernel weight reading it changes a
    logit. conv_e ends the dead branch, so nothing reads it.
    """

    @pytest.fixture(scope="class")
    def images(self):
        return sf.generate_calibration_set((16, 16, 4), count=3, seed=11, class_count=4)[0]

    @pytest.fixture(scope="class")
    def graphs(self, images):
        from conftest import chain_graph
        g = chain_graph(dead_branch=True)
        g.layer_params("bn_a")["bn_gamma"].tensor.data[1] = 1.5
        g.layer_params("out")["conv_bias"].tensor.data[1] = 1.5
        g.layer_params("up_2")["convtr_kernel"].tensor.data[..., 0] = 0.0
        g.layer_params("up_2")["convtr_bias"].tensor.data[0] = 0.0
        return {"float": g, "quantized": sf.quantize_ptq(g, images)}

    @staticmethod
    def spec(graph, layer, role, element, bit):
        p = graph.layer_params(layer)[role]
        return sf.FaultSpec(p.index, element, bit, p.tensor.encoding)

    @staticmethod
    def exits(graph, images, fault_sets):
        """(kind, layer) of each set's exit, each checked against a full forward."""
        from oracles import fault_sets_full_forward
        from seu_forge.campaign import _fault_loop
        exits, golden = _fault_loop(graph, sf.batch_inputs(images), fault_sets)
        expected_golden, expected = fault_sets_full_forward(graph, fault_sets, images)
        assert np.array_equal(golden, expected_golden)
        for ex, maps in zip(exits, expected):
            assert np.array_equal(ex.class_maps(golden), maps), (ex.kind, ex.layer)
        return [(ex.kind, ex.layer) for ex in exits]

    def test_sets_spanning_layers_exit_poisoned_with_later_specs(self, graphs, images):
        g = graphs["float"]
        nan = self.spec(g, "bn_a", "bn_gamma", 1, 30)
        sets = [[nan, self.spec(g, "conv_c", "conv_bias", 0, 22)],
                [self.spec(g, "bn_a", "bn_beta", 5, 3), nan,
                 self.spec(g, "out", "conv_bias", 0, 30)]]
        assert self.exits(g, images, sets) == [("poisoned", "pool_a")] * 2

    def test_unchanged_chain_end_with_later_specs_resumes(self, graphs, images):
        g = graphs["float"]
        # -0.0 for up_2's zero kernel weight 0 leaves its channel 0 zero
        zero = self.spec(g, "up_2", "convtr_kernel", 0, 31)
        sets = [[zero], [zero, self.spec(g, "out", "conv_bias", 0, 22)]]
        assert self.exits(g, images, sets) == [("masked", "up_2"), ("resumed", "out")]

    @pytest.mark.parametrize("mode", ["float", "quantized"])
    def test_output_layer_faults_exit_masked_and_poisoned(self, graphs, images, mode):
        g = graphs[mode]
        top = g.layer_params("out")["conv_kernel"].width - 1
        # output kernel elements 0 and 2 weigh up_2's zero channel 0 into classes 0 and 2
        sets = [[self.spec(g, "out", "conv_kernel", 0, top)],
                [self.spec(g, "out", "conv_kernel", 2, 3)],
                [self.spec(g, "out", "conv_bias", 1, 30)]]
        # a NaN bias poisons the float logits; an int32 bias has no NaN
        last = "poisoned" if mode == "float" else "resumed"
        assert self.exits(g, images, sets) == [("masked", "out")] * 2 + [(last, "out")]

    @pytest.mark.parametrize("mode", ["float", "quantized"])
    def test_chain_end_nothing_reads(self, graphs, images, mode):
        g = graphs[mode]
        dead = self.spec(g, "conv_e", "conv_bias", 0, 30)
        sets = [[dead], [dead, self.spec(g, "conv_c", "conv_bias", 1, 22)]]
        assert self.exits(g, images, sets) == [("masked", "conv_e"), ("resumed", "conv_c")]

    @pytest.mark.parametrize("mode", ["float", "quantized"])
    def test_empty_set_is_masked_without_a_forward(self, graphs, images, mode, monkeypatch):
        import seu_forge.campaign as campaign
        calls = []

        def counted(name, real):
            return lambda *args: calls.append(name) or real(*args)

        for name in ("run_channels", "_forward_maps"):
            monkeypatch.setattr(campaign, name, counted(name, getattr(campaign, name)))
        assert self.exits(graphs[mode], images, [[], []]) == [("masked", "pool_a")] * 2
        assert calls == []

    def test_masked_exits_share_each_walks_faultless_score(self, graphs, images):
        """Each walk scores its faultless maps once, and its masked exits hold
        that score: the masked kind's maps are the faultless maps."""
        from seu_forge.campaign import _errors, _score_chunk
        g = graphs["float"]
        shifted = g.copy()  # other faultless maps, the same parameter table
        shifted.layer_params("out")["conv_bias"].tensor.data[0] += np.float32(1.0)
        top = g.layer_params("out")["conv_kernel"].width - 1
        sets = [[], [self.spec(g, "out", "conv_kernel", 0, top)],
                [self.spec(g, "out", "conv_kernel", 2, 3)], []]
        calls = []

        def score(golden, maps):
            calls.append(maps)
            return _errors(golden, maps)

        faultless, pairs = _score_chunk(([g, shifted], sets, sf.batch_inputs(images), score))
        assert len(calls) == 2
        assert faultless[0] != faultless[1]
        assert pairs == [((faultless[0], None), (faultless[1], None))] * len(sets)


def _report_bytes(directory):
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


class TestFailedFaultSets:
    """A fault set that raises is recorded, not fatal, in every campaign kind.

    The second fault set fails: in the sweep a spec whose element is out of
    range, in the multi-bit campaign a repetition whose second spec has an
    out-of-range bit, so its first spec is applied when it fails. Later sets
    must still match full forwards on the faultless graph, and the report
    bytes must not depend on the worker count.
    """

    @pytest.fixture(scope="class")
    def model(self):
        graph = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5, kernel_scale=2.0)
        images = sf.generate_calibration_set((16, 16, 3), count=3, seed=11,
                                             class_count=3)[0]
        return graph, sf.quantize_ptq(graph, images), images

    def test_sweep(self, model, tmp_path, monkeypatch):
        import dataclasses

        import seu_forge.campaign as campaign
        from oracles import sweep_full_forward
        graph, _, images = model
        real = campaign.generate_sweep_faults

        def second_out_of_range(graph, plan):
            specs = real(graph, plan)
            specs[1] = dataclasses.replace(specs[1], element=10**6)
            return specs

        monkeypatch.setattr(campaign, "generate_sweep_faults", second_out_of_range)
        plan = plan_single_bit_sweep(graph, psets=[1, 3, 7], bits=(29, 31),
                                     injections_per_target=2, seed=3)
        reports = {}
        for workers in (1, 2):
            res = run_single_bit_sweep(graph, plan, images, workers=workers)
            res.write(tmp_path / str(workers))
            reports[workers] = _report_bytes(tmp_path / str(workers))
        assert reports[1] == reports[2]
        failed = [i for i, o in enumerate(res.outcomes) if o.evaluation_error]
        assert failed == [1]
        assert res.outcomes[1].evaluation_error.startswith("IndexError: element 1000000")
        ok = [o for o in res.outcomes if o.evaluation_error is None]
        assert [o.per_image_error for o in ok] == \
            sweep_full_forward(graph, [o.spec for o in ok], images)
        assert sum(r["n"] for r in res.rows) == len(ok) == 5
        assert any(o.mean_error > 0.0 for o in ok)
        means = [role_bit_means(graph, res, bit) for bit in (29, 30, 31)]
        assert sum(n for m in means for _, _, n in m.values()) == 5

    def test_multibit(self, model, tmp_path, monkeypatch):
        import dataclasses

        import seu_forge.campaign as campaign
        _, q, images = model
        real = campaign.fault_at
        decoded = []

        def fourth_bit_out_of_range(spans, flat):
            spec = real(spans, flat)
            if len(decoded) % 15 == 3:   # repetition 1 of count 2, second spec
                spec = dataclasses.replace(spec, bit=40)
            decoded.append(spec)
            return spec

        monkeypatch.setattr(campaign, "fault_at", fourth_bit_out_of_range)
        counts, reps = [2, 3], 3
        reports = {}
        for workers in (1, 2):
            res = run_multi_bit_campaign(q, counts, reps, 8, images, workers=workers)
            res.write(tmp_path / str(workers))
            reports[workers] = _report_bytes(tmp_path / str(workers))
        assert reports[1] == reports[2]
        assert [(f["flip_count"], f["repetition"]) for f in res.failed] == [(2, 1)]
        assert res.failed[0]["error"].startswith("ValueError: bit 40 out of range")
        assert "bit 40 out of range" in reports[1]["multibit_reps.json"].decode()
        assert reports[1]["multibit_aggregate.csv"].decode().splitlines()[1].startswith("2,2,")

        batch = sf.batch_inputs(images)
        golden = sf.run_quantized(q, batch).class_map
        run = decoded[15:]   # the specs the workers=2 campaign drew, in plan order
        sets = [run[0:2], run[4:6]] + [run[k:k + 3] for k in (6, 9, 12)]
        expected = []
        for specs in sets:
            work = q.copy()
            for spec in specs:
                sf.apply_fault(work, spec)
            maps = sf.run_quantized(work, batch).class_map
            expected.append(float(np.mean([error_rate(golden[i], maps[i])
                                           for i in range(maps.shape[0])])))
        assert res.per_rep_errors == {2: expected[:2], 3: expected[2:]}
        assert res.means[0] == float(np.mean(expected[:2]))
        assert sum(e > 0.0 for e in expected) >= 2

    def test_loop_records_the_exit_kind_and_layer(self, model):
        from seu_forge.campaign import _fault_loop
        graph, _, images = model
        kernel = graph.layer_params("conv2D")["conv_kernel"]
        bias = graph.kernel_bias(graph.output_layer.name)[1]
        sets = [[sf.FaultSpec(kernel.index, 0, 30, "f32")],
                [sf.FaultSpec(bias.index, 0, 30, "f32"), sf.FaultSpec(bias.index, 0, 99, "f32")],
                [sf.FaultSpec(bias.index, 1, 31, "f32")]]
        exits, golden = _fault_loop(graph, sf.batch_inputs(images), sets)
        assert [e.kind for e in exits] == ["resumed", "failed", "resumed"]
        assert exits[1].layer == graph.output_layer.name
        assert exits[1].error.startswith("ValueError: bit 99 out of range")
        assert exits[2].layer == graph.output_layer.name and exits[2].maps is not None
        assert np.array_equal(golden, sf.run_float(graph, sf.batch_inputs(images)).class_map)


@pytest.mark.parametrize("other,where", [("levels3", 37), ("quantized", 1)])
def test_graphs_whose_parameter_tables_differ_are_refused(other, where, monkeypatch):
    """Every graph takes the first graph's fault sets, so one whose parameter
    table differs is refused, naming the first differing p-index, before any
    walk."""
    import seu_forge.campaign as campaign
    from conftest import spy_walks
    from seu_forge.campaign import _errors, run_fault_sets
    graph = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)
    images = sf.generate_calibration_set((16, 16, 3), count=2, seed=11)[0]
    second = {"levels3": lambda: sf.generate_toy_weights(sf.build_unet(3, 4, 3, 3), 5),
              "quantized": lambda: sf.quantize_ptq(graph, images)}[other]()
    walks = spy_walks(monkeypatch, campaign)
    specs = [[sf.FaultSpec(1, 0, 30, "f32")]]
    with pytest.raises(ValueError, match=rf"parameter tables differ at p{where} "):
        run_fault_sets([graph, second], specs, sf.batch_inputs(images), _errors)
    assert walks == []


class TestHeldMapsBound:
    """Campaigns deal their fault sets to enough chunks that no walk holds
    more than HELD_MAPS_BYTES of resumed class maps; reports do not change.

    The budget is set to two 3x16x16 int32 class maps, so each walk takes at
    most two fault sets, in chunks the worker count alone would not make.
    """

    @pytest.fixture(scope="class")
    def model(self):
        graph = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5, kernel_scale=2.0)
        images = sf.generate_calibration_set((16, 16, 3), count=3, seed=11,
                                             class_count=3)[0]
        return graph, sf.quantize_ptq(graph, images), images

    @staticmethod
    def two_maps(monkeypatch):
        import seu_forge.campaign as campaign
        monkeypatch.setattr(campaign, "HELD_MAPS_BYTES", 2 * 3 * 16 * 16 * 4 + 1)

    def test_sweep(self, model, tmp_path, monkeypatch):
        import seu_forge.campaign as campaign
        from conftest import spy_walks
        graph, _, images = model
        plan = plan_single_bit_sweep(graph, psets=[1, 3, 7], bits=(29, 31),
                                     injections_per_target=3, seed=3)
        run_single_bit_sweep(graph, plan, images).write(tmp_path / "whole")
        self.two_maps(monkeypatch)
        walks = spy_walks(monkeypatch, campaign)
        run_single_bit_sweep(graph, plan, images).write(tmp_path / "bounded")
        assert [n for n, _ in walks] == [2, 2, 2, 2, 1]
        assert sum(resumed for _, resumed in walks) > 2
        assert _report_bytes(tmp_path / "whole") == _report_bytes(tmp_path / "bounded")

    def test_multibit(self, model, tmp_path, monkeypatch):
        import seu_forge.campaign as campaign
        from conftest import spy_walks
        _, q, images = model
        run_multi_bit_campaign(q, [1, 4], 4, 8, images).write(tmp_path / "whole")
        self.two_maps(monkeypatch)
        walks = spy_walks(monkeypatch, campaign)
        run_multi_bit_campaign(q, [1, 4], 4, 8, images).write(tmp_path / "bounded")
        assert [n for n, _ in walks] == [2, 2, 2, 2]
        assert sum(resumed for _, resumed in walks) > 2
        run_multi_bit_campaign(q, [1, 4], 4, 8, images, workers=2).write(tmp_path / "pool")
        assert _report_bytes(tmp_path / "whole") == _report_bytes(tmp_path / "bounded") \
            == _report_bytes(tmp_path / "pool")


class TestPool:
    """Where campaign workers come from, how many there are, and that none
    outlives the interpreter that started them."""

    @pytest.fixture(scope="class")
    def model(self):
        graph = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5, kernel_scale=2.0)
        images = sf.generate_calibration_set((16, 16, 3), count=3, seed=11,
                                             class_count=3)[0]
        return graph, sf.quantize_ptq(graph, images), images

    @staticmethod
    def reports(model, tmp_path, workers):
        graph, q, images = model
        plan = plan_single_bit_sweep(graph, psets=[1, 3, 7], bits=(29, 31),
                                     injections_per_target=2, seed=3)
        out = tmp_path / str(workers)
        run_single_bit_sweep(graph, plan, images, workers=workers).write(out)
        run_multi_bit_campaign(q, [1, 4], 3, 8, images, workers=workers).write(out)
        return _report_bytes(out)

    def test_spawn_where_there_is_no_forkserver(self, model, tmp_path, monkeypatch):
        import multiprocessing

        import seu_forge.campaign as campaign
        methods = []

        class Spy(campaign.ProcessPoolExecutor):
            def __init__(self, max_workers, mp_context):
                methods.append(mp_context.get_start_method())
                super().__init__(max_workers, mp_context=mp_context)

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["fork", "spawn"])
        monkeypatch.setattr(campaign, "ProcessPoolExecutor", Spy)
        monkeypatch.setattr(campaign, "_available_cpus", lambda: 2)  # a pool on any host
        assert self.reports(model, tmp_path, 2) == self.reports(model, tmp_path, 1)
        assert methods == ["spawn", "spawn"]

    @pytest.mark.parametrize("cpus_from", ["affinity", "cpu_count"])
    def test_at_most_one_worker_per_cpu(self, model, tmp_path, monkeypatch, cpus_from):
        import os

        import seu_forge.campaign as campaign
        pools = []

        class InProcess:
            """Records each pool's size and runs its jobs in this process."""

            def __init__(self, max_workers, mp_context):
                self.size = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                jobs = list(jobs)
                pools.append((self.size, len(jobs)))
                return map(fn, jobs)

        if cpus_from == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(campaign, "ProcessPoolExecutor", InProcess)
        assert self.reports(model, tmp_path, 64) == self.reports(model, tmp_path, 1)
        assert pools == [(2, 2), (2, 2)]

    @staticmethod
    def pid_in_campaign(prelude, pid):
        """Run a workers=2 multi-bit campaign in a fresh interpreter after
        ``prelude`` and return the value of ``pid`` it printed before exiting."""
        import os
        import subprocess

        import seu_forge.campaign as campaign
        if campaign._available_cpus() < 2:
            pytest.skip("a pool needs two CPUs")
        script = (
            f"{prelude}\n"
            "import seu_forge as sf\n"
            "graph = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)\n"
            "images = sf.generate_calibration_set((8, 8, 3), count=2, seed=1,"
            " class_count=3)[0]\n"
            "q = sf.quantize_ptq(graph, images)\n"
            "sf.run_multi_bit_campaign(q, [1, 3], 2, 0, images, workers=2)\n"
            f"print({pid})\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        return int(run.stdout.split()[-1])

    @pytest.mark.skipif(sys.platform != "linux", reason="checks a Linux process table")
    def test_no_process_outlives_a_campaign(self):
        import multiprocessing
        import os

        if "forkserver" not in multiprocessing.get_all_start_methods():
            pytest.skip("no forkserver on this platform")
        server = self.pid_in_campaign("import multiprocessing.forkserver as fs",
                                      "fs._forkserver._forkserver_pid")
        # a zombie, left to whoever adopts it, still answers kill(pid, 0)
        with pytest.raises(ProcessLookupError):
            os.kill(server, 0)

    @pytest.mark.skipif(sys.platform != "linux", reason="checks a Linux process table")
    @pytest.mark.parametrize("start", ["forkserver", "spawn"])
    def test_no_resource_tracker_outlives_a_campaign(self, start):
        import multiprocessing
        import os

        if start not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start} on this platform")
        prelude = "import multiprocessing\nfrom multiprocessing import resource_tracker as rt"
        if start == "spawn":
            prelude += "\nmultiprocessing.get_all_start_methods = lambda: ['fork', 'spawn']"
        tracker = self.pid_in_campaign(prelude, "rt._resource_tracker._pid")
        with pytest.raises(ProcessLookupError):
            os.kill(tracker, 0)
