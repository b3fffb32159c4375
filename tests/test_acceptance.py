"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured figure at its stated tolerance. Run with `pytest -s` (or read
the -v test list) for the per-criterion report.
"""

import math
import time

import numpy as np
import pytest

import seu_forge as sf
from seu_forge import bits
from seu_forge.campaign import (plan_single_bit_sweep, role_bit_means,
                                run_multi_bit_campaign, run_single_bit_sweep,
                                sample_size)
from seu_forge.protect import PT_LEVELS, protect_parameters

from test_campaign import (ADDENDS_PRUNED, ADDENDS_QUANTIZED, ADDENDS_UNPRUNED,
                           REFERENCE_SIGNS, shares_from_addends)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


# -- shared toy models -------------------------------------------------------

@pytest.fixture(scope="module")
def model_a():
    """Criterion-4/5 model: 3 levels, 8 base filters, 4 classes (seed chosen
    so all four classes appear and bias signs are mixed)."""
    return sf.generate_toy_weights(sf.build_unet(3, 8, 4, 4), 9)


@pytest.fixture(scope="module")
def images_a():
    inputs, _ = sf.generate_calibration_set((64, 64, 4), count=10, seed=7,
                                            class_count=4)
    return inputs


@pytest.fixture(scope="module")
def batch_a(images_a):
    return sf.batch_inputs(images_a)


@pytest.fixture(scope="module")
def golden_a(model_a, batch_a):
    return sf.run_float(model_a, batch_a)


@pytest.fixture(scope="module")
def model_b():
    """2-level model used for PTQ fidelity and the multi-bit campaign."""
    return sf.generate_toy_weights(sf.build_unet(2, 8, 4, 4), 42)


@pytest.fixture(scope="module")
def images_b():
    inputs, _ = sf.generate_calibration_set((64, 64, 4), count=10, seed=7,
                                            class_count=4)
    return inputs


@pytest.fixture(scope="module")
def quantized_b(model_b, images_b):
    return sf.quantize_ptq(model_b, images_b)


def test_criterion_01_eq1_sizing():
    start = time.time()
    n = sample_size(996_480_000, 0.025, 1.96, 0.5)
    assert n == 1537
    es = np.linspace(0.005, 0.2, 100)
    ns_e = [sample_size(996_480_000, float(e), 1.96, 0.5) for e in es]
    assert all(a >= b for a, b in zip(ns_e, ns_e[1:]))
    Ns = np.unique(np.logspace(0, 9, 100).astype(np.int64))
    ns_N = [sample_size(int(N), 0.025, 1.96, 0.5) for N in Ns]
    assert all(a <= b for a, b in zip(ns_N, ns_N[1:]))
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"n=1537 exact; monotone over 100-point grids; {elapsed * 1e3:.0f} ms")


def test_criterion_02_eq2_worked_examples():
    results = []
    for addends, expected in ((ADDENDS_UNPRUNED, 37.29), (ADDENDS_PRUNED, 37.24),
                              (ADDENDS_QUANTIZED, 37.06)):
        shares = shares_from_addends(addends, REFERENCE_SIGNS)
        est = sf.predict_bit30_error(REFERENCE_SIGNS, shares)
        assert round(est, 2) == expected
        results.append(round(est, 2))
    report(2, f"predictions {results} == reference 37.29/37.24/37.06")


def test_criterion_03_bit_flip_semantics():
    rng = np.random.Generator(np.random.PCG64(2024))
    n = 100_000
    words = rng.integers(0, 2**32, size=n, dtype=np.uint32)
    f32_bits = rng.integers(0, 32, size=n)
    flips = words ^ (np.uint32(1) << f32_bits.astype(np.uint32))
    assert np.array_equal(flips ^ (np.uint32(1) << f32_bits.astype(np.uint32)), words)
    assert np.all(flips != words)

    # taxonomy: bit 30 over [1, 2)
    mant = rng.integers(1, 2**23, size=2000).astype(np.uint32)
    in_12 = (np.uint32(0x7F) << np.uint32(23)) | mant
    flipped = (in_12 ^ np.uint32(1 << 30)).view(np.float32)
    assert np.isnan(flipped).all()
    one = np.array([bits.f32_to_bits(1.0)], dtype=np.uint32)
    assert np.isinf((one ^ np.uint32(1 << 30)).view(np.float32))[0]
    below = rng.uniform(2.0**-60, 1.0, size=2000).astype(np.float32)
    blown = (below.view(np.uint32) ^ np.uint32(1 << 30)).view(np.float32)
    assert np.isfinite(blown).all() and (np.abs(blown) > 1.0).all()

    # integer sign-bit jumps, plus involution over random i8/i32 patterns
    assert sf.flip_bit_int(-1, 7, 8) == 127
    assert sf.flip_bit_int(127, 7, 8) == -1
    assert sf.flip_bit_int(1, 7, 8) == -127
    assert sf.flip_bit_int(-128, 7, 8) == 0
    assert sf.flip_bit_int(1, 31, 32) == -2147483647
    for width, dtype in ((8, np.int8), (32, np.int32)):
        vals = rng.integers(-(2**(width - 1)), 2**(width - 1), size=n // 2)
        bit_pos = rng.integers(0, width, size=n // 2)
        once = np.array([sf.flip_bit_int(int(v), int(b), width)
                         for v, b in zip(vals[:2000], bit_pos[:2000])])
        twice = np.array([sf.flip_bit_int(int(v), int(b), width)
                          for v, b in zip(once, bit_pos[:2000])])
        assert np.array_equal(twice, vals[:2000])
    report(3, "involution on 1e5 f32 patterns; NaN/Inf/blow-up taxonomy; "
              "i8/i32 sign jumps")


def test_criterion_04_predictor_vs_oracle(model_a, images_a, batch_a, golden_a):
    start = time.time()
    shares = sf.golden_class_shares(golden_a.class_map, 4)
    bias = model_a.layer_params(model_a.output_layer.name)["conv_bias"]
    signs = np.sign(bias.data.astype(np.float64))
    predicted = sf.predict_bit30_error(signs, shares)
    assert abs(predicted - 25.0) > 1.0  # seed chosen to exercise the mechanism

    work = model_a.copy()
    errors = []
    for element in range(bias.data.size):  # exhaustive, not sampled
        spec = sf.FaultSpec(pset=bias.index, element=element, bit=30, encoding="f32")
        outcome = sf.inject_and_measure(
            work, spec,
            lambda g: [sf.error_rate(golden_a.class_map[i],
                                     sf.run_float(g, batch_a).class_map[i])
                       for i in range(len(images_a))])
        errors.append(outcome.mean_error)
    measured = float(np.mean(errors))
    elapsed = time.time() - start
    assert abs(predicted - measured) <= 0.5
    assert elapsed < 120.0
    assert sf.model_hash(work) == sf.model_hash(model_a)
    report(4, f"predicted {predicted:.2f}% vs exhaustive {measured:.2f}% "
              f"(|diff| {abs(predicted - measured):.3f} <= 0.5 pp); {elapsed:.0f} s")


def test_criterion_05_bn_folding_equivalence(model_a, batch_a, golden_a):
    folded = sf.fold_bn(model_a)
    res = sf.run_float(folded, batch_a)
    max_delta = float(np.abs(res.logits - golden_a.logits).max())
    assert np.abs(golden_a.logits).max() < 1e3
    assert max_delta <= 1e-4
    assert np.array_equal(res.class_map, golden_a.class_map)
    report(5, f"class maps identical on all 10 images; max |delta| {max_delta:.2e}")


def test_criterion_06_ptq_fidelity(model_b, images_b, quantized_b):
    batch = sf.batch_inputs(images_b)
    fmap = sf.run_float(model_b, batch).class_map
    qmap = sf.run_quantized(quantized_b, batch).class_map
    agreement = float((fmap == qmap).mean())
    assert agreement >= 0.99
    report(6, f"float/quantized pixel agreement {100 * agreement:.2f}% >= 99%")


def test_criterion_07_gamma_sensitivity():
    g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 42,
                                gamma_range=(1.0, 2.0), gamma_mode="raw")
    inputs, _ = sf.generate_calibration_set((16, 16, 3), count=10, seed=7,
                                            class_count=3)
    plan = plan_single_bit_sweep(g, bits=(30, 30), margin=0.05, seed=99)
    result = run_single_bit_sweep(g, plan, inputs, workers=4)
    means = role_bit_means(g, result, 30)
    gm, gs, gn = means["bn_gamma"]
    # 95%-confidence separation: gamma's lower bound above every other
    # role's upper bound (normal approximation, z = 1.96)
    g_lo = gm - 1.96 * gs / math.sqrt(gn)
    others = {}
    for role, (m, s, n) in means.items():
        if role == "bn_gamma":
            continue
        others[role] = m + 1.96 * s / math.sqrt(n)
        assert g_lo > others[role], (role, means)
    report(7, f"bn_gamma bit-30 mean {gm:.1f}% (n={gn}) strictly above "
              f"all other roles (max other upper bound "
              f"{max(others.values()):.1f}%)")


def test_criterion_08_positive_bias_correlation():
    rs = []
    for seed in (1, 2, 3):
        g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), seed,
                                    positive_bias_fraction="span")
        inputs, _ = sf.generate_calibration_set((16, 16, 3), count=10,
                                                seed=100 + seed, class_count=3)
        plan = plan_single_bit_sweep(g, roles=["conv_bias"], bits=(30, 30),
                                     injections_per_target=10**9, seed=7)
        result = run_single_bit_sweep(g, plan, inputs, workers=4)
        ratios = {r["pset"]: r["percent"]
                  for r in sf.positive_ratio_table(g, roles=("conv_bias",))}
        errs = [row["mean_error"] for row in result.rows]
        rats = [ratios[row["pset"]] for row in result.rows]
        rs.append(sf.correlate(rats, errs))
    assert all(r >= 0.8 for r in rs), rs
    report(8, "pearson r(bit-30 bias error, positive ratio) = "
              + ", ".join(f"{r:.3f}" for r in rs) + " (all >= 0.8, 3 seeds)")


def test_criterion_09_protection_efficacy():
    g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)
    # plant the full spectrum of protectable states among natural candidates
    flat = g.layer_params("conv2D")["conv_kernel"].data.flat
    flat[0] = np.float32(1.995)
    flat[1] = np.float32(1.004)
    flat[2] = np.float32(-1.9992)
    inputs, _ = sf.generate_calibration_set((32, 32, 3), count=10, seed=11,
                                            class_count=3)
    batch = sf.batch_inputs(inputs)
    golden = sf.run_float(g, batch)

    protected, rep = protect_parameters(g, PT_LEVELS[2])
    applied = rep.applied()
    assert applied  # candidates exist by construction

    # (a) risky-pattern count strictly decreases
    before, after = sf.risky_pattern_count(g), sf.risky_pattern_count(protected)
    assert after < before

    # (b) exhaustive flips on previously-protected positions: no NaN/Inf values
    for r in applied:
        for bit in range(23, 31):
            assert math.isfinite(bits.bits_to_f32(bits.flip_bit_f32(r.after_bits, bit)))

    # (c) faultless GIoU of the protected model within 0.1 points
    pmap = sf.run_float(protected, batch).class_map
    m = sf.segmentation_metrics(pmap, golden.class_map, 3)
    assert abs(100.0 - m.global_iou) <= 0.1

    # (d) idempotent
    again, rep2 = protect_parameters(protected, PT_LEVELS[2])
    assert not rep2.applied()
    assert sf.model_hash(again) == sf.model_hash(protected)
    report(9, f"risky {before}->{after}; {len(applied)} protected positions all "
              f"flip-safe; faultless GIoU delta {100.0 - m.global_iou:.3f} <= 0.1; "
              "idempotent")


def test_criterion_10_reparameterization_equivalence():
    g = sf.generate_toy_weights(sf.build_unet(2, 4, 3, 3), 5)
    folded = sf.fold_bn(g)
    inputs, _ = sf.generate_calibration_set((32, 32, 3), count=6, seed=11,
                                            class_count=3)
    batch = sf.batch_inputs(inputs)
    ref = sf.run_float(folded, batch)

    scales = np.array([2.0, 0.5, 4.0, 1.0], np.float32)
    eq = sf.cross_layer_equalize(folded, scales, "conv2D", "conv2D_1")
    eq_maps = sf.run_float(eq, batch).class_map
    assert np.array_equal(ref.class_map, eq_maps)

    convs = [l.name for l in folded.layers if l.kind == "conv2d"]
    last, out_name = convs[-1], folded.output_layer.name
    pre = sf.run_float(folded, batch, collect=(last,)).collected[last]
    min_pre = pre.min(axis=(0, 1, 2))
    c = np.where(min_pre > 0,
                 2.0 ** np.floor(np.log2(np.maximum(min_pre, 1e-30))),
                 0.0).astype(np.float32)
    assert (c > 0).any()
    absorbed = sf.absorb_bias(folded, c, last, out_name, inputs)
    ab_maps = sf.run_float(absorbed, batch).class_map
    assert np.array_equal(ref.class_map, ab_maps)

    with pytest.raises(sf.AbsorptionError):
        sf.absorb_bias(folded, c + np.float32(50.0), last, out_name, inputs)
    report(10, "CLE and bias absorption preserve class maps exactly on "
               f"witnesses; invalid absorption ({float(c.max()) + 50:.0f} per "
               "channel) refused")


def test_criterion_11_multibit_shape(quantized_b, images_b):
    start = time.time()
    counts = [1, 10, 50, 100, 250]
    result = run_multi_bit_campaign(quantized_b, counts, 150, 2024, images_b,
                                    workers=4)
    elapsed = time.time() - start
    assert elapsed < 600.0
    inversions = []
    for i in range(len(counts) - 1):
        if result.means[i + 1] < result.means[i]:
            gap = result.means[i] - result.means[i + 1]
            tol = max(result.stds[i], result.stds[i + 1])
            inversions.append((counts[i], counts[i + 1], gap, tol))
    assert len(inversions) <= 1, (result.means, result.stds)
    for _, _, gap, tol in inversions:
        assert gap <= tol, (result.means, result.stds)
    curve = ", ".join(f"{c}:{m:.2f}" for c, m in zip(counts, result.means))
    report(11, f"mean error curve [{curve}] with {len(inversions)} tolerated "
               f"inversion(s); {elapsed:.0f} s with 4 workers")


def test_criterion_12_determinism(model_b, images_b, quantized_b, tmp_path):
    plan = plan_single_bit_sweep(model_b, psets=[1, 2, 3], bits=(28, 31),
                                 injections_per_target=8, seed=77)
    dirs = []
    for tag, workers in (("w1", 1), ("w4", 4)):
        res = run_single_bit_sweep(model_b, plan, images_b, workers=workers)
        out = tmp_path / tag
        res.write(out)
        dirs.append(out)
    for name in ("sweep_plan.json", "sweep_outcomes.jsonl", "sweep_aggregate.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    mb1 = run_multi_bit_campaign(quantized_b, [1, 5], 10, 3, images_b, workers=1)
    mb4 = run_multi_bit_campaign(quantized_b, [1, 5], 10, 3, images_b, workers=4)
    (tmp_path / "m1").mkdir(), (tmp_path / "m4").mkdir()
    mb1.write(tmp_path / "m1")
    mb4.write(tmp_path / "m4")
    for name in ("multibit_plan.json", "multibit_aggregate.csv", "multibit_reps.json"):
        assert (tmp_path / "m1" / name).read_bytes() == \
            (tmp_path / "m4" / name).read_bytes()

    prot1, _ = protect_parameters(model_b, PT_LEVELS[2])
    prot2, _ = protect_parameters(model_b, PT_LEVELS[2])
    assert sf.model_hash(prot1) == sf.model_hash(prot2)
    report(12, "sweep/multibit reports byte-identical across worker counts; "
               "transforms hash-identical on rerun")
