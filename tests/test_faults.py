import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seu_forge as sf
from seu_forge.faults import (FaultOutcome, FaultSpec, apply_fault, decode_fault,
                              fault_at, fault_space, fault_space_size,
                              inject_and_measure, revert, target_psets)

from conftest import single_conv_graph
from oracles import (SCALAR_WIDTH, assemble_f32, decode_fault_scalar, flipped_scalar,
                     global_fault_scalar, read_word_scalar, sweep_fault_scalar)


def _graph_with_values(values, encoding="f32"):
    if encoding == "f32":
        bias = np.asarray(values, dtype=np.float32)
    elif encoding == "i32":
        bias = np.asarray(values, dtype=np.int32)
    g = single_conv_graph(np.zeros((1, 1, 1, len(values))), np.zeros(len(values)),
                          input_channels=1)
    if encoding != "f32":
        g.layer_params("conv")["conv_bias"].tensor = sf.Tensor.from_array(bias, encoding)
        g.params[1].tensor = g.layer_params("conv")["conv_bias"].tensor
    else:
        g.params[1].tensor.data[...] = bias
    return g


class TestApplyRevert:
    def test_apply_and_revert_restores_hash(self, tiny_graph):
        work = tiny_graph.copy()
        before = sf.model_hash(work)
        token = apply_fault(work, FaultSpec(pset=1, element=0, bit=30, encoding="f32"))
        assert sf.model_hash(work) != before
        revert(work, token)
        assert sf.model_hash(work) == before

    def test_stacked_lifo(self, tiny_graph):
        work = tiny_graph.copy()
        before = sf.model_hash(work)
        t1 = apply_fault(work, FaultSpec(1, 0, 30, "f32"))
        t2 = apply_fault(work, FaultSpec(1, 1, 12, "f32"))
        revert(work, t2)
        revert(work, t1)
        assert sf.model_hash(work) == before

    def test_out_of_order_revert_rejected(self, tiny_graph):
        work = tiny_graph.copy()
        t1 = apply_fault(work, FaultSpec(1, 0, 30, "f32"))
        t2 = apply_fault(work, FaultSpec(1, 1, 12, "f32"))
        with pytest.raises(ValueError, match="out-of-order"):
            revert(work, t1)
        revert(work, t2)
        revert(work, t1)

    def test_token_reuse_rejected(self, tiny_graph):
        work = tiny_graph.copy()
        t1 = apply_fault(work, FaultSpec(1, 0, 30, "f32"))
        revert(work, t1)
        with pytest.raises(ValueError, match="already"):
            revert(work, t1)

    def test_same_element_double_fault(self, tiny_graph):
        from seu_forge import bits
        work = tiny_graph.copy()
        flat = work.param(1).tensor.flat
        original = int(flat.view(np.uint32)[0])
        t1 = apply_fault(work, FaultSpec(1, 0, 30, "f32"))
        t2 = apply_fault(work, FaultSpec(1, 0, 23, "f32"))
        expected = bits.flip_bit_f32(bits.flip_bit_f32(original, 30), 23)
        assert int(flat.view(np.uint32)[0]) == expected
        revert(work, t2)
        revert(work, t1)
        assert int(flat.view(np.uint32)[0]) == original

    def test_validation(self, tiny_graph):
        work = tiny_graph.copy()
        with pytest.raises(IndexError):
            apply_fault(work, FaultSpec(1, 10**9, 0, "f32"))
        with pytest.raises(ValueError, match="bit"):
            apply_fault(work, FaultSpec(1, 0, 32, "f32"))
        with pytest.raises(ValueError, match="encoding"):
            apply_fault(work, FaultSpec(1, 0, 0, "i8"))
        with pytest.raises(KeyError):
            apply_fault(work, FaultSpec(10**6, 0, 0, "f32"))

    def test_int_fault_roundtrip(self):
        g = _graph_with_values([-25983, 2355, -187, 300, -1494, 923], "i32")
        work = g.copy()
        before = sf.model_hash(work)
        token = apply_fault(work, FaultSpec(2, 0, 31, "i32"))
        assert work.param(2).tensor.flat[0] == -25983 + 2**31
        revert(work, token)
        assert sf.model_hash(work) == before


class TestOutcomeDecoding:
    def test_nan_inf_flags(self, tiny_graph):
        work = tiny_graph.copy()
        work.param(1).tensor.flat[0] = np.float32(1.5)
        out = inject_and_measure(work, FaultSpec(1, 0, 30, "f32"), lambda g: [])
        assert out.produced_nan and not out.produced_inf
        work.param(1).tensor.flat[0] = np.float32(1.0)
        out = inject_and_measure(work, FaultSpec(1, 0, 30, "f32"), lambda g: [])
        assert out.produced_inf and out.magnitude_increased

    def test_revert_even_when_evaluate_raises(self, tiny_graph):
        work = tiny_graph.copy()
        before = sf.model_hash(work)
        with pytest.raises(RuntimeError):
            inject_and_measure(work, FaultSpec(1, 0, 30, "f32"),
                               lambda g: (_ for _ in ()).throw(RuntimeError("boom")))
        assert sf.model_hash(work) == before

    def test_spec_json_roundtrip(self):
        spec = FaultSpec(3, 17, 30, "f32", seed_ordinal=5)
        assert FaultSpec.from_json(spec.to_json()) == spec

    def test_outcome_json_roundtrip(self, tiny_graph, tiny_inputs, tiny_batch):
        from seu_forge.campaign import fault_outcomes
        work = tiny_graph.copy()
        bias = work.param(2)
        assert bias.role == "conv_bias" and bias.tensor.size == 4
        bias.tensor.flat[:] = [1.0, -1.0, 1.5, 0.0]
        plan = sf.plan_single_bit_sweep(work, psets=[2], bits=(30, 31),
                                        injections_per_target=8)
        outcomes = sf.run_single_bit_sweep(work, plan, tiny_inputs[0]).outcomes
        assert {"nan", "inf", "-inf", "-0.0"} <= {repr(o.faulty_value) for o in outcomes}
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        kernel, qbias = q.param(1), q.param(2)
        assert (kernel.tensor.encoding, qbias.tensor.encoding) == ("i8", "i32")
        outcomes += fault_outcomes(q, [FaultSpec(1, 0, 7, "i8"), FaultSpec(2, 0, 31, "i32"),
                                       FaultSpec(1, kernel.tensor.size, 0, "i8")], tiny_batch)
        assert outcomes[-1].evaluation_error is not None
        assert math.isnan(outcomes[-1].original_value)
        for o in outcomes:
            assert FaultOutcome.from_json(o.to_json()).to_json() == o.to_json()


# An evaluated outcome as a sweep records it.
EVALUATED = FaultOutcome(FaultSpec(1, 0, 30, "f32"), 0, 1 << 30, 0.0, 2.0,
                         per_image_error=[0.25, 0.75], mean_error=0.5)


@pytest.mark.parametrize("spec_edit, edit, field", [
    ({"encoding": "f64"}, {}, "encoding"),
    ({"bit": -1}, {}, "bit"),
    ({"bit": 99}, {}, "bit"),
    ({"bit": 20, "encoding": "i8"}, {}, "bit"),
    ({"element": -5}, {}, "element"),
    ({"pset": -4}, {}, "pset"),
    ({}, {"mean_error": None}, "mean_error"),
    ({}, {"mean_error": float("nan")}, "mean_error"),
    ({}, {"mean_error": 1e9}, "mean_error"),
    ({}, {"per_image_error": [None]}, "per_image_error"),
], ids=["f64", "bit_minus_1", "bit_99_f32", "bit_20_i8", "element_minus_5", "pset_minus_4",
        "null_mean", "nan_mean", "huge_mean", "null_image_error"])
def test_a_record_no_campaign_writes_is_refused(spec_edit, edit, field):
    d = json.loads(EVALUATED.to_json())
    d["spec"].update(spec_edit)
    d.update(edit)
    with pytest.raises(ValueError, match=f"field '{field}' is "):
        FaultOutcome.from_json(json.dumps(d))
    if spec_edit:
        with pytest.raises(ValueError, match=f"fault spec field '{field}' is "):
            FaultSpec.from_json(json.dumps(d["spec"]))


def test_a_failed_record_needs_no_error_rates():
    d = json.loads(EVALUATED.to_json())
    assert FaultOutcome.from_json(json.dumps(d)) == EVALUATED
    d.update(mean_error=None, per_image_error=[], evaluation_error="IndexError: p1")
    assert FaultOutcome.from_json(json.dumps(d)).evaluation_error == "IndexError: p1"


class TestFaultSpace:
    def test_f32_set(self):
        g = _graph_with_values([0.0] * 10)
        assert fault_space_size(g, psets=[2]) == 320

    def test_mixed_encodings(self, tiny_graph, tiny_inputs):
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        kern = next(p for p in q.params if p.role == "conv_kernel")
        bias = q.layer_params(kern.layer)["conv_bias"]
        expected = kern.tensor.size * 8 + bias.tensor.size * 32
        assert fault_space_size(q, psets=[kern.index, bias.index]) == expected

    def test_hand_sized_mix(self):
        # i8 kernel of 100 elements + i32 bias of 4 -> 100*8 + 4*32 = 928
        g = single_conv_graph(np.zeros((5, 5, 1, 4)), np.zeros(4), input_channels=1)
        g.params[0].tensor = sf.Tensor.from_array(np.zeros((5, 5, 1, 4), np.int8), "i8")
        g.params[1].tensor = sf.Tensor.from_array(np.zeros(4, np.int32), "i32")
        assert fault_space_size(g, psets=[1, 2]) == 928

    def test_empty_filter(self, tiny_graph):
        assert fault_space_size(tiny_graph, roles=[]) == 0

    def test_default_roles_exclude_mu_sigma(self, tiny_graph):
        full = fault_space_size(tiny_graph, roles=sf.ROLES)
        default = fault_space_size(tiny_graph)
        mu_sigma = sum(p.tensor.size * 32
                       for p in tiny_graph.params_of(roles=("bn_mu", "bn_sigma")))
        assert full - default == mu_sigma

    def test_target_psets_order(self, tiny_graph):
        targets = target_psets(tiny_graph, psets=[5, 1, 3])
        assert [p.index for p in targets] == [1, 3, 5]

    def test_unknown_role_refused(self, tiny_graph):
        """A misspelled role is refused by every role filter, not dropped."""
        from seu_forge.protect import PT_LEVELS, protect_parameters
        roles = ("conv_kernal", "conv_bias")
        for select in (lambda: tiny_graph.params_of(roles),
                       lambda: target_psets(tiny_graph, roles=roles),
                       lambda: sf.plan_single_bit_sweep(tiny_graph, roles=roles, bits=(30, 31)),
                       lambda: protect_parameters(tiny_graph, PT_LEVELS[2], roles=roles)):
            with pytest.raises(ValueError, match="unknown parameter role 'conv_kernal'"):
                select()


class TestFlipTaxonomy:
    def test_interval_1_2_bit30(self):
        rng = np.random.Generator(np.random.PCG64(11))
        mantissas = rng.integers(1, 2**23, size=500)
        from seu_forge import bits
        for m in mantissas:
            word = assemble_f32(0, 0x7F, int(m))
            flipped = bits.bits_to_f32(bits.flip_bit_f32(word, 30))
            assert math.isnan(flipped)
        # exactly 1.0 -> +inf
        assert bits.bits_to_f32(bits.flip_bit_f32(bits.f32_to_bits(1.0), 30)) == math.inf

    def test_below_one_blows_up_finite(self):
        from seu_forge import bits
        rng = np.random.Generator(np.random.PCG64(12))
        for v in rng.uniform(2**-100, 1.0, size=200):
            flipped = bits.bits_to_f32(bits.flip_bit_f32(bits.f32_to_bits(float(np.float32(v))), 30))
            assert math.isfinite(flipped) and abs(flipped) > 1.0

    def test_integers_never_nan_inf(self):
        rng = np.random.Generator(np.random.PCG64(13))
        for width in (8, 32):
            lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
            vals = rng.integers(lo, hi + 1, size=300)
            for v in vals:
                bit = int(rng.integers(0, width))
                out = sf.flip_bit_int(int(v), bit, width)
                assert lo <= out <= hi  # stays an integer; no NaN/Inf exists


# f32 words the property draws besides arbitrary ones: NaNs with payloads
# (quiet and signalling, both signs), infinities, subnormals and zeros.
SPECIAL_F32_WORDS = [0x7FC00001, 0x7F800001, 0xFFC12345, 0xFFBFFFFF, 0x7F800000,
                     0xFF800000, 0x00000001, 0x007FFFFF, 0x80000001, 0x807FFFFF,
                     0x80000000, 0x00000000, 0x3F800000, 0x3F7FFFFF]

ELEMENTS = {
    "f32": st.one_of(st.sampled_from(SPECIAL_F32_WORDS), st.integers(0, 2**32 - 1)).map(
        lambda w: np.array([w], np.uint32).view(np.float32)[0]),
    "i8": st.integers(-128, 127),
    "i32": st.integers(-(2**31), 2**31 - 1),
}


def _one_set_graph(encoding, values):
    g = single_conv_graph(np.zeros((1, 1, 1, 1)), np.zeros(1), input_channels=1)
    dtype = {"f32": np.float32, "i8": np.int8, "i32": np.int32}[encoding]
    g.params[0].tensor = sf.Tensor.from_array(np.array(values, dtype), encoding)
    return g


def _fields(outcome):
    """Every field of an outcome; the two values as their float64 bytes, so
    NaN payloads compare too."""
    d = dataclasses.asdict(outcome)
    for k in ("original_value", "faulty_value"):
        d[k] = struct.pack("<d", d[k])
    return d


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_word_path_matches_the_scalar_path(data):
    encoding = data.draw(st.sampled_from(sorted(ELEMENTS)))
    values = data.draw(st.lists(ELEMENTS[encoding], min_size=3, max_size=3))
    element = data.draw(st.integers(0, 2))
    bit = data.draw(st.integers(0, SCALAR_WIDTH[encoding] - 1))
    g = _one_set_graph(encoding, values)
    p, spec = g.param(1), FaultSpec(1, element, bit, encoding)
    before = p.tensor.data.tobytes()
    old = read_word_scalar(p, element)

    assert _fields(decode_fault(g, spec)) == _fields(decode_fault_scalar(g, spec))
    token = apply_fault(g, spec)
    assert token.original_word == old & ((1 << SCALAR_WIDTH[encoding]) - 1)
    assert read_word_scalar(p, element) == flipped_scalar(p, old, bit)
    others = [i for i in range(3) if i != element]
    assert p.tensor.flat[others].tobytes() == np.frombuffer(
        before, p.tensor.data.dtype)[others].tobytes()
    revert(g, token)
    assert p.tensor.data.tobytes() == before


class TestFaultAddresses:
    def test_mixed_integer_space_matches_the_scalar_decode(self, tiny_graph, tiny_inputs):
        q = sf.quantize_ptq(tiny_graph, tiny_inputs[0])
        assert {p.tensor.encoding for p in q.params} >= {"i8", "i32"}
        space, size = fault_space(q.params)
        assert size == fault_space_size(q, psets=[p.index for p in q.params])
        edges, start = [], 0
        for p in q.params:
            edges += [start - 1, start, start + 1]
            start += p.tensor.size * SCALAR_WIDTH[p.tensor.encoding]
        assert start == size
        rng = np.random.Generator(np.random.PCG64(3))
        flats = [f for f in edges + [size - 1] if 0 <= f < size]
        flats += [int(f) for f in rng.integers(0, size, 2000)]
        for flat in flats:
            assert fault_at(space, flat) == global_fault_scalar(q, flat)

    @pytest.mark.parametrize("quantized, pset, bits", [
        (False, 2, (28, 31)), (False, 1, (0, 31)), (True, 1, (0, 7)), (True, 2, (0, 31)),
        (True, 2, (3, 9))])
    def test_one_set_bit_range_matches_the_sweep_decode(self, tiny_graph, tiny_inputs,
                                                        quantized, pset, bits):
        graph = sf.quantize_ptq(tiny_graph, tiny_inputs[0]) if quantized else tiny_graph
        p = graph.param(pset)
        assert bits[1] < p.width
        space, size = fault_space([p], bits)
        assert size == p.tensor.size * (bits[1] - bits[0] + 1)
        assert [fault_at(space, f) for f in range(size)] == \
            [sweep_fault_scalar(p, *bits, f) for f in range(size)]
