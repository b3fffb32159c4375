import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seu_forge import bits
from seu_forge.protect import danger_bit

from oracles import (assemble_f32, classify_candidate, danger_bit_struct, flip_f32_struct,
                     protect_directions_struct, risky_class_struct, sign_field,
                     significand_value)


def test_reference_flip_examples():
    # bit 30 turns 1.0 into +inf, 1.5 into NaN, 0.1 into ~3.40e37
    assert bits.bits_to_f32(bits.flip_bit_f32(bits.f32_to_bits(1.0), 30)) == math.inf
    assert math.isnan(bits.bits_to_f32(bits.flip_bit_f32(bits.f32_to_bits(1.5), 30)))
    blown = bits.bits_to_f32(bits.flip_bit_f32(bits.f32_to_bits(0.1), 30))
    # exponent field 123 -> 251: significand 1.6 * 2^124
    expected = np.float32(0.1) / np.float32(2.0) ** -4 * np.float32(2.0) ** 124
    assert blown == pytest.approx(float(expected), rel=1e-6)
    assert blown == pytest.approx(3.4028237e37, rel=1e-6)


def test_int_flip_examples():
    assert bits.flip_bit_int(-1, 7, 8) == 127
    assert bits.flip_bit_int(1, 7, 8) == -127
    assert bits.flip_bit_int(0, 16, 32) == 65536
    assert bits.flip_bit_int(127, 7, 8) == -1


def test_flip_range_checks():
    with pytest.raises(ValueError):
        bits.flip_bit_f32(0, 32)
    with pytest.raises(ValueError):
        bits.flip_bit_int(0, 8, 8)
    with pytest.raises(ValueError):
        bits.flip_bit_int(300, 0, 8)


def test_flip_matches_struct_oracle():
    rng = np.random.Generator(np.random.PCG64(3))
    vals = rng.normal(size=200).astype(np.float32)
    for v in vals:
        bit = int(rng.integers(0, 32))
        ours = bits.bits_to_f32(bits.flip_bit_f32(bits.f32_to_bits(float(v)), bit))
        ref = flip_f32_struct(float(v), bit)
        assert (math.isnan(ours) and math.isnan(ref)) or ours == ref


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=31))
@settings(max_examples=300)
def test_f32_flip_involution(word, bit):
    assert bits.flip_bit_f32(bits.flip_bit_f32(word, bit), bit) == word


@given(st.integers(min_value=-128, max_value=127),
       st.integers(min_value=0, max_value=7))
@settings(max_examples=300)
def test_i8_flip_involution_and_range(value, bit):
    once = bits.flip_bit_int(value, bit, 8)
    assert -128 <= once <= 127
    assert bits.flip_bit_int(once, bit, 8) == value


def test_twos_complement_width():
    assert bits.twos_complement_width(0) == 1
    assert bits.twos_complement_width(-1) == 1
    assert bits.twos_complement_width(1) == 2
    assert bits.twos_complement_width(2355) == 13
    assert bits.twos_complement_width(-25983) == 16
    assert bits.twos_complement_width(127) == 8
    assert bits.twos_complement_width(-128) == 8
    assert bits.twos_complement_width(128) == 9


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
@settings(max_examples=300)
def test_width_is_minimal(v):
    k = bits.twos_complement_width(v)
    assert -(1 << (k - 1)) <= v <= (1 << (k - 1)) - 1
    if k > 1:
        assert not (-(1 << (k - 2)) <= v <= (1 << (k - 2)) - 1)


def test_risky_table_matches_struct_oracle():
    """Every finite exponent, both signs, mantissas 0, 0x2A and max."""
    words = np.array([sign << 31 | e << 23 | mant for e in range(255) for sign in (0, 1)
                      for mant in (0, 0x2A, (1 << 23) - 1)], dtype=np.uint32)
    for word, risky in zip(words.tolist(), bits.risky_mask(words)):
        value = struct.unpack("<f", struct.pack("<I", word))[0]
        assert risky == (risky_class_struct(value) != "none")
        cls = classify_candidate(word)
        assert cls.candidate == risky
        directions = protect_directions_struct(value)
        assert (cls.allow_increment, cls.allow_decrement) == directions
        expected = danger_bit_struct(value)
        if expected is None:
            with pytest.raises(ValueError, match="not a risky candidate"):
                danger_bit(word)
        else:
            assert danger_bit(word) == expected


def test_field_helpers():
    w = bits.f32_to_bits(-1.5)
    assert sign_field(w) == 1
    assert bits.exponent_field(w) == 0x7F
    assert significand_value(w) == 1.5
    assert bits.bits_to_f32(assemble_f32(1, 0x7F, bits.F32_MANT_MASK // 2 + 1)) == -1.5
