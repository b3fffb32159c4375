"""IEEE-754 single-precision and two's-complement bit-pattern helpers.

Bit numbering follows the usual hardware convention: bit 0 is the LSB.
For f32 that puts the mantissa at bits [0-22], the exponent at [23-30]
and the sign at bit 31; the "partial exponent" is the low 7 exponent
bits (word bits [23-29]).
"""

from __future__ import annotations

import struct

import numpy as np

F32_SIGN_BIT = 31
F32_EXP_LO = 23
F32_MANT_BITS = 23
F32_EXP_MASK = 0xFF
F32_MANT_MASK = (1 << F32_MANT_BITS) - 1


def f32_to_bits(value: float) -> int:
    """32-bit word of a float, little-endian IEEE-754 single."""
    return struct.unpack("<I", struct.pack("<f", value))[0]


def bits_to_f32(word: int) -> float:
    return struct.unpack("<f", struct.pack("<I", word & 0xFFFFFFFF))[0]


def exponent_field(word: int) -> int:
    return (word >> F32_EXP_LO) & F32_EXP_MASK


def mantissa_field(word: int) -> int:
    return word & F32_MANT_MASK


def sign_field(word: int) -> int:
    return (word >> F32_SIGN_BIT) & 1


def significand_value(word: int) -> float:
    """Significand 1.m in [1, 2) of a normal number (sign ignored)."""
    return 1.0 + mantissa_field(word) / float(1 << F32_MANT_BITS)


def assemble_f32(sign: int, exponent: int, mantissa: int) -> int:
    if not 0 <= exponent <= F32_EXP_MASK:
        raise ValueError(f"exponent field {exponent} out of [0, 255]")
    return (sign & 1) << F32_SIGN_BIT | exponent << F32_EXP_LO | (mantissa & F32_MANT_MASK)


def flip_bit_f32(word: int, bit: int) -> int:
    """Toggle one bit of a 32-bit float pattern. Involution by construction."""
    if not 0 <= bit <= 31:
        raise ValueError(f"f32 bit position {bit} out of [0, 31]")
    return (word ^ (1 << bit)) & 0xFFFFFFFF


def flip_bit_int(value: int, bit: int, width: int) -> int:
    """Toggle one bit of a two's-complement integer of the given width.

    Takes and returns the *decoded* signed value; the flip acts on the
    width-bit representation (so i8 -1 with bit 7 becomes 127).
    """
    if width not in (8, 32):
        raise ValueError(f"unsupported integer width {width}")
    if not 0 <= bit < width:
        raise ValueError(f"bit position {bit} out of [0, {width - 1}]")
    mask = (1 << width) - 1
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if not lo <= value <= hi:
        raise ValueError(f"value {value} does not fit in {width}-bit two's complement")
    u = (value & mask) ^ (1 << bit)
    return u - (1 << width) if u >= 1 << (width - 1) else u


def twos_complement_width(value: int) -> int:
    """Smallest k with value representable in k-bit two's complement."""
    v = int(value)
    if v >= 0:
        return v.bit_length() + 1 if v else 1
    return (-v - 1).bit_length() + 1


# ---------------------------------------------------------------------------
# the risky-exponent rule, one read-only row per 8-bit exponent field
#
# A pattern is risky when one exponent flip fills its exponent: 01111111
# (a bit-30 flip gives NaN/Inf), or a clear MSB with six of the low seven
# bits set (one flip fills the partial exponent and pushes the value above
# 1). Subnormals and zeros are never risky. Protection may move a risky
# exponent one step up or down only where the step strictly lowers the
# count of ones among the low seven bits.


def _low_ones(exponent: int) -> int:
    return bin(exponent & 0x7F).count("1")


def _danger_bit(exponent: int) -> int:
    """The bit whose flip fills the exponent: 30 for 01111111, otherwise the
    one clear low bit; -1 where the exponent is not risky."""
    if not RISKY[exponent]:
        return -1
    return 30 if exponent == 0x7F else F32_EXP_LO + (~exponent & 0x7F).bit_length() - 1


_EXPONENTS = range(F32_EXP_MASK + 1)
RISKY = np.array([e < 0x80 and _low_ones(e) >= 6 for e in _EXPONENTS])
DANGER_BIT = np.array([_danger_bit(e) for e in _EXPONENTS], np.int8)
MAY_INCREMENT = np.array([RISKY[e] and _low_ones(e + 1) < _low_ones(e) for e in _EXPONENTS])
MAY_DECREMENT = np.array([RISKY[e] and _low_ones(e - 1) < _low_ones(e) for e in _EXPONENTS])
for _table in (RISKY, DANGER_BIT, MAY_INCREMENT, MAY_DECREMENT):
    _table.flags.writeable = False


def exponent_fields(words: np.ndarray) -> np.ndarray:
    """Exponent field of each uint32 f32 word."""
    return (words >> np.uint32(F32_EXP_LO)) & np.uint32(F32_EXP_MASK)


def risky_mask(words: np.ndarray) -> np.ndarray:
    """Which uint32 f32 words have a risky exponent (see ``RISKY``)."""
    return RISKY[exponent_fields(words)]
