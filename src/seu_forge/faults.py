"""Bit-exact fault application to model parameters with exact-revert tokens.

Faults always target a working copy of the graph (ModelGraph.copy); the
persisted golden model stays intact for the error metric. Bit numbering is
31 = f32 sign, exponent [23-30], per the reporting convention used
throughout the toolkit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import bits
from .model import DEFAULT_TARGET_ROLES, ModelGraph

flip_bit_f32 = bits.flip_bit_f32
flip_bit_int = bits.flip_bit_int


@dataclass(frozen=True)
class FaultSpec:
    """Exact address of one bit inside one parameter element."""

    pset: int
    element: int
    bit: int
    encoding: str
    seed_ordinal: int = None

    def to_json(self) -> str:
        d = {"pset": self.pset, "element": self.element, "bit": self.bit,
             "encoding": self.encoding}
        if self.seed_ordinal is not None:
            d["seed_ordinal"] = self.seed_ordinal
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "FaultSpec":
        d = json.loads(line)
        return cls(d["pset"], d["element"], d["bit"], d["encoding"],
                   d.get("seed_ordinal"))


@dataclass
class FaultOutcome:
    """Per-fault record: addressed bit, value transition, and error metrics."""

    spec: FaultSpec
    original_bits: int
    faulty_bits: int
    original_value: float
    faulty_value: float
    produced_nan: bool = False
    produced_inf: bool = False
    sign_changed: bool = False
    magnitude_increased: bool = False
    per_image_error: list = field(default_factory=list)
    mean_error: float = None
    evaluation_error: str = None  # campaign records failures instead of dying

    def to_json(self) -> str:
        d = {"spec": json.loads(self.spec.to_json()),
             "original_bits": self.original_bits, "faulty_bits": self.faulty_bits,
             "original_value": repr(self.original_value),
             "faulty_value": repr(self.faulty_value),
             "produced_nan": self.produced_nan, "produced_inf": self.produced_inf,
             "sign_changed": self.sign_changed,
             "magnitude_increased": self.magnitude_increased,
             "per_image_error": self.per_image_error, "mean_error": self.mean_error}
        if self.evaluation_error is not None:
            d["evaluation_error"] = self.evaluation_error
        return json.dumps(d, sort_keys=True)


@dataclass
class FaultToken:
    """Revert handle; LIFO order is enforced per graph."""

    spec: FaultSpec
    original_word: int
    used: bool = False


def _validate(graph: ModelGraph, spec: FaultSpec):
    p = graph.param(spec.pset)
    if spec.encoding != p.tensor.encoding:
        raise ValueError(f"fault encoding {spec.encoding} does not match "
                         f"p{spec.pset} encoding {p.tensor.encoding}")
    if not 0 <= spec.element < p.tensor.size:
        raise IndexError(f"element {spec.element} out of range for p{spec.pset} "
                         f"({p.tensor.size} elements)")
    width = bits.ENCODING_WIDTH[spec.encoding]
    if not 0 <= spec.bit < width:
        raise ValueError(f"bit {spec.bit} out of range for {spec.encoding} "
                         f"(valid 0..{width - 1})")
    return p


def _read_word(p, element: int) -> int:
    flat = p.tensor.flat
    if p.tensor.encoding == "f32":
        return int(flat.view(np.uint32)[element])
    return int(flat[element])


def _flipped(p, word: int, bit: int) -> int:
    if p.tensor.encoding == "f32":
        return bits.flip_bit_f32(word, bit)
    return bits.flip_bit_int(word, bit, bits.ENCODING_WIDTH[p.tensor.encoding])


def _write_flipped(p, element: int, bit: int) -> tuple:
    """Flip in place; returns (old_word, new_word) in pattern space."""
    old = _read_word(p, element)
    new = _flipped(p, old, bit)
    if p.tensor.encoding == "f32":
        p.tensor.flat.view(np.uint32)[element] = np.uint32(new)
    else:
        p.tensor.flat[element] = new
    return old, new


def _stack(graph: ModelGraph) -> list:
    if not hasattr(graph, "_fault_stack"):
        graph._fault_stack = []
    return graph._fault_stack


def apply_fault(graph: ModelGraph, spec: FaultSpec) -> FaultToken:
    """Toggle the addressed bit in place and push a revert token (LIFO)."""
    p = _validate(graph, spec)
    old, _ = _write_flipped(p, spec.element, spec.bit)
    token = FaultToken(spec, old)
    _stack(graph).append(token)
    return token


def revert(graph: ModelGraph, token: FaultToken) -> None:
    """Restore the exact original bit pattern; tokens revert LIFO only."""
    if token.used:
        raise ValueError("fault token already reverted")
    stack = _stack(graph)
    if not stack or stack[-1] is not token:
        raise ValueError("out-of-order revert: token is not the most recent fault")
    p = graph.param(token.spec.pset)
    flat = p.tensor.flat
    if p.tensor.encoding == "f32":
        flat.view(np.uint32)[token.spec.element] = np.uint32(token.original_word)
    else:
        flat[token.spec.element] = token.original_word
    token.used = True
    stack.pop()


def decode_outcome(graph: ModelGraph, spec: FaultSpec,
                   old_word: int, new_word: int) -> FaultOutcome:
    if spec.encoding == "f32":
        old_v, new_v = bits.bits_to_f32(old_word), bits.bits_to_f32(new_word)
    else:
        old_v, new_v = float(old_word), float(new_word)
    return FaultOutcome(
        spec=spec, original_bits=old_word, faulty_bits=new_word,
        original_value=old_v, faulty_value=new_v,
        produced_nan=bool(np.isnan(new_v)),
        produced_inf=bool(np.isinf(new_v)),
        sign_changed=bool((old_v < 0) != (new_v < 0)) if not np.isnan(new_v) else False,
        magnitude_increased=bool(abs(new_v) > abs(old_v)) if np.isfinite(new_v) else True,
    )


def decode_fault(graph: ModelGraph, spec: FaultSpec) -> FaultOutcome:
    """The value transition ``spec`` makes, decoded without applying it."""
    p = _validate(graph, spec)
    old = _read_word(p, spec.element)
    return decode_outcome(graph, spec, old, _flipped(p, old, spec.bit))


def inject_and_measure(graph: ModelGraph, spec: FaultSpec, evaluate) -> FaultOutcome:
    """apply -> evaluate(graph) -> revert; returns the decoded outcome.

    ``evaluate`` receives the faulted graph and returns a list of per-image
    error rates (percent).
    """
    outcome = decode_fault(graph, spec)
    token = apply_fault(graph, spec)
    try:
        outcome.per_image_error = [float(e) for e in evaluate(graph)]
        if outcome.per_image_error:
            outcome.mean_error = float(np.mean(outcome.per_image_error))
    finally:
        revert(graph, token)
    return outcome


def fault_space_size(graph: ModelGraph, roles=None, psets=None) -> int:
    """Count of addressable (element, bit) pairs over the targeted sets."""
    return sum(p.tensor.size * p.width for p in target_psets(graph, roles, psets))


def target_psets(graph: ModelGraph, roles=None, psets=None):
    """Resolve a role/pset filter to a p-index-ordered list of ParamSets.

    An explicit pset list wins over a role filter; with neither given the
    six trainable roles are targeted.
    """
    if psets is not None:
        return [graph.param(i) for i in sorted(set(psets))]
    roles = set(roles) if roles is not None else set(DEFAULT_TARGET_ROLES)
    return [p for p in graph.params if p.role in roles]
