"""Bit-exact fault application to model parameters with exact-revert tokens.

Faults always target a working copy of the graph (ModelGraph.copy); the
persisted golden model stays intact for the error metric. A flip is one XOR
on the element's unsigned word, whatever its encoding. Bit numbering is
31 = f32 sign, exponent [23-30], per the reporting convention used
throughout the toolkit.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import bits
from .model import DEFAULT_TARGET_ROLES, ModelGraph
from .tensor import ENCODINGS


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
        return cls._from_record(json.loads(line))

    @classmethod
    def _from_record(cls, d) -> "FaultSpec":
        """The spec JSON object ``d`` addresses; ValueError naming the first
        field that no model could hold: an unknown encoding, a bit outside
        the encoding's width, a negative element or a pset below 1."""
        d = _record(d, cls, "fault spec", optional=("seed_ordinal",))
        if d["encoding"] not in ENCODINGS:
            _refuse("fault spec", "encoding", d, f"not one of {', '.join(ENCODINGS)}")
        width = np.dtype(ENCODINGS[d["encoding"]]).itemsize * 8
        if not 0 <= d["bit"] < width:
            _refuse("fault spec", "bit", d, f"outside 0..{width - 1} for {d['encoding']}")
        if d["element"] < 0:
            _refuse("fault spec", "element", d, "negative")
        if d["pset"] < 1:
            _refuse("fault spec", "pset", d, "below 1; sets are numbered from p1")
        return cls(**d)


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

    @classmethod
    def from_json(cls, line: str) -> "FaultOutcome":
        """The outcome a JSON line records; ValueError naming the first field
        no campaign writes. An evaluated outcome (no ``evaluation_error``)
        has a ``mean_error`` and a non-empty ``per_image_error`` of error
        rates, finite numbers in [0, 100]."""
        d = _record(json.loads(line), cls, "fault outcome", optional=("evaluation_error",))
        spec = FaultSpec._from_record(d["spec"])
        if d.get("evaluation_error") is None:
            if not _is_rate(d["mean_error"]):
                _refuse("fault outcome", "mean_error", d, "not an error rate in [0, 100]")
            if not (d["per_image_error"] and all(map(_is_rate, d["per_image_error"]))):
                _refuse("fault outcome", "per_image_error", d,
                        "not a non-empty list of error rates in [0, 100]")
        return cls(**{**d, "spec": spec,
                      **{name: _float_repr(d[name], name) for name in _REPRS}})


# A field's JSON type and its name in messages, by annotation (null too where
# the default is None); to_json writes an outcome's values as float reprs.
_JSON_TYPES = {"int": (int, "an int"), "str": (str, "a string"), "bool": (bool, "true or false"),
               "float": ((int, float), "a number"), "list": (list, "a list"),
               "FaultSpec": (dict, "an object")}
_REPRS = ("original_value", "faulty_value")


def _refuse(what: str, name: str, d: dict, why: str):
    raise ValueError(f"{what} field {name!r} is {json.dumps(d[name])}, {why}")


def _is_rate(value) -> bool:
    """Whether ``value`` is a percent error rate: a finite number in [0, 100]."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value <= 100


def _float_repr(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"fault outcome field {name!r} is {json.dumps(text)}, "
                         "not a float repr") from None


def _record(d, cls, what: str, optional=()) -> dict:
    """``d``, a JSON object holding every field of dataclass ``cls`` but
    ``optional``, each of its type (``_JSON_TYPES``).

    Raises ValueError naming the first missing or mistyped field, else unknown key.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{what} is not a JSON object")
    for f in fields(cls):
        if f.name not in d and f.name not in optional:
            raise ValueError(f"{what} is missing key {f.name!r}")
        value = d.get(f.name)
        types, kind = (str, "a string") if f.name in _REPRS else _JSON_TYPES[f.type]
        if (value is not None or f.default is not None) and (
                not isinstance(value, types) or isinstance(value, bool) != (types is bool)):
            raise ValueError(f"{what} field {f.name!r} is {json.dumps(value)}, not {kind}")
    unknown = [k for k in d if k not in {f.name for f in fields(cls)}]
    if unknown:
        raise ValueError(f"{what} has unknown key {unknown[0]!r}")
    return d


@dataclass
class FaultToken:
    """Revert handle holding the element's unsigned word before the flip;
    LIFO order is enforced per graph."""

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
    if not 0 <= spec.bit < p.width:
        raise ValueError(f"bit {spec.bit} out of range for {spec.encoding} "
                         f"(valid 0..{p.width - 1})")
    return p


def _words(p) -> np.ndarray:
    """The elements of ``p`` as unsigned words of their width; writes go through."""
    return p.tensor.flat.view(f"u{p.tensor.data.itemsize}")


def _stack(graph: ModelGraph) -> list:
    if not hasattr(graph, "_fault_stack"):
        graph._fault_stack = []
    return graph._fault_stack


def apply_fault(graph: ModelGraph, spec: FaultSpec) -> FaultToken:
    """Toggle the addressed bit in place and push a revert token (LIFO)."""
    p = _validate(graph, spec)
    words = _words(p)
    token = FaultToken(spec, int(words[spec.element]))
    words[spec.element] = token.original_word ^ (1 << spec.bit)
    _stack(graph).append(token)
    return token


def revert(graph: ModelGraph, token: FaultToken) -> None:
    """Restore the exact original bit pattern; tokens revert LIFO only."""
    if token.used:
        raise ValueError("fault token already reverted")
    stack = _stack(graph)
    if not stack or stack[-1] is not token:
        raise ValueError("out-of-order revert: token is not the most recent fault")
    _words(graph.param(token.spec.pset))[token.spec.element] = token.original_word
    token.used = True
    stack.pop()


def with_faults(graph: ModelGraph, specs, evaluate):
    """apply every spec -> ``evaluate(graph)`` -> revert them LIFO, also on failure."""
    tokens = []
    try:
        for spec in specs:
            tokens.append(apply_fault(graph, spec))
        return evaluate(graph)
    finally:
        for tok in reversed(tokens):
            revert(graph, tok)


def decode_fault(graph: ModelGraph, spec: FaultSpec) -> FaultOutcome:
    """The value transition ``spec`` makes, decoded without applying it.

    ``original_bits``/``faulty_bits`` are the f32 word, or the signed value
    of an integer element.
    """
    p = _validate(graph, spec)
    old_word = int(_words(p)[spec.element])
    new_word = old_word ^ (1 << spec.bit)
    if spec.encoding == "f32":
        old_v, new_v = bits.bits_to_f32(old_word), bits.bits_to_f32(new_word)
    else:
        sign = 1 << (p.width - 1)
        old_word, new_word = (old_word ^ sign) - sign, (new_word ^ sign) - sign
        old_v, new_v = float(old_word), float(new_word)
    return FaultOutcome(
        spec=spec, original_bits=old_word, faulty_bits=new_word,
        original_value=old_v, faulty_value=new_v,
        produced_nan=bool(np.isnan(new_v)),
        produced_inf=bool(np.isinf(new_v)),
        sign_changed=bool((old_v < 0) != (new_v < 0)) if not np.isnan(new_v) else False,
        magnitude_increased=bool(abs(new_v) > abs(old_v)) if np.isfinite(new_v) else True,
    )


def inject_and_measure(graph: ModelGraph, spec: FaultSpec, evaluate) -> FaultOutcome:
    """apply -> evaluate(graph) -> revert; returns the decoded outcome.

    ``evaluate`` receives the faulted graph and returns a list of per-image
    error rates (percent).
    """
    outcome = decode_fault(graph, spec)
    outcome.per_image_error = [float(e) for e in with_faults(graph, [spec], evaluate)]
    if outcome.per_image_error:
        outcome.mean_error = float(np.mean(outcome.per_image_error))
    return outcome


def fault_space(psets, bits=None):
    """The fault address space over ``psets`` and its size.

    Addresses run over the sets in the order given, element-major within a
    set, over bits ``(lo, hi)`` inclusive or each set's full width.
    """
    starts, spans, size = [], [], 0
    for p in psets:
        lo, hi = bits if bits is not None else (0, p.width - 1)
        starts.append(size)
        spans.append((p, lo, hi - lo + 1))
        size += p.tensor.size * (hi - lo + 1)
    return (starts, spans), size


def fault_at(space, flat: int) -> FaultSpec:
    """The fault at address ``flat`` of a :func:`fault_space`."""
    starts, spans = space
    k = bisect.bisect_right(starts, flat) - 1
    p, lo, nbits = spans[k]
    element, bit = divmod(flat - starts[k], nbits)
    return FaultSpec(pset=p.index, element=element, bit=lo + bit,
                     encoding=p.tensor.encoding)


def fault_space_size(graph: ModelGraph, roles=None, psets=None) -> int:
    """Count of addressable (element, bit) pairs over the targeted sets."""
    return fault_space(target_psets(graph, roles, psets))[1]


def target_psets(graph: ModelGraph, roles=None, psets=None):
    """Resolve a role/pset filter to a p-index-ordered list of ParamSets.

    An explicit pset list wins over a role filter; with neither given the
    six trainable roles are targeted.
    """
    if psets is not None:
        return [graph.param(i) for i in sorted(set(psets))]
    return graph.params_of(roles if roles is not None else DEFAULT_TARGET_ROLES)
