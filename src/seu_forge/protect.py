"""Zero-overhead parameter hardening.

Exponent/mantissa reconditioning: parameters with a risky exponent
(``bits.RISKY``) get their exponent nudged by one step — up with the
significand forced to 1.0, or down with it forced to the 23-bit maximum
(~1.99999988) — where ``bits.MAY_INCREMENT``/``bits.MAY_DECREMENT`` allow
that step. PT thresholds on the significand bound the allowed perturbation.
Risky words are gathered in one place (``_risky_words``), one ``bits.RISKY``
lookup per f32 set, for reconditioning, the paired evaluation and the BN
risky count. Reconditioning decides the gathered words in one integer pass,
the PT thresholds as mantissa bounds. A report keeps its records as per-set
columns, which only ``ProtectionRecords.add_set`` writes, and builds a
record object only when one is read; reconditioning, its summary and its
record file (written from the columns) do no per-record object work.
The remaining transforms (BN reparameterization, cross-layer equalization,
bias absorption) rewrite parameters without changing the network function
at all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import bits, reports
from .campaign import error_rate, run_fault_sets, segmentation_metrics
from .engine import run_float
# apply_fault and revert are not called here; they stay importable from this
# module, whose names perfbench's tracer rebinds.
from .faults import FaultSpec, apply_fault, revert  # noqa: F401
from .model import _LAYER_ROLES, CONV_KINDS, ModelGraph, batch_inputs


class EqualizationError(ValueError):
    """Cross-layer equalization precondition violated."""


class AbsorptionError(ValueError):
    """Bias absorption precondition violated."""


# ---------------------------------------------------------------------------
# candidate classification


def danger_bit(word: int) -> int:
    """The bit whose flip fills this candidate's (partial) exponent."""
    bit = int(bits.DANGER_BIT[bits.exponent_field(word)])
    if bit < 0:
        raise ValueError(f"pattern {word:#010x} is not a risky candidate")
    return bit


def _risky_words(params):
    """(set, uint32 view of its elements, indices of its risky words) of every
    f32 set of ``params``, in order: the one gather of risky words."""
    words = [(p, p.words) for p in params if p.encoding == "f32"]
    return [(p, w, np.flatnonzero(bits.risky_mask(w))) for p, w in words]


# ---------------------------------------------------------------------------
# PT-thresholded reconditioning


@dataclass(frozen=True)
class ProtectionTarget:
    level: str
    full_threshold: float   # significand at/above this: exponent++, mantissa->min
    empty_threshold: float  # significand at/below this: exponent--, mantissa->max

    def __post_init__(self):
        if not 1.0 <= self.empty_threshold < self.full_threshold < 2.0:
            raise ValueError(f"thresholds must satisfy 1 <= empty < full < 2, "
                             f"got ({self.full_threshold}, {self.empty_threshold})")


PT_LEVELS = {
    1: ProtectionTarget("PT1", 1.999, 1.001),
    2: ProtectionTarget("PT2", 1.99, 1.01),
    3: ProtectionTarget("PT3", 1.95, 1.05),
    4: ProtectionTarget("PT4", 1.9, 1.1),
}

RULE_INCREMENT = "exponent++ mantissa->min"
RULE_DECREMENT = "exponent-- mantissa->max"
RULE_SKIP_NONPROT = "skipped non-protectable"
RULE_SKIP_OUTSIDE = "skipped mantissa outside thresholds"

_RULES = np.array([RULE_SKIP_NONPROT, RULE_SKIP_OUTSIDE, RULE_INCREMENT, RULE_DECREMENT],
                  dtype=object)
_MOVES = 2  # the codes at and above it move the word

# One record as a JSON line, keys sorted as ``json.dumps(..., sort_keys=True)``
# writes them, filled from a tuple in key order. The floats are written by
# repr: the values as JSON strings, the relative delta as the number that
# json.dumps writes for a finite float.
_LINE = ('{"after_bits": %d, "after_value": "%r", "before_bits": %d, "before_value": "%r", '
         '"element": %d, "pset": %d, "relative_delta": %r, "rule": "%s"}')


@dataclass
class ProtectionRecord:
    pset: int
    element: int
    rule: str
    before_bits: int
    after_bits: int
    before_value: float
    after_value: float
    relative_delta: float

    def to_json(self) -> str:
        """The record's JSON line, as ``write_jsonl`` writes it from the columns."""
        return _LINE % (self.after_bits, self.after_value, self.before_bits, self.before_value,
                        self.element, self.pset, self.relative_delta, self.rule)


def _floats(before, after):
    """The f32 values of the words as float64, and their relative delta, the
    float64 quotient. A risky word is normal and one exponent step keeps it
    finite, so every delta of a report is finite."""
    value_before = before.view(np.float32).astype(np.float64)
    value_after = after.view(np.float32).astype(np.float64)
    return value_before, value_after, (value_after - value_before) / value_before


def _records(pset, element, rule, before, after):
    """The records of one set's columns, in column order."""
    value_before, value_after, delta = _floats(before, after)
    # the columns in ProtectionRecord's field order
    return map(ProtectionRecord, itertools.repeat(pset, element.size), element.tolist(),
               _RULES[rule].tolist(), before.tolist(), after.tolist(),
               value_before.tolist(), value_after.tolist(), delta.tolist())


def _lines(pset, element, rule, before, after):
    """The JSON lines of one set's columns, in column order; no record is built."""
    value_before, value_after, delta = _floats(before, after)
    # the columns in _LINE's order
    return map(_LINE.__mod__, zip(after.tolist(), value_after.tolist(), before.tolist(),
                                  value_before.tolist(), element.tolist(),
                                  itertools.repeat(pset), delta.tolist(), _RULES[rule].tolist()))


class ProtectionRecords:
    """The records of a report, held as per-set columns: element indices,
    rule codes (indices into ``_RULES``) and the uint32 words before and
    after. Records are read by iteration, which builds each
    :class:`ProtectionRecord` as it is reached, so editing a record read out
    changes nothing stored; ``lines`` formats them from the columns."""

    def __init__(self):
        self._sets = []  # (pset, element, rule, before, after) per added set

    def add_set(self, pset: int, element, rule, before, after):
        """Append the records of one set's equal-length columns."""
        self._sets.append((pset, element, rule, before, after))

    def rule_counts(self) -> dict:
        """{rule: number of records} over every rule."""
        codes = np.concatenate([np.zeros(0, np.uint8), *(s[2] for s in self._sets)])
        return dict(zip(_RULES.tolist(), np.bincount(codes, minlength=_RULES.size).tolist()))

    def moves(self):
        """The records whose rule moves the word, in record order; no other
        record is built."""
        for pset, element, rule, before, after in self._sets:
            moved = np.flatnonzero(rule >= _MOVES)
            yield from _records(pset, element[moved], rule[moved], before[moved], after[moved])

    def lines(self):
        """Every record's JSON line (``ProtectionRecord.to_json``), in record order."""
        for columns in self._sets:
            yield from _lines(*columns)

    def __len__(self):
        return sum(s[1].size for s in self._sets)

    def __iter__(self):
        for columns in self._sets:
            yield from _records(*columns)


@dataclass
class ProtectionReport:
    pt: ProtectionTarget
    records: ProtectionRecords = field(default_factory=ProtectionRecords)

    def applied(self):
        return list(self.records.moves())

    def summary(self) -> dict:
        counts = self.records.rule_counts()
        out = {"pt": self.pt.level, "candidates": len(self.records)}
        out.update((rule, counts[rule]) for rule in
                   (RULE_INCREMENT, RULE_DECREMENT, RULE_SKIP_NONPROT, RULE_SKIP_OUTSIDE))
        out["protected"] = out[RULE_INCREMENT] + out[RULE_DECREMENT]
        return out

    def write_jsonl(self, path):
        reports.write_lines(path, self.records.lines())


def write_protection_summary_csv(summaries, path):
    """Per-(variant, PT) candidate-count summary table."""
    reports.write_csv(path, ["variant", "pt", "candidates", "protected",
                             "incremented", "decremented", "skipped_nonprotectable",
                             "skipped_outside_thresholds"],
                      [[variant, s["pt"], s["candidates"], s["protected"],
                        s[RULE_INCREMENT], s[RULE_DECREMENT],
                        s[RULE_SKIP_NONPROT], s[RULE_SKIP_OUTSIDE]]
                       for variant, s in summaries])


def protect_parameters(graph: ModelGraph, pt: ProtectionTarget, roles=None):
    """Single deterministic pass in p-index order; returns (graph, report).

    Negative values are treated by significand magnitude (sign untouched).
    Idempotent at a fixed PT: protected patterns leave the candidate set or
    land outside the thresholds. The risky words of every selected f32 set
    are gathered and decided in one pass over all of them (``_decide``);
    each set then takes back its words after and the report a view of its
    columns. No record object is built until the report's records are read,
    and ``write_jsonl`` builds none.
    """
    if graph.flags.get("quantized"):
        raise ValueError("protection applies to float graphs")
    out = graph.copy()
    sets = _risky_words(out.params if roles is None else out.params_of(roles))
    before = np.concatenate([np.zeros(0, np.uint32), *(words[e] for _, words, e in sets)])
    rule, after = _decide(before, pt)
    report = ProtectionReport(pt)
    stop = 0
    for p, words, element in sets:
        start, stop = stop, stop + element.size
        words[element] = after[start:stop]  # a word no rule moves is written as it was
        report.records.add_set(p.index, element, rule[start:stop], before[start:stop],
                               after[start:stop])

    out.with_provenance({"transform": "protect_parameters", "pt": pt.level,
                         "summary": report.summary()})
    return out, report


_MANT = np.uint32(bits.F32_MANT_MASK)
# by rule code: the bits a rule keeps of the word, then the step it adds
# (uint32 wraps, so 0xFFFFFFFF subtracts one: the cleared mantissa borrows
# from the exponent and fills)
_KEEP = np.array([0xFFFFFFFF, 0xFFFFFFFF, ~bits.F32_MANT_MASK & 0xFFFFFFFF,
                  ~bits.F32_MANT_MASK & 0xFFFFFFFF], np.uint32)
_STEP = np.array([0, 0, 1 << bits.F32_EXP_LO, 0xFFFFFFFF], np.uint32)


def _decide(before: np.ndarray, pt: ProtectionTarget) -> tuple:
    """The rule code (index into ``_RULES``) and word after of each risky word.

    A word whose significand is at or above the full threshold steps its
    exponent up where ``bits.MAY_INCREMENT`` allows, mantissa cleared; one
    at or below the empty threshold steps down where ``bits.MAY_DECREMENT``
    allows, mantissa filled. Neither step reaches the sign, as a risky
    exponent lies in [63, 127]. A word between the thresholds that may move
    either way is skipped as outside them; every other risky word is skipped
    as non-protectable.

    The thresholds are compared as mantissa bounds: the significand
    1 + m/2^23, t - 1 and its scaling by 2^23 are exact in float64, so
    1 + m/2^23 >= t exactly when m >= ceil((t - 1)·2^23), and <= t exactly
    when m <= floor((t - 1)·2^23). As empty < full, the bounds part the
    mantissas into disjoint bands.
    """
    scale = 1 << bits.F32_MANT_BITS
    mant = before & _MANT
    exp = bits.exponent_fields(before)
    full = mant >= math.ceil((pt.full_threshold - 1.0) * scale)
    empty = mant <= math.floor((pt.empty_threshold - 1.0) * scale)
    inc, dec = bits.MAY_INCREMENT[exp], bits.MAY_DECREMENT[exp]
    outside, up, down = ~(full | empty) & (inc | dec), full & inc, empty & dec
    # the sum of the disjoint masks, weighted by their codes
    rule = outside.view(np.uint8) + up.view(np.uint8) * 2 + down.view(np.uint8) * 3
    return rule, (before & _KEEP[rule]) + _STEP[rule]


# ---------------------------------------------------------------------------
# paired evaluation


@dataclass
class ProtectionEvaluation:
    faultless: dict       # {"original": metrics dict, "protected": metrics dict}
    per_bit: list         # rows {bit, n, original: {...}, protected: {...}}
    failed: list = field(default_factory=list)  # {pset, element, bit, model, error}

    def write_json(self, path):
        report = {"faultless": self.faultless, "per_bit": self.per_bit}
        if self.failed:
            report["failed"] = self.failed
        reports.write_json(path, report)


_MODELS = ("original", "protected")
_SCORES = ("giou", "wiou", "error_rate")


def _scores(labels, class_count: int, golden, maps) -> dict:
    """The scores of ``maps``: IoU against ``labels`` (default: ``golden``),
    error rate against ``golden``."""
    m = segmentation_metrics(maps, golden if labels is None else labels, class_count)
    return dict(zip(_SCORES, (m.global_iou, m.weighted_iou, error_rate(golden, maps))))


def evaluate_protection(original: ModelGraph, protected: ModelGraph, images,
                        labels=None, bit_filter=None, workers: int = 1) -> ProtectionEvaluation:
    """Exhaustive single-flip comparison on every originally-risky position.

    For each risky parameter the flip lands on its danger bit (30 for full
    exponents, the missing partial bit otherwise). Error rates for both
    models are measured against the original model's faultless class maps;
    IoU metrics against ``labels`` (default: self-labels from those maps).
    A fault that leaves a model's output unchanged scores that model's own
    faultless maps, which come from its golden walk. A position whose fault
    fails in either model is left out of both models' means and ``n`` and
    recorded in ``failed``. The result is the same for any ``workers``.

    The positions are ``original``'s gathered risky words, in p-index then
    element order; their bits come from one ``bits.DANGER_BIT`` lookup per f32
    set, over its risky words, kept where ``bit_filter`` admits the bit.
    A quantized ``original`` holds no such set and is refused before any walk.
    """
    if original.flags.get("quantized"):
        raise ValueError("protection applies to float graphs")
    batch = batch_inputs(images)
    targets = []
    for p, words, risky in _risky_words(original.params):
        danger = bits.DANGER_BIT[bits.exponent_fields(words[risky])]
        if bit_filter is not None:
            chosen = np.isin(danger, list(bit_filter))
            risky, danger = risky[chosen], danger[chosen]
        targets += [[FaultSpec(pset=p.index, element=element, bit=bitpos, encoding="f32")]
                    for element, bitpos in zip(risky.tolist(), danger.tolist())]

    faultless, pairs = run_fault_sets([original, protected], targets, batch,
                                      partial(_scores, labels, original.class_count), workers)
    rows, failed = {}, []
    for (spec,), pair in zip(targets, pairs):
        errors = [(tag, error) for tag, (_, error) in zip(_MODELS, pair) if error is not None]
        failed += [{"pset": spec.pset, "element": spec.element, "bit": spec.bit,
                    "model": tag, "error": e} for tag, e in errors]
        if not errors:
            rows.setdefault(spec.bit, []).append(pair)
    per_bit = [{"bit": bitpos, "n": len(rows[bitpos]),
                **{tag: {k: float(np.mean([pair[t][0][k] for pair in rows[bitpos]]))
                         for k in _SCORES} for t, tag in enumerate(_MODELS)}}
               for bitpos in sorted(rows, reverse=True)]
    return ProtectionEvaluation(dict(zip(_MODELS, faultless)), per_bit, failed)


# ---------------------------------------------------------------------------
# BN reparameterization


def recondition_bn(graph: ModelGraph):
    """Rewrite risky BN gammas via the function-preserving joint move
    gamma' = s*gamma, sigma' = s^2*(sigma+eps) - eps with power-of-two s.

    W = gamma/sqrt(sigma+eps) and b = beta - gamma*mu/sqrt(sigma+eps) stay
    within 1e-6 relative; channels where no scale works are left untouched.
    Returns (graph, report).
    """
    if graph.flags.get("folded") or graph.flags.get("quantized"):
        raise ValueError("recondition_bn operates on the unfolded float graph")

    out = graph.copy()
    eps = np.float32(out.bn_epsilon)
    changed = []
    for layer in out.layers:
        if layer.kind != "batchnorm":
            continue
        ps = out.layer_params(layer.name)
        gamma = ps["bn_gamma"].data
        sigma = ps["bn_sigma"].data
        mu = ps["bn_mu"].data
        beta = ps["bn_beta"].data
        for ch in range(gamma.size):
            # no scale keeps W of a channel whose sigma + eps is not positive
            if not _risky(gamma[ch]) or not float(sigma[ch]) + float(eps) > 0:
                continue
            w_ref = float(gamma[ch]) / np.sqrt(float(sigma[ch]) + float(eps))
            b_ref = float(beta[ch]) - w_ref * float(mu[ch])
            for s in (2.0, 0.5, 4.0, 0.25):
                # a trial that overflows is skipped, not warned about
                with np.errstate(over="ignore"):
                    g2 = np.float32(gamma[ch] * np.float32(s))
                    t = np.float32(sigma[ch] + eps)
                    s2 = np.float32(np.float32(s * s) * t - eps)
                if not (np.isfinite(g2) and np.isfinite(s2)) or s2 < 0 or _risky(g2):
                    continue
                if not _risky(sigma[ch]) and _risky(s2):
                    continue
                w_new = float(g2) / np.sqrt(float(s2) + float(eps))
                b_new = float(beta[ch]) - w_new * float(mu[ch])
                if abs(w_new - w_ref) > 1e-6 * max(abs(w_ref), 1e-30):
                    continue
                if abs(b_new - b_ref) > 1e-6 * max(abs(b_ref), 1.0):
                    continue
                gamma[ch] = g2
                sigma[ch] = s2
                changed.append({"layer": layer.name, "channel": ch, "scale": s})
                break

    out.with_provenance({"transform": "recondition_bn", "strategy": "pow2",
                         "channels_changed": len(changed)})
    return out, {"strategy": "pow2", "channels_changed": len(changed),
                 "risky_before": _risky_bn_count(graph), "risky_after": _risky_bn_count(out),
                 "changes": changed}


def _risky(value) -> bool:
    return bool(bits.RISKY[bits.exponent_field(bits.f32_to_bits(float(value)))])


def _risky_bn_count(graph: ModelGraph) -> int:
    sets = _risky_words(graph.params_of(roles=_LAYER_ROLES["batchnorm"]))
    return sum(risky.size for _, _, risky in sets)


# ---------------------------------------------------------------------------
# cross-layer equalization and bias absorption


def _linear_path(graph: ModelGraph, name_n: str, name_np1: str, error_cls):
    """Verify n feeds n+1 through relu/maxpool only; returns the path kinds."""
    ln, lnp1 = graph.layer(name_n), graph.layer(name_np1)
    if ln.kind not in CONV_KINDS or lnp1.kind not in CONV_KINDS:
        raise error_cls(f"{name_n} and {name_np1} must both be convolution-like layers")
    path = []
    cur = ln
    while True:
        consumers = graph.consumers(cur.name)
        if len(consumers) != 1:
            raise error_cls(f"{cur.name} has {len(consumers)} consumers; the pair "
                            "must be connected by a single path")
        nxt = consumers[0]
        if nxt.name == name_np1:
            return path
        if nxt.kind not in ("relu", "maxpool"):
            raise error_cls(f"unsupported layer {nxt.name} ({nxt.kind}) between the "
                            "pair; only relu/maxpool preserve the rewrite")
        path.append(nxt.kind)
        cur = nxt


def cross_layer_equalize(graph: ModelGraph, scales, layer_n: str,
                         layer_np1: str) -> ModelGraph:
    """Positive per-channel rescale: W_n ->= S^-1 W_n, b_n -> S^-1 b_n,
    W_{n+1} -> W_{n+1} S. Function-preserving through ReLU (positive scaling
    equivariance); exact in floating point when scales are powers of two.
    """
    if graph.flags.get("quantized"):
        raise EqualizationError("equalization applies to float graphs")
    _linear_path(graph, layer_n, layer_np1, EqualizationError)
    s = np.asarray(scales, dtype=np.float32)
    if np.any(~np.isfinite(s)) or np.any(s <= 0):
        bad = np.flatnonzero(~(s > 0)).tolist()
        raise EqualizationError(f"scales must be strictly positive; offending channels {bad}")

    out = graph.copy()
    wn, bn = (p.data for p in out.kernel_bias(layer_n))
    wn1 = out.kernel_bias(layer_np1)[0].data
    if s.shape != (wn.shape[3],):
        raise EqualizationError(f"need one scale per output channel of {layer_n} "
                                f"({wn.shape[3]}), got {s.shape}")
    if wn1.shape[2] != wn.shape[3]:
        raise EqualizationError(f"{layer_np1} input channels {wn1.shape[2]} do not "
                                f"match {layer_n} output channels {wn.shape[3]}")
    wn[...] = wn / s
    bn[...] = bn / s
    wn1[...] = wn1 * s[None, None, :, None]
    return out.with_provenance({"transform": "cross_layer_equalize",
                                "pair": [layer_n, layer_np1]})


def suggest_cle_scales(graph: ModelGraph, layer_n: str, layer_np1: str) -> np.ndarray:
    """Range-balancing scales s_c = sqrt(r1_c / r2_c), snapped to powers of
    two (exactly representable: zero drift in W, b)."""
    wn = graph.kernel_bias(layer_n)[0].data
    wn1 = graph.kernel_bias(layer_np1)[0].data
    r1 = np.abs(wn).max(axis=(0, 1, 2))
    r2 = np.abs(wn1).max(axis=(0, 1, 3))
    s = np.sqrt(np.where(r2 > 0, r1 / np.maximum(r2, 1e-30), 1.0))
    s = np.where((r1 > 0) & (r2 > 0), s, 1.0)
    s = 2.0 ** np.rint(np.log2(np.maximum(s, 1e-30)))
    s = np.maximum(s, 2.0 ** -30)
    return s.astype(np.float32)


def absorb_bias(graph: ModelGraph, amounts, layer_n: str, layer_np1: str,
                witness_inputs) -> ModelGraph:
    """Shift per-channel constants out of layer n's bias into layer n+1's:
    b_n -> b_n - c, b_{n+1} -> W_{n+1}*c + b_{n+1}.

    With a ReLU between the pair the rewrite is valid only where the
    pre-activation never dips below c; that is data-dependent, so it is
    checked channelwise on the witness set and the transform is refused,
    naming the violating channels, when it fails. Zero-padded k>1 consumers
    are refused outright: border pixels would not see the full W*c shift.
    """
    if graph.flags.get("quantized"):
        raise AbsorptionError("absorption applies to float graphs")
    path = _linear_path(graph, layer_n, layer_np1, AbsorptionError)
    lnp1 = graph.layer(layer_np1)
    k = graph.kernel_bias(layer_np1)[0].data.shape
    if lnp1.kind == "conv2d_transpose":
        raise AbsorptionError("absorbing into a transposed convolution is not supported")
    if (k[0] > 1 or k[1] > 1) and lnp1.padding == "same":
        raise AbsorptionError(
            f"{layer_np1} is a zero-padded {k[0]}x{k[1]} convolution: the absorbed "
            "shift W*c is wrong at borders; use a 1x1 or valid-padding consumer")

    c = np.asarray(amounts, dtype=np.float32)
    bn_ = graph.kernel_bias(layer_n)[1].data
    if c.shape != bn_.shape:
        raise AbsorptionError(f"need one amount per channel of {layer_n} "
                              f"({bn_.shape}), got {c.shape}")

    has_relu = "relu" in path
    if has_relu and np.any(c < 0):
        bad = np.flatnonzero(c < 0).tolist()
        raise AbsorptionError(f"negative amounts cannot cross a ReLU; "
                              f"offending channels {bad}")
    batch = batch_inputs(witness_inputs)
    if has_relu:
        pre = run_float(graph, batch, collect=(layer_n,)).collected[layer_n]
        min_pre = pre.min(axis=(0, 1, 2))
        # channels with c == 0 are untouched; the ReLU identity only binds
        # where a positive shift crosses the activation
        viol = np.flatnonzero((c > 0) & (min_pre - c < 0))
        if viol.size:
            raise AbsorptionError(
                "ReLU absorption condition violated on witnesses: channels "
                f"{viol.tolist()} have min pre-activation {min_pre[viol].tolist()} "
                f"below the requested amounts {c[viol].tolist()}")

    out = graph.copy()
    out.kernel_bias(layer_n)[1].data[...] = bn_ - c
    w1, b1 = (p.data for p in out.kernel_bias(layer_np1))
    delta = np.einsum("hwio,i->o", w1.astype(np.float64), c.astype(np.float64))
    b1[...] = (b1.astype(np.float64) + delta).astype(np.float32)
    out.with_provenance({"transform": "absorb_bias", "pair": [layer_n, layer_np1]})

    ref = run_float(graph, batch).logits
    new = run_float(out, batch).logits
    # logit fields cross zero, so "relative" is against the output scale
    scale = max(float(np.abs(ref).max()), 1e-30)
    rel = float(np.abs(new - ref).max()) / scale
    if rel > 1e-6:
        raise AbsorptionError(f"witness outputs drifted by {rel:.3e} relative "
                              "to the logit scale (max allowed 1e-6)")
    return out
