"""Zero-overhead parameter hardening.

Exponent/mantissa reconditioning: parameters with a risky exponent
(``bits.RISKY``) get their exponent nudged by one step — up with the
significand forced to 1.0, or down with it forced to the 23-bit maximum
(~1.99999988) — where ``bits.MAY_INCREMENT``/``bits.MAY_DECREMENT`` allow
that step. PT thresholds on the significand bound the allowed perturbation.
The remaining transforms (BN reparameterization, cross-layer equalization,
bias absorption) rewrite parameters without changing the network function
at all.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import bits
from .campaign import error_rate, run_fault_sets, segmentation_metrics
from .engine import run_float
# apply_fault and revert are not called here; they stay importable from this
# module, whose names perfbench's tracer rebinds.
from .faults import FaultSpec, apply_fault, revert  # noqa: F401
from .model import CONV_KINDS, ModelGraph, batch_inputs


class EqualizationError(ValueError):
    """Cross-layer equalization precondition violated."""


class AbsorptionError(ValueError):
    """Bias absorption precondition violated."""


# ---------------------------------------------------------------------------
# candidate classification


@dataclass(frozen=True)
class CandidateClass:
    candidate: bool
    allow_increment: bool
    allow_decrement: bool
    label: str


def classify_candidate(word: int) -> CandidateClass:
    """Risk/protectability of one f32 bit pattern.

    Candidates are the patterns with a ``bits.RISKY`` exponent, and the
    allowed directions are its ``bits.MAY_INCREMENT``/``MAY_DECREMENT``
    rows; 10000000 is labelled non-protectable outright (any
    partial-exponent flip would push the value above 2).
    """
    exp = bits.exponent_field(word)
    if exp == 0xFF:
        raise ValueError("NaN/Inf patterns have no protection classification")
    if exp == 0x80:
        return CandidateClass(False, False, False, "non-protectable")
    if not bits.RISKY[exp]:
        return CandidateClass(False, False, False, "not-a-candidate")
    inc, dec = bool(bits.MAY_INCREMENT[exp]), bool(bits.MAY_DECREMENT[exp])
    if inc and dec:
        label = "protect-either"
    elif inc:
        label = "protect-by-increment"
    elif dec:
        label = "protect-by-decrement"
    else:
        label = "non-protectable"
    return CandidateClass(True, inc, dec, label)


def danger_bit(word: int) -> int:
    """The bit whose flip fills this candidate's (partial) exponent."""
    bit = int(bits.DANGER_BIT[bits.exponent_field(word)])
    if bit < 0:
        raise ValueError(f"pattern {word:#010x} is not a risky candidate")
    return bit


def _risky_positions(params):
    """(set, element, word) of every risky f32 element of ``params``, in order."""
    for p in params:
        if p.tensor.encoding != "f32":
            continue
        words = p.tensor.flat.view(np.uint32)
        for idx in np.flatnonzero(bits.risky_mask(words)):
            yield p, int(idx), int(words[idx])


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
        d = dict(self.__dict__)
        d["before_value"] = repr(self.before_value)
        d["after_value"] = repr(self.after_value)
        return json.dumps(d, sort_keys=True)


@dataclass
class ProtectionReport:
    pt: ProtectionTarget
    records: list = field(default_factory=list)

    def applied(self):
        return [r for r in self.records if r.rule in (RULE_INCREMENT, RULE_DECREMENT)]

    def summary(self) -> dict:
        out = {"pt": self.pt.level, "candidates": len(self.records),
               RULE_INCREMENT: 0, RULE_DECREMENT: 0,
               RULE_SKIP_NONPROT: 0, RULE_SKIP_OUTSIDE: 0}
        for r in self.records:
            out[r.rule] += 1
        out["protected"] = out[RULE_INCREMENT] + out[RULE_DECREMENT]
        return out

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for r in self.records:
                f.write(r.to_json() + "\n")


def write_protection_summary_csv(summaries, path):
    """Per-(variant, PT) candidate-count summary table."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["variant", "pt", "candidates", "protected",
                    "incremented", "decremented", "skipped_nonprotectable",
                    "skipped_outside_thresholds"])
        for variant, s in summaries:
            w.writerow([variant, s["pt"], s["candidates"], s["protected"],
                        s[RULE_INCREMENT], s[RULE_DECREMENT],
                        s[RULE_SKIP_NONPROT], s[RULE_SKIP_OUTSIDE]])


def protect_parameters(graph: ModelGraph, pt: ProtectionTarget, roles=None):
    """Single deterministic pass in p-index order; returns (graph, report).

    Negative values are treated by significand magnitude (sign untouched).
    Idempotent at a fixed PT: protected patterns leave the candidate set or
    land outside the thresholds.
    """
    if graph.flags.get("quantized"):
        raise ValueError("protection applies to float graphs")
    if isinstance(pt, int):
        pt = PT_LEVELS[pt]
    out = graph.copy()
    report = ProtectionReport(pt)
    roleset = set(roles) if roles is not None else None

    params = (p for p in out.params if roleset is None or p.role in roleset)
    for p, idx, word in _risky_positions(params):
        cls = classify_candidate(word)
        sig = bits.significand_value(word)
        sign = bits.sign_field(word)
        e = bits.exponent_field(word)
        new_word, rule = word, RULE_SKIP_NONPROT
        if sig >= pt.full_threshold:
            if cls.allow_increment:
                new_word, rule = bits.assemble_f32(sign, e + 1, 0), RULE_INCREMENT
        elif sig <= pt.empty_threshold:
            if cls.allow_decrement:
                new_word = bits.assemble_f32(sign, e - 1, bits.F32_MANT_MASK)
                rule = RULE_DECREMENT
        elif cls.allow_increment or cls.allow_decrement:
            rule = RULE_SKIP_OUTSIDE
        before = after = bits.bits_to_f32(word)
        if new_word != word:
            p.tensor.flat.view(np.uint32)[idx] = new_word
            after = bits.bits_to_f32(new_word)
        report.records.append(ProtectionRecord(
            pset=p.index, element=idx, rule=rule,
            before_bits=word, after_bits=new_word,
            before_value=before, after_value=after,
            relative_delta=(after - before) / before if before else 0.0))

    out.with_provenance({"transform": "protect_parameters", "pt": pt.level,
                         "summary": report.summary()})
    return out, report


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
        with open(path, "w") as f:
            json.dump(report, f, sort_keys=True, indent=1)
            f.write("\n")


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
    """
    batch = batch_inputs(images)
    targets = []
    for p, idx, word in _risky_positions(original.params):
        bitpos = danger_bit(word)
        if bit_filter is None or bitpos in bit_filter:
            targets.append([FaultSpec(pset=p.index, element=idx, bit=bitpos,
                                      encoding="f32")])

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


def recondition_bn(graph: ModelGraph, strategy: str = "pow2"):
    """Rewrite risky BN gammas via the function-preserving joint move
    gamma' = s*gamma, sigma' = s^2*(sigma+eps) - eps with power-of-two s.

    W = gamma/sqrt(sigma+eps) and b = beta - gamma*mu/sqrt(sigma+eps) stay
    within 1e-6 relative; channels where no scale works are left untouched.
    Returns (graph, report).
    """
    if graph.flags.get("folded") or graph.flags.get("quantized"):
        raise ValueError("recondition_bn operates on the unfolded float graph")
    if strategy not in ("identity", "pow2"):
        raise ValueError(f"unknown strategy {strategy!r}")

    out = graph.copy()
    eps = np.float32(out.bn_epsilon)
    changed = []
    before = _risky_bn_count(graph)
    if strategy == "identity":
        return out, {"strategy": strategy, "channels_changed": 0,
                     "risky_before": before, "risky_after": before, "changes": []}

    for layer in out.layers:
        if layer.kind != "batchnorm":
            continue
        ps = out.layer_params(layer.name)
        gamma = ps["bn_gamma"].tensor.data
        sigma = ps["bn_sigma"].tensor.data
        mu = ps["bn_mu"].tensor.data
        beta = ps["bn_beta"].tensor.data
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

    out.with_provenance({"transform": "recondition_bn", "strategy": strategy,
                         "channels_changed": len(changed)})
    return out, {"strategy": strategy, "channels_changed": len(changed),
                 "risky_before": before, "risky_after": _risky_bn_count(out),
                 "changes": changed}


def _risky(value) -> bool:
    return bool(bits.RISKY[bits.exponent_field(bits.f32_to_bits(float(value)))])


def _risky_bn_count(graph: ModelGraph) -> int:
    count = 0
    for p in graph.params_of(roles=("bn_gamma", "bn_beta", "bn_mu", "bn_sigma")):
        count += int(bits.risky_mask(p.tensor.flat.view(np.uint32)).sum())
    return count


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
    wn, bn = (p.tensor.data for p in out.kernel_bias(layer_n))
    wn1 = out.kernel_bias(layer_np1)[0].tensor.data
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


def suggest_cle_scales(graph: ModelGraph, layer_n: str, layer_np1: str,
                       pow2: bool = True) -> np.ndarray:
    """Range-balancing scales s_c = sqrt(r1_c / r2_c), optionally snapped to
    powers of two (exactly representable: zero drift in W, b)."""
    wn = graph.kernel_bias(layer_n)[0].tensor.data
    wn1 = graph.kernel_bias(layer_np1)[0].tensor.data
    r1 = np.abs(wn).max(axis=(0, 1, 2))
    r2 = np.abs(wn1).max(axis=(0, 1, 3))
    s = np.sqrt(np.where(r2 > 0, r1 / np.maximum(r2, 1e-30), 1.0))
    s = np.where((r1 > 0) & (r2 > 0), s, 1.0)
    if pow2:
        s = 2.0 ** np.rint(np.log2(np.maximum(s, 1e-30)))
        s = np.maximum(s, 2.0 ** -30)
    return s.astype(np.float32)


def absorb_bias(graph: ModelGraph, amounts, layer_n: str, layer_np1: str,
                witness_inputs, verify: bool = True) -> ModelGraph:
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
    k = graph.kernel_bias(layer_np1)[0].tensor.shape
    if lnp1.kind == "conv2d_transpose":
        raise AbsorptionError("absorbing into a transposed convolution is not supported")
    if (k[0] > 1 or k[1] > 1) and lnp1.hyperparams.get("padding", "same") == "same":
        raise AbsorptionError(
            f"{layer_np1} is a zero-padded {k[0]}x{k[1]} convolution: the absorbed "
            "shift W*c is wrong at borders; use a 1x1 or valid-padding consumer")

    c = np.asarray(amounts, dtype=np.float32)
    bn_ = graph.kernel_bias(layer_n)[1].tensor.data
    if c.shape != bn_.shape:
        raise AbsorptionError(f"need one amount per channel of {layer_n} "
                              f"({bn_.shape}), got {c.shape}")

    has_relu = "relu" in path
    if has_relu:
        if np.any(c < 0):
            bad = np.flatnonzero(c < 0).tolist()
            raise AbsorptionError(f"negative amounts cannot cross a ReLU; "
                                  f"offending channels {bad}")
        batch = batch_inputs(witness_inputs)
        pre = run_float(graph, batch, collect=(layer_n,)).collected[layer_n].data
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
    out.kernel_bias(layer_n)[1].tensor.data[...] = bn_ - c
    w1, b1 = (p.tensor.data for p in out.kernel_bias(layer_np1))
    delta = np.einsum("hwio,i->o", w1.astype(np.float64), c.astype(np.float64))
    b1[...] = (b1.astype(np.float64) + delta).astype(np.float32)
    out.with_provenance({"transform": "absorb_bias", "pair": [layer_n, layer_np1]})

    if verify:
        batch = batch_inputs(witness_inputs)
        ref = run_float(graph, batch).logits.data
        new = run_float(out, batch).logits.data
        # logit fields cross zero, so "relative" is against the output scale
        scale = max(float(np.abs(ref).max()), 1e-30)
        rel = float(np.abs(new - ref).max()) / scale
        if rel > 1e-6:
            raise AbsorptionError(f"witness outputs drifted by {rel:.3e} relative "
                                  "to the logit scale (max allowed 1e-6)")
    return out
