"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (scalar loops, struct-based bit
decoding) and stays independent of the package's vectorized paths.
"""

import struct
from dataclasses import dataclass

import numpy as np


def conv2d_quadruple_loop(x, k, bias, stride=1, padding="same"):
    """Scalar float32 cross-correlation with row-major (kh, kw, cin) sums,
    bias added last. The package's conv must match this bit-for-bit."""
    x = np.asarray(x, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    bias = np.asarray(bias, dtype=np.float32)
    kh, kw, cin, cout = k.shape
    n, h, w, _ = x.shape
    if padding == "same":
        oh = -(-h // stride)
        ow = -(-w // stride)
        ph = max((oh - 1) * stride + kh - h, 0)
        pw = max((ow - 1) * stride + kw - w, 0)
        xp = np.zeros((n, h + ph, w + pw, cin), dtype=np.float32)
        xp[:, ph // 2:ph // 2 + h, pw // 2:pw // 2 + w, :] = x
        x = xp
        n, h, w, _ = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((n, oh, ow, cout), dtype=np.float32)
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                for co in range(cout):
                    acc = np.float32(0.0)
                    for ki in range(kh):
                        for kj in range(kw):
                            for ci in range(cin):
                                t = np.float32(x[b, i * stride + ki, j * stride + kj, ci]
                                               * k[ki, kj, ci, co])
                                acc = np.float32(acc + t)
                    out[b, i, j, co] = np.float32(acc + bias[co])
    return out


def convtr_scatter_add(x, k, bias, stride=2):
    """Brute-force transposed conv: scatter every input pixel through the
    kernel, accumulate with explicit (cin) order, bias last."""
    x = np.asarray(x, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    bias = np.asarray(bias, dtype=np.float32)
    kh, kw, cin, cout = k.shape
    n, h, w, _ = x.shape
    out = np.zeros((n, h * stride, w * stride, cout), dtype=np.float32)
    for b in range(n):
        for i in range(h):
            for j in range(w):
                for ki in range(kh):
                    for kj in range(kw):
                        for co in range(cout):
                            acc = np.float32(0.0)
                            for ci in range(cin):
                                t = np.float32(x[b, i, j, ci] * k[ki, kj, ci, co])
                                acc = np.float32(acc + t)
                            oi, oj = i * stride + ki, j * stride + kj
                            out[b, oi, oj, co] = np.float32(out[b, oi, oj, co] + acc)
    for co in range(cout):
        out[:, :, :, co] = np.float32(out[:, :, :, co]) + np.float32(bias[co])
    return out


def bn_scalar(x, gamma, beta, mu, sigma, eps):
    """Elementwise float32 y = gamma*(x-mu)/sqrt(sigma+eps) + beta."""
    out = np.empty_like(x, dtype=np.float32)
    it = np.nditer(x, flags=["multi_index"])
    for v in it:
        c = it.multi_index[-1]
        denom = np.float32(np.sqrt(np.float32(sigma[c] + np.float32(eps))))
        t = np.float32(np.float32(v) - np.float32(mu[c]))
        t = np.float32(np.float32(gamma[c]) * t)
        t = np.float32(t / denom)
        out[it.multi_index] = np.float32(t + np.float32(beta[c]))
    return out


def flip_f32_struct(value, bit):
    """struct-based float bit flip, independent of the bits module."""
    word = struct.unpack("<I", struct.pack("<f", value))[0]
    return struct.unpack("<f", struct.pack("<I", word ^ (1 << bit)))[0]


def exponent_bits_string(value):
    """8-char exponent field of an f32, via struct and string chopping."""
    word = struct.unpack("<I", struct.pack("<f", np.float32(value)))[0]
    return format(word, "032b")[1:9]


def risky_class_struct(value):
    """Brute-force risky classification from the exponent bit string."""
    e = exponent_bits_string(value)
    if e == "01111111":
        return "full"
    if e[0] == "0" and e[1:].count("1") == 6:
        return "partial"
    return "none"


def danger_bit_struct(value):
    """The word bit whose flip turns a risky exponent string into 11111111
    or 0 followed by 1111111; None when the value is not risky."""
    if risky_class_struct(value) == "none":
        return None
    e = exponent_bits_string(value)
    for i, c in enumerate(e):
        if e[:i] + "10"[int(c)] + e[i + 1:] in ("11111111", "01111111"):
            return 30 - i
    raise AssertionError(f"risky exponent {e} has no filling flip")


def protect_directions_struct(value):
    """(increment, decrement): whether protection may step a risky value's
    exponent up or down, i.e. whether the step adds zeros to its low seven
    bits. (False, False) when the value is not risky."""
    if risky_class_struct(value) == "none":
        return False, False
    e = int(exponent_bits_string(value), 2)
    down, here, up = (format(x, "08b")[1:].count("0") for x in (e - 1, e, e + 1))
    return up > here, down > here


# f32 fields of a word and its protection class, one word at a time


def mantissa_field(word):
    return word & ((1 << 23) - 1)


def sign_field(word):
    return (word >> 31) & 1


def significand_value(word):
    """Significand 1.m in [1, 2) of a normal number (sign ignored)."""
    return 1.0 + mantissa_field(word) / float(1 << 23)


def assemble_f32(sign, exponent, mantissa):
    if not 0 <= exponent <= 0xFF:
        raise ValueError(f"exponent field {exponent} out of [0, 255]")
    return (sign & 1) << 31 | exponent << 23 | mantissa_field(mantissa)


@dataclass(frozen=True)
class CandidateClass:
    candidate: bool
    allow_increment: bool
    allow_decrement: bool
    label: str


def classify_candidate(word):
    """Risk/protectability of one f32 bit pattern.

    Candidates are the patterns with a ``bits.RISKY`` exponent, and the
    allowed directions are its ``bits.MAY_INCREMENT``/``MAY_DECREMENT``
    rows; 10000000 is labelled non-protectable outright (any
    partial-exponent flip would push the value above 2).
    """
    from seu_forge import bits
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


def protect_parameters_scalar(graph, pt, roles=None):
    """``protect_parameters`` one element at a time: each risky f32 element
    of each set in p-index order is classified with ``classify_candidate``
    and its significand compared with the PT thresholds as a Python float.
    Each set's records go into the report as columns through ``add_set``,
    and the records read back must carry the floats computed here.
    Returns (graph, report)."""
    from seu_forge import bits
    from seu_forge.protect import (_RULES, RULE_DECREMENT, RULE_INCREMENT, RULE_SKIP_NONPROT,
                                   RULE_SKIP_OUTSIDE, ProtectionRecord, ProtectionReport)

    out = graph.copy()
    report = ProtectionReport(pt)
    roleset = set(roles) if roles is not None else None
    rule_code = {rule: code for code, rule in enumerate(_RULES.tolist())}
    expected = []

    params = (p for p in out.params if roleset is None or p.role in roleset)
    for p in params:
        if p.encoding != "f32":
            continue
        words = p.words
        records = []
        for idx in np.flatnonzero(bits.risky_mask(words)):
            idx, word = int(idx), int(words[idx])
            cls = classify_candidate(word)
            sig = significand_value(word)
            sign = sign_field(word)
            e = bits.exponent_field(word)
            new_word, rule = word, RULE_SKIP_NONPROT
            if sig >= pt.full_threshold:
                if cls.allow_increment:
                    new_word, rule = assemble_f32(sign, e + 1, 0), RULE_INCREMENT
            elif sig <= pt.empty_threshold:
                if cls.allow_decrement:
                    new_word = assemble_f32(sign, e - 1, bits.F32_MANT_MASK)
                    rule = RULE_DECREMENT
            elif cls.allow_increment or cls.allow_decrement:
                rule = RULE_SKIP_OUTSIDE
            before = after = bits.bits_to_f32(word)
            if new_word != word:
                p.words[idx] = new_word
                after = bits.bits_to_f32(new_word)
            records.append(ProtectionRecord(
                pset=p.index, element=idx, rule=rule,
                before_bits=word, after_bits=new_word,
                before_value=before, after_value=after,
                relative_delta=(after - before) / before if before else 0.0))
        report.records.add_set(p.index, np.array([r.element for r in records], np.int64),
                               np.array([rule_code[r.rule] for r in records], np.uint8),
                               np.array([r.before_bits for r in records], np.uint32),
                               np.array([r.after_bits for r in records], np.uint32))
        expected += records
    # the report reads its floats from the words; they must be the ones computed here
    assert [r.to_json() for r in report.records] == [r.to_json() for r in expected]
    return out, report


def confusion_matrix_by_hand(pred, labels, classes):
    conf = np.zeros((classes, classes), dtype=int)
    invalid = np.zeros(classes, dtype=int)
    for p, l in zip(np.ravel(pred), np.ravel(labels)):
        if 0 <= p < classes:
            conf[l, p] += 1
        else:
            invalid[l] += 1
    return conf, invalid


def eq5_scalar(q_w, q_x, q_b, z_x):
    """Literal affine-MAC sum with Python ints."""
    return sum(int(w) * int(x) for w, x in zip(q_w, q_x)) \
        - int(z_x) * sum(int(w) for w in q_w) + int(q_b)


def quantized_mac(q_w, q_x, q_b, z_x: int) -> int:
    """Scalar affine-MAC accumulator: sum(q_w*q_x) - Z_x*sum(q_w) + q_b, int32 wrap."""
    qw = np.asarray(q_w, dtype=np.int32)
    qx = np.asarray(q_x, dtype=np.int32)
    with np.errstate(over="ignore"):
        acc = np.int32(0)
        acc = acc + np.sum(qw * qx, dtype=np.int32)
        acc = acc - np.int32(z_x) * np.sum(qw, dtype=np.int32)
        acc = acc + np.int32(q_b)
    return int(acc)


def quantized_convtr_scalar(q_x, z_x, q_w, q_b, m, z_y, stride=2):
    """Scalar quantized transposed conv, stride == kernel size, to int8.

    Each output cell is one quantized_mac over Cin of the one input pixel
    and kernel tap that reach it, requantized as ``acc * m + z_y`` in
    double precision, rounded half to even and saturated to [-128, 127].
    """
    q_x = np.asarray(q_x, dtype=np.int32)
    q_w = np.asarray(q_w, dtype=np.int32)
    kh, kw, cin, cout = q_w.shape
    n, h, w, _ = q_x.shape
    out = np.zeros((n, h * stride, w * stride, cout), dtype=np.int8)
    for b in range(n):
        for i in range(h):
            for j in range(w):
                for ki in range(kh):
                    for kj in range(kw):
                        for co in range(cout):
                            acc = quantized_mac(q_w[ki, kj, :, co], q_x[b, i, j, :],
                                                q_b[co], z_x)
                            q = round(float(acc) * m + z_y)  # half to even
                            out[b, i * stride + ki, j * stride + kj, co] = max(-128, min(127, q))
    return out


def evaluate_protection_full_forward(original, protected, images, labels=None,
                                     bit_filter=None):
    """Paired protection evaluation with one full forward from the input per fault.

    Risky positions are found element by element with ``risky_class_struct``;
    the danger bit is 30 for a full exponent and the clear bit among the low
    seven exponent bits otherwise. Returns (faultless, per_bit) as
    ``evaluate_protection`` reports them.
    """
    import seu_forge as sf

    batch = sf.batch_inputs(images)
    golden = sf.run_float(original, batch).class_map
    labels = golden if labels is None else labels

    def score(graph):
        maps = sf.run_float(graph, batch).class_map
        m = sf.segmentation_metrics(maps, labels, original.class_count)
        return {"giou": m.global_iou, "wiou": m.weighted_iou,
                "error_rate": sf.error_rate(golden, maps)}

    faultless = {"original": score(original), "protected": score(protected)}
    rows = {}
    for p in original.params:
        if p.encoding != "f32":
            continue
        for element, value in enumerate(p.data.ravel()):
            kind = risky_class_struct(float(value))
            if kind == "none":
                continue
            exp = exponent_bits_string(value)
            bit = 30 if kind == "full" else 30 - exp.index("0", 1)
            if bit_filter is not None and bit not in bit_filter:
                continue
            row = rows.setdefault(bit, {"n": 0, "original": [], "protected": []})
            row["n"] += 1
            for tag, graph in (("original", original), ("protected", protected)):
                work = graph.copy()
                sf.apply_fault(work, sf.FaultSpec(p.index, element, bit, "f32"))
                row[tag].append(score(work))
    per_bit = []
    for bit in sorted(rows, reverse=True):
        row = {"bit": bit, "n": rows[bit]["n"]}
        for tag in ("original", "protected"):
            row[tag] = {k: float(np.mean([v[k] for v in rows[bit][tag]]))
                        for k in ("giou", "wiou", "error_rate")}
        per_bit.append(row)
    return faultless, per_bit


def fault_sets_full_forward(graph, fault_sets, images):
    """The faultless class maps of ``graph`` and those of each fault set in
    ``fault_sets``: every spec of the set applied to a fresh copy of
    ``graph``, one full forward from the input per set. Works in either
    numeric mode."""
    import seu_forge as sf

    batch = sf.batch_inputs(images)
    run = sf.run_quantized if graph.flags.get("quantized") else sf.run_float
    maps = []
    for specs in fault_sets:
        work = graph.copy()
        for spec in specs:
            sf.apply_fault(work, spec)
        maps.append(run(work, batch).class_map)
    return run(graph, batch).class_map, maps


def sweep_full_forward(graph, specs, images):
    """Per-image error rates of each single fault in ``specs``, one full forward
    from the input per fault, on a fresh copy of ``graph``.

    Works in either numeric mode; error rates are against the graph's own
    faultless class maps, as ``run_single_bit_sweep`` reports them.
    """
    import seu_forge as sf

    golden, faulted = fault_sets_full_forward(graph, [[spec] for spec in specs], images)
    return [[sf.error_rate(golden[i], maps[i]) for i in range(maps.shape[0])]
            for maps in faulted]


# ---------------------------------------------------------------------------
# the scalar fault path: a per-encoding read, flip and decode of one element
# through bits.flip_bit_f32/flip_bit_int, and the fault addresses decoded by
# hand (over the whole fault space, and within one set's bit range)

SCALAR_WIDTH = {"f32": 32, "i8": 8, "i32": 32}


def read_word_scalar(p, element):
    """An f32 element's word, or an integer element's signed value."""
    if p.encoding == "f32":
        return int(p.words[element])
    return int(p.data.flat[element])


def flipped_scalar(p, word, bit):
    if p.encoding == "f32":
        from seu_forge.bits import flip_bit_f32
        return flip_bit_f32(word, bit)
    from seu_forge.bits import flip_bit_int
    return flip_bit_int(word, bit, SCALAR_WIDTH[p.encoding])


def decode_fault_scalar(graph, spec):
    """The :class:`FaultOutcome` fields ``spec`` gives, from the scalar path."""
    from seu_forge.bits import bits_to_f32
    from seu_forge.faults import FaultOutcome

    p = graph.param(spec.pset)
    old_word = read_word_scalar(p, spec.element)
    new_word = flipped_scalar(p, old_word, spec.bit)
    if spec.encoding == "f32":
        old_v, new_v = bits_to_f32(old_word), bits_to_f32(new_word)
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


def global_fault_scalar(graph, flat):
    """The fault at ``flat`` over every parameter set of ``graph``, each set's
    elements in turn, each element's full width in turn."""
    from seu_forge.faults import FaultSpec

    for p in graph.params:
        width = SCALAR_WIDTH[p.encoding]
        if flat < p.data.size * width:
            return FaultSpec(pset=p.index, element=flat // width, bit=flat % width,
                             encoding=p.encoding)
        flat -= p.data.size * width
    raise IndexError("address beyond the fault space")


def sweep_fault_scalar(p, bit_lo, bit_hi, flat):
    """The fault at ``flat`` within one set's bits ``bit_lo..bit_hi``."""
    from seu_forge.faults import FaultSpec

    nbits = bit_hi - bit_lo + 1
    return FaultSpec(pset=p.index, element=flat // nbits, bit=bit_lo + flat % nbits,
                     encoding=p.encoding)
