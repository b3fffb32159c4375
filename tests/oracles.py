"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (scalar loops, struct-based bit
decoding) and stays independent of the package's vectorized paths.
"""

import struct

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
        if p.tensor.encoding != "f32":
            continue
        for element, value in enumerate(p.tensor.data.ravel()):
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


def sweep_full_forward(graph, specs, images):
    """Per-image error rates of each single fault in ``specs``, one full forward
    from the input per fault, on a fresh copy of ``graph``.

    Works in either numeric mode; error rates are against the graph's own
    faultless class maps, as ``run_single_bit_sweep`` reports them.
    """
    import seu_forge as sf

    batch = sf.batch_inputs(images)
    run = sf.run_quantized if graph.flags.get("quantized") else sf.run_float
    golden = run(graph, batch).class_map
    errors = []
    for spec in specs:
        work = graph.copy()
        sf.apply_fault(work, spec)
        maps = run(work, batch).class_map
        errors.append([sf.error_rate(golden[i], maps[i]) for i in range(maps.shape[0])])
    return errors
