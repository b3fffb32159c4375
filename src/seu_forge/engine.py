"""Graph execution: bit-reproducible float mode and integer-quantized mode.

The quantized path implements the affine scheme r = S*(q - Z) with per-tensor
symmetric 8-bit weights, 32-bit biases (scale S_w*S_x), int32 accumulators
(two's-complement wraparound), and requantization by a double-precision
multiply followed by round-half-even, saturating to [-128, 127].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelGraph
from .tensor import (BnParams, ShapeError, Tensor, _pad_same, argmax_channels,
                     batchnorm_forward, concat_channels, conv2d_forward,
                     conv2d_transpose_forward, maxpool2d, relu)

HIST_BINS = 64
# Fixed log-spaced magnitude bin edges shared by all histograms, so reports
# from different runs are directly comparable.
HIST_EDGES = np.logspace(-12.0, 12.0, HIST_BINS + 1)


def magnitude_histogram(values: np.ndarray) -> dict:
    """64 log-spaced magnitude bins split by sign, plus zero/NaN/Inf counts."""
    v = np.asarray(values).ravel().astype(np.float64)
    nan = int(np.isnan(v).sum())
    inf = int(np.isinf(v).sum())
    finite = v[np.isfinite(v)]
    zeros = int((finite == 0).sum())
    out = {"zeros": zeros, "nan": nan, "inf": inf}
    for label, part in (("neg", finite[finite < 0]), ("pos", finite[finite > 0])):
        idx = np.digitize(np.abs(part), HIST_EDGES) - 1
        idx = np.clip(idx, 0, HIST_BINS - 1)
        out[label] = np.bincount(idx, minlength=HIST_BINS).astype(int).tolist()
    return out


@dataclass
class LayerStats:
    """Observed activation statistics of one layer over one or more runs."""

    min: float = None
    max: float = None
    nan_count: int = 0
    inf_count: int = 0
    histogram: dict = None

    def update(self, values: np.ndarray):
        self.nan_count += int(np.isnan(values).sum())
        self.inf_count += int(np.isinf(values).sum())
        finite = values[np.isfinite(values)]
        if finite.size:
            lo, hi = float(finite.min()), float(finite.max())
            self.min = lo if self.min is None else min(self.min, lo)
            self.max = hi if self.max is None else max(self.max, hi)
        h = magnitude_histogram(values)
        if self.histogram is None:
            self.histogram = h
        else:
            for k in ("zeros", "nan", "inf"):
                self.histogram[k] += h[k]
            for k in ("neg", "pos"):
                self.histogram[k] = [a + b for a, b in zip(self.histogram[k], h[k])]

    def to_dict(self) -> dict:
        return {"min": self.min, "max": self.max, "nan_count": self.nan_count,
                "inf_count": self.inf_count, "histogram": self.histogram}


@dataclass
class InferenceResult:
    logits: Tensor
    class_map: np.ndarray
    trace: dict = None
    collected: dict = None  # requested intermediate layer outputs


def _bn_params(graph: ModelGraph, name: str) -> BnParams:
    ps = graph.layer_params(name)
    return BnParams(ps["bn_gamma"].tensor.data, ps["bn_beta"].tensor.data,
                    ps["bn_mu"].tensor.data, ps["bn_sigma"].tensor.data,
                    graph.bn_epsilon)


def _drop_schedule(graph: ModelGraph, keep=()) -> list:
    """For each layer index, the activations to free once that layer has run.

    An activation is freed right after its last consumer, or right after it
    is made if nothing consumes it, unless it is the output layer's or named
    in ``keep``.
    """
    last = {"input": 0}
    for idx, layer in enumerate(graph.layers):
        last[layer.name] = idx
        for ref in layer.inputs:
            last[ref] = idx
    keep = set(keep) | {graph.output_layer.name}
    drops = [[] for _ in graph.layers]
    for name, idx in last.items():
        if name not in keep:
            drops[idx].append(name)
    return drops


def run_float(graph: ModelGraph, inp: Tensor, capture: bool = False,
              collect=()) -> InferenceResult:
    """Deterministic float32 forward pass; class map via argmax_channels.

    ``collect`` names intermediate layers whose output tensors should be
    retained on the result. Every other activation is freed after its last
    consumer has run (``capture`` statistics are recorded before that).
    """
    if graph.flags.get("quantized"):
        raise ValueError("graph is quantized; use run_quantized")
    want_c = graph.metadata.get("input_channels")
    if want_c is not None and inp.data.shape[3] != want_c:
        raise ShapeError(f"input shape {inp.data.shape} does not match model "
                         f"input channels {want_c}")
    trace = {} if capture else None

    def record(name, tensor):
        if trace is not None:
            trace.setdefault(name, LayerStats()).update(tensor.data)

    outputs = {"input": inp}
    record("input", inp)
    drops = _drop_schedule(graph, collect)
    for layer, dead in zip(graph.layers, drops):
        ins = [outputs[r] for r in layer.inputs]
        ps = graph.layer_params(layer.name)
        if layer.kind in ("conv2d", "output_conv"):
            out = conv2d_forward(ins[0], ps["conv_kernel"].tensor,
                                 ps["conv_bias"].tensor.data,
                                 stride=layer.hyperparams.get("stride", 1),
                                 padding=layer.hyperparams.get("padding", "same"))
        elif layer.kind == "conv2d_transpose":
            out = conv2d_transpose_forward(ins[0], ps["convtr_kernel"].tensor,
                                           ps["convtr_bias"].tensor.data,
                                           stride=layer.hyperparams.get("stride", 2))
        elif layer.kind == "batchnorm":
            out = batchnorm_forward(ins[0], _bn_params(graph, layer.name))
        elif layer.kind == "relu":
            out = relu(ins[0])
        elif layer.kind == "maxpool":
            out = maxpool2d(ins[0])
        elif layer.kind == "concat":
            out = concat_channels(ins[0], ins[1])
        else:
            raise ValueError(f"unknown layer kind {layer.kind!r}")
        outputs[layer.name] = out
        record(layer.name, out)
        for name in dead:
            del outputs[name]

    logits = outputs[graph.output_layer.name]
    collected = {name: outputs[name] for name in collect} if collect else None
    return InferenceResult(logits, argmax_channels(logits), trace, collected)


# ---------------------------------------------------------------------------
# quantized execution


def _round_half_even_clip_i8(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values), -128, 127).astype(np.int8)


def _act_entry(graph: ModelGraph, name: str) -> dict:
    tables = graph.metadata.get("quantization")
    if not tables:
        raise ValueError("graph carries no quantization tables")
    try:
        return tables["activations"][name]
    except KeyError:
        raise ValueError(f"missing scale table for activation {name!r}") from None


def _param_entry(graph: ModelGraph, index: int) -> dict:
    tables = graph.metadata.get("quantization")
    try:
        return tables["params"][str(index)]
    except KeyError:
        raise ValueError(f"missing scale table for p{index}") from None


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


# Integers up to 2**24 in magnitude are exact in float32.
_F32_EXACT = 2 ** 24


def _absmax(a: np.ndarray) -> float:
    return max(float(a.max(initial=0)), -float(a.min(initial=0)))


def _gemm_int(cols: np.ndarray, kmat: np.ndarray, cols_absmax: float) -> np.ndarray:
    """Exact int32 ``cols @ kmat`` for float32 operands that hold integers.

    The K axis is cut into chunks of at most ``2**24 // (max|cols| *
    max|kmat|)`` rows, read from the actual operands (``cols_absmax`` is
    max|cols|, taken by the caller from the smaller tensor cols was copied
    from). Every partial sum of a chunk is then an integer of magnitude at
    most 2**24, so float32 BLAS computes it exactly in any summation order.
    Chunk results are cast to int32 and added in int32 with two's-complement
    wraparound, which equals the wrapped int32 sum of all K products.
    """
    k = kmat.shape[0]
    bound = cols_absmax * _absmax(kmat)
    step = k if bound == 0 else min(k, int(_F32_EXACT // bound))
    acc = (cols[..., :step] @ kmat[:step]).astype(np.int32)
    for r in range(step, k, step):
        acc += (cols[..., r:r + step] @ kmat[r:r + step]).astype(np.int32)
    return acc


def _conv_int(x_shifted: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
              stride: int, padding: str) -> np.ndarray:
    """int32 conv over zero-point-shifted integer activations (im2col + GEMM).

    Integer addition is associative mod 2^32, so unlike the float path the
    summation order is free. The im2col matrix is built directly in float32
    and multiplied through float32 BLAS by :func:`_gemm_int`, which splits
    K = Kh*Kw*Cin into chunks small enough that every partial sum stays an
    integer below 2^24 (at |q_w| = 128 and |x - Z| = 255 that is 514 rows,
    so a 3x3x64 layer runs in two chunks). The chunks and the bias are then
    added in int32 with wraparound, giving the same bits as an int32 matmul.
    """
    kh, kw, cin, cout = kernel.shape
    if padding == "same":
        x_shifted = _pad_same(x_shifted, kh, kw, stride)
    n, h, w, _ = x_shifted.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    cols = np.empty((n, oh, ow, kh * kw * cin), dtype=np.float32)
    pos = 0
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, pos:pos + cin] = x_shifted[
                :, i:i + (oh - 1) * stride + 1:stride,
                j:j + (ow - 1) * stride + 1:stride, :]
            pos += cin
    acc = _gemm_int(cols, kernel.reshape(kh * kw * cin, cout).astype(np.float32),
                    _absmax(x_shifted))
    acc += bias.astype(np.int32)
    return acc


def run_quantized(graph: ModelGraph, inp: Tensor) -> InferenceResult:
    """Integer forward pass per the affine MAC; logits are dequantized f32.

    Each activation is freed after its last consumer has run.
    """
    if not graph.flags.get("quantized"):
        raise ValueError("graph is not quantized; use run_float")
    if any(l.kind == "batchnorm" for l in graph.layers):
        raise ValueError("quantized graph still contains batch-norm layers; fold first")
    if inp.encoding != "f32":
        raise TypeError("quantized inference takes a float input and quantizes it "
                        "at the input edge")

    ent = _act_entry(graph, "input")
    q = _round_half_even_clip_i8(inp.data.astype(np.float64) / ent["scale"]
                                 + ent["zero_point"])
    outputs = {"input": q}
    drops = _drop_schedule(graph)
    for layer, dead in zip(graph.layers, drops):
        ins = [outputs[r] for r in layer.inputs]
        ps = graph.layer_params(layer.name)
        if layer.kind in ("conv2d", "output_conv", "conv2d_transpose"):
            krole = "convtr_kernel" if layer.kind == "conv2d_transpose" else "conv_kernel"
            brole = "convtr_bias" if layer.kind == "conv2d_transpose" else "conv_bias"
            in_ent = _act_entry(graph, layer.inputs[0])
            out_ent = _act_entry(graph, layer.name)
            w_ent = _param_entry(graph, ps[krole].index)
            x_shift = ins[0].astype(np.float32) - np.float32(in_ent["zero_point"])
            kernel = ps[krole].tensor.data
            bias = ps[brole].tensor.data
            if layer.kind == "conv2d_transpose":
                stride = layer.hyperparams.get("stride", 2)
                n, h, w, _ = x_shift.shape
                cout = kernel.shape[3]
                acc = np.empty((n, h * stride, w * stride, cout), dtype=np.int32)
                kmat = kernel.astype(np.float32)
                x_absmax = _absmax(x_shift)
                for i in range(stride):
                    for j in range(stride):
                        acc[:, i::stride, j::stride, :] = (
                            _gemm_int(x_shift, kmat[i, j], x_absmax) + bias.astype(np.int32))
            else:
                acc = _conv_int(x_shift, kernel, bias,
                                layer.hyperparams.get("stride", 1),
                                layer.hyperparams.get("padding", "same"))
            m = (w_ent["scale"] * in_ent["scale"]) / out_ent["scale"]
            out = _round_half_even_clip_i8(acc.astype(np.float64) * m
                                           + out_ent["zero_point"])
        elif layer.kind == "relu":
            z = np.int8(_act_entry(graph, layer.inputs[0])["zero_point"])
            out = np.maximum(ins[0], z)
        elif layer.kind == "maxpool":
            n, h, w, c = ins[0].shape
            if h % 2 or w % 2:
                raise ShapeError(f"maxpool requires even H,W, got {(h, w)}")
            out = ins[0].reshape(n, h // 2, 2, w // 2, 2, c).max(axis=(2, 4))
        elif layer.kind == "concat":
            out_ent = _act_entry(graph, layer.name)
            parts = []
            for ref, part in zip(layer.inputs, ins):
                e = _act_entry(graph, ref)
                rescaled = ((part.astype(np.float64) - e["zero_point"])
                            * (e["scale"] / out_ent["scale"]))
                parts.append(_round_half_even_clip_i8(rescaled + out_ent["zero_point"]))
            out = np.concatenate(parts, axis=3)
        else:
            raise ValueError(f"layer kind {layer.kind!r} not supported in quantized mode")
        outputs[layer.name] = out
        for name in dead:
            del outputs[name]

    oname = graph.output_layer.name
    ent = _act_entry(graph, oname)
    logits = ((outputs[oname].astype(np.float64) - ent["zero_point"])
              * ent["scale"]).astype(np.float32)
    logits_t = Tensor.from_array(logits)
    return InferenceResult(logits_t, argmax_channels(logits_t))


def capture_parameter_stats(graph: ModelGraph) -> dict:
    """Exact per-ParamSet min/max/histogram and sign census."""
    stats = {}
    for p in graph.params:
        v = p.tensor.data
        finite = v[np.isfinite(v)] if p.tensor.encoding == "f32" else v
        stats[p.index] = {
            "layer": p.layer,
            "role": p.role,
            "encoding": p.tensor.encoding,
            "min": float(finite.min()) if finite.size else None,
            "max": float(finite.max()) if finite.size else None,
            "positive": int((v > 0).sum()),
            "total": int(v.size),
            "histogram": magnitude_histogram(v),
        }
    return stats
