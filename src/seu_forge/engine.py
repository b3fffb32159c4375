"""Graph execution: bit-reproducible float mode and integer-quantized mode.

The quantized path implements the affine scheme r = S*(q - Z) with per-tensor
symmetric 8-bit weights, 32-bit biases (scale S_w*S_x), int32 accumulators
(two's-complement wraparound), and requantization by a double-precision
multiply followed by round-half-even, saturating to [-128, 127].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import CONV_KINDS, ModelGraph
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


def _take(values: np.ndarray, channels) -> np.ndarray:
    """``values`` restricted to the given indices of its last (channel) axis; all for None."""
    return values if channels is None else values[..., channels]


def _bn_params(graph: ModelGraph, name: str, channels=None) -> BnParams:
    ps = graph.layer_params(name)
    return BnParams(*(_take(ps[role].tensor.data, channels)
                      for role in ("bn_gamma", "bn_beta", "bn_mu", "bn_sigma")),
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


# ---------------------------------------------------------------------------
# one executor for both numeric modes


@dataclass(frozen=True)
class Frontier:
    """A forward pass paused just before layer ``start`` runs.

    ``live`` maps every activation still needed from ``start`` on to its
    value: :class:`Tensor` objects in float mode, int8 arrays in quantized
    mode (the input already quantized). A faulted forward resumed from a
    frontier of the faultless pass shares those values by reference, so no
    layer op may write its inputs in place.

    ``splice``, if given, is ``(name, channels, values)``: a pass from this
    frontier reads ``live[name]`` with those channels (last axis) replaced
    by ``values``. The patched copy is made when the pass starts and is
    freed with the pass's other activations, not held by the frontier.
    """

    start: int
    live: dict
    splice: tuple = None


@dataclass(frozen=True)
class _Mode:
    # layer kind -> op(graph, layer, inputs[, channels]); see run_channels
    ops: dict
    enter: Callable[[ModelGraph, Tensor], dict]  # input -> layer 0's live activations
    unsupported: str                            # error for a kind with no op


def _mode(graph: ModelGraph) -> _Mode:
    return _QUANTIZED if graph.flags.get("quantized") else _FLOAT


def _steps(graph: ModelGraph, mode: _Mode, live: dict, start: int, drops: list,
           record=None):
    """Run layers ``start`` onward on ``live`` in place, yielding each index first.

    After a layer runs, its output joins ``live`` (and goes to ``record``)
    and the activations ``drops`` names for it leave.
    """
    for idx in range(start, len(graph.layers)):
        yield idx
        layer = graph.layers[idx]
        op = mode.ops.get(layer.kind)
        if op is None:
            raise ValueError(mode.unsupported.format(kind=layer.kind))
        out = op(graph, layer, [live[r] for r in layer.inputs])
        live[layer.name] = out
        if record is not None:
            record(layer.name, out)
        for name in drops[idx]:
            del live[name]


def _execute(graph: ModelGraph, mode: _Mode, inp, keep=(), record=None) -> dict:
    """Run ``inp`` (an input tensor, or a :class:`Frontier`) to the output layer.

    Returns the activations still alive at the end: the output layer's and
    those named in ``keep``.
    """
    if not isinstance(inp, Frontier):
        inp = Frontier(0, mode.enter(graph, inp))
    live = dict(inp.live)
    if inp.splice is not None:
        name, channels, values = inp.splice
        live[name] = _with_channels(live[name], channels, values)
    if record is not None:
        for name, value in live.items():
            record(name, value)
    for _ in _steps(graph, mode, live, inp.start, _drop_schedule(graph, keep), record):
        pass
    return live


def _with_channels(activation, channels, values):
    """A copy of ``activation`` with its channels ``channels`` set to ``values``."""
    if isinstance(activation, Tensor):
        return Tensor.from_array(_with_channels(activation.data, channels, values.data))
    out = activation.copy()
    out[..., channels] = values
    return out


def golden_frontiers(graph: ModelGraph, inp: Tensor, stop: int = None):
    """Walk the faultless forward pass, yielding the :class:`Frontier` before each layer.

    Works in either numeric mode (chosen by the graph's ``quantized`` flag)
    and ends after yielding the frontier of layer ``stop`` (default: the
    output layer), without running that layer; at ``len(graph.layers)`` it
    ends with the finished pass (see :func:`finish`). Only the live set is
    held; each activation is freed after its last consumer, as in a full
    forward. Each frontier owns its dict; the walk reads the graph's
    parameters as it resumes, so faults applied while a frontier is in use
    must be reverted before the next one is requested.
    """
    mode = _mode(graph)
    stop = len(graph.layers) - 1 if stop is None else stop
    live = mode.enter(graph, inp)
    for idx in _steps(graph, mode, live, 0, _drop_schedule(graph)):
        yield Frontier(idx, dict(live))
        if idx >= stop:
            return
    yield Frontier(len(graph.layers), dict(live))


def finish(graph: ModelGraph, live: dict) -> InferenceResult:
    """Logits (dequantized in quantized mode) and class maps from the live set
    of a pass that has run its output layer; run_float and run_quantized end here."""
    logits = live[graph.output_layer.name]
    if graph.flags.get("quantized"):
        ent = _act_entry(graph, graph.output_layer.name)
        logits = Tensor.from_array(((logits.astype(np.float64) - ent["zero_point"])
                                    * ent["scale"]).astype(np.float32))
    return InferenceResult(logits, argmax_channels(logits))


# ---------------------------------------------------------------------------
# channel-restricted recompute and the poison rule
#
# A fault in a parameter of layer L changes only the output channels of L
# that read it: channel c of a convolution (plain or transposed) reads
# kernel[..., c] and bias[c], channel c of a batch-norm its own four
# entries. Batch-norm, ReLU and maxpool are channelwise, so along a chain of
# them the faulted channels stay the only ones that differ. Computing just
# those channels slices the parameters (and, for a channelwise op, the
# input) by channel; each remaining cell sees the same operations in the
# same order as in the full op, so its bits are the same.

CHANNELWISE = ("batchnorm", "relu", "maxpool")


def channel_chain(graph: ModelGraph, start: int) -> list:
    """Layer ``start`` (L) and the channelwise layers it alone feeds: L..E.

    Each layer after L is a batch-norm, ReLU or maxpool that directly
    follows the one before it in layer order and is its only consumer, so
    channel c of E depends on channel c of L and on nothing else L makes.
    """
    chain = [graph.layers[start]]
    for layer in graph.layers[start + 1:]:
        if (layer.kind not in CHANNELWISE
                or [c.name for c in graph.consumers(chain[-1].name)] != [layer.name]):
            break
        chain.append(layer)
    return chain


def run_channels(graph: ModelGraph, chain: list, source, channels: np.ndarray):
    """Output channels ``channels`` of the last layer of ``chain`` (L..E, see channel_chain).

    ``source`` is L's input activation. The ops are the full ones, run with
    their parameters sliced to ``channels``; a convolution reads its whole
    input, a channelwise op only those channels. The result is byte for byte
    those channels of the full chain's output.
    """
    mode = _mode(graph)
    x = source
    if chain[0].kind in CHANNELWISE:
        x = Tensor.from_array(x.data[..., channels]) if isinstance(x, Tensor) else x[..., channels]
    for layer in chain:
        x = mode.ops[layer.kind](graph, layer, [x], channels)
    return x


def poisoned(values: np.ndarray) -> bool:
    """True if some channel (last axis) of ``values`` is NaN at every position.

    Every float op carries such a channel to the output: a convolution
    (plain, transposed or output) reads it in every output cell, and
    NaN times any weight is NaN, so every output value is NaN; batch-norm,
    ReLU and maxpool keep the channel NaN and concat keeps the channel. So
    if a poisoned activation reaches the output layer (see reaching_output),
    every pixel's logits hold a NaN and its class is INVALID_CLASS.
    """
    if values.dtype.kind != "f":
        return False
    rows = values.reshape(-1, values.shape[-1])
    candidates = np.flatnonzero(np.isnan(rows[0]))
    return candidates.size > 0 and bool(np.isnan(rows[:, candidates]).all(axis=0).any())


def reaching_output(graph: ModelGraph) -> set:
    """Names of the activations with a path to the output layer, the output's own included."""
    reach = {graph.output_layer.name}
    for layer in reversed(graph.layers):
        if layer.name in reach:
            reach.update(layer.inputs)
    return reach


# ---------------------------------------------------------------------------
# float execution


def _float_enter(graph: ModelGraph, inp: Tensor) -> dict:
    want_c = graph.metadata.get("input_channels")
    if want_c is not None and inp.data.shape[3] != want_c:
        raise ShapeError(f"input shape {inp.data.shape} does not match model "
                         f"input channels {want_c}")
    return {"input": inp}


def _kernel_bias(graph, layer, channels):
    kernel, bias = (p.tensor for p in graph.kernel_bias(layer.name))
    if channels is not None:
        kernel = Tensor.from_array(kernel.data[..., channels])
    return kernel, _take(bias.data, channels)


def _float_conv(graph, layer, ins, channels=None):
    kernel, bias = _kernel_bias(graph, layer, channels)
    return conv2d_forward(ins[0], kernel, bias,
                          stride=layer.hyperparams.get("stride", 1),
                          padding=layer.hyperparams.get("padding", "same"))


def _float_conv_transpose(graph, layer, ins, channels=None):
    kernel, bias = _kernel_bias(graph, layer, channels)
    return conv2d_transpose_forward(ins[0], kernel, bias,
                                    stride=layer.hyperparams.get("stride", 2))


# The ops look the tensor kernels up by this module's names when they run,
# not when the table is built, so a kernel rebound here (as perfbench's
# tracer does) reaches every forward pass, channel-restricted ones included.
_FLOAT = _Mode(
    ops={"conv2d": _float_conv,
         "output_conv": _float_conv,
         "conv2d_transpose": _float_conv_transpose,
         "batchnorm": lambda graph, layer, ins, channels=None: batchnorm_forward(
             ins[0], _bn_params(graph, layer.name, channels)),
         "relu": lambda graph, layer, ins, channels=None: relu(ins[0]),
         "maxpool": lambda graph, layer, ins, channels=None: maxpool2d(ins[0]),
         "concat": lambda graph, layer, ins: concat_channels(ins[0], ins[1])},
    enter=_float_enter,
    unsupported="unknown layer kind {kind!r}")


def run_float(graph: ModelGraph, inp, capture: bool = False,
              collect=()) -> InferenceResult:
    """Deterministic float32 forward pass; class map via argmax_channels.

    ``inp`` is the input batch, or a :class:`Frontier` of this graph's
    faultless pass to resume from; the result is bit-identical either way.
    ``collect`` names layers, run at or after the start, whose output
    tensors should be retained on the result. Every other activation is
    freed after its last consumer has run (``capture`` statistics, of the
    start's live activations and of every layer run, are recorded first).
    """
    if graph.flags.get("quantized"):
        raise ValueError("graph is quantized; use run_quantized")
    trace = {} if capture else None

    def record(name, tensor):
        trace.setdefault(name, LayerStats()).update(tensor.data)

    outputs = _execute(graph, _FLOAT, inp, collect, record if capture else None)
    collected = {name: outputs[name] for name in collect} if collect else None
    return replace(finish(graph, outputs), trace=trace, collected=collected)


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


def _quantized_enter(graph: ModelGraph, inp: Tensor) -> dict:
    if any(l.kind == "batchnorm" for l in graph.layers):
        raise ValueError("quantized graph still contains batch-norm layers; fold first")
    if inp.encoding != "f32":
        raise TypeError("quantized inference takes a float input and quantizes it "
                        "at the input edge")
    ent = _act_entry(graph, "input")
    return {"input": _round_half_even_clip_i8(inp.data.astype(np.float64) / ent["scale"]
                                              + ent["zero_point"])}


def _quantized_conv(graph, layer, ins, channels=None):
    kernel_p, bias_p = graph.kernel_bias(layer.name)
    in_ent = _act_entry(graph, layer.inputs[0])
    out_ent = _act_entry(graph, layer.name)
    w_ent = _param_entry(graph, kernel_p.index)
    x_shift = ins[0].astype(np.float32) - np.float32(in_ent["zero_point"])
    # Sliced to ``channels``, the GEMM may cut K into other chunks, but
    # integer sums are exact in any grouping, so each channel's bits stay.
    kernel = _take(kernel_p.tensor.data, channels)
    bias = _take(bias_p.tensor.data, channels)
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
    return _round_half_even_clip_i8(acc.astype(np.float64) * m + out_ent["zero_point"])


def _quantized_maxpool(graph, layer, ins, channels=None):
    n, h, w, c = ins[0].shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool requires even H,W, got {(h, w)}")
    return ins[0].reshape(n, h // 2, 2, w // 2, 2, c).max(axis=(2, 4))


def _quantized_concat(graph, layer, ins):
    out_ent = _act_entry(graph, layer.name)
    parts = []
    for ref, part in zip(layer.inputs, ins):
        e = _act_entry(graph, ref)
        rescaled = ((part.astype(np.float64) - e["zero_point"])
                    * (e["scale"] / out_ent["scale"]))
        parts.append(_round_half_even_clip_i8(rescaled + out_ent["zero_point"]))
    return np.concatenate(parts, axis=3)


_QUANTIZED = _Mode(
    ops={**dict.fromkeys(CONV_KINDS, _quantized_conv),
         "relu": lambda graph, layer, ins, channels=None: np.maximum(
             ins[0], np.int8(_act_entry(graph, layer.inputs[0])["zero_point"])),
         "maxpool": _quantized_maxpool,
         "concat": _quantized_concat},
    enter=_quantized_enter,
    unsupported="layer kind {kind!r} not supported in quantized mode")


def run_quantized(graph: ModelGraph, inp) -> InferenceResult:
    """Integer forward pass per the affine MAC; logits are dequantized f32.

    ``inp`` is the float input batch, quantized at the input edge, or a
    :class:`Frontier` of this graph's faultless pass to resume from. Each
    activation is freed after its last consumer has run.
    """
    if not graph.flags.get("quantized"):
        raise ValueError("graph is not quantized; use run_float")
    return finish(graph, _execute(graph, _QUANTIZED, inp))


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
