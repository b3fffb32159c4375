"""Graph execution: bit-reproducible float mode and integer-quantized mode.

This module only executes. Every pass, full, resumed from a :class:`Frontier`
or a campaign's faultless walk, runs through one layer loop, ``_walk``, and
is observed through one hook, its ``record`` callback, as
``run_float(collect=)``, ``compress.quantize_ptq`` and
``analysis.calibration_report`` do.

Both modes share the loop's input edge: before any layer runs, it refuses a
layer kind the mode has no op for, a graph whose parameters or scale tables
do not fit its numeric mode (``model.check_numeric_mode``), an input batch
that is not an f32 :class:`Tensor` and one without the model's
``input_channels``; the mode then only converts the batch, and no op checks
a table entry again. Both share ``tensor``'s 2x2 max-pool and its one
convolution core, ``tensor._conv_grid``, and run a transposed conv as the
core's 1x1 conv of its stacked taps, then depth-to-space (see ``tensor``).

Every activation the executor holds, records and yields is a plain
``np.ndarray`` in both modes, float32 or int8, and each layer's output is an
NHWC view of channel-major (C, N, H, W) memory, so no layer copies data
between layouts. Tensors appear only at the executor's edges: the input
batch, the public kernels' operands and results (the float ops wrap their
arrays with the plain constructor, ``Tensor(values)``, which copies
nothing, to call them) and the result's logits and collected layers.

The quantized path implements the affine scheme r = S*(q - Z) with per-tensor
symmetric 8-bit weights, 32-bit biases (scale S_w*S_x), int32 accumulators
(two's-complement wraparound), and requantization by a double-precision
multiply followed by round-half-even, saturating to [-128, 127].

Its convolutions run through ``tensor._conv_grid``, which stages the int8
input less its zero point once, drops the channels at the zero point in
every cell of the call's input, and computes every cell of a stride > 1
conv, which no model the CLI or perfbench builds has, then subsamples (see
``tensor``). The core hands each column block, at most ``_BLOCK_CELLS``
int32 accumulator cells, to ``_requantized_fill``: the bias, then each
kernel tap as one float32 BLAS GEMM over an offset view of the staged rows,
summed exactly into int32 (see ``_tap_sum``), then requantization into int8
while the block is in cache. Integer sums are exact in any grouping of
columns and requantization works per cell, so the blocks change no byte.
Zero points outside [-128, 127] are refused at the input edge (see
model.check_quant_entry).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .model import CONV_KINDS, ModelGraph, check_numeric_mode
from .tensor import (BnParams, ShapeError, Tensor, _conv_grid, _depth_to_space,
                     _max2x2, _stacked_taps, argmax_channels, batchnorm_forward,
                     concat_channels, conv2d_forward, conv2d_transpose_forward, maxpool2d,
                     relu)


@dataclass
class InferenceResult:
    logits: Tensor
    class_map: np.ndarray
    collected: dict = None  # requested intermediate layer outputs


def _take(values: np.ndarray, channels) -> np.ndarray:
    """``values`` restricted to the given indices of its last (channel) axis; all for None."""
    return values if channels is None else values[..., channels]


def _bn_params(graph: ModelGraph, name: str, channels=None) -> BnParams:
    ps = graph.layer_params(name)
    return BnParams(*(_take(ps[role].tensor.data, channels)
                      for role in ("bn_gamma", "bn_beta", "bn_mu", "bn_sigma")),
                    graph.bn_epsilon)


def _drop_schedule(graph: ModelGraph) -> list:
    """For each layer index, the activations to free once that layer has run.

    An activation is freed right after its last consumer, or right after it
    is made if nothing consumes it, unless it is the output layer's.
    """
    last = {"input": 0}
    for idx, layer in enumerate(graph.layers):
        last[layer.name] = idx
        for ref in layer.inputs:
            last[ref] = idx
    drops = [[] for _ in graph.layers]
    for name, idx in last.items():
        if name != graph.output_layer.name:
            drops[idx].append(name)
    return drops


# ---------------------------------------------------------------------------
# one executor for both numeric modes


@dataclass(frozen=True)
class Frontier:
    """A forward pass paused just before layer ``start`` runs.

    ``live`` maps every activation still needed from ``start`` on to its
    array, float32 or int8 (the input already quantized), in both modes;
    Tensors appear only at the input batch, the public kernels and the
    results. A faulted forward resumed from a frontier of the faultless pass
    shares those arrays by reference, so no layer op may write its inputs in
    place; a caller that patches an activation resumes from a new frontier
    whose ``live`` holds the patched copy, which lives until that pass ends.
    """

    start: int
    live: dict


@dataclass(frozen=True)
class _Mode:
    name: str  # named by the refusal of a layer kind with no op
    # layer kind -> op(graph, layer, inputs[, channels]); see run_channels
    ops: dict
    enter: Callable[[ModelGraph, Tensor], np.ndarray]  # checked batch -> activation "input"


def _mode(graph: ModelGraph) -> _Mode:
    return _QUANTIZED if graph.flags.get("quantized") else _FLOAT


def _walk(graph: ModelGraph, inp, record=None):
    """Run ``inp`` (an input batch, or a :class:`Frontier`) to the output layer in
    the graph's numeric mode (:func:`_mode`), yielding the :class:`Frontier`
    before each layer and, last, the finished pass's.

    Before any layer runs, the input edge refuses a layer kind the mode has
    no op for and a graph that ``model.check_numeric_mode`` refuses
    (``ValueError``), for a batch and a frontier alike, and a batch that is
    not an f32 :class:`Tensor` (``TypeError``) or lacks the model's
    ``input_channels`` (``ShapeError``); ``mode.enter`` converts the batch
    to the array of the activation ``"input"``.

    Every activation the walk starts with, then each layer's output, goes to
    ``record(name, value)`` as an array. Each activation is freed after its
    last consumer has run; each frontier yielded owns its dict. The walk
    reads the graph's parameters as it resumes, so faults applied while a
    frontier is in use must be reverted before the next frontier is
    requested.
    """
    mode = _mode(graph)
    kind = next((l.kind for l in graph.layers if l.kind not in mode.ops), None)
    if kind is not None:
        raise ValueError(f"layer kind {kind!r} not supported in {mode.name} mode")
    check_numeric_mode(graph)
    if not isinstance(inp, Frontier):
        if not isinstance(inp, Tensor):
            raise TypeError(f"the input batch must be a Tensor, got {type(inp).__name__}")
        if inp.encoding != "f32":
            raise TypeError(f"the input batch must be f32, got {inp.encoding}")
        want_c = graph.metadata.get("input_channels")
        if want_c is not None and inp.shape[3:] != (want_c,):
            raise ShapeError(f"input shape {inp.shape} does not match model "
                             f"input channels {want_c}")
        inp = Frontier(0, {"input": mode.enter(graph, inp)})
    live = dict(inp.live)
    if record is not None:
        for name, value in live.items():
            record(name, value)
    drops = _drop_schedule(graph)
    for idx in range(inp.start, len(graph.layers)):
        yield Frontier(idx, dict(live))
        layer = graph.layers[idx]
        out = mode.ops[layer.kind](graph, layer, [live[r] for r in layer.inputs])
        live[layer.name] = out
        if record is not None:
            record(layer.name, out)
        for name in drops[idx]:
            del live[name]
    yield Frontier(len(graph.layers), live)


def _execute(graph: ModelGraph, inp, record=None) -> dict:
    """The output layer's activation, by name, once ``inp`` is walked (:func:`_walk`)."""
    for frontier in _walk(graph, inp, record):
        pass  # a loop, not unpacking, so that no earlier frontier is held
    return frontier.live


def finish(graph: ModelGraph, live: dict) -> InferenceResult:
    """Logits (dequantized in quantized mode) and class maps from the live set
    of a pass that has run its output layer; run_float and run_quantized end here."""
    logits = live[graph.output_layer.name]
    if graph.flags.get("quantized"):
        ent = _act_entry(graph, graph.output_layer.name)
        # channel-major, as in float mode: astype keeps the int8 logits' layout
        logits = ((logits.astype(np.float64) - ent["zero_point"]) * ent["scale"]).astype(np.float32)
    logits = Tensor(logits)
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
    those channels of the full chain's output. Nothing is checked here: the
    graph is one that a walk's input edge has checked.
    """
    mode = _mode(graph)
    x = source[..., channels] if chain[0].kind in CHANNELWISE else source
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


def _float_conv(graph, layer, ins, channels=None):
    kernel, bias = (p.tensor for p in graph.kernel_bias(layer.name))
    if channels is not None:
        kernel = Tensor(kernel.data[..., channels])
    bias, x = _take(bias.data, channels), Tensor(ins[0])
    if layer.kind == "conv2d_transpose":
        return conv2d_transpose_forward(x, kernel, bias, stride=layer.stride).data
    return conv2d_forward(x, kernel, bias, stride=layer.stride, padding=layer.padding).data


# The float ops wrap their arrays as Tensors (no copy) to call the public kernels
# by this module's names, looked up when they run, so a kernel rebound here (as
# perfbench's tracer does) reaches every forward pass, channel-restricted ones
# included; each returns its result's array.
_FLOAT = _Mode(
    name="float",
    ops={**dict.fromkeys(CONV_KINDS, _float_conv),
         "batchnorm": lambda graph, layer, ins, channels=None: batchnorm_forward(
             Tensor(ins[0]), _bn_params(graph, layer.name, channels)).data,
         "relu": lambda graph, layer, ins, channels=None: relu(Tensor(ins[0])).data,
         "maxpool": lambda graph, layer, ins, channels=None: maxpool2d(Tensor(ins[0])).data,
         "concat": lambda graph, layer, ins: concat_channels(
             Tensor(ins[0]), Tensor(ins[1])).data},
    enter=lambda graph, inp: inp.data)


def run_float(graph: ModelGraph, inp, collect=()) -> InferenceResult:
    """Deterministic float32 forward pass; class map via argmax_channels.

    ``inp`` is the input batch, or a :class:`Frontier` of this graph's
    faultless pass to resume from; the result is bit-identical either way.
    ``collect`` names layers, run at or after the start, whose outputs
    should be retained on the result, each as a Tensor over its array; the
    pass records them as it goes and frees every activation after its last
    consumer has run.
    """
    if graph.flags.get("quantized"):
        raise ValueError("graph is quantized; use run_quantized")
    wanted, seen = set(collect), {}

    def record(name, value):
        if name in wanted:
            seen[name] = value

    outputs = _execute(graph, inp, record if collect else None)
    collected = {name: Tensor(seen[name]) for name in collect} if collect else None
    return replace(finish(graph, outputs), collected=collected)


# ---------------------------------------------------------------------------
# quantized execution


def _round_half_even_clip_i8(values: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """float64 ``values`` rounded half to even and saturated to int8; rounds ``values`` in place.

    The int8 result is written to ``out`` (any int8 view of ``values``'s
    shape) if given, else to a new array.
    """
    np.rint(values, out=values)
    np.clip(values, -128, 127, out=values)
    if out is None:
        return values.astype(np.int8)
    np.copyto(out, values, casting="unsafe")
    return out


def _requantize(out: np.ndarray, acc: np.ndarray, multiplier: float, zero_point: int) -> None:
    """Set int8 ``out`` to int32 ``acc`` (same shape) requantized: ``acc * multiplier
    + zero_point`` in float64, rounded half to even and saturated."""
    values = np.multiply(acc, multiplier, dtype=np.float64)
    values += zero_point
    _round_half_even_clip_i8(values, out)


def _act_entry(graph: ModelGraph, name: str) -> dict:
    """Activation ``name``'s scale table entry, which the walk's input edge has checked."""
    return graph.metadata["quantization"]["activations"][name]


# The rows of one exact float32 group (see _tap_sum): 514.
_EXACT_ROWS = 2 ** 24 // (128 * 255)


def _tap_sum(kernel: np.ndarray, rows: np.ndarray, ws: int, start: int,
             out: np.ndarray) -> None:
    """Add to int32 ``out`` (Cout, M) the sum over kernel taps (i, j) of the GEMM
    ``kernel[i, j].T @ rows[:, c:c + M]``, c = ``start`` + i*``ws`` + j, wrapped to int32.

    ``kernel`` is (Kh, Kw, Cin, Cout) and ``rows`` (Cin, .), both float32
    holding integers: int8 weights, |w| <= 128, and int8 activations less a
    zero point in [-128, 127], |x - Z| <= 255. A sum of at most
    _EXACT_ROWS = 2**24 // (128 * 255) = 514 products is then an integer of
    magnitude at most 2**24, which float32 holds exactly, so BLAS computes it
    exactly in any summation order. The taps' products, Cin split in slices
    of at most 514 rows, add up in float32 in groups of at most 514 rows;
    each group is cast to int32 and added into ``out`` with two's-complement
    wraparound. Integer addition is associative mod 2**32, so ``out`` gains
    the bits of an int32 matmul, whatever the grouping. With Cin = 0 it adds
    nothing.
    """
    m = out.shape[1]
    group = tmp = None
    depth = 0  # rows summed into group
    for i, j in np.ndindex(*kernel.shape[:2]):
        offset = start + i * ws + j
        for c in range(0, kernel.shape[2], _EXACT_ROWS):
            w, x = kernel[i, j, c:c + _EXACT_ROWS].T, rows[c:c + _EXACT_ROWS, offset:offset + m]
            if depth + w.shape[1] > _EXACT_ROWS:
                out += group.astype(np.int32)
                depth = 0
            if depth == 0:
                group = np.matmul(w, x, out=group)
            else:
                tmp = np.matmul(w, x, out=tmp)
                group += tmp
            depth += w.shape[1]
    if depth:
        out += group.astype(np.int32)


# A column block's (Cout, cols) int32 accumulator holds at most this many
# cells, so that it, the float32 GEMM buffers and the float64 values of its
# requantization stay in a 2 MiB L2 cache together.
_BLOCK_CELLS = 1 << 15


def _requantized_fill(out: np.ndarray, rows: np.ndarray, taps: np.ndarray, bias: np.ndarray,
                      start: int, ws: int, multiplier: float, zero_point: int) -> None:
    """The int8 fill of ``tensor._conv_grid``: each cell's exact int32 sum, ``bias``
    plus its taps (:func:`_tap_sum`), requantized into int8 ``out`` while the
    block is in cache."""
    acc = np.empty(out.shape, dtype=np.int32)
    acc[...] = bias[:, None]
    _tap_sum(taps, rows, ws, start, acc)
    _requantize(out, acc, multiplier, zero_point)


def _quantize_input(graph: ModelGraph, inp: Tensor) -> np.ndarray:
    ent = _act_entry(graph, "input")
    return _round_half_even_clip_i8(inp.data.astype(np.float64) / ent["scale"]
                                    + ent["zero_point"])


def _quantized_conv(graph, layer, ins, channels=None):
    kernel_p, bias_p = graph.kernel_bias(layer.name)
    in_ent = _act_entry(graph, layer.inputs[0])
    out_ent = _act_entry(graph, layer.name)
    w_ent = graph.metadata["quantization"]["params"][str(kernel_p.index)]
    # Sliced to ``channels``, each tap's GEMM computes only those output
    # channels; integer sums are exact in any grouping, so their bits stay.
    kernel = _take(kernel_p.tensor.data, channels)
    bias = _take(bias_p.tensor.data, channels)
    fill = partial(_requantized_fill,
                   multiplier=(w_ent["scale"] * in_ent["scale"]) / out_ent["scale"],
                   zero_point=out_ent["zero_point"])
    if layer.kind == "conv2d_transpose":
        kernel, bias = _stacked_taps(kernel, bias, layer.stride)
        return _depth_to_space(_conv_grid(ins[0], kernel, bias, 1, "valid", fill, _BLOCK_CELLS,
                                          np.int8, in_ent["zero_point"]), layer.stride)
    return _conv_grid(ins[0], kernel, bias, layer.stride, layer.padding, fill, _BLOCK_CELLS,
                      np.int8, in_ent["zero_point"])


# The 256 int8 values, indexed by their uint8 bit patterns.
_INT8_VALUES = np.arange(256, dtype=np.uint8).view(np.int8)


def _rescale_table(graph: ModelGraph, src: str, dst: str) -> np.ndarray:
    """Each int8 value at activation ``src``'s entry, by its uint8 bit pattern, at
    ``dst``'s: (v - Z_src) * S_src / S_dst + Z_dst, rounded half to even and saturated."""
    e, out = _act_entry(graph, src), _act_entry(graph, dst)
    rescaled = (_INT8_VALUES.astype(np.float64) - e["zero_point"]) * (e["scale"] / out["scale"])
    return _round_half_even_clip_i8(rescaled + out["zero_point"])


def _quantized_concat(graph, layer, ins):
    """Each input rescaled to the output's entry (:func:`_rescale_table`) into one
    channel-major (C, N, H, W) buffer; its NHWC view."""
    n, h, w, _ = ins[0].shape
    out = np.empty((sum(part.shape[3] for part in ins), n, h, w), dtype=np.int8)
    start = 0
    for ref, part in zip(layer.inputs, ins):
        table = _rescale_table(graph, ref, layer.name)
        # a uint8 index is always in range; "clip" skips the buffered bounds check
        np.take(table, part.view(np.uint8).transpose(3, 0, 1, 2),
                out=out[start:start + part.shape[3]], mode="clip")
        start += part.shape[3]
    return out.transpose(1, 2, 3, 0)


def _at_own_entry(graph, layer, values: np.ndarray) -> np.ndarray:
    """``values``, which a ReLU or max-pool ``layer`` computes at its input's entry,
    at its own: as a one-input concat, or as they are where the entries are equal."""
    src, dst = _act_entry(graph, layer.inputs[0]), _act_entry(graph, layer.name)
    if (src["scale"], src["zero_point"]) == (dst["scale"], dst["zero_point"]):
        return values
    return _quantized_concat(graph, layer, [values])


_QUANTIZED = _Mode(
    name="quantized",
    ops={**dict.fromkeys(CONV_KINDS, _quantized_conv),
         "relu": lambda graph, layer, ins, channels=None: _at_own_entry(graph, layer, np.maximum(
             ins[0], np.int8(_act_entry(graph, layer.inputs[0])["zero_point"]))),
         "maxpool": lambda graph, layer, ins, channels=None: _at_own_entry(
             graph, layer, _max2x2(ins[0])),
         "concat": _quantized_concat},
    enter=_quantize_input)


def run_quantized(graph: ModelGraph, inp) -> InferenceResult:
    """Integer forward pass per the affine MAC; logits are dequantized f32.

    ``inp`` is the float input batch, quantized at the input edge, or a
    :class:`Frontier` of this graph's faultless pass to resume from. Each
    activation is freed after its last consumer has run.
    """
    if not graph.flags.get("quantized"):
        raise ValueError("graph is not quantized; use run_float")
    return finish(graph, _execute(graph, inp))
