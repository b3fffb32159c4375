"""Model transforms studied for robustness effects: BN folding, post-training
integer quantization, structured filter pruning, sparse zeroing.

All transforms are graph-to-graph: each edits its own ``graph.copy()`` in
place, leaving its input untouched, and appends a provenance entry to the
copy's metadata. Quantization and pruning rewrite the copy's parameter sets
where they stand, so every set keeps its p-index. ``fold_bn``, the one
transform that removes sets, renumbers the sets left to p1..pN in the order
they have.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .engine import _execute
from .model import CONV_KINDS, ModelGraph, assign_param_indices, batch_inputs, infer_shapes

I32_MIN, I32_MAX = -(1 << 31), (1 << 31) - 1


# ---------------------------------------------------------------------------
# batch-norm folding


def fold_bn(graph: ModelGraph) -> ModelGraph:
    """Fuse every BN into its producer convolution:
    w_hat = (gamma / sqrt(sigma + eps)) * w,
    b_hat = gamma * (b - mu) / sqrt(sigma + eps) + beta.
    """
    if graph.flags.get("folded"):
        raise ValueError("graph is already folded")
    if graph.flags.get("quantized"):
        raise ValueError("cannot fold a quantized graph")

    src = graph.copy()
    eps = np.float32(src.bn_epsilon)
    fold_into = {}   # bn layer name -> producer conv name
    for layer in src.layers:
        if layer.kind != "batchnorm":
            continue
        producer = src.layer(layer.inputs[0])
        if producer.kind not in CONV_KINDS:
            raise ValueError(f"batch-norm {layer.name} does not follow a convolution "
                             f"(producer {producer.name} is {producer.kind})")
        fold_into[layer.name] = producer.name

        ps = src.layer_params(layer.name)
        kernel, bias = (p.data for p in src.kernel_bias(producer.name))
        gamma = ps["bn_gamma"].data
        beta = ps["bn_beta"].data
        mu = ps["bn_mu"].data
        sigma = ps["bn_sigma"].data
        denom = np.sqrt(sigma + eps)
        scale = gamma / denom
        kernel[...] = kernel * scale
        bias[...] = gamma * (bias - mu) / denom + beta

    layers = [replace(layer, inputs=[fold_into.get(r, r) for r in layer.inputs])
              for layer in src.layers if layer.name not in fold_into]
    params = assign_param_indices([p for p in src.params if p.layer not in fold_into])
    src.flags["folded"] = True
    out = ModelGraph(layers, params, src.class_count, src.metadata)
    return out.with_provenance({"transform": "fold_bn", "folded_layers": len(fold_into)})


# ---------------------------------------------------------------------------
# post-training integer quantization


def _affine_entry(lo: float, hi: float) -> dict:
    if hi <= lo:
        scale = 1.0  # degenerate constant activation; recorded as-is
    else:
        scale = (hi - lo) / 255.0
    zero = int(np.clip(np.rint(-128.0 - lo / scale), -128, 127))
    return {"scale": float(scale), "zero_point": zero}


def quantize_ptq(graph: ModelGraph, calibration_inputs) -> ModelGraph:
    """Per-tensor symmetric 8-bit weights (S_w = max|w|/127), activation
    scales from calibration min/max, 32-bit biases with S_b = S_w*S_x,
    round-half-even everywhere. Folds BN first if needed.
    """
    if graph.flags.get("quantized"):
        raise ValueError("graph is already quantized")
    calibration_inputs = list(calibration_inputs)
    if not calibration_inputs:
        raise ValueError("PTQ requires a non-empty calibration set")
    batch = batch_inputs(calibration_inputs)
    src = graph.copy() if graph.flags.get("folded") else fold_bn(graph)

    observed = {}   # activation -> entry from the min and max of its finite values

    def record(name, values):
        lo, hi = values.min(), values.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):  # a NaN or an Inf is in the way
            finite = values[np.isfinite(values)]
            lo, hi = finite.min(), finite.max()
        observed[name] = _affine_entry(float(lo), float(hi))

    _execute(src, batch, record=record)
    activations = {"input": observed["input"]}
    for layer in src.layers:  # relu and maxpool keep their input's entry
        activations[layer.name] = (dict(activations[layer.inputs[0]])
                                   if layer.kind in ("relu", "maxpool") else observed[layer.name])

    param_table = {}
    for layer in src.layers:
        if layer.kind not in CONV_KINDS:
            continue
        kernel_p, bias_p = src.kernel_bias(layer.name)
        kernel = kernel_p.data
        bias = bias_p.data
        max_abs = float(np.abs(kernel).max())
        s_w = max_abs / 127.0 if max_abs > 0 else 1.0  # all-zero tensor convention
        q_w = np.clip(np.rint(kernel / s_w), -127, 127).astype(np.int8)
        s_x = activations[layer.inputs[0]]["scale"]
        s_b = s_w * s_x
        q_b = np.clip(np.rint(bias.astype(np.float64) / s_b), I32_MIN, I32_MAX).astype(np.int32)
        param_table[str(kernel_p.index)] = {"scale": s_w, "zero_point": 0, "bits": 8,
                                            "degenerate": max_abs == 0.0}
        param_table[str(bias_p.index)] = {"scale": s_b, "zero_point": 0, "bits": 32}
        kernel_p.data, bias_p.data = q_w, q_b

    src.flags["quantized"] = True
    src.metadata["quantization"] = {"activations": activations, "params": param_table}
    return src.with_provenance({"transform": "quantize_ptq",
                                "calibration_images": len(calibration_inputs)})


# ---------------------------------------------------------------------------
# structured pruning


def prune_structured(graph: ModelGraph, keep_fraction: float = None,
                     threshold: float = None) -> ModelGraph:
    """Remove lowest-L1 filters per conv/transposed-conv layer (never below 2,
    never the output conv) and update all downstream channel bookkeeping."""
    if graph.flags.get("quantized") or graph.flags.get("folded"):
        raise ValueError("structured pruning operates on the unfolded float graph")
    if (keep_fraction is None) == (threshold is None):
        raise ValueError("give exactly one of keep_fraction or threshold")
    if keep_fraction is not None and not 0 < keep_fraction <= 1:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    if threshold is not None and np.isnan(threshold):
        raise ValueError(f"threshold must be a number, got {threshold}")

    src = graph.copy()
    side = 1 << src.pool_stages
    original = infer_shapes(src, side, side)
    kept_out = {}      # layer name -> kept original output-channel indices
    for layer in src.layers:
        if layer.kind not in CONV_KINDS or layer.kind == "output_conv":
            continue
        w = src.kernel_bias(layer.name)[0].data
        norms = np.abs(w).sum(axis=(0, 1, 2))
        cout = norms.size
        if keep_fraction is not None:
            k = max(2, int(np.ceil(keep_fraction * cout)))
        else:
            k = max(2, int((norms >= threshold).sum()))
        k = min(k, cout)
        order = np.argsort(norms, kind="stable")[::-1][:k]
        kept_out[layer.name] = np.sort(order)

    # propagate kept-channel index lists through the graph
    channels = {"input": np.arange(src.metadata.get("input_channels", 1))}
    for layer in src.layers:
        if layer.name in kept_out:
            channels[layer.name] = kept_out[layer.name]
        elif layer.kind == "output_conv":
            channels[layer.name] = np.arange(src.class_count)
        elif layer.kind == "concat":
            a, b = layer.inputs
            channels[layer.name] = np.concatenate([channels[a], original[a][3] + channels[b]])
        else:
            channels[layer.name] = channels[layer.inputs[0]]

    for layer in src.layers:
        if layer.kind in CONV_KINDS:
            kernel_p, bias_p = src.kernel_bias(layer.name)
            # kept lists carry original channel indices, so they select
            # directly into the original Cin axis (concat offsets included)
            cin_pos = np.asarray(channels[layer.inputs[0]], dtype=int)
            own = channels[layer.name]
            # fancy indexing need not give C order; faults need a flat view
            kernel_p.data = np.ascontiguousarray(kernel_p.data[:, :, cin_pos, :][:, :, :, own])
            bias_p.data = bias_p.data[own]
            if layer.kind != "output_conv":
                layer.hyperparams["filters"] = int(own.size)
        elif layer.kind == "batchnorm":
            own = np.asarray(channels[layer.inputs[0]], dtype=int)
            for p in src.layer_params(layer.name).values():
                p.data = p.data[own]

    src.flags["pruned"] = True
    src.with_provenance({
        "transform": "prune_structured", "criterion": "l1-single-pass",
        "keep_fraction": keep_fraction, "threshold": threshold,
        "filters": {n: int(v.size) for n, v in kept_out.items()}})
    infer_shapes(src, side, side)  # post-prune validity gate
    return src


# ---------------------------------------------------------------------------
# sparse zeroing


def sparse_zero(graph: ModelGraph, predicate):
    """Set matching convolution kernels and biases to +0.0; returns (graph, zeroed_count).

    ``predicate`` maps a value array to a boolean mask of the same shape.
    """
    if graph.flags.get("quantized"):
        raise ValueError("sparse_zero operates on a float graph")
    out = graph.copy()
    zeroed = 0
    for p in out.params_of(("conv_kernel", "conv_bias", "convtr_kernel", "convtr_bias")):
        mask = np.asarray(predicate(p.data), dtype=bool)
        if mask.shape != p.data.shape:
            raise ValueError("predicate mask shape does not match parameter shape")
        zeroed += int(mask.sum())
        p.data[mask] = np.float32(0.0)
    out.with_provenance({"transform": "sparse_zero", "zeroed": zeroed})
    return out, zeroed
