"""Model transforms studied for robustness effects: BN folding, post-training
integer quantization, structured filter pruning, sparse zeroing.

All transforms are graph-to-graph (inputs untouched) and append a provenance
entry to the result's metadata.
"""

from __future__ import annotations

import numpy as np

from .engine import _execute
from .model import (CONV_KINDS, ModelGraph, ParamSet, _LAYER_ROLES, assign_param_indices,
                    batch_inputs, infer_shapes, LayerSpec)
from .tensor import Tensor

I32_MIN, I32_MAX = -(1 << 31), (1 << 31) - 1


def _rebuild(layers, params_by_layer, class_count, metadata) -> ModelGraph:
    """Reassemble a graph with p-indices renumbered in layer/role order."""
    params = []
    for layer in layers:
        for role in _LAYER_ROLES.get(layer.kind, ()):
            params.append(params_by_layer[layer.name][role])
    return ModelGraph(layers, assign_param_indices(params), class_count, metadata)


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
        kernel, bias = (p.tensor.data for p in src.kernel_bias(producer.name))
        gamma = ps["bn_gamma"].tensor.data
        beta = ps["bn_beta"].tensor.data
        mu = ps["bn_mu"].tensor.data
        sigma = ps["bn_sigma"].tensor.data
        denom = np.sqrt(sigma + eps)
        scale = gamma / denom
        kernel[...] = kernel * scale
        bias[...] = gamma * (bias - mu) / denom + beta

    layers, pby = [], {}
    for layer in src.layers:
        if layer.kind == "batchnorm":
            continue
        inputs = [fold_into.get(r, r) for r in layer.inputs]
        layers.append(LayerSpec(layer.kind, layer.name, dict(layer.hyperparams), inputs))
        pby[layer.name] = src.layer_params(layer.name)

    metadata = src.metadata
    metadata["flags"]["folded"] = True
    out = _rebuild(layers, pby, src.class_count, metadata)
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
    if not calibration_inputs:
        raise ValueError("PTQ requires a non-empty calibration set")
    if not graph.flags.get("folded"):
        graph = fold_bn(graph)

    observed = {}   # activation -> entry from the min and max of its finite values

    def record(name, tensor):
        lo, hi = tensor.data.min(), tensor.data.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):  # a NaN or an Inf is in the way
            finite = tensor.data[np.isfinite(tensor.data)]
            lo, hi = finite.min(), finite.max()
        observed[name] = _affine_entry(float(lo), float(hi))

    _execute(graph, batch_inputs(calibration_inputs), record=record)
    activations = {"input": observed["input"]}
    for layer in graph.layers:  # relu and maxpool keep their input's entry
        activations[layer.name] = (dict(activations[layer.inputs[0]])
                                   if layer.kind in ("relu", "maxpool") else observed[layer.name])

    src = graph.copy()
    param_table = {}
    new_params = {}
    for layer in src.layers:
        if layer.kind not in CONV_KINDS:
            continue
        kernel_p, bias_p = src.kernel_bias(layer.name)
        kernel = kernel_p.tensor.data
        bias = bias_p.tensor.data
        max_abs = float(np.abs(kernel).max())
        s_w = max_abs / 127.0 if max_abs > 0 else 1.0  # all-zero tensor convention
        q_w = np.clip(np.rint(kernel / s_w), -127, 127).astype(np.int8)
        s_x = activations[layer.inputs[0]]["scale"]
        s_b = s_w * s_x
        q_b = np.clip(np.rint(bias.astype(np.float64) / s_b), I32_MIN, I32_MAX).astype(np.int32)
        param_table[str(kernel_p.index)] = {"scale": s_w, "zero_point": 0, "bits": 8,
                                            "degenerate": max_abs == 0.0}
        param_table[str(bias_p.index)] = {"scale": s_b, "zero_point": 0, "bits": 32}
        new_params[(layer.name, kernel_p.role)] = Tensor.from_array(q_w, "i8")
        new_params[(layer.name, bias_p.role)] = Tensor.from_array(q_b, "i32")

    pby = {}
    for layer in src.layers:
        pby[layer.name] = {}
        for role, p in src.layer_params(layer.name).items():
            t = new_params.get((layer.name, role), p.tensor)
            pby[layer.name][role] = ParamSet(p.index, p.layer, p.role, t)

    metadata = src.metadata
    metadata["flags"]["quantized"] = True
    metadata["quantization"] = {"activations": activations, "params": param_table}
    out = _rebuild(list(src.layers), pby, src.class_count, metadata)
    return out.with_provenance({"transform": "quantize_ptq",
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

    src = graph.copy()
    side = 1 << src.pool_stages
    original = infer_shapes(src, side, side)
    kept_out = {}      # layer name -> kept original output-channel indices
    for layer in src.layers:
        if layer.kind not in CONV_KINDS or layer.kind == "output_conv":
            continue
        w = src.kernel_bias(layer.name)[0].tensor.data
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

    pby = {}
    for layer in src.layers:
        pby[layer.name] = {}
        if layer.kind in CONV_KINDS:
            kernel_p, bias_p = src.kernel_bias(layer.name)
            # kept lists carry original channel indices, so they select
            # directly into the original Cin axis (concat offsets included)
            cin_pos = np.asarray(channels[layer.inputs[0]], dtype=int)
            own = channels[layer.name]
            w = kernel_p.tensor.data[:, :, cin_pos, :][:, :, :, own]
            b = bias_p.tensor.data[own]
            for p, values in ((kernel_p, w), (bias_p, b)):
                pby[layer.name][p.role] = ParamSet(0, layer.name, p.role,
                                                   Tensor.from_array(values))
            if layer.kind != "output_conv":
                layer.hyperparams["filters"] = int(own.size)
        elif layer.kind == "batchnorm":
            own = np.asarray(channels[layer.inputs[0]], dtype=int)
            for role, p in src.layer_params(layer.name).items():
                pby[layer.name][role] = ParamSet(0, layer.name, role,
                                                 Tensor.from_array(p.tensor.data[own]))

    metadata = src.metadata
    metadata["flags"]["pruned"] = True
    out = _rebuild(list(src.layers), pby, src.class_count, metadata)
    out.with_provenance({
        "transform": "prune_structured", "criterion": "l1-single-pass",
        "keep_fraction": keep_fraction, "threshold": threshold,
        "filters": {n: int(v.size) for n, v in kept_out.items()}})
    infer_shapes(out, side, side)  # post-prune validity gate
    return out


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
        mask = np.asarray(predicate(p.tensor.data), dtype=bool)
        if mask.shape != p.tensor.data.shape:
            raise ValueError("predicate mask shape does not match parameter shape")
        zeroed += int(mask.sum())
        p.tensor.data[mask] = np.float32(0.0)
    out.with_provenance({"transform": "sparse_zero", "zeroed": zeroed})
    return out, zeroed
