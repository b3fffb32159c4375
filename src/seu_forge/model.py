"""Serializable encoder-decoder graph, p-indexed parameter sets, toy data.

Model container format (little-endian throughout):

    bytes 0-7    magic b"SEUFORGE"
    u32          format version (currently 1)
    u64          manifest length in bytes
    ...          JSON manifest (layers, p-index table with blob offsets,
                 encodings, quantization tables, bn epsilon, provenance)
    ...          raw parameter blobs, little-endian IEEE-754 / two's complement

Parameter sets are indexed p1..pN contiguously. Every model the toolkit
builds numbers them in graph topological order, kernels before biases
within a layer (gamma, beta, mu, sigma within a BN layer). A graph
transform edits its own copy of its input in place, so every set keeps its
index; ``compress.fold_bn``, the one transform that removes sets (the
batch-norm ones), renumbers the sets left to p1..pN in the order they have.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .tensor import ENCODINGS, ShapeError, Tensor, _conv_extent

MAGIC = b"SEUFORGE"
FORMAT_VERSION = 1

ROLES = ("conv_kernel", "conv_bias", "convtr_kernel", "convtr_bias",
         "bn_gamma", "bn_beta", "bn_mu", "bn_sigma")
# The six trainable roles campaigns target by default (mu/sigma are stored
# but not treated as fault targets unless asked for explicitly).
DEFAULT_TARGET_ROLES = ("conv_kernel", "conv_bias", "convtr_kernel",
                        "convtr_bias", "bn_gamma", "bn_beta")

_LAYER_ROLES = {
    "conv2d": ("conv_kernel", "conv_bias"),
    "output_conv": ("conv_kernel", "conv_bias"),
    "conv2d_transpose": ("convtr_kernel", "convtr_bias"),
    "batchnorm": ("bn_gamma", "bn_beta", "bn_mu", "bn_sigma"),
    "relu": (), "maxpool": (), "concat": (),  # kinds with no parameter set
}
# The layer kinds that convolve their input with a (kernel, bias) pair.
CONV_KINDS = ("conv2d", "conv2d_transpose", "output_conv")

DEFAULT_BN_EPSILON = 1e-3


class FormatError(ValueError):
    """Corrupt, truncated, or incompatible model container."""


@dataclass
class LayerSpec:
    kind: str
    name: str
    hyperparams: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)

    @property
    def stride(self) -> int:
        """``hyperparams["stride"]``; by default 2 for a transposed conv or maxpool, else 1."""
        return self.hyperparams.get("stride", 2 if self.kind in ("conv2d_transpose", "maxpool")
                                    else 1)

    @property
    def padding(self) -> str:
        """``hyperparams["padding"]``; by default ``"same"``."""
        return self.hyperparams.get("padding", "same")


@dataclass
class ParamSet:
    index: int          # 1-based p-index
    layer: str          # owner layer name
    role: str
    tensor: Tensor

    @property
    def width(self) -> int:
        return self.tensor.data.dtype.itemsize * 8


class ModelGraph:
    """Ordered layer graph plus p-indexed parameter sets, held in p-index
    order whatever order they are passed in, so that ``params``, hashing,
    saving and renumbering read one order.

    Immutable by convention after construction: a transform edits and
    returns its own ``copy``, and fault injection operates on a working copy.
    """

    def __init__(self, layers, params, class_count, metadata=None):
        self.layers = list(layers)
        self.params = sorted(params, key=lambda p: p.index)
        self.class_count = int(class_count)
        self.metadata = metadata if metadata is not None else {}
        self.metadata.setdefault("bn_epsilon", DEFAULT_BN_EPSILON)
        self.metadata.setdefault("flags", {"pruned": False, "folded": False, "quantized": False})
        self.metadata.setdefault("provenance", [])
        self._by_name = {l.name: l for l in self.layers}
        if len(self._by_name) != len(self.layers):
            raise ValueError("duplicate layer names")
        self._validate_dag()
        self._by_index = {p.index: p for p in self.params}
        if sorted(self._by_index) != list(range(1, len(self.params) + 1)):
            raise ValueError("p-indices must be contiguous 1..N")
        self._by_layer = {}
        for p in self.params:
            # refuse a set that no op reads; an unknown kind is left to infer_shapes
            layer, have = self._by_name.get(p.layer), self._by_layer.setdefault(p.layer, {})
            if layer is None:
                raise ValueError(f"p{p.index} belongs to no layer: {p.layer!r}")
            if p.role not in _LAYER_ROLES.get(layer.kind, (p.role,)):
                raise ValueError(f"p{p.index} is a {p.role} set, which a {layer.kind} "
                                 f"layer ({layer.name}) does not carry")
            if p.role in have:
                raise ValueError(f"layer {layer.name} has two {p.role} sets, "
                                 f"p{have[p.role].index} and p{p.index}")
            have[p.role] = p
        self._validate_param_complements()

    def _validate_param_complements(self):
        for layer in self.layers:
            want = _LAYER_ROLES.get(layer.kind, ())
            have = set(self._by_layer.get(layer.name, {}))
            missing = [r for r in want if r not in have]
            if missing:
                raise ValueError(f"layer {layer.name} ({layer.kind}) is missing "
                                 f"parameter sets {missing}")
        out = self.layers[-1] if self.layers else None
        if out is not None and out.kind == "output_conv":
            filters = self.kernel_bias(out.name)[0].tensor.shape[3]
            if filters != self.class_count:
                raise ValueError(f"output conv has {filters} filters but "
                                 f"class_count is {self.class_count}")

    def _validate_dag(self):
        seen = {"input"}
        for layer in self.layers:
            for ref in layer.inputs:
                if ref not in seen:
                    raise ValueError(f"layer {layer.name} references undefined input {ref!r}")
            seen.add(layer.name)

    # -- lookups ---------------------------------------------------------

    def layer(self, name: str) -> LayerSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no layer named {name!r}") from None

    def param(self, index: int) -> ParamSet:
        try:
            return self._by_index[index]
        except KeyError:
            raise KeyError(f"no parameter set p{index} (model has p1..p{len(self.params)})") from None

    def layer_params(self, name: str) -> dict:
        return self._by_layer.get(name, {})

    def kernel_bias(self, name: str):
        """The (kernel, bias) parameter sets of a layer whose kind is in CONV_KINDS."""
        kind = self.layer(name).kind
        if kind not in CONV_KINDS:
            raise ValueError(f"layer {name} ({kind}) has no kernel and bias")
        kernel_role, bias_role = _LAYER_ROLES[kind]
        ps = self._by_layer[name]
        return ps[kernel_role], ps[bias_role]

    def params_of(self, roles):
        """The parameter sets whose role is one of ``roles``, in p-index order;
        ValueError for a name that is not in ROLES."""
        roles = set(roles)
        unknown = sorted(roles.difference(ROLES))
        if unknown:
            raise ValueError(f"unknown parameter role {unknown[0]!r}; roles are {', '.join(ROLES)}")
        return [p for p in self.params if p.role in roles]

    @property
    def flags(self) -> dict:
        return self.metadata["flags"]

    @property
    def bn_epsilon(self) -> float:
        return float(self.metadata["bn_epsilon"])

    @property
    def output_layer(self) -> LayerSpec:
        return self.layers[-1]

    @property
    def pool_stages(self) -> int:
        """Number of 2x2 maxpool layers; image sides must be multiples of 2**pool_stages."""
        return sum(1 for l in self.layers if l.kind == "maxpool")

    def consumers(self, name: str):
        return [l for l in self.layers if name in l.inputs]

    # -- copying ---------------------------------------------------------

    def copy(self) -> "ModelGraph":
        """Deep-copies parameter buffers; layer specs are rebuilt shallowly."""
        layers = [LayerSpec(l.kind, l.name, dict(l.hyperparams), list(l.inputs))
                  for l in self.layers]
        params = [ParamSet(p.index, p.layer, p.role, p.tensor.copy()) for p in self.params]
        return ModelGraph(layers, params, self.class_count, json.loads(json.dumps(self.metadata)))

    def with_provenance(self, entry: dict) -> "ModelGraph":
        self.metadata["provenance"].append(entry)
        return self


def assign_param_indices(params):
    """Renumber a parameter list (already in layer order) to p1..pN."""
    return [ParamSet(i + 1, p.layer, p.role, p.tensor) for i, p in enumerate(params)]


def model_hash(graph: ModelGraph) -> str:
    """sha256 over the p-index-ordered raw parameter buffers."""
    h = hashlib.sha256()
    for p in graph.params:
        h.update(f"{p.index}:{p.role}:{p.tensor.encoding}:{p.tensor.shape}".encode())
        h.update(np.ascontiguousarray(p.tensor.data).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# U-Net builder


def _zeros(shape, encoding="f32"):
    return Tensor(np.zeros(shape, dtype=ENCODINGS[encoding]))


class _Namer:
    def __init__(self):
        self.counts = {}

    def next(self, base: str) -> str:
        n = self.counts.get(base, 0)
        self.counts[base] = n + 1
        return base if n == 0 else f"{base}_{n}"


def build_unet(levels: int, base_filters: int, class_count: int,
               input_channels: int) -> ModelGraph:
    """Toy-scale U-Net: per level two 3x3 conv+BN+ReLU, 2x2 maxpool per
    encoder level, 2x2/2 transposed conv plus skip concat per decoder level,
    1x1 output conv. Filter counts double per level. Parameters are
    zero-initialized; see generate_toy_weights.
    """
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    if base_filters < 2:
        raise ValueError(f"base_filters must be >= 2, got {base_filters}")
    if class_count < 1 or input_channels < 1:
        raise ValueError("class_count and input_channels must be positive")

    names = _Namer()
    layers, params = [], []

    def add_param(layer_name, role, tensor):
        params.append(ParamSet(0, layer_name, role, tensor))

    def conv_block(prev, filters, cin):
        cname = names.next("conv2D")
        layers.append(LayerSpec("conv2d", cname,
                                {"kernel_size": 3, "stride": 1, "padding": "same",
                                 "filters": filters}, [prev]))
        add_param(cname, "conv_kernel", _zeros((3, 3, cin, filters)))
        add_param(cname, "conv_bias", _zeros((filters,)))
        bname = names.next("bn")
        layers.append(LayerSpec("batchnorm", bname, {}, [cname]))
        for role in ("bn_gamma", "bn_beta", "bn_mu", "bn_sigma"):
            add_param(bname, role, _zeros((filters,)))
        rname = names.next("relu")
        layers.append(LayerSpec("relu", rname, {}, [bname]))
        return rname

    prev, channels = "input", input_channels
    skips = []
    for level in range(levels):
        filters = base_filters * (1 << level)
        prev = conv_block(prev, filters, channels)
        prev = conv_block(prev, filters, filters)
        channels = filters
        skips.append(prev)
        pname = names.next("maxpool")
        layers.append(LayerSpec("maxpool", pname, {"window": 2, "stride": 2}, [prev]))
        prev = pname

    filters = base_filters * (1 << levels)
    prev = conv_block(prev, filters, channels)
    prev = conv_block(prev, filters, filters)
    channels = filters

    for level in reversed(range(levels)):
        filters = base_filters * (1 << level)
        tname = names.next("conv2Dtr")
        layers.append(LayerSpec("conv2d_transpose", tname,
                                {"kernel_size": 2, "stride": 2, "filters": filters}, [prev]))
        add_param(tname, "convtr_kernel", _zeros((2, 2, channels, filters)))
        add_param(tname, "convtr_bias", _zeros((filters,)))
        xname = names.next("concat")
        layers.append(LayerSpec("concat", xname, {}, [skips[level], tname]))
        channels = filters * 2
        prev = conv_block(xname, filters, channels)
        prev = conv_block(prev, filters, filters)
        channels = filters

    oname = names.next("conv2D")
    layers.append(LayerSpec("output_conv", oname,
                            {"kernel_size": 1, "stride": 1, "padding": "same",
                             "filters": class_count}, [prev]))
    add_param(oname, "conv_kernel", _zeros((1, 1, channels, class_count)))
    add_param(oname, "conv_bias", _zeros((class_count,)))

    metadata = {
        "bn_epsilon": DEFAULT_BN_EPSILON,
        "flags": {"pruned": False, "folded": False, "quantized": False},
        "provenance": [{"transform": "build_unet",
                        "levels": levels, "base_filters": base_filters,
                        "class_count": class_count, "input_channels": input_channels}],
        "input_channels": input_channels,
    }
    return ModelGraph(layers, assign_param_indices(params), class_count, metadata)


# ---------------------------------------------------------------------------
# shape inference


def infer_shapes(graph: ModelGraph, height: int, width: int, batch: int = 1) -> dict:
    """Forward shape propagation; raises ShapeError on any inconsistency."""
    shapes = {"input": (batch, height, width, graph.metadata.get("input_channels", 1))}
    for layer in graph.layers:
        ins = [shapes[r] for r in layer.inputs]
        if layer.kind in CONV_KINDS:
            n, h, w, c = ins[0]
            k = graph.kernel_bias(layer.name)[0].tensor.shape
            if k[2] != c:
                raise ShapeError(f"{layer.name}: input channels {c} != kernel Cin {k[2]}")
            s = layer.stride
            if layer.kind == "conv2d_transpose":
                if k[:2] != (s, s):
                    raise ShapeError(f"{layer.name}: transposed conv kernel "
                                     f"{k[0]}x{k[1]} != stride {s}")
                oh, ow = h * s, w * s
            else:
                try:
                    oh, ow = _conv_extent(ins[0], k, s, layer.padding)[4:]
                except ShapeError as e:
                    raise ShapeError(f"{layer.name}: {e}") from None
            shapes[layer.name] = (n, oh, ow, k[3])
        elif layer.kind == "batchnorm":
            n, h, w, c = ins[0]
            g = graph.layer_params(layer.name)["bn_gamma"].tensor.shape[0]
            if g != c:
                raise ShapeError(f"{layer.name}: input channels {c} != BN channels {g}")
            shapes[layer.name] = ins[0]
        elif layer.kind == "relu":
            shapes[layer.name] = ins[0]
        elif layer.kind == "maxpool":
            n, h, w, c = ins[0]
            if (layer.hyperparams.get("window", 2), layer.stride) != (2, 2):
                raise ShapeError(f"{layer.name}: maxpool {layer.hyperparams} is not 2x2/2")
            if h % 2 or w % 2:
                raise ShapeError(f"{layer.name}: H,W must be even, got {(h, w)}")
            shapes[layer.name] = (n, h // 2, w // 2, c)
        elif layer.kind == "concat":
            (n, h, w, ca), (n2, h2, w2, cb) = ins
            if (n, h, w) != (n2, h2, w2):
                raise ShapeError(f"{layer.name}: N,H,W mismatch {ins[0]} vs {ins[1]}")
            shapes[layer.name] = (n, h, w, ca + cb)
        else:
            raise ValueError(f"unknown layer kind {layer.kind!r}")
    return shapes


# ---------------------------------------------------------------------------
# toy weights and calibration data


_SIGMA_RANGE = (0.01, 1.0)  # toy BN variances are uniform over it


def generate_toy_weights(graph: ModelGraph, seed: int, *,
                         kernel_scale: float = 1.0,
                         positive_bias_fraction=0.5,
                         gamma_range=(0.5, 1.5),
                         gamma_mode: str = "compensated") -> ModelGraph:
    """Deterministic desk-scale substitute for trained weights.

    Kernels are uniform with fan-in-scaled bounds (+-kernel_scale*sqrt(3/fan))
    so activation magnitudes stay tame at any depth. Bias-like parameters
    (conv/convtr biases and BN betas) get magnitudes in (0.02, 0.9) with the
    requested fraction of positive signs. BN sigma lives in [0.01, 1.0),
    reproducing the 1/sqrt(variance) amplification regime.

    gamma_mode "compensated" (default) draws gamma = u*sqrt(sigma+eps) with
    u ~ uniform(gamma_range), emulating a trained network where the BN
    multiplier u stays near one regardless of sigma; "raw" draws gamma from
    gamma_range directly (used to seed gammas into specific exponent ranges,
    e.g. (1, 2), at the price of unnormalized dynamics).

    positive_bias_fraction may be a float or "span" (deterministically
    shuffled linspace(0, 1) over the bias-bearing layers, giving per-layer
    ratios that span the full range).
    """
    if gamma_mode not in ("compensated", "raw"):
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}")
    if not 0 <= kernel_scale < math.inf:
        raise ValueError(f"kernel_scale must be finite and >= 0, got {kernel_scale}")
    if not -math.inf < gamma_range[0] <= gamma_range[1] < math.inf:
        raise ValueError(f"gamma_range must be finite with lo <= hi, got {tuple(gamma_range)}")
    if positive_bias_fraction != "span" and not 0 <= float(positive_bias_fraction) <= 1:
        raise ValueError(f"positive_bias_fraction must be in [0, 1], got {positive_bias_fraction}")
    if graph.flags.get("quantized"):
        raise ValueError("cannot reseed weights of a quantized graph")
    rng = np.random.Generator(np.random.PCG64(seed))
    out = graph.copy()
    eps = out.bn_epsilon

    bias_layers = sorted({p.layer for p in out.params
                          if p.role in ("conv_bias", "convtr_bias", "bn_beta")},
                         key=lambda n: [l.name for l in out.layers].index(n))
    if positive_bias_fraction == "span":
        fractions = np.linspace(0.0, 1.0, len(bias_layers))
        rng.shuffle(fractions)
        frac_by_layer = dict(zip(bias_layers, fractions))
    else:
        frac_by_layer = {n: float(positive_bias_fraction) for n in bias_layers}

    def signed_magnitudes(n, fraction):
        mags = rng.uniform(0.02, 0.9, size=n)
        signs = np.where(rng.uniform(size=n) < fraction, 1.0, -1.0)
        return (mags * signs).astype(np.float32)

    pending = {}  # (layer, role) -> values; gamma compensation needs sigma
    for p in out.params:
        shape = p.tensor.shape
        if p.role in ("conv_kernel", "convtr_kernel"):
            fan_in = int(np.prod(shape[:3]))
            bound = kernel_scale * np.sqrt(3.0 / fan_in)
            vals = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        elif p.role in ("conv_bias", "convtr_bias", "bn_beta"):
            vals = signed_magnitudes(p.tensor.size, frac_by_layer[p.layer]).reshape(shape)
        elif p.role == "bn_gamma":
            vals = rng.uniform(*gamma_range, size=shape).astype(np.float32)
            if gamma_mode == "compensated":
                pending[(p.layer, "bn_gamma")] = vals
        elif p.role == "bn_mu":
            vals = rng.uniform(-0.2, 0.2, size=shape).astype(np.float32)
        elif p.role == "bn_sigma":
            vals = rng.uniform(*_SIGMA_RANGE, size=shape).astype(np.float32)
            u = pending.pop((p.layer, "bn_gamma"), None)
            if u is not None:
                gamma = out.layer_params(p.layer)["bn_gamma"].tensor
                gamma.data[...] = (u * np.sqrt(vals + np.float32(eps))).astype(np.float32)
        else:
            raise ValueError(f"unhandled role {p.role}")
        p.tensor.data[...] = vals

    out.metadata.update({"prng": "numpy-pcg64", "seed": int(seed)})
    out.with_provenance({"transform": "generate_toy_weights", "seed": int(seed),
                         "kernel_scale": kernel_scale,
                         "positive_bias_fraction": positive_bias_fraction,
                         "gamma_range": list(gamma_range), "gamma_mode": gamma_mode,
                         "sigma_range": list(_SIGMA_RANGE)})
    return out


def _bilinear_upsample(coarse: np.ndarray, height: int, width: int) -> np.ndarray:
    n, h, w, c = coarse.shape
    ys = np.linspace(0.0, h - 1.0, height)
    xs = np.linspace(0.0, w - 1.0, width)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[None, :, None, None]
    fx = (xs - x0)[None, None, :, None]
    g = coarse
    top = g[:, y0][:, :, x0] * (1 - fx) + g[:, y0][:, :, x1] * fx
    bot = g[:, y1][:, :, x0] * (1 - fx) + g[:, y1][:, :, x1] * fx
    return top * (1 - fy) + bot * fy


def generate_calibration_set(shape, count: int = 10, seed: int = 0,
                             class_count: int = None):
    """Deterministic band-limited random inputs plus rule-derived label maps.

    shape is (H, W, C). Labels come from a fixed linear-projection argmax rule
    so IoU metrics are computable without real data; golden-model self-labels
    (the default campaign ground truth) are produced by the inference engine
    instead.
    """
    height, width, channels = shape
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    ch, cw = max(2, height // 8), max(2, width // 8)
    coarse = rng.uniform(0.0, 1.0, size=(count, ch, cw, channels))
    fields = _bilinear_upsample(coarse, height, width).astype(np.float32)
    inputs = [Tensor.from_array(fields[i:i + 1]) for i in range(count)]

    labels = None
    if class_count is not None:
        proj = rng.normal(size=(channels, class_count))
        scores = fields @ proj
        labels = [np.argmax(scores[i], axis=-1).astype(np.int32) for i in range(count)]
    return inputs, labels


def batch_inputs(inputs) -> Tensor:
    """Stack 4-D (n, H, W, C) tensors into one N,H,W,C batch; any other item is a
    ``TypeError`` naming its type and shape."""
    inputs = list(inputs)
    for t in inputs:
        if not isinstance(t, Tensor) or len(t.shape) != 4:
            got = type(t).__name__ + (f" of shape {tuple(t.shape)}" if hasattr(t, "shape") else "")
            raise TypeError(f"an input batch is stacked from 4-D Tensors, got {got}")
    return Tensor.from_array(np.concatenate([t.data for t in inputs], axis=0))


# ---------------------------------------------------------------------------
# container I/O


_BLOB_DTYPES = {"f32": "<f4", "i8": "<i1", "i32": "<i4"}


def save_model(graph: ModelGraph, path) -> None:
    blobs, table, offset = [], [], 0
    for p in graph.params:
        raw = np.ascontiguousarray(p.tensor.data).astype(
            _BLOB_DTYPES[p.tensor.encoding]).tobytes()
        table.append({"index": p.index, "layer": p.layer, "role": p.role,
                      "encoding": p.tensor.encoding, "shape": list(p.tensor.shape),
                      "offset": offset, "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    blob = b"".join(blobs)
    manifest = {
        "class_count": graph.class_count,
        "layers": [{"kind": l.kind, "name": l.name, "hyperparams": l.hyperparams,
                    "inputs": l.inputs} for l in graph.layers],
        "params": table,
        "metadata": graph.metadata,
        "blob_size": len(blob),
        "blob_crc32": zlib.crc32(blob),
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<Q", len(mbytes)))
        f.write(mbytes)
        f.write(blob)


def load_model(path) -> ModelGraph:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MAGIC) + 12 or raw[:len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a model container (bad magic)")
    pos = len(MAGIC)
    (version,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})")
    (mlen,) = struct.unpack_from("<Q", raw, pos)
    pos += 8
    if pos + mlen > len(raw):
        raise FormatError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[pos:pos + mlen].decode())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise FormatError(f"{path}: manifest is not UTF-8 JSON ({exc})") from None
    pos += mlen
    blob_size, blob_crc32, layer_entries, param_entries, class_count, metadata = _fields(
        manifest, ("blob_size", "blob_crc32", "layers", "params", "class_count", "metadata"),
        path, "manifest")
    if not (_is_int(blob_size) and _is_int(blob_crc32) and _is_int(class_count)
            and isinstance(layer_entries, list) and isinstance(param_entries, list)
            and isinstance(metadata, dict)):
        raise FormatError(f"{path}: manifest blob_size, blob_crc32, layers, params, "
                          "class_count or metadata has the wrong type")
    blob = raw[pos:]
    if len(blob) < blob_size:
        raise FormatError(f"{path}: truncated blob ({len(blob)} of {blob_size} bytes)")
    if len(blob) > blob_size:
        raise FormatError(f"{path}: {len(blob) - blob_size} trailing bytes after the "
                          f"{blob_size}-byte blob")
    if zlib.crc32(blob) != blob_crc32:
        raise FormatError(f"{path}: blob checksum failure")

    layers = [_layer(entry, path) for entry in layer_entries]
    if "quantization" in metadata:
        _quantization(metadata["quantization"], path)
    params = []
    for e in param_entries:
        index, layer, role, encoding, shape, offset, nbytes = _fields(
            e, ("index", "layer", "role", "encoding", "shape", "offset", "nbytes"), path, "param")
        if not (_is_int(index) and isinstance(layer, str) and isinstance(role, str)):
            raise FormatError(f"{path}: param {index!r} index, layer or role has the wrong type")
        if not isinstance(encoding, str) or encoding not in _BLOB_DTYPES:
            raise FormatError(f"{path}: p{index} has unknown encoding {encoding!r}")
        if not (_is_int(offset) and _is_int(nbytes) and isinstance(shape, list)
                and all(_is_int(d) and d >= 0 for d in shape)):
            raise FormatError(f"{path}: p{index} offset, nbytes or shape is not "
                              "a non-negative int (list)")
        dt = np.dtype(_BLOB_DTYPES[encoding])
        count = math.prod(shape)
        if nbytes != count * dt.itemsize:
            raise FormatError(f"{path}: p{index} holds {nbytes} bytes, not "
                              f"{count} {encoding} values")
        if offset < 0 or offset + nbytes > len(blob):
            raise FormatError(f"{path}: p{index} bytes [{offset}, {offset + nbytes}) "
                              f"lie outside the {len(blob)}-byte blob")
        arr = np.frombuffer(blob, dtype=dt, count=count, offset=offset).copy()
        arr = arr.astype(ENCODINGS[encoding]).reshape(shape)
        params.append(ParamSet(index, layer, role, Tensor(arr)))
    try:
        graph = ModelGraph(layers, params, class_count, metadata)
        # the container is checked, not an image size: at this side no
        # "valid" kernel outgrows its input
        side = 1 << (graph.pool_stages + 10)
        infer_shapes(graph, side, side)
        check_numeric_mode(graph)
    except ValueError as exc:  # ShapeError included
        raise FormatError(f"{path}: inconsistent graph ({exc})") from None
    return graph


def check_numeric_mode(graph: ModelGraph) -> None:
    """ValueError unless ``graph``'s layers, parameters and tables fit its numeric mode.

    A float graph holds only f32 parameters. A quantized graph has no
    batch-norm layer, i8 conv kernels and i32 conv biases, and a usable
    scale table entry (``check_quant_entry``) for the input, for every layer
    and for every conv kernel and bias.
    """
    if not isinstance(graph.flags, dict):
        raise ValueError("flags is not a JSON object")
    if not graph.flags.get("quantized"):
        for p in graph.params:
            if p.tensor.encoding != "f32":
                raise ValueError(f"float graph holds p{p.index} as {p.tensor.encoding}")
        return
    for layer in graph.layers:
        if layer.kind == "batchnorm":
            raise ValueError(f"quantized graph has batch-norm layer {layer.name!r}")
    tables = graph.metadata.get("quantization")
    acts, params = (tables.get(kind) if isinstance(tables, dict) else None
                    for kind in ("activations", "params"))
    if not (isinstance(acts, dict) and isinstance(params, dict)):
        raise ValueError("quantized graph carries no quantization tables with "
                         "'activations' and 'params' objects")
    for name in ["input"] + [layer.name for layer in graph.layers]:
        if name not in acts:
            raise ValueError(f"missing scale table for activation {name!r}")
        check_quant_entry(acts[name], f"scale table for activation {name!r}")
    for layer in graph.layers:
        if layer.kind not in CONV_KINDS:
            continue
        for p, encoding in zip(graph.kernel_bias(layer.name), ("i8", "i32")):
            if p.tensor.encoding != encoding:
                raise ValueError(f"quantized graph holds p{p.index} ({p.role}) as "
                                 f"{p.tensor.encoding}, not {encoding}")
            if str(p.index) not in params:
                raise ValueError(f"missing scale table for p{p.index}")
            check_quant_entry(params[str(p.index)], f"scale table for p{p.index}")


def _layer(entry, path) -> LayerSpec:
    """A manifest layer entry as a LayerSpec; FormatError for a field of the wrong type."""
    kind, name, hyperparams, inputs = _fields(
        entry, ("kind", "name", "hyperparams", "inputs"), path, "layer")
    if not (isinstance(kind, str) and isinstance(name, str) and isinstance(hyperparams, dict)
            and isinstance(inputs, list) and all(isinstance(r, str) for r in inputs)):
        raise FormatError(f"{path}: layer {name!r} kind, name, hyperparams or inputs "
                          "has the wrong type")
    spec = LayerSpec(kind, name, hyperparams, inputs)
    if not (_is_int(spec.stride) and spec.stride >= 1 and spec.padding in ("same", "valid")):
        raise FormatError(f"{path}: layer {name!r} has stride {spec.stride!r} and padding "
                          f"{spec.padding!r}; want an int >= 1 and 'same' or 'valid'")
    return spec


def _quantization(tables, path) -> None:
    """FormatError unless ``tables`` holds valid activation and parameter entries."""
    sections = _fields(tables, ("activations", "params"), path, "quantization")
    for kind, section in zip(("activations", "params"), sections):
        if not isinstance(section, dict):
            raise FormatError(f"{path}: quantization {kind} is not a JSON object")
        for name, entry in section.items():
            try:
                check_quant_entry(entry, f"quantization {kind} entry {name!r}")
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}") from None


def check_quant_entry(entry, what: str) -> dict:
    """``entry``, a quantization table entry; ValueError unless its fields are usable.

    Its ``zero_point`` must be an int in [-128, 127] (the int8 range, which
    the integer convolution's exact GEMM bound assumes) and its ``scale`` a
    finite positive number.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"{what} is not a JSON object")
    zero, scale = entry.get("zero_point"), entry.get("scale")
    if not (_is_int(zero) and -128 <= zero <= 127):
        raise ValueError(f"{what} has zero_point {zero!r}; want an int in [-128, 127]")
    if not (isinstance(scale, (int, float)) and not isinstance(scale, bool)
            and math.isfinite(scale) and scale > 0):
        raise ValueError(f"{what} has scale {scale!r}; want a finite positive number")
    return entry


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _fields(entry, keys, path, what) -> list:
    """The values of ``keys`` in the manifest object ``entry``, in order.

    Raises FormatError if ``entry`` is not a JSON object or lacks one of them.
    """
    if not isinstance(entry, dict):
        raise FormatError(f"{path}: {what} is not a JSON object")
    missing = [k for k in keys if k not in entry]
    if missing:
        raise FormatError(f"{path}: {what} is missing key {missing[0]!r}")
    return [entry[k] for k in keys]
