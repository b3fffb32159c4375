"""Dense tensor container and the deterministic forward kernels.

All float kernels fix their accumulation order (row-major over Kh, Kw, Cin,
bias added last) so that two runs — or a run and the naive quadruple-loop
oracle — produce identical bit patterns. This is what makes fault-injection
error rates exactly reproducible.

Activation tensors are laid out N,H,W,C; convolution kernels Kh,Kw,Cin,Cout.
Inside the convolutions the working layout is channel-major instead: the
accumulator is (Cout, N*OH*OW) and each kernel tap's input window is copied
once into a (Cin, N*OH*OW) buffer, so every multiply and add runs over long
contiguous rows. Only the memory layout differs from the naive loop. Each
output cell still sees the same float32 operations in the same order
(product rounded to float32, added to a float32 accumulator that starts at
+0.0, in (kh, kw, cin) order, bias last), so the bits are unchanged.

"Bit for bit" holds up to NaN payloads. Where two different NaNs meet in
one output cell (say a NaN weight and an Inf - Inf cancellation), numpy's
vector add keeps the first operand's payload and its scalar code, which the
oracles in tests/oracles.py use, the second's. No report reads a payload:
a NaN logit makes its pixel INVALID_CLASS whatever the payload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ENCODINGS = {"f32": np.float32, "i8": np.int8, "i32": np.int32}

# Class index reported where a pixel's logits contain NaN. Counted as a
# mismatch against any golden class, including another INVALID.
INVALID_CLASS = -1


class ShapeError(ValueError):
    """Shape/encoding mismatch between operands; message names both."""


@dataclass
class Tensor:
    """Flat row-major buffer plus explicit shape and element encoding."""

    shape: tuple
    encoding: str
    data: np.ndarray

    def __post_init__(self):
        self.shape = tuple(int(s) for s in self.shape)
        if any(s <= 0 for s in self.shape):
            raise ShapeError(f"non-positive extent in shape {self.shape}")
        if self.encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {self.encoding!r}")
        want = ENCODINGS[self.encoding]
        if self.data.dtype != want:
            raise TypeError(f"encoding {self.encoding} requires dtype {want}, got {self.data.dtype}")
        if self.data.size != int(np.prod(self.shape)):
            raise ShapeError(f"shape {self.shape} does not match buffer of {self.data.size} elements")
        self.data = np.ascontiguousarray(self.data).reshape(self.shape)

    @classmethod
    def from_array(cls, array, encoding: str = "f32") -> "Tensor":
        arr = np.ascontiguousarray(array, dtype=ENCODINGS[encoding])
        return cls(arr.shape, encoding, arr)

    @property
    def flat(self) -> np.ndarray:
        """Flat row-major view; writes go through to the tensor."""
        return self.data.reshape(-1)

    def copy(self) -> "Tensor":
        return Tensor(self.shape, self.encoding, self.data.copy())

    @property
    def size(self) -> int:
        return self.data.size


@dataclass
class BnParams:
    """Per-channel batch-norm parameter block (gamma, beta, mean, variance)."""

    gamma: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    epsilon: float

    def __post_init__(self):
        lens = {len(self.gamma), len(self.beta), len(self.mu), len(self.sigma)}
        if len(lens) != 1:
            raise ShapeError(f"batch-norm vectors disagree on channel count: {sorted(lens)}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if np.any(self.sigma[np.isfinite(self.sigma)] < 0):
            raise ValueError("variance entries must be >= 0")

    @property
    def channels(self) -> int:
        return len(self.gamma)


def _check_f32(t: Tensor, name: str):
    if t.encoding != "f32":
        raise TypeError(f"{name} must be f32, got {t.encoding}")


def _same_padding(h: int, w: int, kh: int, kw: int, stride: int) -> tuple:
    """(ph, pw, top, left): total and leading zero rows/columns of 'same' padding."""
    oh = -(-h // stride)
    ow = -(-w // stride)
    ph = max((oh - 1) * stride + kh - h, 0)
    pw = max((ow - 1) * stride + kw - w, 0)
    return ph, pw, ph // 2, pw // 2


def _pad_same(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    ph, pw, top, left = _same_padding(x.shape[1], x.shape[2], kh, kw, stride)
    return np.pad(x, ((0, 0), (top, ph - top), (left, pw - left), (0, 0)))


def _accumulate_taps(rows: np.ndarray, k_tap: np.ndarray, acc: np.ndarray,
                     tmp: np.ndarray) -> None:
    """acc += rows[ci] * k_tap[ci][:, None] for ci in order, rounding each product.

    ``rows`` is (Cin, M), ``k_tap`` (Cin, Cout), ``acc`` and ``tmp`` (Cout, M).
    """
    for ci in range(rows.shape[0]):
        np.multiply(rows[ci], k_tap[ci][:, None], out=tmp)
        acc += tmp


def conv2d_forward(inp: Tensor, kernel: Tensor, bias: np.ndarray,
                   stride: int = 1, padding: str = "same") -> Tensor:
    """2D cross-correlation plus bias with fixed (kh, kw, cin) accumulation.

    Bit-reproducible: per output cell the float32 operation sequence is
    identical to the naive quadruple loop, bias added last. The loop runs
    channel-major: for each tap (i, j) the strided input window is copied
    once into a reused (Cin, N*OH*OW) buffer, and each Cin step multiplies
    one contiguous row by the tap's Cout weights and adds the result to a
    (Cout, N*OH*OW) accumulator. That changes where the operands sit in
    memory, not which float32 operations each cell sees or their order.
    """
    _check_f32(inp, "input")
    _check_f32(kernel, "kernel")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    if padding not in ("same", "valid"):
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
    x = inp.data
    k = kernel.data
    kh, kw, cin, cout = k.shape
    if x.shape[3] != cin:
        raise ShapeError(f"input channels {x.shape} do not match kernel Cin {k.shape}")
    bias = np.asarray(bias, dtype=np.float32)
    if bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} does not match Cout of kernel {k.shape}")

    n, h, w, _ = x.shape
    ph, pw, top, left = (_same_padding(h, w, kh, kw, stride) if padding == "same"
                         else (0, 0, 0, 0))
    oh = (h + ph - kh) // stride + 1
    ow = (w + pw - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"kernel {k.shape} larger than padded input "
                         f"{(n, h + ph, w + pw, cin)}")

    m = n * oh * ow
    # The input is padded straight into its channel-major copy (Cin, N, H, W).
    xc = np.zeros((cin, n, h + ph, w + pw), dtype=np.float32)
    xc[:, :, top:top + h, left:left + w] = x.transpose(3, 0, 1, 2)
    acc = np.zeros((cout, m), dtype=np.float32)
    tmp = np.empty((cout, m), dtype=np.float32)
    rows = np.empty((cin, n, oh, ow), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):  # faulted params legally overflow
        for i in range(kh):
            for j in range(kw):
                rows[...] = xc[:, :, i:i + (oh - 1) * stride + 1:stride,
                               j:j + (ow - 1) * stride + 1:stride]
                _accumulate_taps(rows.reshape(cin, m), k[i, j], acc, tmp)
        acc += bias[:, None]
    return Tensor.from_array(acc.reshape(cout, n, oh, ow).transpose(1, 2, 3, 0))


def conv2d_transpose_forward(inp: Tensor, kernel: Tensor, bias: np.ndarray,
                             stride: int = 2) -> Tensor:
    """Transposed convolution restricted to stride == kernel size.

    With that restriction every output pixel receives exactly one kernel tap,
    so the scatter is disjoint and only the Cin sum order (row-major) matters.
    The Cin sum runs channel-major, as in :func:`conv2d_forward`.
    """
    _check_f32(inp, "input")
    _check_f32(kernel, "kernel")
    x = inp.data
    k = kernel.data
    kh, kw, cin, cout = k.shape
    if kh != stride or kw != stride:
        raise ValueError(f"unsupported combination: kernel {kh}x{kw} with stride {stride} "
                         "(only stride == kernel size is supported)")
    if x.shape[3] != cin:
        raise ShapeError(f"input channels {x.shape} do not match kernel Cin {k.shape}")
    bias = np.asarray(bias, dtype=np.float32)
    if bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} does not match Cout of kernel {k.shape}")

    n, h, w, _ = x.shape
    m = n * h * w
    rows = np.ascontiguousarray(x.transpose(3, 0, 1, 2)).reshape(cin, m)
    out = np.empty((n, h * stride, w * stride, cout), dtype=np.float32)
    acc = np.empty((cout, m), dtype=np.float32)
    tmp = np.empty((cout, m), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(kh):
            for j in range(kw):
                acc.fill(0.0)
                _accumulate_taps(rows, k[i, j], acc, tmp)
                out[:, i::stride, j::stride, :] = acc.reshape(cout, n, h, w).transpose(1, 2, 3, 0)
        out += bias
    return Tensor.from_array(out)


def batchnorm_forward(inp: Tensor, params: BnParams) -> Tensor:
    """Per-channel y = gamma*(x-mu)/sqrt(sigma+eps) + beta, float32 throughout."""
    _check_f32(inp, "input")
    x = inp.data
    if x.shape[3] != params.channels:
        raise ShapeError(f"input channels {x.shape} do not match BN channels {params.channels}")
    gamma = np.asarray(params.gamma, dtype=np.float32)
    beta = np.asarray(params.beta, dtype=np.float32)
    mu = np.asarray(params.mu, dtype=np.float32)
    sigma = np.asarray(params.sigma, dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        denom = np.sqrt(sigma + np.float32(params.epsilon))
        y = gamma * (x - mu) / denom + beta
    return Tensor.from_array(y)


def relu(inp: Tensor) -> Tensor:
    """max(0, x); NaN stays NaN, -inf becomes 0."""
    _check_f32(inp, "input")
    return Tensor.from_array(np.maximum(inp.data, np.float32(0.0)))


def maxpool2d(inp: Tensor, window: int = 2, stride: int = 2) -> Tensor:
    """2x2/2 windowed max; NaN in a window poisons its output."""
    _check_f32(inp, "input")
    if window != 2 or stride != 2:
        raise ValueError("only 2x2 window with stride 2 is supported")
    n, h, w, c = inp.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d requires even H,W, got {(h, w)}")
    blocks = inp.data.reshape(n, h // 2, 2, w // 2, 2, c)
    return Tensor.from_array(blocks.max(axis=(2, 4)))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Channel-axis concatenation, a's channels first."""
    if a.encoding != b.encoding:
        raise ShapeError(f"encoding mismatch: {a.encoding} vs {b.encoding}")
    if a.data.shape[:3] != b.data.shape[:3]:
        raise ShapeError(f"N,H,W mismatch: {a.data.shape} vs {b.data.shape}")
    return Tensor(a.data.shape[:3] + (a.data.shape[3] + b.data.shape[3],), a.encoding,
                  np.concatenate([a.data, b.data], axis=3))


def argmax_channels(logits: Tensor) -> np.ndarray:
    """Per-pixel class map: lowest channel index attaining the max.

    Any NaN among a pixel's logits yields INVALID_CLASS for that pixel.
    """
    _check_f32(logits, "logits")
    x = logits.data
    classes = np.argmax(x, axis=3).astype(np.int32)
    invalid = np.isnan(x).any(axis=3)
    classes[invalid] = INVALID_CLASS
    return classes
