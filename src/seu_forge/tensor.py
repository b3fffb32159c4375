"""Dense tensor container and the deterministic forward kernels.

All float kernels fix their accumulation order (row-major over Kh, Kw, Cin,
bias added last) so that two runs — or a run and the naive quadruple-loop
oracle — produce identical bit patterns. This is what makes fault-injection
error rates exactly reproducible.

Activation tensors are indexed N,H,W,C; convolution kernels Kh,Kw,Cin,Cout.
In memory, activations are channel-major in both numeric modes: every float
op returns an NHWC view of (C, N, H, W) memory, as the integer path in
``engine`` does. Conv, transposed conv, batch-norm and concat each write one
new channel-major buffer, and ReLU and max-pool keep their input's layout,
so no layer copies data between layouts and batch-norm's per-channel ops run
over long contiguous rows. A :class:`Tensor` is its array, in the layout
given: its shape and encoding are the array's shape and dtype.
Parameters are C-contiguous.

Every convolution of both numeric modes runs through one core,
``_conv_grid``, with no im2col matrix and no copied tap windows. It stages
the call's kept input channels, less the zero point (0 in float), once as
channel-major float32 rows (``_channel_major``) in which neighbouring images
and rows share their zero padding: an image spans Hs = H + max(top, bottom)
rows of Ws = W + max(left, right) cells, and (kh-1)*Ws + kw-1 zeros end the
rows. Each kernel tap then reads one offset view of the rows. The core runs
the output grid's columns in blocks, each set by its mode's fill
(``_float_fill``, ``engine._requantized_fill``), and returns the valid
cells as a compact channel-major array. A cell's operations do not depend
on its block, so the blocks change no bit. No model the CLI or perfbench
builds has a convolution of stride > 1; for one, the core computes every
cell and subsamples.

The float fill starts each cell at +0.0 and adds its products in (kh, kw,
cin) order, each rounded to float32, then the bias: the naive loop's
operations in its order. Two choices keep it at cache speed and change no
bit. A block holds at most ``_BLOCK_CELLS`` float32 cells, so it and its
product buffer (1 MiB together) stay in a 2 MiB L2 cache. And its
multiplies run at a ufunc buffer size of ``_BUFSIZE``: numpy buffers a call
with an operand broadcast along the inner axis, such as a tap's Cout
weights against a row, whenever the rows are shorter than a third of the
buffer size (8192 by default), and that buffered path made 2560-element
rows about four times slower.

A transposed conv whose kernel equals its stride s, the only kind run, is
one 1x1 conv with s*s times the output channels, one per tap and output
channel (``_stacked_taps``), followed by a periodic shuffle, depth-to-space
(``_depth_to_space``); see Shi et al., "Is the deconvolution layer the
same as a convolutional layer?" (2016). Each output cell receives one tap,
so it still sees +0.0, its Cin products in order, then its bias. The
integer path in ``engine`` runs its transposed convs the same way.

Liveness comes from each call's whole input (``_live_channels``), so a
fault that revives or kills a channel is seen. A channel at the zero point
in every cell is dropped unless a weight reading it is Inf or NaN (0 * Inf
and 0 * NaN are NaN). In int8 it adds exactly 0 to every sum. In float it
is +-0 everywhere, and a finite weight times +-0 is +-0; the accumulator
starts at +0.0, and a round-to-nearest sum is -0 only when both addends
are -0, so it is never -0, and adding +-0 to it leaves every bit alone,
Inf and NaN included.

Both numeric modes share one 2x2/2 max-pool, ``_max2x2``: the pairwise
maxima of each window's four cells over strided views, so it keeps its
input's memory layout, and a NaN in a window is its output.

"Bit for bit" holds up to NaN payloads. Where two different NaNs meet in
one output cell (say a NaN weight and an Inf - Inf cancellation), numpy's
vector add keeps the first operand's payload and its scalar code, which the
oracles in tests/oracles.py use, the second's. No report reads a payload:
a NaN logit makes its pixel INVALID_CLASS whatever the payload.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

ENCODINGS = {"f32": np.float32, "i8": np.int8, "i32": np.int32}

# Class index reported where a pixel's logits contain NaN. Counted as a
# mismatch against any golden class, including another INVALID.
INVALID_CLASS = -1


class ShapeError(ValueError):
    """Shape/encoding mismatch between operands; message names both."""


_ENCODING_OF = {np.dtype(dtype): name for name, dtype in ENCODINGS.items()}


@dataclass
class Tensor:
    """An array, in any memory layout; its shape and element encoding are the array's."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.dtype not in _ENCODING_OF:
            raise TypeError(f"no encoding holds dtype {self.data.dtype}; the encodings are "
                            + ", ".join(f"{e} ({np.dtype(t)})" for e, t in ENCODINGS.items()))
        if 0 in self.data.shape:
            raise ShapeError(f"zero extent in shape {self.data.shape}")

    @classmethod
    def from_array(cls, array, encoding: str = "f32") -> "Tensor":
        if encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {encoding!r}; the encodings are "
                             + ", ".join(ENCODINGS))
        return cls(np.ascontiguousarray(array, dtype=ENCODINGS[encoding]))

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def encoding(self) -> str:
        return _ENCODING_OF[self.data.dtype]

    @property
    def flat(self) -> np.ndarray:
        """Flat row-major view; writes go through to the tensor.

        Refused for a buffer that is not C-contiguous, such as a channel-major
        activation, where no such view exists and a write would be lost."""
        if not self.data.flags.c_contiguous:
            raise ValueError(f"tensor of shape {self.shape} is not C-contiguous; "
                             "it has no flat view")
        return self.data.reshape(-1)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

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

    @property
    def channels(self) -> int:
        return len(self.gamma)


def _check_f32(t: Tensor, name: str):
    if t.encoding != "f32":
        raise TypeError(f"{name} must be f32, got {t.encoding}")


def _conv_extent(x_shape: tuple, k_shape: tuple, stride: int, padding: str) -> tuple:
    """(ph, pw, top, left, oh, ow) of a conv of NHWC ``x_shape`` by ``k_shape``: total and
    leading zero rows/columns of its padding, and its output extent. Refuses a kernel
    larger than its padded input."""
    n, h, w, cin = x_shape
    kh, kw = k_shape[:2]
    same = padding == "same"
    ph = max((-(-h // stride) - 1) * stride + kh - h, 0) if same else 0
    pw = max((-(-w // stride) - 1) * stride + kw - w, 0) if same else 0
    oh = (h + ph - kh) // stride + 1
    ow = (w + pw - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"kernel {tuple(k_shape)} larger than padded input "
                         f"{(n, h + ph, w + pw, cin)}")
    return ph, pw, ph // 2, pw // 2, oh, ow


def _check_transpose_stride(kh: int, kw: int, stride: int):
    """Refuse a transposed conv whose kernel is not stride x stride, the only kind run."""
    if kh != stride or kw != stride:
        raise ValueError(f"unsupported combination: kernel {kh}x{kw} with stride {stride} "
                         "(only stride == kernel size is supported)")


def _live_channels(x: np.ndarray, zero=0) -> np.ndarray:
    """Per channel (last axis) of NHWC ``x``, whether some cell differs from ``zero``.

    Two reductions over each channel's row: a NaN max or min differs from
    ``zero``, and so does any nonzero value, while -0.0 equals 0. The rows are
    a view of channel-major memory. A row-major ``x`` is copied into
    contiguous rows first: numpy reduces rows of strided elements more than
    ten times slower than it makes that copy.
    """
    rows = x.transpose(3, 0, 1, 2).reshape(x.shape[3], -1)
    if rows.strides[1] != rows.itemsize:
        rows = np.ascontiguousarray(rows)
    return (rows.max(axis=1) != zero) | (rows.min(axis=1) != zero)


def _channel_major(x: np.ndarray, channels, top: int, left: int, hs: int, ws: int,
                   tail: int, zero=0) -> np.ndarray:
    """Channels ``channels`` of NHWC ``x`` minus ``zero``, in their order, staged as
    the rows of a (len(channels), N*hs*ws + tail) float32 array of +0.0: cell
    (y, x) of image n at column n*hs*ws + (top + y)*ws + left + x. The zeros
    after one row or image pad it and the next alike. The convolution core
    stages its input here; at ``zero`` 0 a float ``x - 0.0`` keeps every bit,
    -0.0 included."""
    n, h, w, _ = x.shape
    rows = np.zeros((len(channels), n * hs * ws + tail), dtype=np.float32)
    cells = rows[:, :n * hs * ws].reshape(len(channels), n, hs, ws)
    xt = x.transpose(3, 0, 1, 2)
    for row, ch in enumerate(channels):
        np.subtract(xt[ch], np.float32(zero), out=cells[row, :, top:top + h, left:left + w],
                    dtype=np.float32)
    return rows


def _conv_grid(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, stride: int,
               padding: str, fill, block_cells: int, dtype, zero=0) -> np.ndarray:
    """The conv of NHWC ``x - zero`` by ``kernel`` plus ``bias``, in ``dtype``, as an
    NHWC view of a compact channel-major (Cout, N, OH, OW) array; every
    convolution of both numeric modes runs through it (see the module docstring).

    Grid column c = n*Hs*Ws + y*Ws + x is the cell at (y, x) of image n, and
    tap (i, j) reads it from staged column c + i*Ws + j. The columns run in
    blocks of at most ``block_cells`` // Cout: ``fill(out, rows, taps, bias,
    start, ws)`` sets ``out``, the (Cout, cols) block from column ``start``,
    from the staged ``rows`` and the kept channels' float32 ``taps`` (Kh, Kw,
    Cin, Cout).
    """
    kh, kw, _, cout = kernel.shape
    n, h, w, _ = x.shape
    ph, pw, top, left, oh, ow = _conv_extent(x.shape, kernel.shape, stride, padding)
    hs, ws = h + max(top, ph - top), w + max(left, pw - left)
    # 0 * Inf and 0 * NaN are NaN: a channel read by such a weight always runs
    kept = np.flatnonzero(_live_channels(x, zero) | ~np.isfinite(kernel).all(axis=(0, 1, 3)))
    # staged at numpy's default buffer size: at _BUFSIZE the scalar subtract
    # ran about four times slower
    rows = _channel_major(x, kept, top, left, hs, ws, (kh - 1) * ws + kw - 1, zero)
    taps = np.asarray(kernel[:, :, kept], dtype=np.float32)
    grid = np.empty((cout, n, hs, ws), dtype=dtype)
    columns = grid.reshape(cout, -1)
    width = max(block_cells // cout, 1)
    for start in range(0, columns.shape[1], width):
        fill(columns[:, start:start + width], rows, taps, bias, start, ws)
    cells = grid[:, :, :(oh - 1) * stride + 1:stride, :(ow - 1) * stride + 1:stride]
    return np.ascontiguousarray(cells).transpose(1, 2, 3, 0)


# A column block's (Cout, cols) float32 accumulator holds at most this many
# cells, so that it and its product buffer (1 MiB together) stay in a 2 MiB
# L2 cache.
_BLOCK_CELLS = 1 << 17
# ufunc buffer size inside the convolutions; numpy 1.x needs a multiple of 16.
_BUFSIZE = 64


@contextmanager
def _kernel_scope():
    """Faulted parameters may overflow; broadcast multiplies run unbuffered.

    numpy >= 2 restores the buffer size when ``errstate`` exits, numpy 1.x
    does not, hence the ``finally``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        old = np.setbufsize(_BUFSIZE)
        try:
            yield
        finally:
            np.setbufsize(old)


def _accumulate_taps(rows: np.ndarray, k_tap: np.ndarray, acc: np.ndarray,
                     tmp: np.ndarray) -> None:
    """acc += rows[ci] * k_tap[ci][:, None] for ci in order, rounding each product.

    ``rows`` is (Cin, M), ``k_tap`` (Cin, Cout), ``acc`` and ``tmp`` (Cout, M).
    """
    for ci in range(rows.shape[0]):
        np.multiply(rows[ci], k_tap[ci][:, None], out=tmp)
        acc += tmp


def _float_fill(out: np.ndarray, rows: np.ndarray, taps: np.ndarray, bias: np.ndarray,
                start: int, ws: int) -> None:
    """The float fill of :func:`_conv_grid`: each cell of ``out`` starts at +0.0,
    gains its products in (i, j, cin) order, each rounded to float32, then
    ``bias``; the multiplies run unbuffered over offset views of ``rows``."""
    cols = out.shape[1]
    tmp = np.empty(out.shape, dtype=np.float32)
    out.fill(0.0)
    with _kernel_scope():
        for i, j in np.ndindex(*taps.shape[:2]):
            c = start + i * ws + j
            _accumulate_taps(rows[:, c:c + cols], taps[i, j], out, tmp)
        out += bias[:, None]


def _checked_operands(inp: Tensor, kernel: Tensor, bias) -> tuple:
    """The input and kernel arrays and the float32 bias of a float convolution, checked."""
    _check_f32(inp, "input")
    _check_f32(kernel, "kernel")
    x = inp.data
    k = kernel.data
    if x.shape[3] != k.shape[2]:
        raise ShapeError(f"input channels {x.shape} do not match kernel Cin {k.shape}")
    bias = np.asarray(bias, dtype=np.float32)
    if bias.shape != (k.shape[3],):
        raise ShapeError(f"bias shape {bias.shape} does not match Cout of kernel {k.shape}")
    return x, k, bias


def conv2d_forward(inp: Tensor, kernel: Tensor, bias: np.ndarray,
                   stride: int = 1, padding: str = "same") -> Tensor:
    """2D cross-correlation plus bias with fixed (kh, kw, cin) accumulation,
    bit for bit the naive quadruple loop's (see :func:`_conv_grid`)."""
    x, k, bias = _checked_operands(inp, kernel, bias)
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    if padding not in ("same", "valid"):
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
    return Tensor(_conv_grid(x, k, bias, stride, padding, _float_fill, _BLOCK_CELLS, np.float32))


def _stacked_taps(kernel: np.ndarray, bias: np.ndarray, stride: int) -> tuple:
    """The 1x1 conv that computes a transposed conv's taps (kernel size == stride).

    Kernel (s, s, Cin, Cout) becomes (1, 1, Cin, s*s*Cout), its output
    channels in (i, j, cout) order, and the bias is tiled s*s times; see
    :func:`_depth_to_space`. Refuses any other kernel size.
    """
    kh, kw, cin, _ = kernel.shape
    _check_transpose_stride(kh, kw, stride)
    return kernel.transpose(2, 0, 1, 3).reshape(1, 1, cin, -1), np.tile(bias, kh * kw)


def _depth_to_space(cells: np.ndarray, stride: int) -> np.ndarray:
    """The NHWC cells of a conv by :func:`_stacked_taps`'s kernel moved into a new
    channel-major (Cout, N, H*s, W*s) grid, one copy per tap; its NHWC view.
    Channel (i, j, co) of cell (y, x) goes to cell (s*y + i, s*x + j), channel co."""
    n, h, w, c = cells.shape
    grid = np.empty((c // stride ** 2, n, h * stride, w * stride), dtype=cells.dtype)
    out = grid.transpose(1, 2, 3, 0)
    for tap, part in enumerate(np.split(cells, stride * stride, axis=3)):
        out[:, tap // stride::stride, tap % stride::stride] = part
    return out


def conv2d_transpose_forward(inp: Tensor, kernel: Tensor, bias: np.ndarray,
                             stride: int = 2) -> Tensor:
    """Transposed convolution restricted to stride == kernel size: the core's
    1x1 conv of its stacked taps, copied depth-to-space into a channel-major
    output (see the module docstring)."""
    x, k, bias = _checked_operands(inp, kernel, bias)
    k, bias = _stacked_taps(k, bias, stride)
    cells = _conv_grid(x, k, bias, 1, "valid", _float_fill, _BLOCK_CELLS, np.float32)
    return Tensor(_depth_to_space(cells, stride))


def batchnorm_forward(inp: Tensor, params: BnParams) -> Tensor:
    """Per-channel y = gamma*(x-mu)/sqrt(sigma+eps) + beta, float32 throughout.

    The four ops run in that order, each over the contiguous rows of a new
    channel-major buffer, one row per channel. A channel whose sigma + eps is
    negative (a flipped variance) is NaN, as in a deployed rsqrt."""
    _check_f32(inp, "input")
    x = inp.data
    if x.shape[3] != params.channels:
        raise ShapeError(f"input channels {x.shape} do not match BN channels {params.channels}")
    gamma = np.asarray(params.gamma, dtype=np.float32)
    beta = np.asarray(params.beta, dtype=np.float32)
    mu = np.asarray(params.mu, dtype=np.float32)
    sigma = np.asarray(params.sigma, dtype=np.float32)
    grid = np.empty((x.shape[3],) + x.shape[:3], dtype=np.float32)
    rows = grid.reshape(x.shape[3], -1)
    with np.errstate(over="ignore", invalid="ignore"):
        denom = np.sqrt(sigma + np.float32(params.epsilon))
        np.subtract(x.transpose(3, 0, 1, 2), mu[:, None, None, None], out=grid)
        np.multiply(gamma[:, None], rows, out=rows)
        np.divide(rows, denom[:, None], out=rows)
        np.add(rows, beta[:, None], out=rows)
    return Tensor(grid.transpose(1, 2, 3, 0))


def relu(inp: Tensor) -> Tensor:
    """max(0, x) in the input's memory layout; NaN stays NaN, -inf becomes 0."""
    _check_f32(inp, "input")
    return Tensor(np.maximum(inp.data, np.float32(0.0)))


def _max2x2(x: np.ndarray) -> np.ndarray:
    """2x2/2 window maxima of NHWC float32 or int8 ``x``, in ``x``'s memory layout."""
    n, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool requires even H,W, got {(h, w)}")
    return np.maximum(np.maximum(x[:, ::2, ::2], x[:, ::2, 1::2]),
                      np.maximum(x[:, 1::2, ::2], x[:, 1::2, 1::2]))


def maxpool2d(inp: Tensor) -> Tensor:
    """2x2/2 windowed max, the only maxpool a model holds; NaN in a window poisons its output."""
    _check_f32(inp, "input")
    return Tensor(_max2x2(inp.data))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Channel-axis concatenation, a's channels first, into one channel-major buffer."""
    if a.encoding != b.encoding:
        raise ShapeError(f"encoding mismatch: {a.encoding} vs {b.encoding}")
    if a.data.shape[:3] != b.data.shape[:3]:
        raise ShapeError(f"N,H,W mismatch: {a.data.shape} vs {b.data.shape}")
    ca = a.data.shape[3]
    grid = np.empty((ca + b.data.shape[3],) + a.data.shape[:3], dtype=a.data.dtype)
    grid[:ca] = a.data.transpose(3, 0, 1, 2)
    grid[ca:] = b.data.transpose(3, 0, 1, 2)
    return Tensor(grid.transpose(1, 2, 3, 0))


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
