"""A small convolutional classifier with hand-derived gradients.

Everything is plain numpy: convolution (stride 1, zero padding), ReLU,
max pooling, global average pooling, and dense layers, plus softmax
cross-entropy against soft targets and an Adam optimizer. forward
returns the logits and fills a list it is given with what backward
reads; a max pool's slot holds the row-major position of each window's
first maximum and the pool's input shape. Inference passes no list,
keeps nothing and records no pool positions. infer and gradients
run a whole batch through them in chunks of at most CHUNK_CELLS input
cells, so a pass's memory is bounded whatever the sample count. A model
holds only its parameters, so any number of passes can run on it at once.

Layouts: the input batch is [B, C, H, W]; every activation, cache entry
and returned spatial gradient is channels-last, [B, H, W, C], so the
im2col gather copies contiguous runs and a conv's matmul yields its
output. Conv weights stay [out, in, k, k], as checkpoints store them.

Use float64 models when checking gradients numerically and float32 for
actual training runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SonarprepError
from .files import atomic_open


# ---------------------------------------------------------------------------
# architecture descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conv:
    out_channels: int
    kernel: int = 3

    @property
    def pad(self) -> int:
        """Zero padding: kernel // 2 for odd kernels, which keeps the size; else 0."""
        return self.kernel // 2 if self.kernel % 2 else 0


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class MaxPool:
    size: int = 2


@dataclass(frozen=True)
class GlobalAvgPool:
    pass


@dataclass(frozen=True)
class Dense:
    out_features: int | None = None  # None: the class count


@dataclass(frozen=True)
class Architecture:
    """Layer stack plus the expected input layout."""

    layers: tuple
    in_channels: int = 1


#: Compact default: two conv blocks, global pooling, linear head.
DEFAULT_ARCHITECTURE = Architecture((
    Conv(16, 3), Relu(), MaxPool(2),
    Conv(32, 3), Relu(),
    GlobalAvgPool(), Dense(),
))


@dataclass
class ModelState:
    arch: Architecture
    n_classes: int
    params: dict[str, np.ndarray]
    dtype: np.dtype


def _param_name(index: int, layer) -> str:
    kind = "conv" if isinstance(layer, Conv) else "dense"
    return f"{kind}{index}"


def init_model(arch: Architecture, n_classes: int, seed: int,
               dtype=np.float32) -> ModelState:
    """Xavier-uniform weights and zero biases for each Conv and Dense, in layer order."""
    if n_classes < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    channels = arch.in_channels
    for i, layer in enumerate(arch.layers):
        if isinstance(layer, Conv):
            out, k = layer.out_channels, layer.kernel
            shape = (out, channels, k, k)
        elif isinstance(layer, Dense):
            out, k = (n_classes if layer.out_features is None else layer.out_features), 1
            shape = (channels, out)
        else:
            continue
        limit = np.sqrt(6.0 / ((channels + out) * k ** 2))  # fan_in + fan_out
        name = _param_name(i, layer)
        params[f"{name}.weight"] = rng.uniform(-limit, limit, shape).astype(dtype)
        params[f"{name}.bias"] = np.zeros(out, dtype=dtype)
        channels = out
    return ModelState(arch=arch, n_classes=n_classes, params=params,
                      dtype=np.dtype(dtype))


def aggregate_input_channels(weights: np.ndarray) -> np.ndarray:
    """Collapse 3-channel first-layer kernels to 1 channel by summing."""
    w = np.asarray(weights)
    if w.ndim != 4 or w.shape[1] != 3:
        raise SonarprepError(
            f"expected kernels shaped [out, 3, k, k], got {w.shape}"
        )
    return w.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# layer math
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    """The im2col matrix of ``x`` [B, H, W, C] for a ``k`` x ``k`` kernel,
    [B, H', W', k*k*C], each row in ``(k, k, C)`` order. The zero-padded
    copy and its window view die on return.

    A one-channel input, whose window view would copy one element per run,
    is copied a kernel tap at a time into a tap-major ``[k*k, B, H', W']``
    array and returned as its transposed view: its flat matrix is then a
    view that BLAS reads transposed."""
    batch, height, width, in_ch = x.shape
    out_h = height + 2 * pad - k + 1
    out_w = width + 2 * pad - k + 1
    if out_h < 1 or out_w < 1:
        raise SonarprepError(f"input {height}x{width} smaller than kernel {k}")
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    if in_ch == 1:
        taps = np.empty((k * k, batch, out_h, out_w), dtype=x.dtype)
        for t in range(k * k):
            di, dj = divmod(t, k)
            taps[t] = xp[:, di:di + out_h, dj:dj + out_w, 0]
        return taps.transpose(1, 2, 3, 0)
    windows = sliding_window_view(xp, (k, k), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(batch, out_h, out_w,
                                                       k * k * in_ch)


def _channel_sum(x: np.ndarray, axes: tuple) -> np.ndarray:
    """``x.sum(axis=axes)`` for a channels-last ``x``, summed in the same
    order. Over several channels einsum runs one long loop per summed
    element, where ``sum`` runs a C-element loop; over one channel einsum
    would sum in another order, so ``sum`` runs there."""
    if x.shape[-1] == 1:
        return x.sum(axis=axes)
    letters = "abcdefgh"[:x.ndim]
    kept = "".join(c for i, c in enumerate(letters) if i not in axes)
    return np.einsum(f"{letters}->{kept}", x)


def _conv_forward(cols: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Channels-last convolution from its im2col matrix ``cols`` [B, H', W',
    k*k*C]. Returns that matrix as ``[B*H'*W', k*k*C]`` and the output [B,
    H', W', out]."""
    out_ch, in_ch, k, _ = w.shape
    flat = cols.reshape(-1, k * k * in_ch)
    y = flat @ w.transpose(2, 3, 1, 0).reshape(k * k * in_ch, out_ch)
    y += b
    return flat, y.reshape(cols.shape[:3] + (out_ch,))


def _conv_backward(dy: np.ndarray, cols: np.ndarray, w: np.ndarray, pad: int,
                   input_grad: bool):
    """Weight, bias and input gradients from the forward pass's im2col
    matrix; the input gradient is None unless ``input_grad`` asks for it."""
    out_ch, in_ch, k, _ = w.shape
    batch, out_h, out_w, _ = dy.shape
    dy_flat = dy.reshape(-1, out_ch)
    dw = (cols.T @ dy_flat).reshape(k, k, in_ch, out_ch).transpose(3, 2, 0, 1)
    db = _channel_sum(dy_flat, (0,))
    if not input_grad:
        return dw, db, None
    # col2im one kernel tap at a time: the im2col gradient's column block
    # (di, dj), a contiguous [N, C] product, adds onto the padded input
    # shifted by (di, dj)
    dxp = np.zeros((batch, out_h + k - 1, out_w + k - 1, in_ch), dtype=dy.dtype)
    for di in range(k):
        for dj in range(k):
            block = dy_flat @ w[:, :, di, dj]
            dxp[:, di:di + out_h, dj:dj + out_w] += block.reshape(batch, out_h, out_w, in_ch)
    return dw, db, dxp[:, pad:dxp.shape[1] - pad, pad:dxp.shape[2] - pad]


def _maxpool_forward(x: np.ndarray, size: int, positions: bool = True):
    """Max over each window of ``x`` [B, H, W, C], cropping the remainder.

    Returns the maxima and, if ``positions`` asks for them, ``(idx,
    x.shape)`` with ``idx`` the row-major position ``di * size + dj`` of
    the first maximum in each window; else None. A column pass takes each
    window row's maximum and its first column, then a row pass over those
    row maxima takes the first row that holds the window's maximum: the
    earliest row, then the earliest column in it.
    """
    batch, height, width, channels = x.shape
    out_h, out_w = height // size, width // size
    if out_h == 0 or out_w == 0:
        raise SonarprepError(f"input {height}x{width} too small for pool {size}")
    rows, cols = out_h * size, out_w * size
    # Comparisons are strict, so ties keep the earlier position. Each later
    # candidate position exceeds every earlier one, so a running maximum of
    # (v > best) * candidate records the first maximum without a masked write.
    position = np.min_scalar_type(size * size - 1).type
    # column pass, on [B, rows, out_w, C] views that step over columns
    row_max = x[:, :rows, 0:cols:size].copy()
    col_idx = np.zeros(row_max.shape, dtype=position) if positions else None
    for dj in range(1, size):
        v = x[:, :rows, dj:cols:size]
        if positions:
            np.maximum(col_idx, (v > row_max) * position(dj), out=col_idx)
        np.maximum(row_max, v, out=row_max)
    # row pass, on contiguous [B, out_h, out_w * C] runs
    row_max = row_max.reshape(batch, out_h, size, out_w * channels)
    y = row_max[:, :, 0].copy()
    if positions:
        col_idx = col_idx.reshape(row_max.shape)
        idx = col_idx[:, :, 0].copy()
    for di in range(1, size):
        v = row_max[:, :, di]
        if positions:
            candidate = col_idx[:, :, di] + position(di * size)
            np.maximum(idx, (v > y) * candidate, out=idx)
        np.maximum(y, v, out=y)
    shape = (batch, out_h, out_w, channels)
    return y.reshape(shape), ((idx.reshape(shape), x.shape) if positions else None)


def _maxpool_backward(dy: np.ndarray, cache, size: int):
    """Scatter ``dy`` onto the saved position of each window's maximum."""
    idx, x_shape = cache
    batch, out_h, out_w, channels = dy.shape
    height, width = x_shape[1:3]
    # flat index into dx, in np.intp (the positions' small dtype would
    # overflow): the saved position's offset in its window, plus the
    # window's top row, plus its column and channel
    row_len = width * channels
    window = np.arange(size, dtype=np.intp)
    offsets = (window[:, None] * row_len + window * channels).ravel()
    b, i = np.divmod(np.arange(batch * out_h, dtype=np.intp), out_h)
    top = (b * height + i * size) * row_len
    left = (np.arange(out_w, dtype=np.intp)[:, None] * (size * channels)
            + np.arange(channels, dtype=np.intp)).ravel()
    flat = np.take(offsets, idx.reshape(batch * out_h, out_w * channels))
    flat += top[:, None]
    flat += left
    dx = np.zeros(x_shape, dtype=dy.dtype)
    dx.reshape(-1)[flat.reshape(-1)] = dy.reshape(-1)
    return dx


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def forward(model: ModelState, batch: np.ndarray,
            cache: list | None = None, keep_from: int = 0) -> np.ndarray:
    """Run the network and return the logits.

    ``batch`` is laid out [B, C, H, W]; inside the network every
    activation is channels-last, [B, H, W, C]. A caller that will call
    :func:`backward` passes an empty ``cache`` list, and ``cache[i]``
    receives what layer ``i`` saved: a convolution its im2col matrix and
    its output, a ReLU its input, a max pool ``(idx, input shape)`` with
    ``idx`` the row-major position of each window's first maximum, global
    pooling its input shape, a dense layer its input. Layers below
    ``keep_from`` save None, as a backward pass that stops above them
    reads nothing of theirs, except that layer ``keep_from - 1`` saves its
    output: the activation whose gradient that pass returns. Without a
    list nothing is kept, and max pooling records no positions.
    """
    x = np.asarray(batch).astype(model.dtype, copy=False)
    if x.ndim != 4 or x.shape[1] != model.arch.in_channels:
        raise SonarprepError(
            f"expected [batch, {model.arch.in_channels}, H, W], got {x.shape}"
        )
    x = x.transpose(0, 2, 3, 1)
    for i, layer in enumerate(model.arch.layers):
        keep = cache is not None and i >= keep_from
        if isinstance(layer, Conv):
            name = _param_name(i, layer)
            # x now names the im2col matrix, so the product runs without
            # the layer's input
            x = _im2col(x, layer.kernel, layer.pad)
            saved = _conv_forward(x, model.params[f"{name}.weight"],
                                  model.params[f"{name}.bias"])
            x = saved[1]
        elif isinstance(layer, Relu):
            saved, x = x, np.maximum(x, 0)
        elif isinstance(layer, MaxPool):
            x, saved = _maxpool_forward(x, layer.size, positions=keep)
        elif isinstance(layer, GlobalAvgPool):
            saved, x = x.shape, _channel_sum(x, (1, 2)) / (x.shape[1] * x.shape[2])
        elif isinstance(layer, Dense):
            saved = x
            name = _param_name(i, layer)
            x = x @ model.params[f"{name}.weight"] + model.params[f"{name}.bias"]
        if cache is not None:
            cache.append(saved if keep else (x if i == keep_from - 1 else None))
        del saved  # else it outlives the next layer
    return x


def backward(model: ModelState, cache: list, grad_logits: np.ndarray,
             stop: int = 0) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Backpropagate logit gradients through ``layers[stop:]``.

    ``cache`` is the list :func:`forward` filled for those logits. Returns
    the gradients of the parameters of ``layers[stop:]`` and the gradient
    at the output of ``layers[stop - 1]``. For ``stop == 0`` that output is
    the network input, whose gradient nobody reads: it is not computed
    and None is returned in its place. Spatial gradients are
    channels-last, [B, H, W, C], like the activations in ``cache``.
    """
    g = np.asarray(grad_logits).astype(model.dtype, copy=False)
    grads: dict[str, np.ndarray] = {}
    for i in range(len(model.arch.layers) - 1, stop - 1, -1):
        layer = model.arch.layers[i]
        saved = cache[i]
        if isinstance(layer, Conv):
            name = _param_name(i, layer)
            dw, db, g = _conv_backward(g, saved[0], model.params[f"{name}.weight"],
                                       layer.pad, input_grad=i > 0)
            grads[f"{name}.weight"] = dw
            grads[f"{name}.bias"] = db
        elif isinstance(layer, Relu):
            g = g * (saved > 0)
        elif isinstance(layer, MaxPool):
            g = _maxpool_backward(g, saved, layer.size)
        elif isinstance(layer, GlobalAvgPool):
            x_shape = saved
            area = x_shape[1] * x_shape[2]
            # a read-only view: each consumer makes a new array from it
            g = np.broadcast_to(g[:, None, None, :] / area, x_shape)
        elif isinstance(layer, Dense):
            name = _param_name(i, layer)
            grads[f"{name}.weight"] = saved.T @ g
            grads[f"{name}.bias"] = g.sum(axis=0)
            g = g @ model.params[f"{name}.weight"].T
    return grads, (g if stop else None)


def cross_entropy_soft(logits: np.ndarray, targets: np.ndarray):
    """Mean softmax cross-entropy against soft targets.

    Returns (loss, grad_logits) with grad = (softmax - targets) / batch.
    """
    z = np.asarray(logits)
    y = np.asarray(targets)
    if z.shape != y.shape or z.ndim != 2:
        raise SonarprepError(f"logits {z.shape} vs targets {y.shape}")
    row_sums = y.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise SonarprepError("target rows must sum to 1")
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    batch = z.shape[0]
    loss = float(-(y * log_probs).sum() / batch)
    grad = (np.exp(log_probs) - y) / batch
    return loss, grad


#: Input cells (frames x mels) one pass handles: a pass over features
#: [N, H, W] runs in chunks of max(1, CHUNK_CELLS // (H * W)) samples, so its
#: peak memory does not grow with N. Cells, not samples, because the im2col
#: matrices grow with H * W.
CHUNK_CELLS = 1 << 17


def _chunks(features: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` of each chunk of a pass over ``features`` [N, H, W]."""
    n, height, width = features.shape
    step = max(1, CHUNK_CELLS // (height * width))
    return [(start, min(start + step, n)) for start in range(0, n, step)]


def infer(model: ModelState, features: np.ndarray) -> np.ndarray:
    """Logits [N, classes] of ``features`` [N, H, W]; keeps no cache."""
    logits = np.empty((features.shape[0], model.n_classes), dtype=model.dtype)
    for start, stop in _chunks(features):
        logits[start:stop] = forward(model, features[start:stop, None])
    return logits


def gradients(model: ModelState, inputs: np.ndarray, targets: np.ndarray):
    """Mean soft-target cross-entropy of ``inputs`` [N, H, W] and its
    parameter gradients, as (loss, grads).

    Each chunk's loss gradient is scaled by its share of the batch and the
    chunks' parameter gradients are summed in order; a batch that fits in
    one chunk is computed exactly as one unchunked pass.
    """
    loss, grads = 0.0, {}
    for start, stop in _chunks(inputs):
        share = (stop - start) / inputs.shape[0]
        cache: list = []
        logits = forward(model, inputs[start:stop, None], cache)
        chunk_loss, grad_logits = cross_entropy_soft(logits, targets[start:stop])
        grad_logits *= share
        chunk_grads, _ = backward(model, cache, grad_logits)
        loss += chunk_loss * share
        grads = {k: grads[k] + g for k, g in chunk_grads.items()} if grads else chunk_grads
    return loss, grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

#: Adam's moment decay rates and the guard added to its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    lr: float
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()}, lr=lr)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState):
    """One bias-corrected Adam update of ``params`` and ``state``, in place;
    returns nothing."""
    state.t += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.t
    bias2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        if name not in grads:
            raise SonarprepError(f"no gradient for parameter {name!r}")
        g = np.asarray(grads[name]).astype(p.dtype, copy=False)
        if g.shape != p.shape:
            raise SonarprepError(
                f"gradient for {name!r} has shape {g.shape}, expected {p.shape}"
            )
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p -= state.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# class activation maps
# ---------------------------------------------------------------------------

def cam_from_activations(activations: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Gradient-weighted activation map, min-max scaled into [0, 1].

    Channel weights are the spatial means of the gradients; the weighted
    sum is rectified, then min-max normalized. An all-zero map stays
    all-zero; a flat positive map becomes all ones.
    """
    alpha = grads.mean(axis=(1, 2))
    cam = np.maximum(np.tensordot(alpha, activations, axes=1), 0.0)
    high, low = cam.max(), cam.min()
    if high <= 0:
        return np.zeros_like(cam)
    if high == low:
        return np.ones_like(cam)
    return (cam - low) / (high - low)


def grad_cam(model: ModelState, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Class activation map for one input against its own predicted class.

    ``x`` is [1, C, H, W]. Backpropagates only down to the output of the
    last convolution, whose channels-last activation and gradient are
    handed to :func:`cam_from_activations` as [C, H, W]. Returns the map
    and the predicted class; ties resolve to the lowest class index.
    """
    convs = [i for i, layer in enumerate(model.arch.layers) if isinstance(layer, Conv)]
    x = np.asarray(x)
    if x.ndim != 4 or x.shape[0] != 1:
        raise SonarprepError(f"expected a single input [1, C, H, W], got {x.shape}")
    cache: list = []
    logits = forward(model, x, cache, keep_from=convs[-1] + 1)
    predicted = int(np.argmax(logits[0]))
    seed_grad = np.zeros_like(logits)
    seed_grad[0, predicted] = 1.0
    _, grad = backward(model, cache, seed_grad, stop=convs[-1] + 1)
    # C-contiguous [C, H, W] copies: the sums of cam_from_activations
    # round differently in another memory order.
    activations = np.ascontiguousarray(cache[convs[-1]][0].transpose(2, 0, 1))
    grad = np.ascontiguousarray(grad[0].transpose(2, 0, 1))
    return cam_from_activations(activations, grad), predicted


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SPNN2"


def save_checkpoint(path, params: dict[str, np.ndarray], header: dict | None = None) -> None:
    """Atomically write the magic, a ``<I`` length, the sorted JSON of ``header``
    plus a ``tensors`` table of ``[name, shape]``, then each tensor's ``<f4`` values."""
    table = [[name, list(np.shape(tensor))] for name, tensor in params.items()]
    text = json.dumps({**(header or {}), "tensors": table}, sort_keys=True).encode("utf-8")
    with atomic_open(path) as f:
        f.write(CHECKPOINT_MAGIC + len(text).to_bytes(4, "little") + text)
        for tensor in params.values():
            f.write(np.asarray(tensor).astype("<f4").tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the named tensors written by :func:`save_checkpoint`."""
    def refuse(problem: str):
        raise SonarprepError(f"{path}: {problem}")

    with open(path, "rb") as f:
        data = f.read()
    if data[:5] != CHECKPOINT_MAGIC:
        refuse("bad magic: not an SPNN2 checkpoint (an SPNN1 checkpoint from an earlier "
               "release must be trained again)")
    pos = 9 + int.from_bytes(data[5:9], "little")
    if pos > len(data):
        refuse("checkpoint header runs past the end of the file")
    tensors: dict[str, np.ndarray] = {}
    try:  # a header that is no object, or has no table, fails its pop
        header = json.loads(data[9:pos].decode("utf-8"))
        for name, shape in header.pop("tensors"):
            if not (isinstance(name, str) and isinstance(shape, list)
                    and all(type(d) is int and d >= 0 for d in shape)):
                refuse(f"tensor table entry {[name, shape]} is not [name, list of sizes]")
            if name in tensors:
                refuse(f"tensor {name!r} appears twice")
            end = pos + 4 * math.prod(shape)
            if end > len(data):
                refuse(f"tensor {name!r} truncated")
            tensors[name] = np.frombuffer(data, "<f4", (end - pos) // 4, pos).reshape(shape).copy()
            pos = end
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError) as exc:
        refuse(f"checkpoint header is not UTF-8 JSON of an object with a table of tensors "
               f"numpy can hold: {exc!r}")
    if pos != len(data):
        refuse(f"{len(data) - pos} trailing bytes after last tensor")
    return header, tensors


def apply_checkpoint(model: ModelState, tensors: dict[str, np.ndarray]) -> ModelState:
    """Load tensors into a model by name.

    Three-channel first-layer conv kernels are aggregated automatically
    when the model expects a single input channel.
    """
    for name, p in model.params.items():
        if name not in tensors:
            raise SonarprepError(f"checkpoint is missing tensor {name!r}")
        t = tensors[name]
        if t.shape == p.shape:
            loaded = t
        elif (p.ndim == 4 and t.ndim == 4 and p.shape[1] == 1 and t.shape[1] == 3
              and t.shape[0] == p.shape[0] and t.shape[2:] == p.shape[2:]):
            loaded = aggregate_input_channels(t)
        else:
            raise SonarprepError(
                f"tensor {name!r} has shape {t.shape}, model expects {p.shape}"
            )
        p[...] = loaded.astype(model.dtype)
    return model
