"""Neural-network functional primitives built on :class:`~repro.autograd.tensor.Tensor`.

Contains the operators the quantization framework targets (Conv2d, Linear,
MatMul/BatchMatMul, Embedding, BatchNorm, LayerNorm, element-wise Add/Mul) plus
the pooling, softmax and loss functions needed to train and evaluate the model
zoo.  Convolution uses an im2col formulation so the heavy lifting stays inside
vectorised numpy matmuls (see the performance guide: avoid Python loops).

Inference forwards
------------------
:func:`linear`, :func:`layer_norm` and :func:`softmax` check once whether a
gradient is needed (:func:`~repro.autograd.tensor.needs_grad`).  When none
is, they run their numpy ufunc sequence directly (``x @ W.T`` then ``+ b``;
:func:`layer_norm_array`; :func:`softmax_array`) and wrap only the result,
instead of building a tensor per sub-op.  Each sequence is the one the taped
decomposition performs (mean and variance as ``sum * float32(1/n)``,
subtraction as ``x + (-y)``), so both paths give the same bits.  Compiled
plans (:mod:`repro.graph.plan`) call :func:`layer_norm_array` and
:func:`softmax_array` with ``out=`` set to their preallocated buffers.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.autograd.tensor import Tensor, needs_grad

__all__ = [
    "linear",
    "matmul",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "adaptive_avg_pool2d",
    "embedding",
    "embedding_bag",
    "batch_norm",
    "layer_norm",
    "layer_norm_array",
    "softmax",
    "softmax_array",
    "log_softmax",
    "cross_entropy",
    "mse_loss",
    "binary_cross_entropy_with_logits",
    "dropout",
    "im2col",
    "col2im",
    "upsample_nearest2d",
]


# ----------------------------------------------------------------------
# dense / matmul
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``y = x @ weight.T + bias`` with ``weight`` of shape (out, in)."""
    if not needs_grad(x, weight, bias):
        w = weight.data
        y = np.matmul(x.data, np.swapaxes(w, -1, -2) if w.ndim > 2 else w.T)
        return Tensor(y if bias is None else y + bias.data)
    out = x.matmul(weight.swapaxes(-1, -2) if weight.ndim > 2 else weight.transpose())
    if bias is not None:
        out = out + bias
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Plain (possibly batched) matrix multiplication."""
    return a.matmul(b)


# ----------------------------------------------------------------------
# convolution (im2col)
# ----------------------------------------------------------------------
def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold a padded NCHW array into columns of shape (N, C*kh*kw, L)."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    strides = x.strides
    shape = (n, c, kh, kw, out_h, out_w)
    new_strides = (
        strides[0],
        strides[1],
        strides[2],
        strides[3],
        strides[2] * sh,
        strides[3] * sw,
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=new_strides)
    cols = patches.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
) -> np.ndarray:
    """Fold columns back to an NCHW array, accumulating overlaps (im2col adjoint)."""
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    x = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            x[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += cols[:, :, i, j]
    return x


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: Union[int, Tuple[int, int]] = 1,
    padding: Union[int, Tuple[int, int]] = 0,
    groups: int = 1,
) -> Tensor:
    """2D convolution on NCHW tensors with weight of shape (Cout, Cin/groups, kh, kw)."""
    if isinstance(stride, int):
        stride = (stride, stride)
    if isinstance(padding, int):
        padding = (padding, padding)
    n, c_in, _, _ = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    if c_in % groups or c_out % groups or c_in // groups != c_in_g:
        raise ValueError(
            f"incompatible conv shapes: input channels {c_in}, weight {weight.shape}, groups {groups}"
        )

    x_padded = x.pad2d(padding)
    xp = x_padded.data
    out_h = (xp.shape[2] - kh) // stride[0] + 1
    out_w = (xp.shape[3] - kw) // stride[1] + 1

    if groups == 1:
        cols, _ = im2col(xp, (kh, kw), stride)
        w_mat = weight.data.reshape(c_out, -1)
        out_data = np.einsum("of,nfl->nol", w_mat, cols, optimize=True)
    else:
        cg_in = c_in // groups
        cg_out = c_out // groups
        cols_list = []
        out_chunks = []
        for g in range(groups):
            xg = xp[:, g * cg_in : (g + 1) * cg_in]
            cols_g, _ = im2col(xg, (kh, kw), stride)
            cols_list.append(cols_g)
            w_mat = weight.data[g * cg_out : (g + 1) * cg_out].reshape(cg_out, -1)
            out_chunks.append(np.einsum("of,nfl->nol", w_mat, cols_g, optimize=True))
        out_data = np.concatenate(out_chunks, axis=1)
        cols = cols_list  # kept for backward

    out_data = out_data.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    parents = [x_padded, weight] + ([bias] if bias is not None else [])

    def backward(out: Tensor) -> None:
        g = out.grad.reshape(n, c_out, out_h * out_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
        if groups == 1:
            w_mat = weight.data.reshape(c_out, -1)
            if weight.requires_grad:
                grad_w = np.einsum("nol,nfl->of", g, cols, optimize=True)
                weight._accumulate(grad_w.reshape(weight.shape))
            if x_padded.requires_grad:
                grad_cols = np.einsum("of,nol->nfl", w_mat, g, optimize=True)
                grad_xp = col2im(grad_cols, xp.shape, (kh, kw), stride)
                x_padded._accumulate(grad_xp)
        else:
            cg_in = c_in // groups
            cg_out = c_out // groups
            grad_xp = np.zeros_like(xp) if x_padded.requires_grad else None
            grad_w = np.zeros_like(weight.data) if weight.requires_grad else None
            for gi in range(groups):
                gg = g[:, gi * cg_out : (gi + 1) * cg_out]
                cols_g = cols[gi]
                w_mat = weight.data[gi * cg_out : (gi + 1) * cg_out].reshape(cg_out, -1)
                if grad_w is not None:
                    grad_w[gi * cg_out : (gi + 1) * cg_out] = np.einsum(
                        "nol,nfl->of", gg, cols_g, optimize=True
                    ).reshape(cg_out, cg_in, kh, kw)
                if grad_xp is not None:
                    grad_cols = np.einsum("of,nol->nfl", w_mat, gg, optimize=True)
                    grad_xp[:, gi * cg_in : (gi + 1) * cg_in] += col2im(
                        grad_cols,
                        (n, cg_in, xp.shape[2], xp.shape[3]),
                        (kh, kw),
                        stride,
                    )
            if grad_w is not None:
                weight._accumulate(grad_w)
            if grad_xp is not None:
                x_padded._accumulate(grad_xp)

    return x_padded._make(out_data.astype(np.float32), tuple(parents), backward)


# ----------------------------------------------------------------------
# pooling
# ----------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) square windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols, _ = im2col(x.data.reshape(n * c, 1, h, w), (kernel, kernel), (stride, stride))
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    argmax = cols.argmax(axis=2)
    out_data = np.take_along_axis(cols, argmax[:, :, None, :], axis=2)[:, :, 0, :]
    out_data = out_data.reshape(n, c, out_h, out_w)

    def backward(out: Tensor) -> None:
        if not x.requires_grad:
            return
        g = out.grad.reshape(n, c, 1, out_h * out_w)
        grad_cols = np.zeros((n, c, kernel * kernel, out_h * out_w), dtype=np.float32)
        np.put_along_axis(grad_cols, argmax[:, :, None, :], g, axis=2)
        grad_cols = grad_cols.reshape(n * c, kernel * kernel, out_h * out_w)
        grad_x = col2im(grad_cols, (n * c, 1, h, w), (kernel, kernel), (stride, stride))
        x._accumulate(grad_x.reshape(n, c, h, w))

    return x._make(out_data.astype(np.float32), (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Average pooling over square windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols, _ = im2col(x.data.reshape(n * c, 1, h, w), (kernel, kernel), (stride, stride))
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    out_data = cols.mean(axis=2).reshape(n, c, out_h, out_w)

    def backward(out: Tensor) -> None:
        if not x.requires_grad:
            return
        g = out.grad.reshape(n, c, 1, out_h * out_w) / (kernel * kernel)
        grad_cols = np.broadcast_to(g, (n, c, kernel * kernel, out_h * out_w)).astype(np.float32)
        grad_cols = grad_cols.reshape(n * c, kernel * kernel, out_h * out_w)
        grad_x = col2im(grad_cols, (n * c, 1, h, w), (kernel, kernel), (stride, stride))
        x._accumulate(grad_x.reshape(n, c, h, w))

    return x._make(out_data.astype(np.float32), (x,), backward)


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Adaptive average pooling; only ``output_size == 1`` (global) is supported."""
    if output_size != 1:
        raise NotImplementedError("only global average pooling (output_size=1) is supported")
    return x.mean(axis=(2, 3), keepdims=True)


def upsample_nearest2d(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour spatial upsampling of NCHW tensors by an integer factor."""
    n, c, h, w = x.shape
    data = np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3)

    def backward(out: Tensor) -> None:
        if not x.requires_grad:
            return
        g = out.grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        x._accumulate(g)

    return x._make(data, (x,), backward)


# ----------------------------------------------------------------------
# embeddings
# ----------------------------------------------------------------------
def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` (vocab, dim) at integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = weight.data[indices]

    def backward(out: Tensor) -> None:
        if weight.requires_grad:
            grad = np.zeros_like(weight.data)
            np.add.at(grad, indices.reshape(-1), out.grad.reshape(-1, weight.shape[1]))
            weight._accumulate(grad)

    return weight._make(out_data, (weight,), backward)


def embedding_bag(weight: Tensor, indices: np.ndarray, mode: str = "mean") -> Tensor:
    """Embedding lookup followed by a per-bag reduction over the last index axis.

    ``indices`` has shape (batch, bag); the output has shape (batch, dim).
    """
    emb = embedding(weight, indices)
    if mode == "mean":
        return emb.mean(axis=1)
    if mode == "sum":
        return emb.sum(axis=1)
    raise ValueError(f"unsupported embedding_bag mode {mode!r}")


# ----------------------------------------------------------------------
# normalisation
# ----------------------------------------------------------------------
def batch_norm(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over the channel axis (axis 1) of 2D or 4D inputs.

    ``running_mean``/``running_var`` are plain numpy buffers updated in place
    when ``training`` is True (this is also how BatchNorm *calibration* updates
    statistics without touching learnable parameters).
    """
    if x.ndim == 4:
        reduce_axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif x.ndim == 2:
        reduce_axes = (0,)
        shape = (1, -1)
    else:
        raise ValueError(f"batch_norm expects 2D or 4D input, got shape {x.shape}")

    if training:
        batch_mean = x.data.mean(axis=reduce_axes)
        batch_var = x.data.var(axis=reduce_axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * batch_mean
        running_var *= 1.0 - momentum
        running_var += momentum * batch_var
        mean = x.mean(axis=reduce_axes, keepdims=True)
        var = x.var(axis=reduce_axes, keepdims=True)
    else:
        mean = Tensor(running_mean.reshape(shape))
        var = Tensor(running_var.reshape(shape))

    x_hat = (x - mean) / (var + eps).sqrt()
    return x_hat * weight.reshape(*shape) + bias.reshape(*shape)


def layer_norm_array(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    eps: float = 1e-5,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`layer_norm` on arrays, written to ``out`` if given.

    The taped decomposition computes ``x - mean`` twice (once inside
    ``var``); the recomputation is deterministic, so one centered array
    feeds both the variance and the normalisation.
    """
    inv = np.float32(1.0 / x.shape[-1])
    mean = x.sum(axis=-1, keepdims=True) * inv
    centered = np.add(x, np.negative(mean))
    var = (centered**2).sum(axis=-1, keepdims=True) * inv
    x_hat = np.divide(centered, np.sqrt(np.add(var, np.float32(eps))))
    return np.add(np.multiply(x_hat, weight, out=out), bias, out=out)


def layer_norm(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    eps: float = 1e-5,
) -> Tensor:
    """Layer normalisation over the last dimension."""
    if not needs_grad(x, weight, bias):
        return Tensor(layer_norm_array(x.data, weight.data, bias.data, eps))
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    x_hat = (x - mean) / (var + eps).sqrt()
    return x_hat * weight + bias


# ----------------------------------------------------------------------
# softmax and losses
# ----------------------------------------------------------------------
def softmax_array(x: np.ndarray, axis: int = -1, out: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`softmax` on arrays, written to ``out`` if given (else to a fresh array)."""
    e = np.add(x, np.negative(x.max(axis=axis, keepdims=True)), out=out)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=e)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    if not needs_grad(x):
        return Tensor(softmax_array(x.data, axis))
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) or (N, T, C) and integer targets."""
    targets = np.asarray(targets, dtype=np.int64)
    logp = log_softmax(logits, axis=-1)
    if logits.ndim == 3:
        n, t, c = logits.shape
        flat = logp.reshape(n * t, c)
        picked = flat[np.arange(n * t), targets.reshape(-1)]
    else:
        n, c = logits.shape
        picked = logp[np.arange(n), targets]
    return -(picked.mean())


def mse_loss(pred: Tensor, target: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared error."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target
    return (diff * diff).mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: Union[Tensor, np.ndarray]) -> Tensor:
    """Numerically stable BCE-with-logits (used by the DLRM-style recommender)."""
    targets = targets if isinstance(targets, Tensor) else Tensor(targets)
    # stable formulation: max(x, 0) - x * y + log(1 + exp(-|x|))
    x = logits
    loss = x.relu() - x * targets + (1.0 + (-x.abs()).exp()).log()
    return loss.mean()


def dropout(
    x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None
) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(np.float32) / (1.0 - p)
    return x * Tensor(mask)
