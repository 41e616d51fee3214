"""The :class:`Tensor` class: numpy arrays with reverse-mode autodiff.

Only the operations actually used by the model zoo and the quantization
framework are implemented.  An op records a backward closure on the tape only
when a gradient is needed — grad is enabled and some input requires grad.
Otherwise (inference under :func:`no_grad`, or inputs that are all constants)
it returns a bare result tensor with no parents and no closure (and
:class:`Tensor` keeps a float32 ndarray as is instead of re-validating it).
Both paths compute the same array, bit for bit.  Gradient correctness is
verified by the property-based tests in
``tests/autograd`` against numerical differentiation (:mod:`repro.autograd.gradcheck`).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "needs_grad", "gelu_parts"]

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_FLOAT32 = np.dtype(np.float32)


# Per-thread so concurrent forwards don't race: the serving engine's driver
# thread runs its inference under no_grad while another thread may be
# training or calibrating — a process-global flag would let one thread's
# context exit clobber the other's state.  The class-level default is what a
# thread that never entered no_grad reads.
class _GradState(threading.local):
    enabled = True


_grad_state = _GradState()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (inference mode, per thread)."""
    prev = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = prev


def is_grad_enabled() -> bool:
    """Whether operations on the current thread may record backward closures."""
    return _grad_state.enabled


def needs_grad(*tensors: Optional["Tensor"]) -> bool:
    """Whether an op on ``tensors`` records a tape entry (``None`` entries are skipped).

    True when grad is enabled on this thread and at least one input requires
    grad; every op (and the grad-free forwards in
    :mod:`repro.autograd.functional`) skips the tape otherwise.
    """
    return _grad_state.enabled and any(t is not None and t.requires_grad for t in tensors)


#: sqrt(2/pi) in float32, the tanh-approximated GELU's inner scale
_GELU_C = np.sqrt(2.0 / np.pi).astype(np.float32)


def gelu_parts(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Tanh-approximated GELU of a float32 array: ``(gelu(x), tanh term)``.

    The one copy of GELU's array math: :meth:`Tensor.gelu` keeps the tanh
    term for its backward, and compiled plans (:mod:`repro.graph.plan`) take
    the output.  The cube is ``x * x * x`` because numpy raises float32 to a
    power through ``powf``, one libm call per element.
    """
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # added leading dims
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # broadcast along size-1 dims
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    __array_priority__ = 1000  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Iterable["Tensor"] = (),
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if type(data) is not np.ndarray or data.dtype is not _FLOAT32:
            data = np.asarray(data, dtype=np.float32)
        self.data = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[], None]] = None
        self._prev: Tuple[Tensor, ...] = tuple(_prev)
        self.name = name

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # tape machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _as_tensor(x: ArrayLike) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def _make(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[["Tensor"], None],
    ) -> "Tensor":
        """Create a result tensor; register its backward closure only if a gradient is needed."""
        if _grad_state.enabled and any(p.requires_grad for p in parents):
            out = Tensor(data, requires_grad=True, _prev=parents)
            out._backward = lambda: backward(out)
            return out
        return Tensor(data)

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float32)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (so scalars behave like losses).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        topo: List[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        if grad is None:
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=np.float32))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(-out.grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-out.grad * self.data / (other.data**2), other.shape)
                )

        return self._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        return self._make(self.data**exponent, (self,), backward)

    # ------------------------------------------------------------------
    # matrix multiplication
    # ------------------------------------------------------------------
    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product with numpy broadcasting semantics (2D or batched)."""
        other = self._as_tensor(other)

        def backward(out: Tensor) -> None:
            a, b = self.data, other.data
            g = out.grad
            if self.requires_grad:
                if b.ndim == 1:
                    grad_a = np.multiply.outer(g, b) if a.ndim > 1 else g * b
                else:
                    grad_a = g @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(np.asarray(grad_a), a.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    grad_b = np.multiply.outer(a, g) if b.ndim > 1 else a * g
                else:
                    grad_b = np.swapaxes(a, -1, -2) @ g
                other._accumulate(_unbroadcast(np.asarray(grad_b), b.shape))

        return self._make(self.data @ other.data, (self, other), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(out: Tensor) -> None:
            if not self.requires_grad:
                return
            g = out.grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                g = np.expand_dims(g, tuple(sorted(axes)))
            self._accumulate(np.broadcast_to(g, self.shape))

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        sq = (self - mean) ** 2
        out = sq.mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            if not self.requires_grad:
                return
            g = out.grad
            maxed = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == maxed).astype(np.float32)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                g = np.expand_dims(g, tuple(sorted(axes)))
            self._accumulate(mask * g)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.shape))

        return self._make(self.data.reshape(shape), (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*new_shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad.transpose(np.argsort(axes)))

        return self._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                np.add.at(grad, index, out.grad)
                self._accumulate(grad)

        return self._make(self.data[index], (self,), backward)

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._as_tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(out: Tensor) -> None:
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    slicer = [slice(None)] * out.grad.ndim
                    slicer[axis] = slice(lo, hi)
                    t._accumulate(out.grad[tuple(slicer)])

        probe = tensors[0]
        return probe._make(data, tuple(tensors), backward)

    def pad2d(self, padding: Tuple[int, int]) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions by ``(ph, pw)``."""
        ph, pw = padding
        if ph == 0 and pw == 0:
            return self
        pad_width = [(0, 0)] * (self.ndim - 2) + [(ph, ph), (pw, pw)]

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                slicer = [slice(None)] * (self.ndim - 2) + [
                    slice(ph, out.grad.shape[-2] - ph),
                    slice(pw, out.grad.shape[-1] - pw),
                ]
                self._accumulate(out.grad[tuple(slicer)])

        return self._make(np.pad(self.data, pad_width), (self,), backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * 0.5 / np.maximum(out.data, 1e-12))

        return self._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        return self._make(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data * (1.0 - out.data))

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - out.data**2))

        return self._make(data, (self,), backward)

    def gelu(self) -> "Tensor":
        """GELU with the tanh approximation (matches transformer usage)."""
        x = self.data
        data, t = gelu_parts(x)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                dinner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
                grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
                self._accumulate(out.grad * grad)

        return self._make(data, (self,), backward)

    def silu(self) -> "Tensor":
        sig = 1.0 / (1.0 + np.exp(-self.data))
        data = self.data * sig

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                grad = sig * (1.0 + self.data * (1.0 - sig))
                self._accumulate(out.grad * grad)

        return self._make(data, (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        mask = ((self.data >= lo) & (self.data <= hi)).astype(np.float32)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        return self._make(np.clip(self.data, lo, hi), (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * sign)

        return self._make(np.abs(self.data), (self,), backward)
