"""Trace-by-execution: run a forward once and record it as a graph of calls.

The :class:`Tracer` installs itself as the thread's active tracer (see
:mod:`repro.nn.module`) and runs the model on the *real* inputs.  Every
``Module.__call__`` is offered to :meth:`Tracer.visit_call` first:

* containers and composite modules are traced *through* — their forward runs
  normally and the children re-enter the tracer;
* leaf operators run with tracing suspended (so the modules they call
  internally are not recorded twice) and record one node through
  :meth:`Tracer.emit_leaf`: ``_STEPS`` maps each leaf type to the function
  its node calls — the array function the eager op calls — and the
  ``_OPAQUE`` leaves record a node that runs the module's own forward;
* quantized wrappers provide their own ``trace_emit`` (see
  :mod:`repro.quantization.qmodules`): a node per quantized input that calls
  the input's quantizer, then the wrapped operator's node through
  :meth:`Tracer.emit_leaf`, or a node calling the wrapper's own matmul.

Values are tagged by the identity of their underlying ``ndarray`` —
:class:`~repro.autograd.tensor.Tensor` carries ``__slots__`` so the array is
the only stable tag point; the tracer keeps every tagged array alive so ids
cannot be recycled mid-trace.  Raw tensor math inside a custom ``forward``
produces *untagged* arrays, and the first leaf that consumes one aborts the
trace (:class:`~repro.graph.ir.TraceAborted`) — the plan cache then pins that
key to the eager path, which is the designed fallback, not a failure.

Because the trace executes the forward for real, a successful trace doubles
as the first serving call: the traced output is handed back to the caller
bit-for-bit as the eager result.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.autograd.functional import layer_norm_array, linear_array, softmax_array
from repro.autograd.tensor import Tensor, gelu_parts, relu_array, sigmoid_array, silu_array
from repro.graph.ir import Graph, Node, TraceAborted
from repro.nn.activations import GELU, ReLU, Sigmoid, SiLU, Softmax, Tanh
from repro.nn.attention import BatchMatMul, MultiHeadSelfAttention
from repro.nn.elementwise import Add, Mul
from repro.nn.layers import Conv2d, Dropout, Embedding, EmbeddingBag, Flatten, Identity, Linear
from repro.nn.module import Module, _set_active_tracer, active_tracer
from repro.nn.norm import GroupNorm, LayerNorm, _BatchNorm
from repro.nn.pooling import AdaptiveAvgPool2d, AvgPool2d, MaxPool2d

__all__ = ["Tracer", "TraceResult", "trace"]


def _as_data(value: Any) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.asarray(value)


# ======================================================================
# the step table: leaf type -> the function its node calls
# ======================================================================
def gelu_array(x: np.ndarray) -> np.ndarray:
    """GELU's output, as :meth:`~repro.autograd.tensor.Tensor.gelu` computes it."""
    return gelu_parts(x)[0]


def _calls(fn: Optional[Callable]) -> Callable:
    """The entry of a leaf whose node calls ``fn``; ``None`` records no node
    (the leaf returns its input, which is already tagged)."""

    def build(module: Module, output: Tensor) -> Optional[Callable]:
        return fn

    return build


def _linear(module: Linear, output: Tensor) -> Callable:
    weight, bias = module.weight, module.bias

    def linear(x):
        return linear_array(x, weight.data, None if bias is None else bias.data)

    return linear


def _softmax(module: Softmax, output: Tensor) -> Callable:
    axis = module.axis

    def softmax(x):
        return softmax_array(x, axis)

    return softmax


def _layer_norm(module: LayerNorm, output: Tensor) -> Callable:
    weight, bias, eps = module.weight, module.bias, module.eps

    def layer_norm(x):
        return layer_norm_array(x, weight.data, bias.data, eps)

    return layer_norm


def _flatten(module: Flatten, output: Tensor) -> Callable:
    shape = output.shape  # the plan key fixes the input shape, so this one too

    def reshape(x):
        return x.reshape(shape)

    return reshape


#: leaf type -> ``build(module, traced output)``, which returns the function
#: the leaf's node calls on its input arrays: the array function its eager
#: forward calls.  The function holds the module's Parameters and reads their
#: arrays at replay.  Exact types only: a subclass may compute something
#: else, so it is an unlisted leaf.
_STEPS: Dict[type, Callable] = {
    Linear: _linear,
    ReLU: _calls(relu_array),
    Sigmoid: _calls(sigmoid_array),
    Tanh: _calls(np.tanh),
    GELU: _calls(gelu_array),
    SiLU: _calls(silu_array),
    Softmax: _softmax,
    LayerNorm: _layer_norm,
    Add: _calls(np.add),
    Mul: _calls(np.multiply),
    BatchMatMul: _calls(np.matmul),
    Flatten: _flatten,
    Identity: _calls(None),
    Dropout: _calls(None),  # eval mode: F.dropout returns its input
}

#: leaves whose node runs the module's own forward (:meth:`Tracer.record_opaque`):
#: pure functions of their inputs in eval mode, subclasses included
_OPAQUE = (
    Conv2d,
    _BatchNorm,
    Embedding,
    EmbeddingBag,
    GroupNorm,
    MaxPool2d,
    AvgPool2d,
    AdaptiveAvgPool2d,
    MultiHeadSelfAttention,
)


class TraceResult(NamedTuple):
    """A successful trace: the graph plus the real output of the traced call."""

    graph: Graph
    output: Any


class Tracer:
    """Records an op graph while the model executes on real inputs."""

    def __init__(self) -> None:
        self._nodes: List[Node] = []
        self._slots: Dict[int, int] = {}
        self._keepalive: List[np.ndarray] = []
        self._num_slots = 0
        self._modules: Dict[int, Module] = {}

    # ------------------------------------------------------------------
    # slot bookkeeping
    # ------------------------------------------------------------------
    def tag(self, value: Any) -> int:
        """Assign (or return) the slot for ``value``'s underlying array."""
        data = _as_data(value)
        key = id(data)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._num_slots
            self._num_slots += 1
            self._slots[key] = slot
            self._keepalive.append(data)
        return slot

    def slot_of(self, value: Any) -> int:
        """The slot carrying ``value``; aborts if the value escaped the trace."""
        data = _as_data(value)
        slot = self._slots.get(id(data))
        if slot is None:
            raise TraceAborted(
                "a leaf operator consumed a value produced outside the traced module "
                "tree (raw tensor math in a custom forward); falling back to eager"
            )
        return slot

    def record(self, fn: Callable, input_slots: Tuple[int, ...], output: Any) -> int:
        """Append a node computing ``output = fn(*input_slots)``; tags the output."""
        out_slot = self.tag(output)
        self._nodes.append(Node(fn, input_slots, out_slot))
        return out_slot

    def touch(self, module: Module) -> None:
        """Remember that the trace depends on ``module`` (hook invalidation)."""
        self._modules.setdefault(id(module), module)

    def touch_tree(self, module: Module) -> None:
        """Touch ``module`` and every descendant; abort if any carries hooks.

        Used for leaves whose submodules replay without their own
        ``Module.__call__`` (opaque leaves, quantized wrappers): a hook
        registered anywhere under one must invalidate the plan, and a subtree
        that already has hooks is served eagerly.
        """
        for _, sub in module.named_modules():
            if sub._forward_hooks:
                raise TraceAborted(
                    f"{type(sub).__name__} inside {type(module).__name__} carries forward hooks"
                )
            self.touch(sub)

    def record_opaque(self, module: Module, args: tuple, kwargs: dict):
        """Run ``module`` on ``args`` and record one node that runs it again.

        The node calls ``module.forward`` with the same argument wrapping and
        keyword arguments, as the trace does: not ``module(...)``, which
        would replay a plan cache installed on the module itself back into
        this node.  Replay re-runs the whole subtree, so it is touched (see
        :meth:`touch_tree`).  Array keyword arguments would not be part of the
        plan key, so they abort the trace.
        """
        for key, value in kwargs.items():
            if isinstance(value, (Tensor, np.ndarray)):
                raise TraceAborted(f"array keyword argument {key!r} on an opaque leaf")
        self.touch_tree(module)
        slots = tuple(self.slot_of(arg) for arg in args)
        wrapped = tuple(isinstance(arg, Tensor) for arg in args)
        kwargs = dict(kwargs)

        def forward(*arrays):
            result = module.forward(
                *[Tensor(a) if w else a for a, w in zip(arrays, wrapped)], **kwargs
            )
            return result.data if isinstance(result, Tensor) else np.asarray(result)

        # named by the module it runs, so a profile can tell the nodes apart
        forward.__qualname__ = f"{type(module).__qualname__}.forward"
        output = module.forward(*args, **kwargs)
        self.record(forward, slots, output)
        return output

    def emit_leaf(self, module: Module, args: tuple, kwargs: dict):
        """Run a leaf operator on ``args`` and record the node that replays it.

        Called with tracing suspended.  Returns the real output; aborts for
        a leaf in training mode, a leaf the tracer has no step for, and
        keyword arguments to a ``_STEPS`` leaf (its node replays positional
        arrays only, and the eager call decides what they mean).
        """
        if module.training:
            raise TraceAborted(f"{type(module).__name__} is in training mode; served eagerly")
        if isinstance(module, _OPAQUE):
            return self.record_opaque(module, args, kwargs)
        build = _STEPS.get(type(module))
        if build is None:
            raise TraceAborted(f"no trace step for leaf {type(module).__name__}")
        if kwargs:
            raise TraceAborted(
                f"{type(module).__name__} called with keyword arguments {sorted(kwargs)}; "
                "served eagerly"
            )
        slots = tuple(self.slot_of(arg) for arg in args)
        output = module.forward(*args)
        fn = build(module, output)
        if fn is not None:
            self.record(fn, slots, output)
        return output

    @contextmanager
    def suspended(self):
        """Run leaf internals eagerly without re-entering this tracer."""
        _set_active_tracer(None)
        try:
            yield
        finally:
            _set_active_tracer(self)

    # ------------------------------------------------------------------
    # the Module.__call__ entry point
    # ------------------------------------------------------------------
    def visit_call(self, module: Module, args: tuple, kwargs: dict) -> Tuple[bool, Any]:
        """Offer a module call to the tracer.

        Returns ``(True, output)`` when the call was recorded as node(s) (the
        output is the real computed value), or ``(False, None)`` to let the
        module's forward run normally (containers/composites trace through).
        Raises :class:`TraceAborted` for untraceable calls.
        """
        self.touch(module)
        if module._forward_hooks:
            raise TraceAborted(
                f"{type(module).__name__} carries forward hooks; hooked modules force eager"
            )
        if getattr(module, "observing", False):
            raise TraceAborted("module is observing (calibration in progress)")
        if getattr(module, "calibrating", False):
            raise TraceAborted("BatchNorm is calibrating")

        # quantized wrappers describe themselves (Q/DQ + matmul nodes)
        emit = getattr(module, "trace_emit", None)
        if emit is not None and getattr(module, "quantizing", False):
            self.touch_tree(module)
            with self.suspended():
                output = emit(self, args, kwargs)
            if output is None:
                raise TraceAborted(f"{type(module).__name__} declined to emit a trace")
            return True, output

        # the only leaves with submodules are opaque
        if module._modules and not isinstance(module, _OPAQUE):
            return False, None  # composite: trace through the children
        with self.suspended():
            return True, self.emit_leaf(module, args, kwargs)

    # ------------------------------------------------------------------
    def build(self, input_slots: Tuple[int, ...], output: Any) -> Graph:
        out_data = _as_data(output)
        out_slot = self._slots.get(id(out_data))
        if out_slot is None:
            raise TraceAborted(
                "the model output was produced outside the traced module tree; "
                "falling back to eager"
            )
        return Graph(
            nodes=self._nodes,
            input_slots=input_slots,
            output_slot=out_slot,
            num_slots=self._num_slots,
            modules=list(self._modules.values()),
            output_wrapped=isinstance(output, Tensor),
        )


def trace(model: Module, args: tuple, kwargs: Optional[dict] = None) -> TraceResult:
    """Run ``model(*args)`` once under a tracer and return graph + real output.

    Aborts (raising :class:`TraceAborted`) rather than recording anything
    unsound: training-mode models, keyword arguments beyond the traced
    positional protocol, nested traces and hook-carrying modules all fall
    back to eager.
    """
    if kwargs:
        raise TraceAborted("keyword arguments are served eagerly (not part of plan keys)")
    if active_tracer() is not None:
        raise TraceAborted("nested tracing is not supported")
    if model.training:
        raise TraceAborted("training-mode models are served eagerly")

    tracer = Tracer()
    input_slots = []
    for arg in args:
        if not isinstance(arg, (Tensor, np.ndarray)):
            raise TraceAborted(f"non-array model input of type {type(arg).__name__}")
        input_slots.append(tracer.tag(arg))

    _set_active_tracer(tracer)
    try:
        output = model(*args)
    finally:
        _set_active_tracer(None)
    graph = tracer.build(tuple(input_slots), output)
    return TraceResult(graph, output)
