"""Trace-by-execution: run a forward once and record it as an op graph.

The :class:`Tracer` installs itself as the thread's active tracer (see
:mod:`repro.nn.module`) and runs the model on the *real* inputs.  Every
``Module.__call__`` is offered to :meth:`Tracer.visit_call` first:

* containers and composite modules are traced *through* — their forward runs
  normally and the children re-enter the tracer;
* registered leaf operators execute with tracing suspended (so the modules
  they call internally are not double-recorded) and record the node(s) that
  reproduce their output;
* quantized wrappers provide their own ``trace_emit`` (see
  :mod:`repro.quantization.qmodules`), emitting symbolic Q/DQ and
  blocked-streaming-matmul nodes instead of being traced through.

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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.graph.ir import Graph, Node, TraceAborted
from repro.nn.activations import GELU, ReLU, Sigmoid, SiLU, Softmax, Tanh
from repro.nn.attention import BatchMatMul, MultiHeadSelfAttention
from repro.nn.elementwise import Add, Mul
from repro.nn.layers import Conv2d, Dropout, Embedding, EmbeddingBag, Flatten, Identity, Linear
from repro.nn.module import (
    Module,
    _set_active_tracer,
    active_tracer,
    register_trace_leaf,
    trace_leaf_emitter,
)
from repro.nn.norm import GroupNorm, LayerNorm, _BatchNorm
from repro.nn.pooling import AdaptiveAvgPool2d, AvgPool2d, MaxPool2d

__all__ = ["Tracer", "TraceResult", "trace"]


def _as_data(value: Any) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.asarray(value)


class TraceResult:
    """A successful trace: the graph plus the real output of the traced call."""

    __slots__ = ("graph", "output")

    def __init__(self, graph: Graph, output: Any) -> None:
        self.graph = graph
        self.output = output


class Tracer:
    """Records an op graph while the model executes on real inputs."""

    def __init__(self) -> None:
        self._nodes: List[Node] = []
        self._slots: Dict[int, int] = {}
        self._keepalive: List[np.ndarray] = []
        self._num_slots = 0
        self._modules: List[Module] = []
        self._module_ids: set = set()

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

    def record(self, kind: str, input_slots: Tuple[int, ...], output: Any, **params: Any) -> int:
        """Append a node computing ``output`` from ``input_slots``; tags the output."""
        out_slot = self.tag(output)
        self._nodes.append(Node(kind, tuple(input_slots), out_slot, params))
        return out_slot

    def touch(self, module: Module) -> None:
        """Remember that the trace depends on ``module`` (hook invalidation)."""
        if id(module) not in self._module_ids:
            self._module_ids.add(id(module))
            self._modules.append(module)

    def touch_tree(self, module: Module) -> None:
        """Touch ``module`` and every descendant; abort if any carries hooks.

        Used for opaque ``call_module`` leaves: replay re-runs the whole
        subtree, so a hook registered anywhere under it must invalidate the
        plan — and a subtree that already has hooks is served eagerly.
        """
        for _, sub in module.named_modules():
            if sub._forward_hooks:
                raise TraceAborted(
                    f"{type(sub).__name__} inside an opaque leaf carries forward hooks"
                )
            self.touch(sub)

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

        # quantized wrappers describe themselves (symbolic Q/DQ + matmul nodes)
        emit = getattr(module, "trace_emit", None)
        if emit is not None and getattr(module, "quantizing", False):
            with self.suspended():
                output = emit(self, args, kwargs)
            if output is None:
                raise TraceAborted(f"{type(module).__name__} declined to emit a trace")
            return True, output

        emitter = trace_leaf_emitter(module)
        if emitter is not None:
            with self.suspended():
                output = emitter(self, module, args, kwargs)
            return True, output

        if module._modules:
            return False, None  # composite: trace through the children
        raise TraceAborted(f"no trace emitter registered for leaf {type(module).__name__}")

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
            modules=self._modules,
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


# ======================================================================
# leaf emitters for the plain (float) operator library
# ======================================================================
@register_trace_leaf(Linear)
def _emit_linear(tracer: Tracer, module: Linear, args: tuple, kwargs: dict):
    (x,) = args
    x_slot = tracer.slot_of(x)
    output = module.forward(x, **kwargs)
    tracer.record("linear", (x_slot,), output, module=module)
    return output


def _register_elementwise(cls, op: str):
    @register_trace_leaf(cls)
    def _emit(tracer: Tracer, module: Module, args: tuple, kwargs: dict):
        (x,) = args
        x_slot = tracer.slot_of(x)
        output = module.forward(x)
        tracer.record("ew", (x_slot,), output, op=op)
        return output

    return _emit


_register_elementwise(ReLU, "relu")
_register_elementwise(Sigmoid, "sigmoid")
_register_elementwise(Tanh, "tanh")
_register_elementwise(GELU, "gelu")
_register_elementwise(SiLU, "silu")


@register_trace_leaf(Softmax)
def _emit_softmax(tracer: Tracer, module: Softmax, args: tuple, kwargs: dict):
    (x,) = args
    x_slot = tracer.slot_of(x)
    output = module.forward(x)
    tracer.record("softmax", (x_slot,), output, axis=module.axis)
    return output


def _register_binary(cls, op: str):
    @register_trace_leaf(cls)
    def _emit(tracer: Tracer, module: Module, args: tuple, kwargs: dict):
        a, b = args
        slots = (tracer.slot_of(a), tracer.slot_of(b))
        output = module.forward(a, b)
        tracer.record("ew2", slots, output, op=op)
        return output

    return _emit


_register_binary(Add, "add")
_register_binary(Mul, "mul")


@register_trace_leaf(BatchMatMul)
def _emit_batch_matmul(tracer: Tracer, module: BatchMatMul, args: tuple, kwargs: dict):
    a, b = args
    slots = (tracer.slot_of(a), tracer.slot_of(b))
    output = module.forward(a, b)
    tracer.record("matmul2", slots, output)
    return output


@register_trace_leaf(Flatten)
def _emit_flatten(tracer: Tracer, module: Flatten, args: tuple, kwargs: dict):
    (x,) = args
    x_slot = tracer.slot_of(x)
    output = module.forward(x)
    tracer.record("reshape", (x_slot,), output, shape=output.shape)
    return output


@register_trace_leaf(Identity)
def _emit_identity(tracer: Tracer, module: Identity, args: tuple, kwargs: dict):
    # forward returns its input unchanged; the array is already tagged
    (x,) = args
    tracer.slot_of(x)
    return module.forward(x)


@register_trace_leaf(Dropout)
def _emit_dropout(tracer: Tracer, module: Dropout, args: tuple, kwargs: dict):
    (x,) = args
    tracer.slot_of(x)
    if module.training and module.p > 0.0:
        raise TraceAborted("dropout in training mode is stochastic; served eagerly")
    # eval-mode dropout is the identity and returns its input object
    return module.forward(x)


@register_trace_leaf(LayerNorm)
def _emit_layer_norm(tracer: Tracer, module: LayerNorm, args: tuple, kwargs: dict):
    (x,) = args
    x_slot = tracer.slot_of(x)
    output = module.forward(x)
    tracer.record("layer_norm", (x_slot,), output, module=module)
    return output


def _register_opaque(cls):
    """Record the whole module call as one ``call_module`` node.

    Safe only for modules that are pure functions of their inputs in eval
    mode; replay calls the module again with the same argument wrapping.  A
    leaf in training mode (a BatchNorm updating its running stats, say)
    aborts the trace.
    """

    @register_trace_leaf(cls)
    def _emit(tracer: Tracer, module: Module, args: tuple, kwargs: dict):
        if module.training:
            raise TraceAborted(f"{type(module).__name__} is in training mode; served eagerly")
        for key, value in kwargs.items():
            if isinstance(value, (Tensor, np.ndarray)):
                raise TraceAborted(f"array keyword argument {key!r} on an opaque leaf")
        tracer.touch_tree(module)
        slots = []
        wrapped = []
        for arg in args:
            slots.append(tracer.slot_of(arg))
            wrapped.append(isinstance(arg, Tensor))
        output = module(*args, **kwargs)
        tracer.record(
            "call_module",
            tuple(slots),
            output,
            module=module,
            wrapped=tuple(wrapped),
            kwargs=dict(kwargs),
        )
        return output

    return _emit


_register_opaque(Conv2d)
_register_opaque(_BatchNorm)
_register_opaque(Embedding)
_register_opaque(EmbeddingBag)
_register_opaque(GroupNorm)
_register_opaque(MaxPool2d)
_register_opaque(AvgPool2d)
_register_opaque(AdaptiveAvgPool2d)
_register_opaque(MultiHeadSelfAttention)
