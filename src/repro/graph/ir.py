"""Op-graph intermediate representation for traced forwards.

A traced forward is a flat, topologically ordered list of :class:`Node`
records over integer *slots*.  Slots are SSA values: every node reads its
inputs from slots and writes exactly one output slot; the graph's inputs and
output are slots too.  The representation is deliberately minimal — kinds are
plain strings and parameters are plain dicts — and imports none of the
packages whose modules produced the nodes (no ``nn``/``quantization``
imports here, and therefore no import cycles).

Node kinds emitted by the tracer
--------------------------------
Each kind names the one function its plan step calls (see
:mod:`repro.graph.plan`):

``linear``            a float :class:`~repro.nn.layers.Linear`
``qdq``               activation quantize/dequantize through one ``TensorQuantizer``
``qlinear_mm``        a quantized Linear's matmul against its cached dequantized weight
``qlinear_stream_mm`` the blocked streaming matmul over packed weight blocks
``ew``                one elementwise op (``relu``/``sigmoid``/``tanh``/``gelu``/``silu``)
``ew2``               binary elementwise (``add``/``mul``)
``matmul2``           batched matmul of two traced operands
``softmax``           softmax along an axis
``layer_norm``        layer normalisation (eval mode)
``reshape``           movement (view) to a fixed shape
``call_module``       opaque leaf: replay calls the module itself
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = ["TraceAborted", "Node", "Graph"]


class TraceAborted(RuntimeError):
    """Raised while tracing when the forward cannot be captured as a graph.

    An aborted trace is not an error for the caller: the plan cache records
    the key as eager-only and every forward for it takes the (bit-exact)
    eager path.  Typical causes: raw tensor math escaping the module tree
    (the value is untagged when a leaf consumes it), an active forward hook,
    a calibrating/observing module, or a leaf operator without an emitter.
    """


class Node:
    """One traced operation: ``output = kind(params)(*inputs)``."""

    __slots__ = ("kind", "inputs", "output", "params")

    def __init__(self, kind: str, inputs: Tuple[int, ...], output: int, params: Dict[str, Any]):
        self.kind = kind
        self.inputs = tuple(inputs)
        self.output = int(output)
        self.params = params

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.kind}, in={self.inputs}, out={self.output})"


class Graph:
    """A traced forward: ordered nodes over slots, plus replay metadata.

    Attributes
    ----------
    nodes:
        Topologically ordered operations (trace order).
    input_slots:
        Slot id per positional model input.
    output_slot:
        Slot holding the forward's result.
    num_slots:
        Total slots allocated by the trace.
    modules:
        Every module the trace touched (recorded leaves *and* containers
        traced through, including the subtree of opaque ``call_module``
        leaves).  The plan cache drops plans whose touched modules gain a
        forward hook.
    """

    def __init__(
        self,
        nodes: List[Node],
        input_slots: Tuple[int, ...],
        output_slot: int,
        num_slots: int,
        modules: List[Any],
    ) -> None:
        self.nodes = nodes
        self.input_slots = tuple(input_slots)
        self.output_slot = int(output_slot)
        self.num_slots = int(num_slots)
        self.modules = modules

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(node.kind for node in self.nodes)
        return f"Graph({len(self.nodes)} nodes: {kinds})"
