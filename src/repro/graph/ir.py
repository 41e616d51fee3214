"""A traced forward as a graph of calls, and its replay.

A traced forward is a flat list of :class:`Node` records over integer
*slots*, in trace order.  Slots are SSA values: every node reads its inputs
from slots and writes exactly one output slot; the graph's inputs and output
are slots too.  A node carries the function the eager op calls
(``fn.__qualname__`` names it), and :meth:`Graph.replay` runs
``env[output] = fn(*env[inputs])`` node by node.  No op's arithmetic is
written here, so replay ≡ eager holds by construction, down to the memory
layout of every intermediate (which decides the summation order of later
reductions); the plan cache still verifies each graph before storing it (see
:mod:`repro.graph.cache`).  The functions read weights and quantizers at
replay, and a graph holds no buffers: every replay allocates its own results,
so engine workers replay one graph concurrently and the output never aliases
an earlier call's.  Nothing here imports ``nn`` or ``quantization``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.autograd.tensor import Tensor

__all__ = ["TraceAborted", "Node", "Graph"]


class TraceAborted(RuntimeError):
    """Raised while tracing when the forward cannot be captured as a graph.

    An aborted trace is not an error for the caller: the plan cache records
    the key as eager-only and every forward for it takes the (bit-exact)
    eager path.  Typical causes: raw tensor math escaping the module tree
    (the value is untagged when a leaf consumes it), an active forward hook,
    a calibrating/observing module, or a leaf operator the tracer has no
    step for.
    """


class Node:
    """One traced operation: ``env[output] = fn(*env[inputs])``."""

    __slots__ = ("fn", "inputs", "output")

    def __init__(self, fn: Callable[..., Any], inputs: Tuple[int, ...], output: int):
        self.fn = fn
        self.inputs = tuple(inputs)
        self.output = int(output)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.fn.__qualname__}, in={self.inputs}, out={self.output})"


class Graph:
    """A traced forward: nodes in trace order over ``num_slots`` slots.

    ``input_slots`` holds one slot per positional model input and
    ``output_slot`` the result, which replay wraps in a ``Tensor`` when
    ``output_wrapped`` (the traced forward returned one).  ``modules`` lists
    every module the trace touched (leaves, containers traced through and
    the subtrees of leaves whose node runs the module): the plan cache drops
    graphs whose touched modules gain a forward hook.
    """

    def __init__(
        self,
        nodes: List[Node],
        input_slots: Tuple[int, ...],
        output_slot: int,
        num_slots: int,
        modules: List[Any],
        output_wrapped: bool,
    ) -> None:
        self.nodes = nodes
        self.input_slots = tuple(input_slots)
        self.output_slot = int(output_slot)
        self.num_slots = int(num_slots)
        self.modules = modules
        self.output_wrapped = output_wrapped
        # per node: (fn, output slot, the input slot of a one-input node or
        # None, input slots) -- replay calls a one-input fn without building
        # an argument list
        self._steps = [
            (node.fn, node.output, node.inputs[0] if len(node.inputs) == 1 else None, node.inputs)
            for node in nodes
        ]

    def replay(self, args: tuple):
        """Run the traced forward on ``args`` (the model's positional inputs)."""
        env: List[Any] = [None] * self.num_slots
        for slot, arg in zip(self.input_slots, args):
            env[slot] = arg.data if isinstance(arg, Tensor) else arg
        for fn, out, a, inputs in self._steps:
            if a is None:
                env[out] = fn(*[env[s] for s in inputs])
            else:
                env[out] = fn(env[a])
        out = env[self.output_slot]
        return Tensor(out) if self.output_wrapped else out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(node.fn.__qualname__ for node in self.nodes)
        return f"Graph({len(self.nodes)} nodes: {names})"
