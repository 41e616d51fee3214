"""Compile a traced graph into a flat executable plan.

A :class:`Plan` is the replay form of a traced forward: one step per graph
node, in trace order, each a closure over a slot environment.  Replaying a
plan performs zero module dispatch for the ops it names — no
``Module.__call__`` walk, no ``Tensor`` result objects — just the calls the
eager forward would have made, in the same order.

One function per step
---------------------
Each step calls, on its input slots, the function the eager op calls, and
lets it allocate its result as eager does:

* ``linear`` / ``qlinear_mm`` — :func:`~repro.autograd.functional.linear_array`
  (what :func:`~repro.autograd.functional.linear` computes; ``qlinear_mm``
  first binds the wrapper's dequantized weight, as its ``forward`` does);
* ``qlinear_stream_mm`` — :meth:`~repro.quantization.qmodules.QuantizedLinear._stream_matmul`;
* ``qdq`` — :meth:`~repro.quantization.qmodules.TensorQuantizer.quantize`;
* ``ew`` — :func:`~repro.autograd.tensor.relu_array`,
  :func:`~repro.autograd.tensor.sigmoid_array`, ``np.tanh``,
  :func:`~repro.autograd.tensor.gelu_parts` or
  :func:`~repro.autograd.tensor.silu_array`, as the ``Tensor`` methods do;
* ``ew2`` / ``matmul2`` / ``reshape`` — the numpy primitive behind
  ``Tensor.__add__``, ``__mul__``, ``matmul`` and ``reshape``;
* ``softmax`` / ``layer_norm`` — :func:`~repro.autograd.functional.softmax_array`
  and :func:`~repro.autograd.functional.layer_norm_array`;
* ``call_module`` — the module itself (opaque leaves: convolutions, pools,
  BatchNorm, GroupNorm, embeddings, attention and weight-bearing quantized
  wrappers).

No op's arithmetic is written here, so replay ≡ eager holds by
construction, down to the memory layout of every intermediate (which
decides the summation order of later reductions).  The plan cache still
verifies each plan against the traced output before storing it (see
:mod:`repro.graph.cache`).  A plan holds no buffers: every replay allocates
its own results, so engine workers replay one plan concurrently and the
output never aliases an earlier call's.  Step ``i`` replays
``graph.nodes[i]``, whose kind tags it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

import numpy as np

from repro.autograd.functional import layer_norm_array, linear_array, softmax_array
from repro.autograd.tensor import Tensor, gelu_parts, relu_array, sigmoid_array, silu_array
from repro.graph.ir import Graph, Node

__all__ = ["Plan", "compile_plan"]

Step = Callable[[List[Any]], None]


class Plan:
    """An executable traced forward: one step per graph node."""

    def __init__(self, graph: Graph, steps: List[Step], output_wrapped: bool) -> None:
        self.graph = graph
        self.output_wrapped = output_wrapped
        self._steps = steps

    def replay(self, args: tuple):
        """Execute the plan on ``args`` (the model's positional inputs)."""
        env: List[Any] = [None] * self.graph.num_slots
        for slot, arg in zip(self.graph.input_slots, args):
            env[slot] = arg.data if isinstance(arg, Tensor) else arg
        for step in self._steps:
            step(env)
        out = env[self.graph.output_slot]
        return Tensor(out) if self.output_wrapped else out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Plan({len(self._steps)} steps: {', '.join(n.kind for n in self.graph.nodes)})"


# ----------------------------------------------------------------------
# per-kind compilers: node -> step
# ----------------------------------------------------------------------
def _c_linear(node: Node) -> Step:
    module = node.params["module"]
    (a,) = node.inputs
    out = node.output
    weight, bias = module.weight, module.bias

    def step(env):
        env[out] = linear_array(env[a], weight.data, None if bias is None else bias.data)

    return step


def _c_qlinear_mm(node: Node) -> Step:
    module = node.params["module"]
    (a,) = node.inputs
    out = node.output
    weight, bias = module.inner.weight, module.inner.bias

    def step(env):
        module._bind_weight()
        env[out] = linear_array(env[a], weight.data, None if bias is None else bias.data)

    return step


def _c_qlinear_stream_mm(node: Node) -> Step:
    module = node.params["module"]
    (a,) = node.inputs
    out = node.output

    def step(env):
        env[out] = module._stream_matmul(env[a])

    return step


def _c_qdq(node: Node) -> Step:
    module = node.params["module"]
    index = node.params["index"]
    (a,) = node.inputs
    out = node.output

    def step(env):
        env[out] = module.input_quantizers[index].quantize(env[a])

    return step


def _gelu(x: np.ndarray) -> np.ndarray:
    return gelu_parts(x)[0]


_ELEMENTWISE: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": relu_array,
    "sigmoid": sigmoid_array,
    "tanh": np.tanh,
    "gelu": _gelu,
    "silu": silu_array,
}


def _c_ew(node: Node) -> Step:
    fn = _ELEMENTWISE[node.params["op"]]
    (a,) = node.inputs
    out = node.output

    def step(env):
        env[out] = fn(env[a])

    return step


_BINARY = {"add": np.add, "mul": np.multiply}


def _c_binary(node: Node) -> Step:
    # ew2 carries its op; matmul2 is Tensor.matmul's ``a @ b``
    ufunc = np.matmul if node.kind == "matmul2" else _BINARY[node.params["op"]]
    a, b = node.inputs
    out = node.output

    def step(env):
        env[out] = ufunc(env[a], env[b])

    return step


def _c_softmax(node: Node) -> Step:
    axis = node.params["axis"]
    (a,) = node.inputs
    out = node.output

    def step(env):
        env[out] = softmax_array(env[a], axis)

    return step


def _c_layer_norm(node: Node) -> Step:
    module = node.params["module"]
    (a,) = node.inputs
    out = node.output

    def step(env):
        env[out] = layer_norm_array(env[a], module.weight.data, module.bias.data, module.eps)

    return step


def _c_reshape(node: Node) -> Step:
    shape = node.params["shape"]
    (a,) = node.inputs
    out = node.output

    def step(env):
        env[out] = env[a].reshape(shape)

    return step


def _c_call_module(node: Node) -> Step:
    module = node.params["module"]
    wrapped = node.params["wrapped"]
    kwargs = node.params["kwargs"]
    slots = node.inputs
    out = node.output

    def step(env):
        args = tuple(Tensor(env[s]) if w else env[s] for s, w in zip(slots, wrapped))
        result = module(*args, **kwargs)
        env[out] = result.data if isinstance(result, Tensor) else np.asarray(result)

    return step


_COMPILERS: Dict[str, Callable[[Node], Step]] = {
    "linear": _c_linear,
    "qlinear_mm": _c_qlinear_mm,
    "qlinear_stream_mm": _c_qlinear_stream_mm,
    "qdq": _c_qdq,
    "ew": _c_ew,
    "ew2": _c_binary,
    "matmul2": _c_binary,
    "softmax": _c_softmax,
    "layer_norm": _c_layer_norm,
    "reshape": _c_reshape,
    "call_module": _c_call_module,
}


def compile_plan(graph: Graph, output_wrapped: bool) -> Plan:
    """Lower a traced graph into an executable :class:`Plan`."""
    steps = []
    for node in graph.nodes:
        compiler = _COMPILERS.get(node.kind)
        if compiler is None:
            raise KeyError(f"no executor for node kind {node.kind!r}")
        steps.append(compiler(node))
    return Plan(graph, steps, output_wrapped)
