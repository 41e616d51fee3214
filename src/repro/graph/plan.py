"""Compile a fused graph into a flat executable plan.

A :class:`Plan` is the replay form of a traced forward: an ordered list of
step closures over a slot environment, with every intermediate written into a
buffer preallocated at compile time.  Replaying a plan performs zero module
dispatch — no ``Module.__call__`` walk, no ``Tensor`` tape objects, no
``_process_inputs`` list rebuilding — just the same numpy kernel calls the
eager forward would have made, in the same order.

Bit-exactness contract
----------------------
LayerNorm, Softmax and GELU steps call the same array functions the eager
grad-free forwards run (:func:`~repro.autograd.functional.layer_norm_array`,
:func:`~repro.autograd.functional.softmax_array`,
:func:`~repro.autograd.tensor.gelu_parts`), so replay ≡ eager holds for them
by construction.  The remaining executors mirror the *exact* numpy expression
of the eager operator they replace (including scalar coercions to ``float32``
and the ``x + (-y)`` formulation :class:`~repro.autograd.tensor.Tensor` uses
for subtraction); a Linear step writes ``x @ W.T`` and then ``+ b`` into its
buffer, as :func:`~repro.autograd.functional.linear` computes them.  Replay
output is therefore bit-identical to eager on both FP8 decode paths (the
compiled kernel and numpy).  Writing through ``out=`` does not change results
— numpy routes to the same ufunc/GEMM either way — and the plan cache verifies
the property at compile time anyway (see :mod:`repro.graph.cache`), discarding
any plan that fails to reproduce the traced output.

Buffer policy
-------------
Each buffer-writing node owns a dedicated output buffer — buffers are never
shared between nodes, because ``reshape`` nodes alias their input and a reused
buffer could be overwritten while a view of it is still live.  Buffers are
allocated per *thread* (engine workers replay the same plan concurrently), and
the final output is copied iff it is backed by a plan buffer rather than a
freshly allocated array, so callers never observe a buffer mutating under
them on the next replay.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.functional import layer_norm_array, softmax_array
from repro.autograd.tensor import Tensor, gelu_parts
from repro.graph.ir import Graph, Node

__all__ = ["Plan", "compile_plan"]


# ----------------------------------------------------------------------
# elementwise mirrors (exact expressions from autograd.tensor; GELU shares
# its function)
# ----------------------------------------------------------------------
def _relu_to(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    # Tensor.relu: self.data * (self.data > 0)
    np.multiply(src, np.greater(src, 0), out=dst)
    return dst


def _sigmoid_to(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    # Tensor.sigmoid: 1.0 / (1.0 + np.exp(-x))
    np.negative(src, out=dst)
    np.exp(dst, out=dst)
    np.add(dst, 1.0, out=dst)
    np.divide(1.0, dst, out=dst)
    return dst


def _tanh_to(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    np.tanh(src, out=dst)
    return dst


def _gelu_fresh(src: np.ndarray) -> np.ndarray:
    return gelu_parts(src)[0]


def _silu_fresh(src: np.ndarray) -> np.ndarray:
    sig = 1.0 / (1.0 + np.exp(-src))
    return src * sig


#: ops with an in-place form: fn(src, dst) writes into dst (dst may be src)
_EW_TO: Dict[str, Callable] = {"relu": _relu_to, "sigmoid": _sigmoid_to, "tanh": _tanh_to}
#: ops that allocate their result
_EW_FRESH: Dict[str, Callable] = {"gelu": _gelu_fresh, "silu": _silu_fresh}


def _apply_epilogue(ops, arr: np.ndarray) -> np.ndarray:
    """Apply an elementwise chain to ``arr``, which the caller owns (in-place OK)."""
    for op in ops:
        to = _EW_TO.get(op)
        arr = to(arr, arr) if to is not None else _EW_FRESH[op](arr)
    return arr


def _epilogue_fresh(ops) -> bool:
    return any(op in _EW_FRESH for op in ops)


# ----------------------------------------------------------------------
# plan object
# ----------------------------------------------------------------------
class Plan:
    """An executable traced forward: ordered steps over preallocated buffers."""

    def __init__(
        self,
        graph: Graph,
        steps: List[Tuple[Callable, int]],
        buffer_specs: List[Tuple[Tuple[int, ...], Any]],
        fresh_output: bool,
        output_wrapped: bool,
    ) -> None:
        self.graph = graph
        self.output_wrapped = output_wrapped
        self._steps = steps
        self._buffer_specs = buffer_specs
        self._fresh_output = fresh_output
        self._local = threading.local()

    def _buffers(self) -> List[Optional[np.ndarray]]:
        bufs = getattr(self._local, "bufs", None)
        if bufs is None:
            bufs = [np.empty(shape, dtype=dtype) for shape, dtype in self._buffer_specs]
            self._local.bufs = bufs
        return bufs

    def replay(self, args: tuple):
        """Execute the plan on ``args`` (the model's positional inputs)."""
        env: List[Any] = [None] * self.graph.num_slots
        for slot, arg in zip(self.graph.input_slots, args):
            env[slot] = arg.data if isinstance(arg, Tensor) else arg
        bufs = self._buffers()
        for fn, bidx in self._steps:
            fn(env, bufs[bidx] if bidx >= 0 else None)
        out = env[self.graph.output_slot]
        if not self._fresh_output:
            out = out.copy()
        return Tensor(out) if self.output_wrapped else out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(f"{fn.__qualname__.split('.')[0]}" for fn, _ in self._steps)
        return f"Plan({len(self._steps)} steps, {len(self._buffer_specs)} buffers: {kinds})"


# ----------------------------------------------------------------------
# per-kind compilers: node -> (step fn, buffer spec | None, output fresh?)
# ----------------------------------------------------------------------
def _out_spec(graph: Graph, node: Node):
    shape, dtype = graph.slot_meta[node.output]
    return (shape, dtype)


def _finish(env, out, buf, epi):
    env[out] = _apply_epilogue(epi, buf) if epi else buf


def _c_linear(node, graph, fresh):
    module = node.params["module"]
    epi = node.params.get("epilogue")
    (a,) = node.inputs
    out = node.output
    weight = module.weight
    bias = module.bias

    if bias is not None:

        def fn(env, buf):
            np.matmul(env[a], weight.data.T, out=buf)
            np.add(buf, bias.data, out=buf)
            _finish(env, out, buf, epi)

    else:

        def fn(env, buf):
            np.matmul(env[a], weight.data.T, out=buf)
            _finish(env, out, buf, epi)

    return fn, _out_spec(graph, node), bool(epi) and _epilogue_fresh(epi)


def _c_qlinear(node, graph, fresh):
    module = node.params["module"]
    epi = node.params.get("epilogue")
    quantize_first = node.kind == "qlinear"
    (a,) = node.inputs
    out = node.output

    def fn(env, buf):
        x = env[a]
        if quantize_first:
            x = module.input_quantizers[0].quantize(x)
        module._bind_weight()
        np.matmul(x, module.inner.weight.data.T, out=buf)
        bias = getattr(module.inner, "bias", None)
        if bias is not None:
            np.add(buf, bias.data, out=buf)
        _finish(env, out, buf, epi)

    return fn, _out_spec(graph, node), bool(epi) and _epilogue_fresh(epi)


def _c_qlinear_stream(node, graph, fresh):
    module = node.params["module"]
    epi = node.params.get("epilogue")
    quantize_first = node.kind == "qlinear_stream"
    (a,) = node.inputs
    out = node.output

    def fn(env, buf):
        x = env[a]
        if quantize_first:
            x = module.input_quantizers[0].quantize(x)
        else:
            x = np.asarray(x, dtype=np.float32)
        module._stream_matmul(x, out=buf)
        _finish(env, out, buf, epi)

    return fn, _out_spec(graph, node), bool(epi) and _epilogue_fresh(epi)


def _c_qdq(node, graph, fresh):
    module = node.params["module"]
    index = node.params["index"]
    (a,) = node.inputs
    out = node.output

    def fn(env, buf):
        env[out] = module.input_quantizers[index].quantize(env[a])

    enabled = module.input_quantizers[index].config.enabled
    return fn, None, True if enabled else fresh.get(a, False)


def _c_ew(node, graph, fresh):
    op = node.params["op"]
    (a,) = node.inputs
    out = node.output
    to = _EW_TO.get(op)
    if to is not None:

        def fn(env, buf):
            env[out] = to(env[a], buf)

        return fn, _out_spec(graph, node), False
    fr = _EW_FRESH[op]

    def fn(env, buf):
        env[out] = fr(env[a])

    return fn, None, True


def _c_fused_ew(node, graph, fresh):
    ops = node.params["ops"]
    (a,) = node.inputs
    out = node.output
    head, tail = ops[0], ops[1:]
    head_to = _EW_TO.get(head)
    if head_to is not None:
        # the chain's input slot may have other readers, so the first op
        # writes into this node's buffer rather than in place
        def fn(env, buf):
            env[out] = _apply_epilogue(tail, head_to(env[a], buf))

        return fn, _out_spec(graph, node), _epilogue_fresh(ops)
    head_fr = _EW_FRESH[head]

    def fn(env, buf):
        env[out] = _apply_epilogue(tail, head_fr(env[a]))

    return fn, None, True


def _c_ew2(node, graph, fresh):
    ufunc = np.add if node.params["op"] == "add" else np.multiply
    epi = node.params.get("epilogue")
    a, b = node.inputs
    out = node.output

    def fn(env, buf):
        ufunc(env[a], env[b], out=buf)
        _finish(env, out, buf, epi)

    return fn, _out_spec(graph, node), bool(epi) and _epilogue_fresh(epi)


def _c_matmul2(node, graph, fresh):
    epi = node.params.get("epilogue")
    a, b = node.inputs
    out = node.output

    def fn(env, buf):
        np.matmul(env[a], env[b], out=buf)
        _finish(env, out, buf, epi)

    return fn, _out_spec(graph, node), bool(epi) and _epilogue_fresh(epi)


def _c_softmax(node, graph, fresh):
    axis = node.params["axis"]
    (a,) = node.inputs
    out = node.output

    def fn(env, buf):
        env[out] = softmax_array(env[a], axis, out=buf)

    return fn, _out_spec(graph, node), False


def _c_reshape(node, graph, fresh):
    shape = node.params["shape"]
    (a,) = node.inputs
    out = node.output

    def fn(env, buf):
        env[out] = env[a].reshape(shape)

    return fn, None, fresh.get(a, False)


def _c_embedding(node, graph, fresh):
    weight = node.params["module"].weight
    (a,) = node.inputs
    out = node.output

    def fn(env, buf):
        env[out] = weight.data[np.asarray(env[a], dtype=np.int64)]

    return fn, None, True


def _c_embedding_bag(node, graph, fresh):
    weight = node.params["module"].weight
    mode = node.params["mode"]
    (a,) = node.inputs
    out = node.output

    def fn(env, buf):
        emb = weight.data[np.asarray(env[a], dtype=np.int64)]
        s = emb.sum(axis=1)
        # Tensor.mean is sum * (1.0 / count), coerced through float32
        env[out] = s if mode == "sum" else s * np.float32(1.0 / emb.shape[1])

    return fn, None, True


def _c_layer_norm(node, graph, fresh):
    module = node.params["module"]
    (a,) = node.inputs
    out = node.output

    def fn(env, buf):
        env[out] = layer_norm_array(
            env[a], module.weight.data, module.bias.data, module.eps, out=buf
        )

    return fn, _out_spec(graph, node), False


def _c_batch_norm(node, graph, fresh):
    module = node.params["module"]
    (a,) = node.inputs
    out = node.output
    in_shape, _ = graph.slot_meta[a]
    shape = (1, -1, 1, 1) if len(in_shape) == 4 else (1, -1)

    def fn(env, buf):
        # functional.batch_norm, eval branch only (training aborts the trace)
        x = env[a]
        mean = module.running_mean.reshape(shape)
        var = module.running_var.reshape(shape)
        centered = np.add(x, np.negative(mean))
        std = np.sqrt(np.add(var, np.float32(module.eps)))
        x_hat = np.divide(centered, std)
        np.multiply(x_hat, module.weight.data.reshape(shape), out=buf)
        np.add(buf, module.bias.data.reshape(shape), out=buf)
        env[out] = buf

    return fn, _out_spec(graph, node), False


def _c_qembed(node, graph, fresh):
    module = node.params["module"]
    wrapped = node.params["wrapped"]
    (a,) = node.inputs
    out = node.output

    def fn(env, buf):
        idx = env[a]
        result = module.forward(Tensor(idx) if wrapped else idx)
        env[out] = result.data if isinstance(result, Tensor) else np.asarray(result)

    return fn, None, True


def _c_call_module(node, graph, fresh):
    module = node.params["module"]
    wrapped = node.params["wrapped"]
    kwargs = node.params["kwargs"]
    slots = node.inputs
    out = node.output

    def fn(env, buf):
        args = tuple(Tensor(env[s]) if w else env[s] for s, w in zip(slots, wrapped))
        result = module(*args, **kwargs)
        env[out] = result.data if isinstance(result, Tensor) else np.asarray(result)

    return fn, None, True


_COMPILERS: Dict[str, Callable] = {
    "linear": _c_linear,
    "qlinear": _c_qlinear,
    "qlinear_mm": _c_qlinear,
    "qlinear_stream": _c_qlinear_stream,
    "qlinear_stream_mm": _c_qlinear_stream,
    "qdq": _c_qdq,
    "ew": _c_ew,
    "fused_ew": _c_fused_ew,
    "ew2": _c_ew2,
    "matmul2": _c_matmul2,
    "softmax": _c_softmax,
    "reshape": _c_reshape,
    "embedding": _c_embedding,
    "embedding_bag": _c_embedding_bag,
    "layer_norm": _c_layer_norm,
    "batch_norm": _c_batch_norm,
    "qembed": _c_qembed,
    "call_module": _c_call_module,
}


def compile_plan(graph: Graph, output_wrapped: bool) -> Plan:
    """Lower a (fused) graph into an executable :class:`Plan`."""
    fresh: Dict[int, bool] = {slot: True for slot in graph.input_slots}
    steps: List[Tuple[Callable, int]] = []
    buffer_specs: List[Tuple[Tuple[int, ...], Any]] = []
    for node in graph.nodes:
        compiler = _COMPILERS.get(node.kind)
        if compiler is None:
            raise KeyError(f"no executor for node kind {node.kind!r}")
        fn, spec, out_fresh = compiler(node, graph, fresh)
        bidx = -1
        if spec is not None:
            bidx = len(buffer_specs)
            buffer_specs.append(spec)
        steps.append((fn, bidx))
        fresh[node.output] = out_fresh
    return Plan(graph, steps, buffer_specs, fresh.get(graph.output_slot, False), output_wrapped)
