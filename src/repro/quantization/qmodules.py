"""Quantized operator wrappers (Q/DQ emulation over packed 8-bit storage).

Quantization is emulated exactly as in the paper's framework: the wrapped
operator still computes in FP32, but its weights are rounded onto the 8-bit
grid once at convert time and its activation inputs are rounded on every
forward call (with a scale that is either calibrated offline — *static* — or
computed from the batch — *dynamic*).  Each wrapper keeps the original float
module as a submodule, so parameter traversal, state dicts and repr all keep
working after conversion.

Weight storage follows the packed memory model of :mod:`repro.fp8.quantize`:
``convert()`` packs the weight **once** into a
:class:`~repro.fp8.quantize.QuantizedTensor` (one byte per element plus
per-channel scales), and from then on the packed codes are the weight's only
storage of record — no float32 original is kept.  The wrapped operator
computes with a read-only float32 view dequantized from the codes;
:meth:`QuantizedModule.drop_weight_cache` releases it (the next forward
re-materialises it from the codes).  Activation Q/DQ routes through the
fused per-axis kernels (one absmax → scale → round → rescale call per tensor,
no materialised broadcast scale arrays).

Serving modes
-------------
After conversion a wrapper serves in one of two modes
(:meth:`QuantizedModule.set_serving_mode`):

* ``"cached"`` (default) — the float32 weight view is dequantized once and
  kept; fastest, resident bytes ≈ packed + dense float32 (≈ 1.25× fp32).
* ``"streaming"`` — packed codes are decoded on the fly inside each forward
  call and no persistent float32 view is kept (≈ 0.25× fp32).
  :class:`QuantizedLinear` streams the matmul in output-channel blocks
  (:meth:`~repro.fp8.quantize.QuantizedTensor.dequantize_block`), and
  :class:`QuantizedEmbedding` decodes only the gathered rows, so the dense
  weight is never materialised at all; other operators decode transiently
  and drop the view when the call returns.  ``prefetch="pipeline"`` (wired
  model-wide by :func:`repro.quantization.workflow.set_serving_mode`)
  decodes the blocks ahead on a shared pool across layer boundaries (see
  :mod:`repro.serving.prefetch`); the blocks are the same either way.

Whenever no view is materialised (streaming mode, after
``drop_weight_cache()``, or right after a checkpoint load) ``inner.weight`` is
bound to a read-only, 4-byte broadcast placeholder with the weight's shape.
To change a converted weight, re-quantize the float model or load a packed
checkpoint; the bound float32 array is derived and cannot be written.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Union

import numpy as np

from repro.autograd.functional import linear_array
from repro.autograd.tensor import Tensor
from repro.fp8.int8 import int8_compute_qparams, int8_quantize_dequantize
from repro.fp8.quantize import QuantizedTensor, compute_scale, quantize_dequantize
from repro.nn.attention import BatchMatMul
from repro.nn.elementwise import Add, Mul
from repro.nn.layers import Conv2d, Embedding, EmbeddingBag, Linear
from repro.nn.module import Module, bump_state_epoch
from repro.nn.norm import BatchNorm1d, BatchNorm2d, LayerNorm
from repro.quantization.observers import Observer, build_observer
from repro.quantization.qconfig import (
    Approach,
    Granularity,
    OperatorQuantConfig,
    TensorQuantConfig,
)

__all__ = [
    "SERVING_MODES",
    "PREFETCH_MODES",
    "DEFAULT_STREAM_BLOCK",
    "TensorQuantizer",
    "QuantizedModule",
    "QuantizedLinear",
    "QuantizedConv2d",
    "QuantizedEmbedding",
    "QuantizedLayerNorm",
    "QuantizedBatchNorm2d",
    "QuantizedBatchMatMul",
    "QuantizedAdd",
    "QuantizedMul",
    "QUANTIZED_MODULE_MAP",
    "wrap_module",
]

#: valid post-conversion serving modes (see the module docstring)
SERVING_MODES = ("cached", "streaming")

#: valid streaming prefetch settings: off, or cross-layer pipelined decode
#: (see serving/prefetch.py)
PREFETCH_MODES = (False, "pipeline")

#: output channels decoded per block in streaming mode for a wrapper with no
#: per-module setting
DEFAULT_STREAM_BLOCK = 64

#: held from bind to drop by every transient streaming decode: one lock for
#: the process, because a per-wrapper lock would stop wrappers from pickling
#: (process-worker templates) and deep-copying
_TRANSIENT_DECODE_LOCK = threading.Lock()


class TensorQuantizer:
    """Quantize/dequantize one tensor role (a weight or an activation input).

    The quantizer owns an :class:`~repro.quantization.observers.Observer` used
    during calibration and, after :meth:`freeze`, the calibrated range it needs
    at inference time.
    """

    def __init__(self, config: TensorQuantConfig, channel_axis: Optional[int] = None) -> None:
        self.config = config
        self.channel_axis = channel_axis if config.granularity is Granularity.PER_CHANNEL else None
        self.observer: Observer = build_observer(config, channel_axis=self.channel_axis)
        self.frozen = False
        self._absmax: Optional[np.ndarray] = None
        self._min: Optional[np.ndarray] = None
        self._max: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def observe(self, x: np.ndarray) -> None:
        if self.config.approach is Approach.STATIC and self.config.enabled:
            self.observer.observe(x)

    def freeze(self, fallback: Optional[np.ndarray] = None) -> None:
        """Fix the calibrated range.  ``fallback`` is used when no data was observed."""
        if not self.config.enabled or self.config.approach is not Approach.STATIC:
            self.frozen = True
            return
        if self.observer.ready:
            self._min, self._max = self.observer.calibrated_range()
            self._absmax = self.observer.calibrated_absmax()
        elif fallback is not None:
            self._absmax = np.asarray(np.max(np.abs(fallback)))
            self._min = np.asarray(np.min(fallback))
            self._max = np.asarray(np.max(fallback))
        else:
            raise RuntimeError(
                "static quantizer frozen without calibration data; run calibrate_model() first"
            )
        self.frozen = True

    # ------------------------------------------------------------------
    def _reshape_channelwise(self, values: np.ndarray, ndim: int) -> np.ndarray:
        if self.channel_axis is None or values.ndim == 0:
            return values
        shape = [1] * ndim
        shape[self.channel_axis] = -1
        return values.reshape(shape)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round ``x`` onto the configured 8-bit grid (returns float32)."""
        if not self.config.enabled:
            return np.asarray(x, dtype=np.float32)
        x = np.asarray(x, dtype=np.float32)
        fmt = self.config.fmt

        if fmt.is_fp8:
            fp8 = fmt.fp8_format()
            if self.config.approach is Approach.DIRECT:
                return quantize_dequantize(x, fp8, scale=np.asarray(1.0))
            if self.config.approach is Approach.DYNAMIC or not self.frozen:
                # one fused absmax→scale→round→rescale kernel call per tensor
                return quantize_dequantize(x, fp8, axis=self.channel_axis)
            absmax = self._reshape_channelwise(np.asarray(self._absmax), x.ndim)
            scale = compute_scale(x, fp8, absmax=absmax)
            return quantize_dequantize(x, fp8, scale=scale)

        # INT8 path
        spec = fmt.int8_spec()
        if self.config.approach is Approach.DYNAMIC or not self.frozen or self._min is None:
            scale, zero_point = int8_compute_qparams(x, spec=spec, axis=self.channel_axis)
        else:
            min_val = self._reshape_channelwise(np.asarray(self._min), x.ndim)
            max_val = self._reshape_channelwise(np.asarray(self._max), x.ndim)
            scale, zero_point = int8_compute_qparams(
                x, spec=spec, axis=self.channel_axis, min_val=min_val, max_val=max_val
            )
        return int8_quantize_dequantize(x, spec=spec, scale=scale, zero_point=zero_point)

    def quantize_packed(self, x: np.ndarray) -> Optional[QuantizedTensor]:
        """Pack ``x`` into real 8-bit storage (codes + scales) — the weight path.

        Returns ``None`` for a disabled (FP32) config.  Calibrated parameters
        are honoured exactly like :meth:`quantize`, and the resulting packed
        tensor dequantizes bit-identically to the values :meth:`quantize`
        produces, so swapping storage does not move any benchmark number.
        """
        if not self.config.enabled:
            return None
        x = np.asarray(x, dtype=np.float32)
        fmt = self.config.fmt

        if fmt.is_fp8:
            fp8 = fmt.fp8_format()
            if self.config.approach is Approach.DIRECT:
                return QuantizedTensor.quantize(x, fp8, scale=np.asarray(1.0))
            if self.config.approach is Approach.DYNAMIC or not self.frozen or self._absmax is None:
                return QuantizedTensor.quantize(x, fp8, axis=self.channel_axis)
            absmax = self._reshape_channelwise(np.asarray(self._absmax), x.ndim)
            return QuantizedTensor.quantize(x, fp8, absmax=absmax)

        spec = fmt.int8_spec()
        if self.config.approach is Approach.DYNAMIC or not self.frozen or self._min is None:
            return QuantizedTensor.quantize(x, spec, axis=self.channel_axis)
        min_val = self._reshape_channelwise(np.asarray(self._min), x.ndim)
        max_val = self._reshape_channelwise(np.asarray(self._max), x.ndim)
        return QuantizedTensor.quantize(
            x, spec, axis=self.channel_axis, min_val=min_val, max_val=max_val
        )

    def describe(self) -> dict:
        return {
            "format": self.config.fmt.value,
            "approach": self.config.approach.value,
            "granularity": self.config.granularity.value,
            "frozen": self.frozen,
            "absmax": None if self._absmax is None else np.asarray(self._absmax).tolist(),
        }

    # ------------------------------------------------------------------
    # calibration-state round trip (checkpointing)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the frozen calibration state (None entries = uncalibrated)."""

        def _copy(value: Optional[np.ndarray]) -> Optional[np.ndarray]:
            return None if value is None else np.array(value, copy=True)

        return {
            "frozen": self.frozen,
            "absmax": _copy(self._absmax),
            "min": _copy(self._min),
            "max": _copy(self._max),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (the observer is left untouched)."""

        def _load(value) -> Optional[np.ndarray]:
            return None if value is None else np.asarray(value)

        self.frozen = bool(state.get("frozen", False))
        self._absmax = _load(state.get("absmax"))
        self._min = _load(state.get("min"))
        self._max = _load(state.get("max"))


class QuantizedModule(Module):
    """Base wrapper: observes activations during calibration, Q/DQs them after conversion."""

    #: number of quantizable tensor inputs the wrapped operator takes
    num_inputs = 1
    #: whether the wrapped operator has a weight parameter to quantize
    has_weight = True
    #: axis of the weight tensor that indexes output channels
    weight_channel_axis = 0
    #: output channels decoded per block by a blocked streaming kernel; bounds
    #: Linear's transient float32 working set to ``block * in_features * 4``
    #: bytes.  Assigning it on an instance overrides the class default for
    #: that module (see ``streaming_block_size()``).
    streaming_block_channels = DEFAULT_STREAM_BLOCK
    #: streaming block prefetch setting (one of PREFETCH_MODES; honoured by
    #: operators with a blocked streaming kernel; see serving/prefetch.py)
    streaming_prefetch: Union[bool, str] = False
    #: cross-layer pipeline coordinator wired by the workflow when
    #: ``streaming_prefetch == "pipeline"`` (see workflow.set_serving_mode)
    _pipeline = None

    def __init__(self, inner: Module, config: OperatorQuantConfig, name: str = "") -> None:
        super().__init__()
        self.inner = inner
        self.config = config
        self.module_name = name
        self.observing = False
        self.quantizing = False
        self.input_quantizers = [TensorQuantizer(config.activation) for _ in range(self.num_inputs)]
        self.weight_quantizer: Optional[TensorQuantizer] = None
        if self.has_weight and config.weight is not None and hasattr(inner, "weight"):
            self.weight_quantizer = TensorQuantizer(
                config.weight, channel_axis=self.weight_channel_axis
            )
        #: packed 8-bit storage of record for the quantized weight
        self.weight_q: Optional[QuantizedTensor] = None
        #: lazily dequantized, read-only float32 compute view of ``weight_q``
        self._weight_cache: Optional[np.ndarray] = None
        #: how the packed weight is served after conversion (see SERVING_MODES)
        self.serving_mode = "cached"

    # ------------------------------------------------------------------
    # calibration / conversion lifecycle
    # ------------------------------------------------------------------
    def start_observing(self) -> None:
        self.observing = True
        bump_state_epoch()

    def stop_observing(self) -> None:
        self.observing = False
        bump_state_epoch()

    def convert(self) -> None:
        """Freeze activation ranges and pack the weight into 8-bit storage.

        The packed codes replace the float32 weight: ``inner.weight`` is bound
        to the read-only dequantized view (cached mode) or to the placeholder
        (streaming mode), and the float32 array it held is released.
        Idempotent: a second ``convert()`` leaves the codes and the bound view
        unchanged.
        """
        if self.quantizing:
            self.observing = False
            bump_state_epoch()
            return
        for quantizer, fallback in zip(self.input_quantizers, self._calibration_fallbacks()):
            quantizer.freeze(fallback=fallback)
        if self.weight_quantizer is not None:
            self.weight_q = self.weight_quantizer.quantize_packed(self.inner.weight.data)
            self._weight_cache = None
        self.observing = False
        self.quantizing = True
        if self.serving_mode == "streaming":
            # Streaming's no-persistent-float32 contract holds from the first
            # forward: never materialise the dequant cache at convert time.
            self.drop_weight_cache()
        else:
            # Bind the dequantized view now so the module's visible weights
            # (repr, forward) are the quantized ones from the moment of
            # conversion.
            self._bind_weight()
        bump_state_epoch()

    def set_serving_mode(self, mode: str, prefetch: Union[bool, str, None] = None) -> None:
        """Select how the packed weight is served: ``"cached"`` or ``"streaming"``.

        ``prefetch`` selects the block prefetch strategy for operators with a
        blocked streaming kernel: ``False`` decodes inline, ``"pipeline"``
        pipelines decode across consecutive streaming layers via a shared
        pool (the model-level wiring lives in
        :func:`repro.quantization.workflow.set_serving_mode`; without a wired
        coordinator the module decodes inline).  ``None`` leaves the setting
        unchanged.  Blocks are :meth:`streaming_block_size` output channels.
        """
        if mode not in SERVING_MODES:
            raise ValueError(f"unknown serving mode {mode!r}; expected one of {SERVING_MODES}")
        if prefetch is not None:
            if prefetch is not False and prefetch != "pipeline":
                raise ValueError(
                    f"unknown prefetch setting {prefetch!r}; expected one of {PREFETCH_MODES}"
                )
            self.streaming_prefetch = prefetch
            if prefetch is False:
                # a stale cross-layer coordinator must not outlive the setting
                self._pipeline = None
        self.serving_mode = mode
        if mode == "streaming":
            self.drop_weight_cache()
        # any serving-mode/prefetch change reshapes the traced forward:
        # invalidate every compiled plan (see repro.graph.cache)
        bump_state_epoch()

    def streaming_block_size(self) -> int:
        """This module's streaming block size (output channels decoded per block):
        ``streaming_block_channels``, the class default unless assigned on the
        instance."""
        return max(1, int(self.streaming_block_channels))

    def _calibration_fallbacks(self) -> Sequence[Optional[np.ndarray]]:
        """Per-input fallback data for freezing without calibration (weights only)."""
        return [None] * self.num_inputs

    # ------------------------------------------------------------------
    # packed weight plumbing
    # ------------------------------------------------------------------
    def quantized_weight(self) -> Optional[np.ndarray]:
        """The float32 compute view of the packed weight (dequantized on demand, cached).

        The view is read-only: it is derived from ``weight_q``, so a write
        into it (``load_state_dict`` copying into the bound parameter, say)
        would change what the wrapper serves but not what it saves.
        """
        if self.weight_q is None:
            return None
        if self._weight_cache is None:
            view = self.weight_q.dequantize()
            view.flags.writeable = False
            self._weight_cache = view
        return self._weight_cache

    def _bind_weight(self) -> None:
        """Point ``inner.weight`` at the dequantized view while quantizing."""
        if not self.quantizing or self.weight_q is None:
            return
        cache = self.quantized_weight()
        if self.inner.weight.data is not cache:
            self.inner.weight.data = cache

    def drop_weight_cache(self) -> None:
        """Release the float32 weight view; packed codes stay authoritative.

        ``inner.weight`` becomes a read-only placeholder with the weight's
        shape and 4 bytes of storage (``np.broadcast_to`` shares one zero), so
        shape introspection keeps working while the dropped view is really
        freed rather than staying reachable through the bound parameter.  The
        next quantized forward re-materialises the view from the packed codes.
        """
        if self.weight_q is not None:
            self.inner.weight.data = np.broadcast_to(
                np.zeros(1, dtype=np.float32), self.weight_q.shape
            )
        self._weight_cache = None

    def weight_resident_arrays(self) -> Sequence[np.ndarray]:
        """Arrays this wrapper keeps alive for its weight beyond ``inner.weight``.

        Used by :func:`repro.quantization.workflow.resident_report` to tally
        actual resident bytes: the packed codes/scales/zero points and the
        dequantized view (if materialised).
        """
        arrays = []
        if self.weight_q is not None:
            arrays.append(self.weight_q.codes)
            arrays.append(np.asarray(self.weight_q.scale))
            if self.weight_q.zero_point is not None:
                arrays.append(np.asarray(self.weight_q.zero_point))
        if self._weight_cache is not None:
            arrays.append(self._weight_cache)
        return arrays

    def weight_storage_nbytes(self) -> Optional[dict]:
        """Packed vs dense byte counts for the quantized weight (None if unquantized)."""
        if self.weight_q is None:
            return None
        return {
            "packed_bytes": self.weight_q.nbytes,
            "fp32_bytes": self.weight_q.nbytes_dense,
            "ratio": self.weight_q.compression_ratio,
        }

    # ------------------------------------------------------------------
    def _process_inputs(self, inputs):
        processed = []
        for idx, value in enumerate(inputs):
            if isinstance(value, Tensor) and idx < len(self.input_quantizers):
                if self.observing:
                    self.input_quantizers[idx].observe(value.data)
                if self.quantizing:
                    value = Tensor(self.input_quantizers[idx].quantize(value.data))
            processed.append(value)
        return processed

    def forward(self, *inputs, **kwargs):
        if self._is_streaming():
            return self._forward_streaming(*inputs, **kwargs)
        self._bind_weight()
        return self.inner(*self._process_inputs(inputs), **kwargs)

    def _is_streaming(self) -> bool:
        return self.serving_mode == "streaming" and self.quantizing and self.weight_q is not None

    def _forward_streaming(self, *inputs, **kwargs):
        """Decode-on-the-fly fallback: transient dequant → compute → drop.

        Operators with a structured streaming kernel (Linear's blocked matmul,
        Embedding's gather-decode) override this; the fallback still honours
        the no-persistent-cache contract — the float32 view only lives for the
        duration of the call.  The view is bound on the shared ``inner``, so
        the call holds ``_TRANSIENT_DECODE_LOCK`` from bind to drop: another
        thread serving the same model would otherwise run on the placeholder.
        """
        with _TRANSIENT_DECODE_LOCK:
            try:
                self._bind_weight()
                return self.inner(*self._process_inputs(inputs), **kwargs)
            finally:
                self.drop_weight_cache()

    # ------------------------------------------------------------------
    # tracing integration (see repro.graph)
    # ------------------------------------------------------------------
    def trace_emit(self, tracer, args, kwargs):
        """Describe this wrapper's forward to an active tracer as graph nodes.

        Records a Q/DQ node for each quantized Tensor input (skipped for
        disabled configs, whose quantize is a pass-through) and then hands
        the quantized values to :meth:`~repro.graph.tracer.Tracer.emit_leaf`,
        which records the wrapped operator's node.  Weight-bearing wrappers
        without a structured decomposition (Conv2d) record one node that runs
        the wrapper's ``forward()`` instead, which re-binds the dequant cache.
        Returns the real output of the call, or ``None`` to decline — the
        trace then falls back to eager for this input key.  Only consulted
        while ``quantizing``; generic transient-decode streaming declines
        (only operators with a structured streaming kernel — Linear,
        Embedding — override this with a streaming emitter).
        """
        if kwargs:
            return None
        if self._is_streaming():
            return None
        if self.has_weight and self.weight_q is not None:
            return tracer.record_opaque(self, args, kwargs)
        processed = self._trace_emit_qdq(tracer, args)
        return tracer.emit_leaf(self.inner, tuple(processed), {})

    def _trace_emit_qdq(self, tracer, args):
        """Record one Q/DQ node per quantized Tensor input; mirrors _process_inputs."""
        processed = []
        for idx, value in enumerate(args):
            if (
                isinstance(value, Tensor)
                and idx < len(self.input_quantizers)
                and self.input_quantizers[idx].config.enabled
            ):
                slot = tracer.slot_of(value)
                q = Tensor(self.input_quantizers[idx].quantize(value.data))
                tracer.record(self._input_qdq(idx), (slot,), q)
                processed.append(q)
            else:
                if isinstance(value, (Tensor, np.ndarray)):
                    tracer.slot_of(value)
                processed.append(value)
        return processed

    def _input_qdq(self, index: int):
        """The Q/DQ step of input ``index``: its quantizer, looked up at replay."""

        def quantize_input(x: np.ndarray) -> np.ndarray:
            return self.input_quantizers[index].quantize(x)

        return quantize_input

    # ------------------------------------------------------------------
    # state-dict composition (packed checkpointing)
    # ------------------------------------------------------------------
    def state_dict_excluded_keys(self):
        # Once the weight is packed, the codes in the extra state are the
        # storage of record and the bound float32 array is derived from them
        # (the dequantized view, or the placeholder) — snapshotting it would
        # copy a dense array that set_extra_state immediately supersedes.
        if self.weight_q is not None:
            return ("inner.weight",)
        return ()

    def get_extra_state(self) -> dict:
        """Everything beyond params/buffers needed to rebuild this wrapper.

        Composed into ``Module.state_dict()`` under ``<name>._extra_state``
        and written verbatim into packed checkpoints: the operator config, the
        conversion flag and serving mode, the frozen calibration state of every
        quantizer and — crucially — the packed weight codes/scales, so a
        checkpoint round trip never materialises the float32 weight.
        """
        state = {
            "config": self.config.to_dict(),
            "inner_type": type(self.inner).__name__,
            "quantizing": self.quantizing,
            "serving_mode": self.serving_mode,
            "input_quantizers": [q.state_dict() for q in self.input_quantizers],
            "weight_quantizer": (
                None if self.weight_quantizer is None else self.weight_quantizer.state_dict()
            ),
        }
        if self.weight_q is not None:
            weight_state = {
                "codes": self.weight_q.codes.copy(),
                "scale": np.array(self.weight_q.scale, copy=True),
                "format": self.weight_q.fmt.name,
            }
            if self.weight_q.zero_point is not None:
                weight_state["zero_point"] = np.array(self.weight_q.zero_point, copy=True)
            state["weight_q"] = weight_state
        return state

    def check_extra_state(self, state) -> None:
        """Reject a payload that is not a wrapper's, or that was saved for
        another inner module type, before anything is restored."""
        name = self.module_name or "wrapper"
        if not isinstance(state, dict) or "config" not in state:
            raise ValueError(f"extra state for {name} is not a quantized wrapper's state")
        inner_type = state.get("inner_type")
        if inner_type is not None and inner_type != type(self.inner).__name__:
            raise ValueError(
                f"extra state for {name} was saved for inner module "
                f"type {inner_type}, but this wrapper holds {type(self.inner).__name__}"
            )

    def set_extra_state(self, state: dict) -> None:
        """Rebuild quantizers, packed weight and lifecycle flags from :meth:`get_extra_state`.

        The float32 weight view is *not* materialised here: the placeholder is
        bound (releasing whatever float32 weight the wrapper held) and the next
        forward rebuilds the view from the packed codes.  The ``"deployed"``
        flag that older checkpoints carry is ignored: every loaded wrapper is
        served the same way.
        """
        self.check_extra_state(state)
        self.config = OperatorQuantConfig.from_dict(state["config"])
        self.input_quantizers = [
            TensorQuantizer(self.config.activation) for _ in range(self.num_inputs)
        ]
        for quantizer, qstate in zip(self.input_quantizers, state.get("input_quantizers", [])):
            quantizer.load_state_dict(qstate)
        self.weight_quantizer = None
        if self.has_weight and self.config.weight is not None and hasattr(self.inner, "weight"):
            self.weight_quantizer = TensorQuantizer(
                self.config.weight, channel_axis=self.weight_channel_axis
            )
            if state.get("weight_quantizer") is not None:
                self.weight_quantizer.load_state_dict(state["weight_quantizer"])
        weight_state = state.get("weight_q")
        self.weight_q = (
            None if weight_state is None else QuantizedTensor.from_state_dict(weight_state)
        )
        self._weight_cache = None
        self.observing = False
        self.quantizing = bool(state.get("quantizing", False))
        self.set_serving_mode(state.get("serving_mode", "cached"))
        self.drop_weight_cache()

    def extra_repr(self) -> str:
        act = self.config.activation
        w = self.config.weight
        parts = [f"activation={act.fmt.value}/{act.approach.value}"]
        if w is not None and self.has_weight:
            parts.append(f"weight={w.fmt.value}/{w.granularity.value}")
        if self.quantizing and self.serving_mode != "cached":
            parts.append(f"serving={self.serving_mode}")
        return ", ".join(parts)


class QuantizedLinear(QuantizedModule):
    """Quantized fully-connected layer (per-channel weights, per-tensor activations)."""

    num_inputs = 1
    has_weight = True

    def _forward_streaming(self, x, **kwargs):
        """Decode-on-the-fly matmul: stream packed weight rows through the kernel.

        ``y[..., s:e] = x @ W[s:e].T`` with each block of ``W`` dequantized
        from the packed codes (one fused decode → rescale call per block) and
        discarded immediately — the dense float32 weight never exists, which
        is what makes the memory-bound serving path genuinely packed-resident.
        ``x`` may carry any number of leading batch dimensions; the whole
        batch shares each decoded block, which is what the serving engine's
        request batching amortises.  Inference only (no autograd tape is
        recorded).
        """
        (x,) = self._process_inputs((x,))
        return Tensor(self._stream_matmul(x.data if isinstance(x, Tensor) else x))

    def _stream_matmul(self, x: np.ndarray) -> np.ndarray:
        """The blocked streaming matmul on an already-processed input array.

        The eager forward and the traced graph's streaming node both call
        this, so replay is bit-identical to eager in streaming mode.
        """
        x_np = np.asarray(x, dtype=np.float32)
        wq = self.weight_q
        y = np.empty(x_np.shape[:-1] + (wq.shape[0],), dtype=np.float32)
        for start, stop, w_block in self._iter_weight_blocks():
            np.matmul(x_np, w_block.T, out=y[..., start:stop])
        bias = getattr(self.inner, "bias", None)
        if bias is not None:
            np.add(y, bias.data, out=y)
        return y

    def _cached_matmul(self, x: np.ndarray) -> np.ndarray:
        """The cached-mode matmul on an already-processed input array: binds
        the dequantized view, as :meth:`forward` does, then calls what the
        wrapped Linear's forward calls."""
        self._bind_weight()
        bias = self.inner.bias
        return linear_array(x, self.inner.weight.data, None if bias is None else bias.data)

    def trace_emit(self, tracer, args, kwargs):
        """Record a Q/DQ node (when the activation is quantized), then a node
        calling :meth:`_cached_matmul` or, streaming, :meth:`_stream_matmul`."""
        if kwargs:
            return None
        (x,) = args
        if not isinstance(x, (Tensor, np.ndarray)):
            return None
        (mm_in,) = self._trace_emit_qdq(tracer, args)
        x_slot = tracer.slot_of(mm_in)
        if self._is_streaming():
            output = Tensor(self._stream_matmul(mm_in.data if isinstance(mm_in, Tensor) else mm_in))
            tracer.record(self._stream_matmul, (x_slot,), output)
        else:
            self._bind_weight()
            output = self.inner(mm_in)
            tracer.record(self._cached_matmul, (x_slot,), output)
        return output

    def _iter_weight_blocks(self):
        """Yield ``(start, stop, float32 block)`` over the packed weight's axis 0.

        A wired ``"pipeline"`` coordinator streams from the model's shared
        cross-layer decode window (layer k+1's head blocks decode while this
        layer's tail is consumed); otherwise blocks decode inline.  Both
        produce bit-identical blocks — only the schedule differs.
        """
        if self.streaming_prefetch == "pipeline" and self._pipeline is not None:
            return self._pipeline.iter_blocks(self)
        return self._decode_blocks_sequential()

    def _decode_blocks_sequential(self):
        block = self.streaming_block_size()
        wq = self.weight_q
        out_features = wq.shape[0]
        for start in range(0, out_features, block):
            stop = min(start + block, out_features)
            yield start, stop, wq.dequantize_block(start, stop, axis=0)


class QuantizedConv2d(QuantizedModule):
    """Quantized 2D convolution."""

    num_inputs = 1
    has_weight = True


class QuantizedEmbedding(QuantizedModule):
    """Quantized embedding table: only the weight is quantized (indices are integers)."""

    num_inputs = 0
    has_weight = True

    def forward(self, indices, **kwargs):
        if self._is_streaming():
            return self._forward_streaming(indices, **kwargs)
        self._bind_weight()
        return self.inner(indices, **kwargs)

    def trace_emit(self, tracer, args, kwargs):
        """One node running the wrapper's ``forward`` in either serving mode:
        the cached lookup or the gather-decode."""
        return tracer.record_opaque(self, args, kwargs)

    def _forward_streaming(self, indices, **kwargs):
        """Gather-decode: pull only the looked-up rows out of packed storage.

        The classic memory-bound serving win — bytes moved scale with the
        batch's vocabulary footprint (1 byte/element + its row scale), not the
        table size.  Indices are deduplicated first, so a batch that looks the
        same token up many times (padding, stop words, repeated prompts)
        decodes each distinct row exactly once and fans the result back out
        with the inverse permutation.  ``EmbeddingBag`` reductions fall back
        to the generic transient-decode path.  Inference only.
        """
        if type(self.inner) is not Embedding:
            return super()._forward_streaming(indices, **kwargs)
        idx = np.asarray(indices, dtype=np.int64)
        wq = self.weight_q
        unique, inverse = np.unique(idx, return_inverse=True)
        gathered = QuantizedTensor(
            codes=wq.codes[unique],
            scale=self._gather_param(np.asarray(wq.scale), unique, wq.ndim),
            fmt=wq.fmt,
            zero_point=(
                None
                if wq.zero_point is None
                else self._gather_param(np.asarray(wq.zero_point), unique, wq.ndim)
            ),
        )
        # numpy < 2.0 returns a flat inverse; reshape is a no-op on >= 2.0
        return Tensor(gathered.dequantize()[inverse.reshape(idx.shape)])

    @staticmethod
    def _gather_param(param: np.ndarray, idx: np.ndarray, weight_ndim: int) -> np.ndarray:
        """Gather per-row scales/zero-points along axis 0 (per-tensor pass through)."""
        if param.ndim == weight_ndim and param.shape[0] != 1:
            return param[idx]
        return param


class QuantizedLayerNorm(QuantizedModule):
    """LayerNorm with quantized input activations (extended scheme operator)."""

    num_inputs = 1
    has_weight = False


class QuantizedBatchNorm2d(QuantizedModule):
    """BatchNorm with quantized input activations (extended scheme operator)."""

    num_inputs = 1
    has_weight = False


class QuantizedBatchMatMul(QuantizedModule):
    """Batched matmul with both inputs quantized (attention QK^T and probs-V products)."""

    num_inputs = 2
    has_weight = False


class QuantizedAdd(QuantizedModule):
    """Element-wise addition with both inputs quantized (residual connections)."""

    num_inputs = 2
    has_weight = False


class QuantizedMul(QuantizedModule):
    """Element-wise multiplication with both inputs quantized (gating)."""

    num_inputs = 2
    has_weight = False


#: maps operator type names (as used in recipes) to (module class, wrapper class)
QUANTIZED_MODULE_MAP = {
    "Linear": (Linear, QuantizedLinear),
    "Conv2d": (Conv2d, QuantizedConv2d),
    "Embedding": (Embedding, QuantizedEmbedding),
    "EmbeddingBag": (EmbeddingBag, QuantizedEmbedding),
    "LayerNorm": (LayerNorm, QuantizedLayerNorm),
    "BatchNorm2d": (BatchNorm2d, QuantizedBatchNorm2d),
    "BatchNorm1d": (BatchNorm1d, QuantizedBatchNorm2d),
    "BatchMatMul": (BatchMatMul, QuantizedBatchMatMul),
    "Add": (Add, QuantizedAdd),
    "Mul": (Mul, QuantizedMul),
}


def wrap_module(
    type_name: str, module: Module, config: OperatorQuantConfig, name: str = ""
) -> QuantizedModule:
    """Wrap ``module`` with the quantized wrapper registered for ``type_name``."""
    if type_name not in QUANTIZED_MODULE_MAP:
        raise KeyError(f"no quantized wrapper registered for operator type {type_name!r}")
    _, wrapper_cls = QUANTIZED_MODULE_MAP[type_name]
    return wrapper_cls(module, config, name=name)
