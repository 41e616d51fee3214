"""Vectorised FP8 rounding, scaled quantize/dequantize and packed 8-bit storage.

Rounding and Q/DQ run the bit-twiddling numpy kernels, and the packed
decode runs the compiled C kernel when a C compiler is present (see
:mod:`repro.fp8.kernels`); the table-based ``reference`` functions there are
the tests' oracle.

The paper's quantization flow (Section 3.1) uses

* **per-tensor scaling for activations**, ``s = float_max / max_T`` (Eq. 2)
  where ``max_T`` is the calibrated absolute maximum of the tensor, and
* **per-channel scaling for weights**, the same formula applied per output
  channel.

``E5M2`` is used with *direct* quantization (scale = 1) because its dynamic
range is large enough to cover typical activations without calibration;
``E4M3``/``E3M4`` use max scaling.

Memory model: packed at rest, float32 in compute
------------------------------------------------
The emulation computes in FP32 (values are rounded onto the 8-bit grid, not
arithmetically narrowed), but *storage* matches the deployed artifact:
:class:`QuantizedTensor` holds one byte per element — raw FP8 codes
(``uint8``, ``sign<<7 | magnitude``) or INT8 codes (``int8``) — plus a
per-tensor or per-channel scale (and a zero point for asymmetric INT8) in
their reduced ``keepdims`` shape.  ``dequantize()`` re-materialises a float32
tensor on demand; callers that need the dequantized values repeatedly (the
operator wrappers in :mod:`repro.quantization.qmodules`) cache that float32
view and can drop it at any time, because the packed codes remain the storage
of record.  A float32 weight therefore costs ``~0.25x`` its dense bytes at
rest (codes + scales), which is what ``benchmarks/bench_memory_footprint.py``
measures.

Quantizing into and out of packed storage goes through the fused per-axis
kernels (:func:`repro.fp8.kernels.fp8_quantize_channelwise` /
:func:`~repro.fp8.kernels.fp8_dequantize_channelwise`), so
``QuantizedTensor.quantize(x, fmt, axis=a).dequantize()`` is bit-identical to
the Q/DQ round trip ``quantize_dequantize(x, fmt, axis=a)`` — with one
deliberate exception: packed codes keep the sign of a rounded-to-zero
negative value (``-0.0`` decodes as ``-0.0``), while the value-domain round
trip normalises it to ``+0.0``.  NaN encodes to the format's canonical NaN
code and decodes back to NaN; INT8 has no NaN representation, so NaNs land on
the zero-point code (dequantizing to 0.0), as real INT8 storage would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.fp8 import kernels
from repro.fp8.formats import FP8Format, get_format
from repro.fp8.int8 import (
    INT8_SPEC_REGISTRY,
    Int8Spec,
    int8_dequantize_channelwise,
    int8_quantize_channelwise,
)

__all__ = [
    "fp8_round",
    "compute_scale",
    "quantize_to_fp8",
    "quantize_dequantize",
    "QuantizedTensor",
    "is_memory_mapped",
]


def is_memory_mapped(array: Optional[np.ndarray]) -> bool:
    """True if ``array``'s storage is a view into an ``np.memmap`` mapping.

    mmap-loaded checkpoints hand packed codes/scales back as zero-copy views
    into the mapped file; walking the ``base`` chain finds the owning memmap
    regardless of how many slice/``asarray`` views sit on top.  Used by
    :func:`repro.quantization.workflow.resident_report` to count mapped bytes
    (paged on demand by the kernel) separately from materialised resident
    bytes.
    """
    while isinstance(array, np.ndarray):
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return False

FormatLike = Union[str, FP8Format]
StorageFormat = Union[FP8Format, Int8Spec]
AnyFormatLike = Union[str, FP8Format, Int8Spec]


def _resolve(fmt: FormatLike) -> FP8Format:
    if isinstance(fmt, FP8Format):
        return fmt
    return get_format(fmt)


def _resolve_storage(fmt: AnyFormatLike) -> StorageFormat:
    """Resolve a format name to either an FP8 format or an INT8 spec."""
    if isinstance(fmt, (FP8Format, Int8Spec)):
        return fmt
    for spec_name, spec in INT8_SPEC_REGISTRY.items():
        if fmt.lower() == spec_name.lower():
            return spec
    return get_format(fmt)


def fp8_round(x: np.ndarray, fmt: FormatLike) -> np.ndarray:
    """Round ``x`` to the nearest representable value of ``fmt``.

    Implements round-to-nearest, ties-to-even-mantissa, with saturation:
    magnitudes above ``fmt.max_value`` are clamped to ``±max_value`` (this is
    the behaviour the paper relies on, since the scale maps the calibrated
    absmax exactly onto ``max_value``).  NaNs propagate; infinities saturate.

    Parameters
    ----------
    x:
        Input array (any shape, any float dtype).
    fmt:
        Target FP8 format or its name.

    Returns
    -------
    np.ndarray
        Array of the same shape with float32 values lying on the format grid.
    """
    return kernels.fp8_round_fast(x, _resolve(fmt))


def compute_scale(
    x: np.ndarray,
    fmt: FormatLike,
    axis: Optional[Union[int, Sequence[int]]] = None,
    absmax: Optional[np.ndarray] = None,
    eps: float = 1e-12,
) -> np.ndarray:
    """Compute the max-scaling factor ``s = float_max / max_T`` (paper Eq. 2).

    The reduction runs on the tensor's native dtype in a single pass (see
    :func:`repro.fp8.kernels.channel_absmax`); only the reduced absmax is
    promoted to float64.  Non-finite absmax entries (an all-NaN channel, inf
    from overflowed calibration) map to scale 1.0 with a warning instead of
    poisoning every element that shares the scale.

    Parameters
    ----------
    x:
        Tensor used for calibration (ignored if ``absmax`` is given).
    fmt:
        Target FP8 format.
    axis:
        ``None`` for per-tensor scaling; otherwise the axes to *reduce over*
        are every axis **except** the listed channel axis/axes (i.e. passing
        ``axis=0`` gives one scale per index along dimension 0).
    absmax:
        Pre-computed calibrated absolute maximum (overrides ``x``).
    eps:
        Lower bound on the absmax to avoid division by zero.

    Returns
    -------
    np.ndarray
        Scale factor(s): scalar array for per-tensor, broadcastable array for
        per-channel.
    """
    fmt = _resolve(fmt)
    if absmax is None:
        absmax = kernels.channel_absmax(x, axis)
    return kernels.absmax_to_scale(absmax, fmt.max_value, eps=eps)


def quantize_to_fp8(
    x: np.ndarray,
    fmt: FormatLike,
    scale: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Quantize ``x`` into the FP8 grid (returns values still scaled by ``scale``).

    ``q = fp8_round(x * scale)``.  Use :func:`quantize_dequantize` for the
    round-trip used by emulated inference, or :meth:`QuantizedTensor.quantize`
    for packed 8-bit storage.
    """
    fmt = _resolve(fmt)
    x = np.asarray(x, dtype=np.float64)
    if scale is None:
        scale = np.asarray(1.0)
    return fp8_round(x * scale, fmt)


def quantize_dequantize(
    x: np.ndarray,
    fmt: FormatLike,
    scale: Optional[np.ndarray] = None,
    axis: Optional[Union[int, Sequence[int]]] = None,
) -> np.ndarray:
    """Emulated FP8 cast: scale, round onto the grid, then rescale back.

    This is the core Q/DQ primitive used by all quantized operators in
    :mod:`repro.quantization`: compute stays in FP32 but the values have been
    forced onto the 8-bit grid, exactly as in the paper's emulation framework.

    When ``scale`` is None the whole absmax → scale → round → rescale chain
    runs as one fused per-axis kernel call
    (:func:`repro.fp8.kernels.quantize_dequantize_axis`).

    Parameters
    ----------
    x:
        Input tensor.
    fmt:
        Target format.
    scale:
        Pre-computed scale; if ``None`` it is computed from ``x`` with max
        scaling (per-tensor if ``axis`` is None, per-channel otherwise).
        E5M2 conventionally uses ``scale=1`` (direct cast) — pass it explicitly.
    axis:
        Channel axis for per-channel scaling when ``scale`` is None.
    """
    fmt = _resolve(fmt)
    if scale is None:
        return kernels.quantize_dequantize_axis(x, fmt, axis=axis)
    return kernels.quantize_dequantize_fused(x, fmt, np.asarray(scale, dtype=np.float64))


#: first-touch integrity hook for mmap-loaded checkpoint views.  ``None``
#: (a single global check on the decode path) until the serialization layer
#: registers lazily-verified spans, at which point the container module
#: assigns :func:`repro.serialization.container.verify_view` here — this
#: module never imports the serialization package.
_integrity_hook = None


def _verify_touch(*arrays) -> None:
    hook = _integrity_hook
    if hook is None:
        return
    for array in arrays:
        if isinstance(array, np.ndarray):
            hook(array)


@dataclass
class QuantizedTensor:
    """A tensor packed into real 8-bit storage together with its scale.

    ``codes`` holds one byte per element: raw FP8 codes (``uint8``) for FP8
    formats, signed integer codes (``int8``) for INT8 specs.  ``scale`` (and
    ``zero_point`` for asymmetric INT8) keep their reduced per-tensor or
    per-channel ``keepdims`` shape.  ``dequantize()`` re-materialises the
    float32 values through the fused decode → rescale kernel; the packed codes
    stay authoritative, so the float32 view can be recomputed (or dropped) at
    any time.  See the module docstring for the full memory model.
    """

    codes: np.ndarray
    scale: np.ndarray
    fmt: StorageFormat
    zero_point: Optional[np.ndarray] = None

    @property
    def is_fp8(self) -> bool:
        return isinstance(self.fmt, FP8Format)

    # ------------------------------------------------------------------
    # construction / round trip
    # ------------------------------------------------------------------
    @classmethod
    def quantize(
        cls,
        x: np.ndarray,
        fmt: AnyFormatLike,
        axis: Optional[Union[int, Sequence[int]]] = None,
        scale: Optional[np.ndarray] = None,
        absmax: Optional[np.ndarray] = None,
        zero_point: Optional[np.ndarray] = None,
        min_val: Optional[np.ndarray] = None,
        max_val: Optional[np.ndarray] = None,
    ) -> "QuantizedTensor":
        """Pack ``x`` into 8-bit codes through the fused per-axis kernels.

        The input stays in its native float width end to end (no float64 copy
        of the tensor is made) and the encode runs the same bit-twiddling
        kernel as :func:`quantize_dequantize`: for any input,
        ``QuantizedTensor.quantize(x, fmt, axis=a).dequantize()`` equals
        ``quantize_dequantize(x, fmt, axis=a)`` bit for bit (modulo the sign
        of zeros — see the module docstring).

        ``scale``/``absmax`` (FP8) or ``scale``+``zero_point`` /
        ``min_val``/``max_val`` (INT8) inject calibrated parameters; when
        omitted they are computed from ``x`` in the same fused call.
        """
        fmt = _resolve_storage(fmt)
        if isinstance(fmt, Int8Spec):
            codes, scale, zero_point = int8_quantize_channelwise(
                x,
                spec=fmt,
                axis=axis,
                scale=scale,
                zero_point=zero_point,
                min_val=min_val,
                max_val=max_val,
            )
            return cls(codes=codes, scale=scale, fmt=fmt, zero_point=zero_point)
        codes, scale = kernels.fp8_quantize_channelwise(
            x, fmt, axis=axis, absmax=absmax, scale=scale
        )
        return cls(codes=codes, scale=scale, fmt=fmt)

    def dequantize(self) -> np.ndarray:
        """Decode the packed codes back to float32 (fused decode → rescale).

        The first decode of an mmap-loaded tensor verifies its checkpoint
        spans' integrity digests (see
        :func:`repro.serialization.container.verify_view`) and raises
        :class:`~repro.serialization.container.ChecksumError` for a corrupt
        payload instead of silently decoding garbage.
        """
        _verify_touch(self.codes, self.scale, self.zero_point)
        if self.is_fp8:
            return kernels.fp8_dequantize_channelwise(self.codes, self.fmt, self.scale)
        return int8_dequantize_channelwise(self.codes, self.scale, self.zero_point)

    def dequantize_block(self, start: int, stop: int, axis: int = 0) -> np.ndarray:
        """Decode only codes ``[start:stop)`` along ``axis`` to float32.

        This is the streaming-serving primitive: a decode-on-the-fly matmul
        walks the packed weight in channel blocks, so at no point does a full
        dense float32 copy of the tensor exist — only ``stop - start``
        channels' worth of transient decode output.  Per-channel scales (and
        zero points) are sliced alongside the codes when they vary over
        ``axis``; the result is bit-identical to ``dequantize()[start:stop]``
        because decode → rescale is element-wise.
        """
        index = [slice(None)] * self.ndim
        index[axis] = slice(start, stop)
        index = tuple(index)
        codes = self.codes[index]

        def _slice_param(param: Optional[np.ndarray]) -> Optional[np.ndarray]:
            if param is None:
                return None
            param = np.asarray(param)
            if param.ndim == self.ndim and param.shape[axis] != 1:
                return param[index]
            return param

        scale = _slice_param(self.scale)
        zero_point = _slice_param(self.zero_point)
        _verify_touch(codes, scale, zero_point)
        if self.is_fp8:
            return kernels.fp8_dequantize_channelwise(codes, self.fmt, scale)
        return int8_dequantize_channelwise(codes, scale, zero_point)

    # ------------------------------------------------------------------
    # memory-mapped storage
    # ------------------------------------------------------------------
    @property
    def is_mapped(self) -> bool:
        """True if any component is a zero-copy view into an mmap-loaded file.

        Mapped components are read-only: in-place writes raise, and every
        mutation path in the library (re-``quantize``, :meth:`materialize`)
        allocates fresh private storage instead — copy-on-write at the
        granularity of the whole component.
        """
        return (
            is_memory_mapped(self.codes)
            or is_memory_mapped(self.scale)
            or is_memory_mapped(self.zero_point)
        )

    def materialize(self) -> "QuantizedTensor":
        """Replace mapped (or otherwise read-only) components with private copies.

        The explicit copy-on-write escape hatch for mmap-backed tensors: after
        this call every component owns writable RAM storage and the tensor no
        longer pins the checkpoint mapping.  A tensor that is already fully
        materialised is returned unchanged (no copies are made).
        """
        _verify_touch(self.codes, self.scale, self.zero_point)

        def _own(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
            if array is None:
                return None
            array = np.asarray(array)
            if is_memory_mapped(array) or not array.flags.writeable:
                return np.array(array, copy=True)
            return array

        self.codes = _own(self.codes)
        self.scale = _own(self.scale)
        self.zero_point = _own(self.zero_point)
        return self

    # ------------------------------------------------------------------
    # shape / storage introspection
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.codes.shape

    @property
    def ndim(self) -> int:
        return self.codes.ndim

    @property
    def size(self) -> int:
        return int(self.codes.size)

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the packed codes (uint8 for FP8, int8 for INT8)."""
        return self.codes.dtype

    @property
    def nbytes(self) -> int:
        """Total packed bytes at rest: codes + scale (+ zero point)."""
        total = self.codes.nbytes + np.asarray(self.scale).nbytes
        if self.zero_point is not None:
            total += np.asarray(self.zero_point).nbytes
        return int(total)

    @property
    def nbytes_dense(self) -> int:
        """Bytes the same tensor would occupy as dense float32."""
        return self.size * 4

    @property
    def compression_ratio(self) -> float:
        """Packed bytes as a fraction of dense float32 bytes (~0.25)."""
        return self.nbytes / self.nbytes_dense if self.size else 1.0

    # ------------------------------------------------------------------
    # state-dict round trip
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Serialise to plain numpy arrays (invertible via :meth:`from_state_dict`)."""
        state = {
            "codes": self.codes,
            "scale": np.asarray(self.scale),
            "format": np.asarray(self.fmt.name),
        }
        if self.zero_point is not None:
            state["zero_point"] = np.asarray(self.zero_point)
        return state

    @classmethod
    def from_state_dict(cls, state: Dict[str, np.ndarray]) -> "QuantizedTensor":
        """Rebuild a packed tensor from :meth:`state_dict` output."""
        fmt = _resolve_storage(str(state["format"]))
        codes = np.asarray(state["codes"], dtype=np.int8 if isinstance(fmt, Int8Spec) else np.uint8)
        return cls(
            codes=codes,
            scale=np.asarray(state["scale"], dtype=np.float64),
            fmt=fmt,
            zero_point=(
                np.asarray(state["zero_point"], dtype=np.int8)
                if "zero_point" in state
                else None
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantizedTensor(shape={self.codes.shape}, fmt={self.fmt.name}, "
            f"packed={self.nbytes}B, {self.compression_ratio:.2f}x of fp32)"
        )
