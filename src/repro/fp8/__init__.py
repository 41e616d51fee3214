"""FP8 and INT8 numeric format emulation.

This package provides a bit-exact software emulation of the three 8-bit
floating point formats studied in the paper (E5M2, E4M3, E3M4, Table 1),
together with INT8 affine/symmetric quantization used as the baseline.

The emulation mirrors the approach of the FP8 Emulation Toolkit used by the
paper: *compute* stays in FP32, with values rounded onto the representable
grid of the target 8-bit format (with saturation and round-to-nearest-even)
whenever a tensor is "quantized" — but *storage* is real: the packed
:class:`~repro.fp8.quantize.QuantizedTensor` type holds raw one-byte codes
(uint8 FP8 codes or int8 integer codes) plus per-tensor/per-channel scales,
so a quantized weight costs ~0.25x its float32 bytes at rest (see the memory
model in :mod:`repro.fp8.quantize`).
"""

from repro.fp8.formats import (
    FP8Format,
    E5M2,
    E4M3,
    E3M4,
    E2M5,
    FORMAT_REGISTRY,
    get_format,
)
from repro.fp8.kernels import channel_absmax
from repro.fp8.quantize import (
    quantize_to_fp8,
    fp8_round,
    compute_scale,
    quantize_dequantize,
    QuantizedTensor,
    is_memory_mapped,
)
from repro.fp8.int8 import (
    Int8Spec,
    INT8_SYMMETRIC,
    INT8_ASYMMETRIC,
    INT8_SPEC_REGISTRY,
    int8_quantize_dequantize,
    int8_compute_qparams,
    int8_quantize_channelwise,
    int8_dequantize_channelwise,
)
from repro.fp8.density import (
    format_density,
    density_at,
    representable_count_in_range,
)

__all__ = [
    "FP8Format",
    "E5M2",
    "E4M3",
    "E3M4",
    "E2M5",
    "FORMAT_REGISTRY",
    "get_format",
    "channel_absmax",
    "quantize_to_fp8",
    "fp8_round",
    "compute_scale",
    "quantize_dequantize",
    "QuantizedTensor",
    "is_memory_mapped",
    "Int8Spec",
    "INT8_SYMMETRIC",
    "INT8_ASYMMETRIC",
    "INT8_SPEC_REGISTRY",
    "int8_quantize_dequantize",
    "int8_compute_qparams",
    "int8_quantize_channelwise",
    "int8_dequantize_channelwise",
    "format_density",
    "density_at",
    "representable_count_in_range",
]
