"""Native fused FP8 kernels: C codegen → ``cc`` → ctypes (the third tier).

This package implements the ``native`` value of ``REPRO_FP8_KERNEL`` as a
renderer/runtime split (:mod:`~repro.fp8.native.codegen` renders one fused C
kernel per (format, granularity); :mod:`~repro.fp8.native.runtime` compiles
it with the system C compiler, caches shared objects on disk and loads them
via ctypes) plus the numpy-facing dispatch in this module.

The tier fuses **decode → rescale**: one C pass replaces the numpy decode
chain's four temporaries (int64 code copy, LUT gather, float64 divide,
float32 narrow) and is **bit-identical** to the numpy ``fast`` path by
construction.  The matmul stays on BLAS, so every consumer — streaming
matmul blocks, pipelined prefetch, engine workers, embedding gather-decode,
plan replay — keeps exactly the ``fast`` tier's outputs while the
memory-bound decode gets one pass instead of four.  :func:`decode_rescale`
returns ``None`` for layouts the kernels do not cover (INT8 codes,
per-channel scales on a non-leading axis) and the caller falls back to
numpy.

When no C compiler is present the tier degrades silently (one warning):
``REPRO_FP8_KERNEL=native`` behaves exactly like ``fast``.
"""

from __future__ import annotations

import ctypes
from typing import Optional, Tuple

import numpy as np

from repro.fp8.formats import FP8Format
from repro.fp8.native.runtime import (
    CACHE_ENV_VAR,
    CC_ENV_VAR,
    cache_dir,
    compiler_path,
    decode_kernel,
    native_available,
    reset,
)

__all__ = [
    "CACHE_ENV_VAR",
    "CC_ENV_VAR",
    "cache_dir",
    "compiler_path",
    "native_available",
    "reset",
    "decode_rescale",
]


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def _scale_layout(codes: np.ndarray, scale: np.ndarray) -> Optional[Tuple[np.ndarray, bool]]:
    """Classify ``scale`` against ``codes``: flat per-tensor or leading-axis rows.

    Returns ``(flat_float64_scale, per_row)`` or ``None`` when the layout is
    not one the rendered kernels cover (e.g. a channel axis other than 0).
    Promoting a narrower scale dtype to float64 is exact, matching numpy's
    ``dtype=np.float64`` divide.
    """
    scale = np.asarray(scale)
    if scale.size == 1:
        return np.ascontiguousarray(scale, dtype=np.float64).reshape(1), False
    if (
        codes.ndim >= 1
        and scale.ndim == codes.ndim
        and scale.shape[0] == codes.shape[0]
        and scale.size == codes.shape[0]
    ):
        return np.ascontiguousarray(scale, dtype=np.float64).reshape(-1), True
    return None


def decode_rescale(codes: np.ndarray, fmt: FP8Format, scale: np.ndarray) -> Optional[np.ndarray]:
    """Fused decode → rescale through one C pass; None when not applicable.

    Bit-identical to ``fp8_decode_fast(codes) / scale`` narrowed to float32
    (the numpy ``fast`` pipeline): the kernel performs the same LUT lookup,
    float64 divide and float32 narrow.  Supported layouts: uint8 codes with a
    per-tensor scale, or a keepdims per-channel scale on the leading axis.
    """
    codes = np.asarray(codes)
    if codes.dtype != np.uint8:
        return None
    layout = _scale_layout(codes, np.asarray(scale))
    if layout is None:
        return None
    flat_scale, per_row = layout
    out = np.empty(codes.shape, dtype=np.float32)
    if codes.size == 0:
        return out
    fn = decode_kernel(fmt, per_row)
    if fn is None:
        return None
    if per_row:
        rows = codes.shape[0]
        cols = codes.size // rows if rows else 0
    else:
        rows, cols = 1, codes.size
    codes = np.ascontiguousarray(codes)
    fn(_ptr(codes), _ptr(flat_scale), _ptr(out), rows, cols)
    return out
