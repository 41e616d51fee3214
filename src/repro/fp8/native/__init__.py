"""Native fused FP8 decode: C codegen → ``cc`` → ctypes.

:func:`repro.fp8.kernels.fp8_dequantize_channelwise` calls
:func:`decode_rescale` first on every decode.  The package is a
renderer/runtime split (:mod:`~repro.fp8.native.codegen` renders one fused C
kernel per format; :mod:`~repro.fp8.native.runtime` compiles it with the
system C compiler, caches shared objects on disk and loads them via ctypes)
plus the numpy-facing entry point in this module.

The kernel fuses **decode → rescale**: one C pass replaces the numpy decode
chain's four temporaries (int64 code copy, LUT gather, float64 divide,
float32 narrow) and is **bit-identical** to the numpy path by construction.
The matmul stays on BLAS, so every consumer — streaming matmul blocks,
pipelined prefetch, engine workers, embedding gather-decode, plan replay —
gets exactly the numpy path's outputs while the memory-bound decode gets one
pass instead of four.  :func:`decode_rescale` returns ``None`` when it cannot
run — no C compiler (one warning per process), a failed compile or load, or
a layout the kernel does not cover (INT8 codes, per-channel scales on a
non-leading axis) — and the caller takes the numpy path.
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


def _scale_layout(codes: np.ndarray, scale: np.ndarray) -> Optional[Tuple[np.ndarray, int]]:
    """Classify ``scale`` against ``codes`` as ``rows`` scaled rows.

    Returns ``(flat_float64_scale, rows)`` — one row for a single scale, or
    the leading axis for a keepdims per-channel scale on it — or ``None``
    when the layout is not one the kernel covers (e.g. a channel axis other
    than 0).  Promoting a narrower scale dtype to float64 is exact, matching
    numpy's ``dtype=np.float64`` divide.
    """
    if scale.size == 1:
        rows = 1
    elif (
        codes.ndim >= 1
        and scale.ndim == codes.ndim
        and scale.shape[0] == codes.shape[0]
        and scale.size == codes.shape[0]
    ):
        rows = codes.shape[0]
    else:
        return None
    return np.ascontiguousarray(scale, dtype=np.float64).reshape(rows), rows


def decode_rescale(codes: np.ndarray, fmt: FP8Format, scale: np.ndarray) -> Optional[np.ndarray]:
    """Fused decode → rescale through one C pass; None when it cannot run.

    Bit-identical to ``fp8_decode_fast(codes) / scale`` narrowed to float32
    (the numpy path): the kernel performs the same LUT lookup, float64
    divide and float32 narrow.  Covered layouts: uint8 codes with a single
    scale, or a keepdims per-channel scale on the leading axis.
    """
    codes = np.asarray(codes)
    if codes.dtype != np.uint8:
        return None
    layout = _scale_layout(codes, np.asarray(scale))
    if layout is None:
        return None
    flat_scale, rows = layout
    out = np.empty(codes.shape, dtype=np.float32)
    if codes.size == 0:
        return out
    fn = decode_kernel(fmt)
    if fn is None:
        return None
    codes = np.ascontiguousarray(codes)
    fn(_ptr(codes), _ptr(flat_scale), _ptr(out), rows, codes.size // rows)
    return out
