"""Compile and load the rendered FP8 decode kernel (the runtime half).

The runtime takes C source from :mod:`repro.fp8.native.codegen`, compiles it
with the system C compiler (``cc -O2 -shared -fPIC``), caches the shared
object on disk keyed by a hash of the rendered source (plus the compiler
identity and flags), and loads it through :mod:`ctypes`.  Repeat processes
therefore pay **zero** compile cost: the hash lookup finds the ``.so`` from a
previous run and goes straight to ``CDLL``.

Configuration
-------------
``REPRO_NATIVE_CC``
    Compiler executable (default: ``cc`` found on ``PATH``).  Pointing this
    at a non-existent binary sends every decode down the numpy path — how
    the tests and CI exercise that path on a host that has a compiler.
``REPRO_NATIVE_CACHE``
    Disk cache directory for compiled shared objects (default:
    ``~/.cache/repro/native``).  Entries are keyed by source hash, so the
    cache invalidates itself whenever the renderer, the format tables or the
    compile flags change the rendered source — stale entries are never
    loaded, merely orphaned (safe to delete the directory at any time).

Fallback contract
-----------------
Every public accessor returns ``None`` instead of raising when no kernel can
be had (no compiler, compile failure, unwritable cache dir): callers take
the numpy decode and the process keeps working.  The first failure warns
once per process with the reason; subsequent calls are silent and cheap (a
memoised ``None``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from typing import Dict, Optional

from repro.fp8.formats import FP8Format
from repro.fp8.native.codegen import KERNEL_SYMBOL, render_decode_kernel

__all__ = [
    "CC_ENV_VAR",
    "CACHE_ENV_VAR",
    "CFLAGS",
    "native_available",
    "compiler_path",
    "cache_dir",
    "decode_kernel",
    "reset",
]

CC_ENV_VAR = "REPRO_NATIVE_CC"
CACHE_ENV_VAR = "REPRO_NATIVE_CACHE"

#: compile flags; part of the disk-cache key so flag changes re-compile
CFLAGS = ("-O2", "-shared", "-fPIC")

_lock = threading.RLock()
#: memoised compiler path: unset sentinel -> str path -> or None (unavailable)
_compiler: object = ...
#: typed decode kernels keyed by format; None entries memoise a missing
#: compiler or a failed compile or load
_decoders: Dict[FP8Format, Optional[ctypes.CFUNCTYPE]] = {}
_warned: set = set()


def _warn_once(key: str, message: str) -> None:
    if key not in _warned:
        _warned.add(key)
        warnings.warn(message, RuntimeWarning, stacklevel=4)


def compiler_path() -> Optional[str]:
    """The C compiler executable, or ``None`` when none is found."""
    global _compiler
    with _lock:
        if _compiler is ...:
            cc = os.environ.get(CC_ENV_VAR, "").strip() or "cc"
            _compiler = shutil.which(cc)
            if _compiler is None:
                _warn_once(
                    "no-compiler",
                    f"no C compiler found ({cc!r}); FP8 decode runs on the numpy "
                    "kernels instead of the compiled one",
                )
        return _compiler


def native_available() -> bool:
    """True when a C compiler is present (the compiled decode can be built)."""
    return compiler_path() is not None


def cache_dir() -> str:
    """The on-disk shared-object cache directory (created on demand)."""
    path = os.environ.get(CACHE_ENV_VAR, "").strip()
    if not path:
        path = os.path.join(
            os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
            "repro",
            "native",
        )
    return path


def _source_key(source: str, cc: str) -> str:
    payload = "\0".join([source, cc, " ".join(CFLAGS)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def _compile_to_cache(source: str, cc: str, key: str) -> Optional[str]:
    """Compile ``source`` into the disk cache; returns the .so path or None."""
    directory = cache_dir()
    so_path = os.path.join(directory, f"{key}.so")
    if os.path.exists(so_path):
        return so_path
    try:
        os.makedirs(directory, exist_ok=True)
        src_path = os.path.join(directory, f"{key}.c")
        with open(src_path, "w", encoding="utf-8") as fh:
            fh.write(source)
        # compile to a private temp name, then publish atomically so a
        # concurrent process never loads a half-written shared object
        fd, tmp_path = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
        try:
            proc = subprocess.run(
                [cc, *CFLAGS, "-o", tmp_path, src_path],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                _warn_once(
                    "compile-failed",
                    "native FP8 kernel compilation failed; falling back to the "
                    f"numpy kernels: {proc.stderr.strip()[:500]}",
                )
                return None
            os.replace(tmp_path, so_path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        return so_path
    except OSError as exc:
        _warn_once(
            "cache-unwritable",
            f"native FP8 kernel cache {directory!r} is unusable ({exc}); falling "
            "back to the numpy kernels",
        )
        return None


def _load(source: str):
    """Compile-or-load the kernel for ``source``; None on failure."""
    cc = compiler_path()
    if cc is None:
        return None
    so_path = _compile_to_cache(source, cc, _source_key(source, cc))
    if so_path is None:
        return None
    try:
        return getattr(ctypes.CDLL(so_path), KERNEL_SYMBOL)
    except OSError as exc:
        # a corrupt cache entry must not wedge the process: drop it so the
        # next load (after reset(), or in a new process) re-compiles from source
        try:
            os.unlink(so_path)
        except OSError:
            pass
        _warn_once(
            "load-failed",
            f"loading a cached native FP8 kernel failed ({exc}); falling "
            "back to the numpy kernels",
        )
        return None


def decode_kernel(fmt: FP8Format):
    """The compiled fused decode → rescale kernel, or None when unavailable.

    Memoised per format until :func:`reset`; the lock keeps two threads from
    compiling the same kernel at once.  Call signature (all arrays
    C-contiguous): ``fn(codes_u8_ptr, scale_f64_ptr, out_f32_ptr, rows, cols)``.
    """
    with _lock:
        if fmt not in _decoders:
            fn = _load(render_decode_kernel(fmt))
            if fn is not None:
                fn.restype = None
                fn.argtypes = [
                    ctypes.c_void_p,
                    ctypes.c_void_p,
                    ctypes.c_void_p,
                    ctypes.c_long,
                    ctypes.c_long,
                ]
            _decoders[fmt] = fn
        return _decoders[fmt]


def reset() -> None:
    """Forget memoised compiler/kernel state (tests toggling the env vars)."""
    global _compiler
    with _lock:
        _compiler = ...
        _decoders.clear()
        _warned.clear()
