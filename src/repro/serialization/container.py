"""The on-disk container for packed checkpoints: one file, header + payloads.

Layout (all integers little-endian)::

    offset 0   magic     8 bytes   b"RPQCKPT\\x00"
    offset 8   version   uint32    container format version (currently 2)
    offset 12  hdr_len   uint64    byte length of the JSON header
    offset 20  header    hdr_len   UTF-8 JSON
    ...        padding to a 64-byte boundary
    ...        payload   raw little-endian array bytes, each 64-byte aligned

The header carries two things: ``meta`` (an arbitrary JSON tree supplied by
the caller — recipe, module specs, flags) and ``arrays`` (a name → {dtype,
shape, offset, nbytes} table, offsets relative to the payload start; version
2 adds a per-span ``crc32`` digest).  Arrays are written as raw C-contiguous
bytes; packed uint8/int8 codes therefore cost exactly one byte per element
on disk, same as in memory.

Failure modes are explicit: a wrong magic raises :class:`CheckpointError`, a
newer container version raises :class:`CheckpointVersionError`, truncated
or overlapping payloads are rejected before any array is built, and a payload
span whose bytes do not match their recorded digest raises
:class:`ChecksumError`.

Integrity verification
----------------------
Version-2 checkpoints record a crc32 per payload span.  Copied loads verify
each span **eagerly** as its bytes are read — a flipped byte fails at load
time, not as silent garbage at compute time.  Zero-copy mmap loads must not
fault every page in at load time (that would defeat lazy cold-start), so
their spans are verified **lazily on first touch**: the unverified spans are
recorded in a per-mapping ledger, and the FP8 decode entry points
(:meth:`~repro.fp8.quantize.QuantizedTensor.dequantize` and friends) call
:func:`verify_view` the first time they read a mapped array, which checksums
exactly the spans overlapping that view and then retires them.  Version-1
checkpoints carry no digests and load exactly as before.  The offline
scrubber ``tools/verify_checkpoint.py`` (backed by :func:`verify_container`)
checks every span of a file at rest.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import threading
import weakref
import zlib
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "CheckpointError",
    "CheckpointVersionError",
    "ChecksumError",
    "CONTAINER_MAGIC",
    "CONTAINER_VERSION",
    "write_container",
    "read_container",
    "read_header",
    "verify_container",
    "verify_view",
    "clear_mapping_cache",
    "mapping_cache_size",
    "set_fault_hook",
]

CONTAINER_MAGIC = b"RPQCKPT\x00"
CONTAINER_VERSION = 2

_PREFIX = struct.Struct("<8sIQ")  # magic, version, header length
_ALIGN = 64

#: dtypes a checkpoint may carry; anything else is rejected on read and write
_ALLOWED_DTYPES = frozenset(
    {
        "bool",
        "uint8",
        "int8",
        "int16",
        "int32",
        "int64",
        "uint16",
        "uint32",
        "uint64",
        "float16",
        "float32",
        "float64",
    }
)


class CheckpointError(ValueError):
    """The file is not a valid repro packed checkpoint."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint was written by a newer (unsupported) format version."""


class ChecksumError(CheckpointError):
    """A payload span's bytes do not match the digest recorded at write time."""


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


#: test-visible fault hook (set by repro.serving.faults.install) — called per
#: span on copied reads so the ``container.read_span`` corrupt fault can flip
#: a byte before verification.  This module never imports the serving package.
_FAULT_HOOK: Optional[Callable] = None


def set_fault_hook(hook: Optional[Callable]) -> None:
    """Install (or clear, with ``None``) the fault-injection hook."""
    global _FAULT_HOOK
    _FAULT_HOOK = hook


#: process-wide cache of shared read-only file mappings, keyed by
#: (realpath, inode, size, mtime_ns) so a rewritten or replaced checkpoint
#: never serves stale bytes; guarded by _MAPPING_LOCK
_MAPPINGS: Dict[tuple, np.memmap] = {}
_MAPPING_LOCK = threading.Lock()


def _shared_mapping(path: str) -> np.memmap:
    """One read-only mapping per (file identity, version), reused across loads.

    This is what makes N serving replicas of one checkpoint cost the file's
    bytes once: every ``read_container(..., mmap=True)`` call for the same
    on-disk file returns views over the *same* ``np.memmap`` object, so the
    kernel backs them all with one set of page-cache pages and
    ``resident_report`` (which deduplicates by storage base) counts the
    mapping exactly once.  A file that changed size or mtime gets a fresh
    mapping, and its stale predecessors are dropped from the cache (the
    mapping itself lives on while any view references it).
    """
    real = os.path.realpath(path)
    stat = os.stat(real)
    # the inode catches replace-by-rename and same-size rewrites on
    # filesystems whose mtime granularity is coarser than the rewrite
    key = (real, stat.st_ino, stat.st_size, stat.st_mtime_ns)
    with _MAPPING_LOCK:
        mapping = _MAPPINGS.get(key)
        if mapping is None:
            _evict_unreferenced_locked()
            for stale in [k for k in _MAPPINGS if k[0] == real and k != key]:
                del _MAPPINGS[stale]
            mapping = np.memmap(real, dtype=np.uint8, mode="r")
            _MAPPINGS[key] = mapping
    return mapping


def _evict_unreferenced_locked() -> None:
    """Drop cached mappings no checkpoint array references any more.

    A mapping whose only remaining references are the cache's dict entry and
    ``getrefcount``'s own argument pins a file descriptor and the file's
    address-space mapping for nothing — e.g. after a serving process rotates
    to a checkpoint at a *different* path and releases every model built on
    the old one.  Evicting is always safe: live array views keep their
    mapping alive through their ``base`` chain regardless of the cache, so
    eviction only costs a future reload a fresh ``mmap`` call.  Runs on each
    cache miss, bounding the cache to mappings that are actually in use
    (plus the one being added).
    """
    for key in list(_MAPPINGS):
        if sys.getrefcount(_MAPPINGS[key]) <= 2:  # the dict entry + the call argument
            del _MAPPINGS[key]


def clear_mapping_cache() -> int:
    """Drop every cached shared mapping; returns how many were dropped.

    Existing array views keep their mapping alive through their ``base``
    chain — this only stops *future* loads from reusing the cached objects
    (and releases the cache's own reference, e.g. before deleting a
    checkpoint file on platforms that refuse to unlink mapped files).
    """
    with _MAPPING_LOCK:
        count = len(_MAPPINGS)
        _MAPPINGS.clear()
    return count


def mapping_cache_size() -> int:
    """How many shared file mappings this *process* currently caches.

    The cache is strictly per-process (each serving worker process re-maps
    the checkpoint into its own address space; the OS page cache shares the
    actual bytes underneath) — worker processes report this in their ready
    handshake so tests can assert one mapping per file per process.
    """
    with _MAPPING_LOCK:
        return len(_MAPPINGS)


def _reinit_after_fork() -> None:
    # A forked child inherits the parent's mapping/ledger dicts and — worse —
    # their locks in whatever state the fork caught them.  Mappings and
    # ledgers hold process-local state (fds, address-space mappings, lazy
    # verification bitmaps), so the child starts from scratch: fresh locks,
    # empty caches.  Re-mapping on first use is nearly free (page cache), and
    # a cleared ledger only means inherited mmap views lose lazy first-touch
    # verification in the child — re-loaded ones get their own ledgers.
    global _MAPPING_LOCK, _LEDGER_LOCK
    _MAPPING_LOCK = threading.Lock()
    _LEDGER_LOCK = threading.Lock()
    _MAPPINGS.clear()
    _LEDGERS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_after_fork)


def _check_dtype(name: str, dtype: np.dtype) -> str:
    dtype_name = np.dtype(dtype).name
    if dtype_name not in _ALLOWED_DTYPES:
        raise CheckpointError(f"array {name!r} has unsupported checkpoint dtype {dtype_name!r}")
    return dtype_name


def write_container(
    path: str,
    arrays: Dict[str, np.ndarray],
    meta: dict,
    container_version: int = CONTAINER_VERSION,
) -> int:
    """Write a single-file checkpoint; returns the total bytes written.

    The offset table is computed up front from shapes alone; array bytes are
    then streamed straight to the file, so peak memory stays at the arrays
    themselves (no transient full-payload copy).  Version 2 (default) records
    a crc32 per payload span in the header table; ``container_version=1``
    writes the digest-free legacy layout (readable forever — the v1
    compatibility tests and downgrade escapes use it).
    """
    if container_version not in (1, 2):
        raise ValueError(f"container_version must be 1 or 2, got {container_version!r}")
    normalised: Dict[str, np.ndarray] = {}
    table = {}
    payload_cursor = 0
    for name, array in arrays.items():
        array = np.asarray(array)
        if not array.flags["C_CONTIGUOUS"]:
            # (ascontiguousarray unconditionally would also promote 0-d
            # arrays to 1-d, silently changing the stored shape)
            array = np.ascontiguousarray(array)
        normalised[name] = array
        dtype_name = _check_dtype(name, array.dtype)
        payload_cursor = _aligned(payload_cursor)
        table[name] = {
            "dtype": dtype_name,
            "shape": list(array.shape),
            "offset": payload_cursor,
            "nbytes": int(array.nbytes),
        }
        if container_version >= 2:
            # the digest of exactly the bytes streamed below (C-contiguous
            # buffer, no copy)
            table[name]["crc32"] = zlib.crc32(array) & 0xFFFFFFFF
        payload_cursor += array.nbytes

    header = json.dumps({"meta": meta, "arrays": table}, sort_keys=True).encode("utf-8")
    payload_start = _aligned(_PREFIX.size + len(header))
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(CONTAINER_MAGIC, container_version, len(header)))
        fh.write(header)
        for name, array in normalised.items():
            fh.seek(payload_start + table[name]["offset"])
            fh.write(array.tobytes())
        total = payload_start + payload_cursor
        fh.truncate(total)
    return total


def _read_header(fh, path: str) -> Tuple[dict, int]:
    """Parse prefix + JSON header; returns (header, payload_start).  O(header)."""
    fh.seek(0, 2)
    file_size = fh.tell()
    fh.seek(0)
    prefix = fh.read(_PREFIX.size)
    if len(prefix) < _PREFIX.size:
        raise CheckpointError(f"{path}: file too short to be a packed checkpoint")
    magic, version, header_len = _PREFIX.unpack(prefix)
    if magic != CONTAINER_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}; not a repro packed checkpoint")
    if version > CONTAINER_VERSION:
        raise CheckpointVersionError(
            f"{path}: container version {version} is newer than supported "
            f"version {CONTAINER_VERSION}; upgrade repro to read it"
        )
    if header_len > file_size - _PREFIX.size:
        # Bound the read by the actual file extent before allocating: a
        # fuzzed uint64 length must fail loudly, not as a MemoryError.
        raise CheckpointError(f"{path}: truncated header")
    header_bytes = fh.read(header_len)
    if len(header_bytes) < header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    if not isinstance(header, dict) or "arrays" not in header or "meta" not in header:
        raise CheckpointError(f"{path}: header is missing the arrays/meta tables")
    return header, _aligned(_PREFIX.size + header_len)


def _validated_spans(header: dict, payload_start: int, file_size: int, path: str):
    """Check every array span: declared size, file extent, and mutual overlap.

    Yields (name, dtype, shape, nbytes, absolute_offset, crc32-or-None) in
    table order after proving no span escapes the file and no two spans alias
    each other — a corrupt offset table must fail loudly, not decode garbage
    weights.  The digest is ``None`` for version-1 tables (written before
    digests existed).
    """
    spans = []
    for name, spec in header["arrays"].items():
        dtype = np.dtype(_check_dtype(name, spec["dtype"]))
        shape = tuple(int(dim) for dim in spec["shape"])
        nbytes = int(spec["nbytes"])
        offset = int(spec["offset"])
        digest = spec.get("crc32")
        digest = None if digest is None else int(digest)
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes != expected:
            raise CheckpointError(
                f"{path}: array {name!r} declares {nbytes} bytes but "
                f"shape {shape} × {dtype} needs {expected}"
            )
        if offset < 0 or payload_start + offset + nbytes > file_size:
            raise CheckpointError(
                f"{path}: array {name!r} span [{offset}, {offset + nbytes}) "
                "escapes the file; truncated or corrupt payload"
            )
        spans.append((name, dtype, shape, nbytes, payload_start + offset, digest))
    ordered = sorted(spans, key=lambda span: span[4])
    for (name_a, _, _, nbytes_a, start_a, _), (name_b, _, _, _, start_b, _) in zip(
        ordered, ordered[1:]
    ):
        if start_a + nbytes_a > start_b:
            raise CheckpointError(
                f"{path}: arrays {name_a!r} and {name_b!r} overlap in the payload; "
                "corrupt offset table"
            )
    return spans


def read_header(path: str) -> dict:
    """Read only the JSON header's ``meta`` tree — no payload bytes are touched."""
    with open(path, "rb") as fh:
        header, _ = _read_header(fh, path)
    return header["meta"]


def read_container(
    path: str, mmap: bool = False, verify: bool = True
) -> Tuple[Dict[str, np.ndarray], dict]:
    """Read a checkpoint back into (arrays, meta).

    With ``mmap=False`` (the default) arrays are materialised as writable
    C-contiguous copies of the payload bytes (no float32 weights are ever
    reconstructed here — codes come back as the packed uint8/int8 they were
    written as).

    With ``mmap=True`` no payload byte is copied at all: the file is mapped
    (read-only) and every array comes back as a zero-copy view into the
    mapping — the 64-byte span alignment guarantees every view is itself
    aligned.  Pages are faulted in by the kernel on first touch, so the read
    is O(header) and cold resident bytes stay near zero until an array is
    actually used.  The views are read-only; writing raises, and callers that
    need a private mutable copy must take one explicitly.  Span validation is
    identical to the copied path: a corrupt offset table raises
    :class:`CheckpointError` before any view is built.

    The mapping is one process-wide object per on-disk file: repeated reads
    of the same checkpoint — e.g. loading N serving replicas — alias the same
    ``np.memmap`` instead of mapping the file N times, so the packed bytes
    are mapped exactly once per process (see :func:`_shared_mapping` and
    :func:`clear_mapping_cache`).

    ``verify=True`` (default) enforces the version-2 per-span digests:
    copied spans are checksummed eagerly as they are read
    (:class:`ChecksumError` at load time), mmap spans are registered for lazy
    verification on first touch (see the module docstring).  Version-1 files
    have no digests and are returned unchanged either way.
    """
    with open(path, "rb") as fh:
        header, payload_start = _read_header(fh, path)
        fh.seek(0, 2)
        file_size = fh.tell()
        spans = _validated_spans(header, payload_start, file_size, path)
        arrays: Dict[str, np.ndarray] = {}
        if mmap:
            mapping = _shared_mapping(path)
            for name, dtype, shape, nbytes, start, _ in spans:
                view = mapping[start : start + nbytes].view(dtype).reshape(shape)
                arrays[name] = view
            if verify:
                _register_unverified_spans(mapping, path, spans)
            return arrays, header["meta"]
        for name, dtype, shape, nbytes, start, digest in spans:
            fh.seek(start)
            # read straight into the writable buffer frombuffer will wrap —
            # one copy of the payload in memory, not two
            buffer = bytearray(nbytes)
            if fh.readinto(buffer) < nbytes:
                raise CheckpointError(f"{path}: truncated payload for array {name!r}")
            if _FAULT_HOOK is not None:
                _FAULT_HOOK("container.read_span", name=name, buffer=buffer)
            if verify and digest is not None:
                actual = zlib.crc32(buffer) & 0xFFFFFFFF
                if actual != digest:
                    raise ChecksumError(
                        f"{path}: array {name!r} failed integrity verification "
                        f"(crc32 {actual:#010x} != recorded {digest:#010x}); "
                        "the checkpoint payload is corrupt"
                    )
            arrays[name] = np.frombuffer(buffer, dtype=dtype).reshape(shape)
        return arrays, header["meta"]


# ----------------------------------------------------------------------
# lazy integrity verification for mmap views
# ----------------------------------------------------------------------
class _MappingLedger:
    """Unverified digest-carrying spans of one live file mapping.

    Spans are keyed by their absolute byte interval within the mapping; a
    span is checked once (on the first touch of any view overlapping it) and
    then retired, so steady-state touches cost one interval lookup and no
    checksum work.
    """

    __slots__ = ("path", "base_address", "spans", "verified", "lock")

    def __init__(self, path: str, base_address: int) -> None:
        self.path = path
        self.base_address = base_address
        #: (name, start, nbytes, crc32), sorted by start
        self.spans: List[Tuple[str, int, int, int]] = []
        self.verified: set = set()
        self.lock = threading.Lock()


#: id(mapping) → ledger for every live mapping with unverified spans; entries
#: are removed by a weakref.finalize when the mapping is collected
_LEDGERS: Dict[int, _MappingLedger] = {}
_LEDGER_LOCK = threading.Lock()


def _register_unverified_spans(mapping: np.memmap, path: str, spans) -> None:
    """Record a v2 mmap load's digest spans for first-touch verification."""
    digest_spans = [
        (name, start, nbytes, digest) for name, _, _, nbytes, start, digest in spans if digest
    ]
    if not digest_spans:
        return  # v1 file (or empty): nothing to verify, no hook needed
    base = np.lib.array_utils.byte_bounds(mapping)[0]
    key = id(mapping)
    with _LEDGER_LOCK:
        ledger = _LEDGERS.get(key)
        if ledger is None:
            ledger = _MappingLedger(path, base)
            _LEDGERS[key] = ledger
            weakref.finalize(mapping, _drop_ledger, key)
    with ledger.lock:
        known = {(start, nbytes) for _, start, nbytes, _ in ledger.spans}
        for span in digest_spans:
            interval = (span[1], span[2])
            if interval not in known and interval not in ledger.verified:
                ledger.spans.append(span)
        ledger.spans.sort(key=lambda span: span[1])
    _install_touch_hook()


def _drop_ledger(key: int) -> None:
    with _LEDGER_LOCK:
        _LEDGERS.pop(key, None)


def _install_touch_hook() -> None:
    # assign, not import-time wire: repro.fp8 must not depend on this module,
    # and this module must only tax the decode hot path once a v2 mmap
    # checkpoint with pending digests actually exists
    from repro.fp8 import quantize

    quantize._integrity_hook = verify_view


def verify_view(array: np.ndarray) -> None:
    """Verify (once) the unverified checkpoint spans backing ``array``.

    Walks the view's base chain to its file mapping; if that mapping has
    pending digest spans overlapping the view's byte interval, each is
    checksummed against the header digest and retired.  Raises
    :class:`ChecksumError` on mismatch.  Free for arrays that are not
    checkpoint views or whose spans were already verified.
    """
    base = array
    while base is not None and id(base) not in _LEDGERS:
        base = getattr(base, "base", None)
    if base is None:
        return
    ledger = _LEDGERS.get(id(base))
    if ledger is None:
        return
    lo, hi = np.lib.array_utils.byte_bounds(array)
    rel_lo, rel_hi = lo - ledger.base_address, hi - ledger.base_address
    mapping = base
    with ledger.lock:
        touched = [
            span for span in ledger.spans if span[1] < rel_hi and span[1] + span[2] > rel_lo
        ]
        if not touched:
            return
        for name, start, nbytes, digest in touched:
            actual = zlib.crc32(mapping[start : start + nbytes]) & 0xFFFFFFFF
            if actual != digest:
                raise ChecksumError(
                    f"{ledger.path}: array {name!r} failed integrity verification on "
                    f"first touch (crc32 {actual:#010x} != recorded {digest:#010x}); "
                    "the mapped checkpoint payload is corrupt"
                )
            ledger.verified.add((start, nbytes))
        ledger.spans = [span for span in ledger.spans if span not in touched]


def verify_container(path: str) -> dict:
    """Scrub a checkpoint at rest: checksum every payload span against its digest.

    Returns a report dict (``version``, ``arrays``, ``verified``,
    ``skipped`` — spans without digests, i.e. a v1 file).  Raises
    :class:`ChecksumError` on the first mismatching span and
    :class:`CheckpointError` for structural corruption.  Streams the file
    span by span, so peak memory is one span, not the payload.
    """
    with open(path, "rb") as fh:
        fh.seek(8)
        version = struct.unpack("<I", fh.read(4))[0]
        fh.seek(0)
        header, payload_start = _read_header(fh, path)
        fh.seek(0, 2)
        file_size = fh.tell()
        spans = _validated_spans(header, payload_start, file_size, path)
        verified = skipped = 0
        for name, _, _, nbytes, start, digest in spans:
            if digest is None:
                skipped += 1
                continue
            fh.seek(start)
            crc = 0
            remaining = nbytes
            while remaining:
                chunk = fh.read(min(remaining, 1 << 22))
                if not chunk:
                    raise CheckpointError(f"{path}: truncated payload for array {name!r}")
                crc = zlib.crc32(chunk, crc)
                remaining -= len(chunk)
            if crc & 0xFFFFFFFF != digest:
                raise ChecksumError(
                    f"{path}: array {name!r} failed integrity verification "
                    f"(crc32 {crc & 0xFFFFFFFF:#010x} != recorded {digest:#010x}); "
                    "the checkpoint payload is corrupt"
                )
            verified += 1
    return {
        "path": path,
        "version": int(version),
        "arrays": len(spans),
        "verified": verified,
        "skipped": skipped,
    }
