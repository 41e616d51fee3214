"""Worker-process entrypoint for ``ServingEngine(worker_mode="process")``.

A worker process is deliberately dumb: it builds one model replica from a
:class:`WorkerSpec`, announces readiness, then answers ``forward`` messages
until told to shut down (or until it dies — which is the point of process
workers: a segfault in a native kernel, an OOM-kill or a stray ``os._exit``
takes down *this* process, not the engine).

Replica construction favours the checkpoint path: every worker re-runs
``load_quantized(path, factory, mmap=True)`` in its own address space.  That
re-map is nearly free — the container's inode-keyed mapping cache gives the
process one mapping per file, and the OS page cache shares the actual packed
bytes across *all* worker processes, so N workers cost one copy of the
checkpoint in physical memory plus N trivial page tables.  The fallback path
(``model_pickle``) ships a pickled template model instead, for models that
never touched a checkpoint.

Error contract (see :mod:`repro.serving.ipc` for the framing):

* replica construction fails → one ``init_error`` message, clean exit — the
  parent treats this as unrecoverable (restarting cannot fix a bad
  checkpoint) and fails the engine instead of crash-looping;
* an ordinary forward exception → an ``error`` reply for that request; the
  worker keeps serving (mirrors a thread worker's scoped group failure);
* anything worse (``BaseException``) propagates and kills the process; the
  parent observes EOF on the pipe, exactly as it would for a signal death.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.serving.ipc import Channel, WorkerProcessDied, wrap_exception

__all__ = ["WorkerSpec", "forward_batch", "worker_main"]


def forward_batch(model, batch: np.ndarray) -> np.ndarray:
    """Run one stacked batch through ``model`` under ``no_grad``; return an array.

    The one model call of both worker modes.  Floating batches are wrapped
    in ``Tensor``; integer batches (token ids) are passed as the int64 array
    token-id models index with, because a ``Tensor`` would recast them to
    float32.
    """
    if np.issubdtype(batch.dtype, np.integer):
        inputs = batch.astype(np.int64, copy=False)
    else:
        inputs = Tensor(batch)
    with no_grad():
        output = model(inputs)
    return output.data if isinstance(output, Tensor) else np.asarray(output)


@dataclass
class WorkerSpec:
    """Everything a worker process needs to build its model replica.

    The spec itself crosses the process boundary (pickled into the spawn
    args), so every field must be picklable — in particular
    ``model_factory`` must be a module-level callable, not a lambda or
    closure.  Exactly one of ``checkpoint_path`` / ``model_pickle`` is set.
    """

    checkpoint_path: Optional[str] = None
    model_factory: Optional[Callable[[], Any]] = None
    model_pickle: Optional[bytes] = None
    mmap: bool = True
    serving_mode: Optional[str] = "streaming"
    block_channels: Optional[int] = None
    prefetch: Union[bool, str, None] = "pipeline"
    plan_cache: bool = True

    def build(self):
        """Construct the replica in the current process (called in the child)."""
        if self.checkpoint_path is not None:
            # local imports: the spec must unpickle in a child that has not
            # (and may never) import the serialization stack
            from repro.quantization.workflow import set_serving_mode
            from repro.serialization import load_quantized

            # share_views routes the load through the inode-keyed mapping
            # cache, so a worker process maps the checkpoint exactly once no
            # matter how it is reloaded (and reports it in the ready payload)
            model = load_quantized(
                self.checkpoint_path,
                self.model_factory,
                mmap=self.mmap,
                share_views=self.mmap,
            )
            if self.serving_mode is not None:
                set_serving_mode(
                    model,
                    self.serving_mode,
                    block_channels=self.block_channels,
                    prefetch=self.prefetch,
                )
        elif self.model_pickle is not None:
            model = pickle.loads(self.model_pickle)
        else:
            raise ValueError("WorkerSpec needs a checkpoint_path or a model_pickle")
        if self.plan_cache:
            from repro.graph import install_plan_cache

            install_plan_cache(model)
        return model


def _mapped_files() -> int:
    try:
        from repro.serialization.container import mapping_cache_size

        return mapping_cache_size()
    except Exception:
        return 0


def worker_main(conn, spec: WorkerSpec) -> None:
    """Child entrypoint: build the replica, then serve ``forward`` messages."""
    channel = Channel(conn)
    try:
        model = spec.build()
    except BaseException as exc:  # noqa: BLE001 - report, then exit cleanly
        try:
            channel.send("init_error", 0, wrap_exception(exc))
        except WorkerProcessDied:
            pass
        return
    try:
        channel.send("ready", 0, {"pid": os.getpid(), "mapped_files": _mapped_files()})
    except WorkerProcessDied:
        return  # parent went away before we came up
    while True:
        try:
            kind, seq, payload = channel.recv()
        except WorkerProcessDied:
            return  # parent died or closed the pipe: nothing left to serve
        if kind == "shutdown":
            return
        if kind != "forward":
            continue  # unknown frames are ignored, not fatal
        try:
            t0 = time.perf_counter()
            output = forward_batch(model, payload)
            forward_s = time.perf_counter() - t0
            channel.send("result", seq, (np.ascontiguousarray(output), forward_s))
        except WorkerProcessDied:
            return
        except Exception as exc:  # noqa: BLE001 - scoped failure, keep serving
            try:
                channel.send("error", seq, wrap_exception(exc))
            except WorkerProcessDied:
                return
        # a BaseException here (injected crash semantics, KeyboardInterrupt,
        # a native-tier abort) propagates and kills the process: the parent
        # sees EOF and runs the same recovery as for a signal death
