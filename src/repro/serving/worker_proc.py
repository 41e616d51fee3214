"""The engine's worker protocol, its two workers, and the worker-process entrypoint.

``ServingEngine`` drives every slot through one protocol — ``await_ready``,
``run(batch)``, ``alive``, ``died_idle``, ``kill``, ``reap``, ``shutdown``,
plus ``ready`` and ``init_failed`` — with one dispatcher loop and one
supervisor.  :class:`ThreadWorker` runs the batch on the calling engine
thread, so most of these do nothing; :class:`ProcessWorker` ships it to a
child process.  :func:`forward_batch` is the one model call of both.

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
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.serving import faults
from repro.serving.ipc import Channel, WorkerProcessDied, wrap_exception

__all__ = ["WorkerSpec", "ThreadWorker", "ProcessWorker", "forward_batch", "worker_main"]


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
    """Everything needed to build one model replica, in this process or a child.

    ``ServingEngine.from_checkpoint`` builds its thread replicas and its
    process-mode template with :meth:`build`, and every worker process runs
    the same method.  The spec itself crosses the process boundary (pickled
    into the spawn args), so every field must be picklable — in particular
    ``model_factory`` must be a module-level callable, not a lambda or
    closure.  Exactly one of ``checkpoint_path`` / ``model_pickle`` is set;
    ``serving_mode`` and ``prefetch`` apply to checkpoint loads.
    """

    checkpoint_path: Optional[str] = None
    model_factory: Optional[Callable[[], Any]] = None
    model_pickle: Optional[bytes] = None
    serving_mode: Optional[str] = "streaming"
    prefetch: Union[bool, str, None] = "pipeline"

    def build(self):
        """Construct the replica in the current process, with a plan cache installed."""
        # local imports: the spec must unpickle in a child that has not
        # (and may never) import the serialization or graph packages
        from repro.graph import install_plan_cache

        if self.checkpoint_path is not None:
            from repro.quantization.workflow import set_serving_mode
            from repro.serialization import load_quantized

            # an mmap load goes through the inode-keyed mapping cache, so a
            # process maps the checkpoint exactly once no matter how often it
            # is reloaded (a worker reports it in the ready payload)
            model = load_quantized(self.checkpoint_path, self.model_factory, mmap=True)
            if self.serving_mode is not None:
                set_serving_mode(model, self.serving_mode, prefetch=self.prefetch)
        elif self.model_pickle is not None:
            model = pickle.loads(self.model_pickle)
        else:
            raise ValueError("WorkerSpec needs a checkpoint_path or a model_pickle")
        install_plan_cache(model)
        return model


class ThreadWorker:
    """A worker that runs each batch on the engine thread driving it.

    It shares the engine's address space, so it is always ready, has no
    separate life to lose while idle, and has nothing to kill or reap.
    """

    ready = True
    init_failed = False

    def __init__(self, index: int, replica) -> None:
        self.name = f"worker {index}"
        self.replica = replica

    def await_ready(self, stopped: Callable[[], bool]) -> bool:
        return True

    def run(self, batch: np.ndarray) -> np.ndarray:
        return forward_batch(self.replica, batch)

    def alive(self) -> bool:
        return True

    def died_idle(self) -> bool:
        return False

    def kill(self) -> None:
        pass

    def reap(self, timeout: float = 5.0) -> str:
        return ""

    def shutdown(self) -> None:
        pass


def _describe_exit(exitcode: Optional[int]) -> str:
    if exitcode is None:
        return "exit code unknown"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = f"signal {-exitcode}"
        return f"killed by {name}"
    return f"exit code {exitcode}"


class ProcessWorker:
    """A child process that builds its own replica and serves batches over a pipe.

    The model lives only in the child.  A dead pipe raises
    :class:`~repro.serving.ipc.WorkerProcessDied` (a ``BaseException``) from
    :meth:`run` or :meth:`await_ready`, so the engine thread driving this
    worker dies the way a crashed thread worker does, and the supervisor
    cannot tell a process death from a thread death, by design.
    """

    def __init__(self, index: int, ctx, spec: WorkerSpec) -> None:
        self.index = index
        self.name = f"worker process {index}"
        self.ready = False
        self.init_failed = False
        self.exitcode: Optional[int] = None
        self._ready_info: dict = {}
        self._seq = 0
        #: close() and the slot's own thread may reap the same child at once
        self._reap_lock = threading.Lock()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=worker_main,
            args=(child_conn, spec),
            name=f"repro-serving-proc-{index}",
            daemon=True,
        )
        self._proc.start()
        # close the parent's copy of the child end: the child's death must
        # surface as EOF on our end, which it cannot while we hold this open
        child_conn.close()
        self._channel = Channel(parent_conn)

    def await_ready(self, stopped: Callable[[], bool]) -> bool:
        """Block until the child reports ready; False if ``stopped()`` comes first.

        A child that cannot build its replica reports ``init_error``: that
        sets :attr:`init_failed` (restarting cannot fix it) and raises
        :class:`~repro.serving.ipc.WorkerProcessDied` chained from the
        child's exception.
        """
        while not stopped():
            if not self._channel.poll(0.1):
                continue
            kind, _seq, payload = self._channel.recv()
            if kind == "ready":
                self.ready = True
                self._ready_info = payload if isinstance(payload, dict) else {}
                return True
            if kind == "init_error":
                self.init_failed = True
                raise WorkerProcessDied(f"{self.name} failed to build its replica") from payload
            # unknown handshake frames are ignored
        return False

    def run(self, batch: np.ndarray) -> np.ndarray:
        """One batch round trip to the child; returns its output array.

        The ``ipc.roundtrip`` fault site fires here with ``kill=`` wired to
        SIGKILL the child, so an injected hard death is observed the way a
        real one is: the pipe reaches EOF and ``WorkerProcessDied`` is
        raised.  An ordinary exception from the child re-raises here and
        stays scoped to the batch.
        """
        proc = self._proc
        faults.fire(
            "ipc.roundtrip",
            worker=self.index,
            kill=self.kill,
            pid=proc.pid if proc is not None else None,
        )
        self._seq += 1
        self._channel.send("forward", self._seq, batch)
        while True:
            kind, seq, payload = self._channel.recv()
            if seq != self._seq:
                continue  # stale frame from a superseded round trip
            if kind == "result":
                output, _child_forward_s = payload
                return np.asarray(output)
            if kind == "error":
                raise payload
            raise WorkerProcessDied(f"unexpected IPC reply kind {kind!r}")

    def alive(self) -> bool:
        proc = self._proc
        return proc is not None and proc.is_alive()

    def died_idle(self) -> bool:
        """True once a child that was serving has exited.

        The engine asks only while no batch is in flight: then no round trip
        trips over the EOF, and its thread would wait on the scheduler forever.
        """
        proc = self._proc
        return self.ready and proc is not None and proc.exitcode is not None

    def kill(self) -> None:
        """SIGKILL the child — the hard-death handle the ``kill`` fault calls."""
        proc = self._proc
        if proc is not None and proc.pid is not None:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass

    def reap(self, timeout: float = 5.0) -> str:
        """Ensure the child is dead *and* waited on (never a zombie); say how it ended.

        Escalates join → terminate → kill, then releases the process object.
        Idempotent and thread-safe: after the first reap only
        :attr:`exitcode` remains.
        """
        with self._reap_lock:
            proc = self._proc
            if proc is None:
                return _describe_exit(self.exitcode)
            self._channel.close()
            proc.join(timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(5.0)
            self.exitcode = proc.exitcode
            self._proc = None
            try:
                proc.close()
            except Exception:
                pass
            return _describe_exit(self.exitcode)

    def shutdown(self) -> None:
        """Graceful drain-side shutdown: ask nicely, then reap regardless."""
        try:
            self._channel.send("shutdown")
        except WorkerProcessDied:
            pass
        self.reap()

    def info(self) -> dict:
        """This worker's entry in the engine's ``stats["process_workers"]``."""
        proc = self._proc
        return {
            "index": self.index,
            "pid": self._ready_info.get("pid", proc.pid if proc else None),
            "alive": self.alive(),
            "ready": self.ready,
            "exitcode": self.exitcode,
            "mapped_files": self._ready_info.get("mapped_files"),
        }


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
        # a native-kernel abort) propagates and kills the process: the parent
        # sees EOF and runs the same recovery as for a signal death
