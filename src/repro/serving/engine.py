"""Continuous-batching serving engine: N workers over per-key request buckets.

Deployment serves many concurrent single-sample requests, but the streaming
weight path pays its decode cost *per forward call* — so the throughput win
is to run one forward for many requests.  :class:`ServingEngine` does exactly
that: callers :meth:`~ServingEngine.submit` individual samples (optionally
with a priority and a deadline) and get a :class:`concurrent.futures.Future`
back; worker threads pull **compatibility groups** from a
:class:`~repro.serving.scheduler.ContinuousScheduler`, stack (or pad) each
group into one batch, run a single forward, and fan the rows back out to the
waiting futures.

Continuous batching
-------------------
Unlike a collect-then-serve loop, admission never stops: requests arriving
while a forward runs land in their compatibility bucket immediately and ride
the *next* forward of that bucket's in-flight stream of groups — there is no
drain barrier, and a mixed-key burst no longer fragments one time window into
several underfilled forwards.  A bucket is handed to a worker when it is full
(``max_batch_size``), when its admission window (``max_wait_ms`` after the
bucket opened) expires, or early when a member's deadline requires it; a lone
request therefore never waits longer than ``max_wait_ms``.  Scheduling order
is priority (higher first), then deadline (earlier first), then arrival; a
request whose deadline passes while still queued fails with
:class:`~repro.serving.scheduler.DeadlineExceeded`.

Multi-worker execution
----------------------
``workers=N`` runs N driver threads.  Pass a sequence of model replicas (one
per worker) to give every worker its own module tree — the intended pattern
is replicas that share one read-only mmap'd checkpoint via
``load_quantized(..., mmap=True)``, so the packed bytes on disk are mapped
exactly once per process no matter how many replicas serve them
(:meth:`ServingEngine.from_checkpoint` wires this).  With a single model
and ``workers>1`` every worker shares it; that is safe for the lock-free
streaming kernels (blocked Linear matmul, Embedding gather-decode — they only
read ``weight_q``) but not for wrappers that rebind transient weight caches
in their forward.  Forwards run under the thread-local ``no_grad``.

``worker_mode="process"`` swaps what each slot's thread drives, not the
path: every slot is one engine thread plus a worker behind one protocol
(:mod:`repro.serving.worker_proc`).  A thread worker calls the model in
that thread; a process worker is a child *process* that
builds its own replica — for checkpoints, by re-running
``load_quantized(path, ..., mmap=True)`` in its own address space, which the
OS page cache makes nearly free — and serves each batch over a pickle pipe
(:mod:`repro.serving.ipc`).  That escapes the GIL for CPU-bound forwards and
extends crash isolation to failures no ``except`` clause ever sees — a
native-kernel segfault, an OOM kill, ``SIGKILL`` — while the dispatcher
loop, supervisor, retry and overload paths stay the same code, and results
stay bit-identical.

Compatibility and padding
-------------------------
Two samples can share a forward call when stacking them is meaningful:

* rank-0/rank-1 samples (feature vectors) must have identical shapes and are
  stacked along a new leading axis;
* rank >= 2 samples (e.g. ``(seq_len, features)``) must agree on every
  dimension except the first; shorter samples are padded along axis 0 with
  ``pad_value`` up to the group's maximum length, and each output is sliced
  back to its own length.  Slicing assumes the model preserves the leading
  axis — declare ``slice_padded_outputs=False`` for models that reduce over
  it (outputs are then handed back unsliced).

Cancelling a submitted future is safe: a request cancelled while queued is
skipped when its group is served (workers mark futures RUNNING before the
forward, after which cancellation is no longer possible), and a cancelled
generation gives up its decode rows at the next tick.

Observability: :attr:`ServingEngine.stats` reports counters plus queue-wait
and forward-time percentiles (p50/p95) and per-group occupancy, so admission
behaviour is visible, not inferred.

Fault tolerance
---------------
Workers are *supervised*: a supervisor thread watches every worker slot and,
when a worker dies mid-forward, exceeds the hung-forward timeout, or (a
process) exits while idle, retires the slot through one path and recovers
its in-flight group — requests with retry budget
(``SubmitOptions(max_retries=...)``) are requeued with exponential backoff
and re-run bit-identically on a restarted worker sharing the same replica;
requests without budget fail fast with a typed
:class:`~repro.serving.errors.WorkerCrashed` carrying the crash as its
``__cause__``.  Ordinary forward exceptions stay scoped to the failing
group: its futures reject with the original exception (or retry, with
budget), other compatibility buckets keep being served.  Overload control is
one :class:`~repro.serving.scheduler.Admission` rule that the one-shot and
the generation schedulers share: ``max_queue_depth`` bounds each waiting
queue (:class:`~repro.serving.errors.QueueFull` fast-fail at admission, or
lowest-priority-first shedding with ``shed_policy="priority"``), and
:meth:`ServingEngine.drain` flips the engine into a drain-then-reject state
ahead of shutdown.  Every recovery path here is exercised deterministically
through :mod:`repro.serving.faults`.

The engine never touches serving modes itself; combine it with
``load_quantized(..., mmap=True)`` and ``set_serving_mode(model,
"streaming", prefetch="pipeline")`` (or use
:meth:`ServingEngine.from_checkpoint`, which wires all three) for the full
cold-start-to-throughput path.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.module import Module
from repro.serving import faults
from repro.serving.api import GenerationRequest, SubmitOptions, validate_worker_mode
from repro.serving.errors import (
    EngineClosed,
    EngineDraining,
    EngineFailed,
    QueueFull,
    WorkerCrashed,
)
from repro.serving.generation import GenerationDriver, GenerationStream
from repro.serving.scheduler import (
    _STATS_WINDOW,
    Admission,
    ContinuousScheduler,
    Request,
    _percentiles_ms,
    compat_key,
)
from repro.serving.worker_proc import ProcessWorker, ThreadWorker, WorkerSpec

__all__ = ["ServingEngine"]

class _WorkerSlot:
    """One worker, the engine thread that drives it, and the state its supervisor reads.

    ``inflight`` holds the compatibility group the worker is forwarding right
    now — on a crash it stays populated, and the supervisor owns recovering
    those requests.  ``retired`` marks a slot that is done: its loop drained
    cleanly, or the supervisor retired it.  A retired slot's thread may still
    be running (a hung forward cannot be interrupted), but it stops pulling
    groups, and any late result it produces loses the future-resolution race
    harmlessly.
    """

    __slots__ = ("index", "worker", "thread", "inflight", "forward_started", "crash_exc", "retired")

    def __init__(self, index: int, worker) -> None:
        self.index = index
        self.worker = worker
        self.thread: Optional[threading.Thread] = None
        self.inflight: Tuple[Request, ...] = ()
        self.forward_started: Optional[float] = None
        self.crash_exc: Optional[BaseException] = None
        self.retired = False


class ServingEngine:
    """Request queue + continuous batcher + N worker threads around served models.

    Parameters
    ----------
    model:
        The served model, or a sequence of model replicas (one per worker;
        typically converted or loaded with ``load_quantized`` — any callable
        ``Module`` works).
        Every forward runs under the thread-local ``no_grad``.
    max_batch_size:
        Upper bound on requests fused into one forward call.
    max_wait_ms:
        Admission window: how long a compatibility bucket may wait for
        co-riders after its first request.
    pad_value:
        Fill value for axis-0 padding of rank >= 2 groups.
    slice_padded_outputs:
        Contract for padded variable-length groups.  ``True`` (default)
        declares that the model preserves the leading (sequence) axis, so
        each padded request's output is sliced back to its own length.  Set
        ``False`` for models that *reduce* over the sequence axis (pooling,
        classification heads): outputs are then returned unsliced.  This is
        an explicit declaration, not a runtime shape guess — with the wrong
        setting a sequence-reducing model whose feature width happens to
        equal the padded length would be silently truncated.
    workers:
        Number of driver threads.  Defaults to one per replica (1 for a
        single model).  With a single model and ``workers>1`` all workers
        share it (see the module docstring for the thread-safety contract).
    plan_cache:
        Compiled-plan dispatch for worker forwards (see :mod:`repro.graph`).
        ``True`` (default) installs a plan cache on each distinct replica:
        the first forward for a scheduler compat-key traces and compiles a
        plan, and steady-state batched traffic replays it with zero
        per-layer module dispatch (plan lookup is thread-safe and replay
        allocates its results as eager does, so shared-model workers replay
        concurrently).  Eager execution remains the fallback — and the
        bit-exactness oracle — for untraceable models, so ``True`` is
        always safe.  ``False`` disables plan dispatch entirely.  Aggregated
        cache counters appear in :attr:`stats` under ``"plan_cache"``.
    decode_slots:
        KV-cache row budget of the generation tier (see :meth:`generate`):
        how many beams may decode concurrently before new arrivals queue or
        preempt.  The decode state is allocated lazily on the first
        ``generate`` call, so non-generating engines pay nothing.
    decode_memory_budget:
        Optional cap in **bytes** on per-storage decode-state memory; when
        given, ``decode_slots`` is lowered to ``budget // row_nbytes`` (the
        cost of one float32 cache row at full capacity).
    max_queue_depth:
        Optional cap on queued one-shot requests.  At the cap, admission
        fast-fails with :class:`~repro.serving.errors.QueueFull` (or sheds
        under ``shed_policy="priority"``) instead of growing latency without
        bound.
    shed_policy:
        ``"reject"`` (default) or ``"priority"`` — see
        :class:`~repro.serving.scheduler.ContinuousScheduler`.
    hung_forward_timeout_ms:
        When set, a worker whose single forward exceeds this budget is
        *abandoned*: its in-flight requests are recovered (retried or failed
        with :class:`~repro.serving.errors.WorkerCrashed`) and a replacement
        worker takes over its slot.  ``None`` (default) disables hang
        detection — a legitimate forward can be arbitrarily slow, so this
        must be sized against measured forward cost, not guessed.
    restart_crashed_workers:
        ``True`` (default): the supervisor restarts a dead worker against the
        same (shared mmap) replica, preserving serving capacity.  ``False``
        leaves the slot dead after recovering its requests.
    supervision_interval_ms:
        Supervisor polling period — bounds crash-detection latency.
    worker_mode:
        ``"thread"`` (default): N driver threads over shared/replicated
        models — zero IPC cost, GIL-bound, supports :meth:`generate`.
        ``"process"``: N worker *processes*, each building its own replica
        (from the checkpoint via :meth:`from_checkpoint`, or from this
        pickled template model) and serving batches over a pipe — GIL-free
        scale-out whose crash isolation extends to native-kernel segfaults,
        OOM kills and ``SIGKILL``: any process death surfaces as the same
        :class:`~repro.serving.errors.WorkerCrashed` + requeue + restart
        flow as a thread death.  Results are bit-identical to thread/cached
        mode (same kernels, same replica build).  One-shot forwards only in
        this mode; :meth:`generate` raises ``ValueError``.  Workers start
        with ``multiprocessing``'s ``"spawn"`` method.
    max_worker_restarts:
        Crash-loop containment for **both** worker modes: how many
        supervisor restarts the rolling ``restart_window_s`` window admits.
        On exhaustion the engine stops restarting, fails all pending
        requests with :class:`~repro.serving.errors.EngineFailed` (cause
        chained) and ``stats()["state"]`` reads ``"failed"`` — restarting
        harder cannot heal a replica that kills every worker.  ``None``
        (default) keeps the pre-PR-10 behaviour: unlimited restarts.
    restart_window_s:
        Length of the rolling restart-rate window (seconds).
    worker_spec:
        Internal (used by :meth:`from_checkpoint`): how worker processes
        build their replica; overrides pickling the template model.
    """

    #: consecutive process-worker deaths *before the ready handshake* that
    #: fail the engine even with unlimited restarts — a child that cannot
    #: start will not be fixed by starting another one
    _MAX_NEVER_READY_DEATHS = 3

    def __init__(
        self,
        model: Union[Module, Sequence[Module]],
        max_batch_size: int = 8,
        max_wait_ms: float = 2.0,
        pad_value: float = 0.0,
        slice_padded_outputs: bool = True,
        workers: Optional[int] = None,
        plan_cache: bool = True,
        decode_slots: int = 16,
        decode_memory_budget: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
        shed_policy: str = "reject",
        hung_forward_timeout_ms: Optional[float] = None,
        restart_crashed_workers: bool = True,
        supervision_interval_ms: float = 20.0,
        worker_mode: str = "thread",
        max_worker_restarts: Optional[int] = None,
        restart_window_s: float = 30.0,
        worker_spec: Optional[WorkerSpec] = None,
    ) -> None:
        worker_mode = validate_worker_mode(worker_mode)
        if isinstance(model, Module):
            replicas = [model]
        else:
            replicas = list(model)
            if not replicas or not all(isinstance(m, Module) for m in replicas):
                raise TypeError("model must be a Module or a non-empty sequence of Modules")
        if workers is None:
            workers = len(replicas)
        if int(workers) < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        workers = int(workers)
        if worker_mode == "process":
            if len(replicas) != 1:
                raise ValueError(
                    "worker_mode='process' takes a single template model — worker "
                    "processes build their own replicas (from the checkpoint or the "
                    "pickled template), so per-worker replica lists are thread-mode only"
                )
        elif len(replicas) == 1:
            replicas = replicas * workers
        elif len(replicas) != workers:
            raise ValueError(
                f"got {len(replicas)} replicas for {workers} workers; pass a single "
                "model (shared by every worker) or exactly one replica per worker"
            )
        if int(max_batch_size) < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size!r}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms!r}")
        if not isinstance(plan_cache, bool):
            raise ValueError(f"plan_cache must be True or False, got {plan_cache!r}")
        if int(decode_slots) < 1:
            raise ValueError(f"decode_slots must be >= 1, got {decode_slots!r}")
        if hung_forward_timeout_ms is not None and hung_forward_timeout_ms <= 0:
            raise ValueError(
                f"hung_forward_timeout_ms must be > 0, got {hung_forward_timeout_ms!r}"
            )
        if supervision_interval_ms <= 0:
            raise ValueError(
                f"supervision_interval_ms must be > 0, got {supervision_interval_ms!r}"
            )
        if max_worker_restarts is not None and int(max_worker_restarts) < 0:
            raise ValueError(
                f"max_worker_restarts must be >= 0 or None, got {max_worker_restarts!r}"
            )
        if restart_window_s <= 0:
            raise ValueError(f"restart_window_s must be > 0, got {restart_window_s!r}")
        self.model = replicas[0]
        self.replicas: List[Module] = replicas
        self.workers = workers
        self.worker_mode = worker_mode
        self._plan_caches = []
        # process mode installs no parent-side plan caches: each worker
        # process traces/compiles its own (the spec carries the setting)
        if plan_cache and worker_mode != "process":
            # lazy import: serving stays importable without the graph package
            from repro.graph import install_plan_cache

            seen = set()
            for replica in replicas:
                if id(replica) in seen:
                    continue  # shared-model workers share one cache too
                seen.add(id(replica))
                self._plan_caches.append(install_plan_cache(replica))
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self.pad_value = pad_value
        self.slice_padded_outputs = bool(slice_padded_outputs)
        self.decode_slots = int(decode_slots)
        self.decode_memory_budget = decode_memory_budget
        self.max_queue_depth = None if max_queue_depth is None else int(max_queue_depth)
        self.shed_policy = shed_policy
        self.hung_forward_timeout_s = (
            None if hung_forward_timeout_ms is None else float(hung_forward_timeout_ms) / 1000.0
        )
        self.restart_crashed_workers = bool(restart_crashed_workers)
        self.supervision_interval_s = float(supervision_interval_ms) / 1000.0
        self.max_worker_restarts = (
            None if max_worker_restarts is None else int(max_worker_restarts)
        )
        self.restart_window_s = float(restart_window_s)
        self._restart_times: deque = deque()
        self._never_ready_deaths = 0
        self._failure_cause: Optional[BaseException] = None
        self._generation_driver: Optional[GenerationDriver] = None
        self._state = "serving"
        self._lock = threading.Lock()
        self._order = itertools.count()
        self._stats = {
            "requests": 0,
            "batches": 0,
            "batched_requests": 0,
            "padded_requests": 0,
            "failed_requests": 0,
            "expired_requests": 0,
            "max_batch": 0,
            "worker_crashes": 0,
            "worker_restarts": 0,
            "hung_workers": 0,
            "retried_requests": 0,
            "shed_requests": 0,
            "rejected_requests": 0,
        }
        self._queue_wait_s: deque = deque(maxlen=_STATS_WINDOW)
        self._forward_s: deque = deque(maxlen=_STATS_WINDOW)
        self._group_sizes: deque = deque(maxlen=_STATS_WINDOW)
        #: one queue cap and shed policy for one-shot and generation traffic
        self._admission = Admission(self.max_queue_depth, self.shed_policy, on_shed=self._note_shed)
        self._scheduler = ContinuousScheduler(
            self.max_batch_size,
            self.max_wait_s,
            on_expired=self._note_expired,
            admission=self._admission,
        )
        #: (due time, tiebreak, request) — requests backing off before a retry
        self._retry_heap: List[Tuple[float, int, Request]] = []
        self._retry_seq = itertools.count()
        self._worker_spec = worker_spec
        self._mp_ctx = None
        if worker_mode == "process":
            # spawn: a fork of this threaded process could copy held locks
            self._mp_ctx = multiprocessing.get_context("spawn")
            if worker_spec is None:
                # fail fast in the constructor, not in N children: the
                # template must cross the process boundary
                try:
                    blob = pickle.dumps(self.model)
                except Exception as exc:
                    raise TypeError(
                        "worker_mode='process' requires a picklable model — or use "
                        "ServingEngine.from_checkpoint(..., worker_mode='process'), "
                        "which ships the checkpoint path instead of the model"
                    ) from exc
                self._worker_spec = WorkerSpec(model_pickle=blob, plan_cache=plan_cache)
        self._stop_supervisor = threading.Event()
        self._slots: List[_WorkerSlot] = [self._start_slot(index) for index in range(workers)]
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-serving-supervisor", daemon=True
        )
        self._supervisor.start()

    # ------------------------------------------------------------------
    # lifecycle / convenience construction
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        model_factory: Callable[[], Module],
        mmap: bool = True,
        serving_mode: str = "streaming",
        block_channels: Optional[int] = None,
        prefetch: Union[bool, str, None] = "pipeline",
        workers: int = 1,
        worker_mode: str = "thread",
        **engine_kwargs,
    ) -> "ServingEngine":
        """The full cold-start wiring: mmap load → serving mode → engine.

        ``worker_mode="thread"`` (default) loads ``workers`` replicas of the
        packed checkpoint zero-copy (codes paged on first touch; with
        ``mmap=True`` the replicas share **one** file mapping, so the packed
        bytes are mapped exactly once per process), puts every wrapper into
        ``serving_mode`` with the requested block size and prefetch setting
        (the default ``prefetch="pipeline"`` enables cross-layer pipelined
        block decode, ``False`` decodes inline), and returns a running engine
        with one worker per replica.

        ``worker_mode="process"`` instead ships the *checkpoint path* to
        ``workers`` worker processes: each child re-runs
        ``load_quantized(path, model_factory, mmap=True)`` in its own address
        space (one mapping per process; the OS page cache shares the packed
        bytes machine-wide, so N processes still cost one physical copy) and
        serves batches over IPC — crash-isolated and GIL-free.
        ``model_factory`` must then be picklable (a module-level callable,
        not a lambda), because the spec crosses the process boundary.  The
        parent keeps one replica of its own as ``engine.model`` for
        inspection; it never serves requests.
        """
        # local import: repro.serialization pulls the quantization workflow,
        # which this module must not require at import time
        from repro.quantization.workflow import set_serving_mode
        from repro.serialization import load_quantized

        worker_mode = validate_worker_mode(worker_mode)
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if worker_mode == "process":
            spec = WorkerSpec(
                checkpoint_path=os.fspath(path),
                model_factory=model_factory,
                mmap=bool(mmap),
                serving_mode=serving_mode,
                block_channels=block_channels,
                prefetch=prefetch,
                plan_cache=engine_kwargs.get("plan_cache", True),
            )
            template = load_quantized(path, model_factory, mmap=mmap)
            set_serving_mode(
                template, serving_mode, block_channels=block_channels, prefetch=prefetch
            )
            return cls(
                template,
                workers=workers,
                worker_mode="process",
                worker_spec=spec,
                **engine_kwargs,
            )
        replicas = []
        for _ in range(workers):
            replica = load_quantized(path, model_factory, mmap=mmap)
            set_serving_mode(
                replica, serving_mode, block_channels=block_channels, prefetch=prefetch
            )
            replicas.append(replica)
        return cls(replicas if workers > 1 else replicas[0], workers=workers, **engine_kwargs)

    def drain(self) -> None:
        """Stop admitting new work but keep serving everything already queued.

        The graceful half of shutdown: new :meth:`submit`/:meth:`generate`
        calls fail fast with :class:`~repro.serving.errors.EngineDraining`
        while queued and in-flight work runs to completion; follow with
        :meth:`close` once :attr:`stats`'s ``pending`` reaches zero (or on a
        deadline).  Irreversible, idempotent, a no-op after ``close()``.
        """
        with self._lock:
            if self._state == "serving":
                self._state = "draining"

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting requests, serve everything already queued, stop the workers.

        Idempotent, and every call blocks until the workers have drained (or
        ``timeout`` expires) — a second concurrent ``close()`` returning is
        the same quiescence guarantee as the first.  The supervisor keeps
        recovering crashed workers *during* the drain, so a worker death
        mid-drain no longer hangs the caller; once ``timeout`` expires, any
        request still unresolved (queued, backing off before a retry, or
        in-flight on a dead/hung worker) fails with
        :class:`~repro.serving.errors.WorkerCrashed` — close never returns
        with a hung future outstanding.
        """
        with self._lock:
            self._state = "closed"
            driver = self._generation_driver
        # admission stops under the same lock submit() uses, so nothing can
        # land in the scheduler after close(); workers drain what is queued
        self._scheduler.close()
        deadline = None if timeout is None else time.monotonic() + timeout
        if driver is not None:
            driver.close(timeout=1e9 if timeout is None else timeout)
        for slot in list(self._slots):
            thread = slot.thread
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if thread is not None:
                thread.join(timeout=remaining)
        self._stop_supervisor.set()
        self._supervisor.join(timeout=self.supervision_interval_s + 5.0)
        # failsafe: whatever could not drain — queued requests, retries still
        # backing off, groups in-flight on dead or hung workers — must not
        # leave a caller blocked on a future that can no longer resolve
        self._fail_leftovers(
            WorkerCrashed,
            "engine closed before this request was served (drain timed out or its worker died)",
            slots=list(self._slots),
        )
        # zero-zombie guarantee: every worker process is dead *and* waited on
        # before close() returns (drained slots already shut their children
        # down; this catches drain timeouts and crashed slot threads)
        for slot in list(self._slots):
            remaining = 5.0 if deadline is None else max(0.5, deadline - time.monotonic())
            slot.worker.reap(timeout=remaining)

    @property
    def state(self) -> str:
        """``"serving"``, ``"draining"``, ``"failed"`` or ``"closed"``."""
        with self._lock:
            return self._state

    @property
    def alive_workers(self) -> int:
        """How many workers are currently serving (for liveness checks).

        A slot counts only while *both* halves live: its engine thread and
        its worker (for a process worker, the child process).
        """
        return sum(
            not slot.retired and slot.thread.is_alive() and slot.worker.alive()
            for slot in list(self._slots)
        )

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request API
    # ------------------------------------------------------------------
    def submit(self, sample, options: Optional[SubmitOptions] = None) -> Future:
        """Enqueue one sample; the Future resolves to its output array.

        ``options`` is a :class:`~repro.serving.api.SubmitOptions`:
        ``priority`` orders scheduling (higher served first); ``deadline_ms``
        is a queue-time budget — the bucket closes early to start the forward
        before the deadline, and a request still queued past it fails with
        :class:`~repro.serving.errors.DeadlineExceeded`.  ``max_retries`` /
        ``retry_backoff_ms`` budget transparent re-runs after a worker crash
        or transient forward error (exhausted budget fails the future with
        :class:`~repro.serving.errors.WorkerCrashed`, or the original
        exception for ordinary forward errors).  Admission can fail fast:
        :class:`~repro.serving.errors.EngineClosed` /
        :class:`~repro.serving.errors.EngineDraining` by lifecycle state,
        :class:`~repro.serving.errors.QueueFull` at the queue-depth cap.  A
        zero or negative deadline budget can never be met, so it is rejected
        loudly instead of guaranteeing a DeadlineExceeded.
        """
        if options is None:
            options = SubmitOptions()
        elif not isinstance(options, SubmitOptions):
            raise TypeError(f"options must be a SubmitOptions, got {type(options).__name__}")
        options = options.validated()
        if isinstance(sample, Tensor):
            sample = sample.data
        sample = np.asarray(sample)
        future: Future = Future()
        now = time.monotonic()
        request = Request(
            sample,
            future,
            priority=options.priority,
            deadline=(
                None if options.deadline_ms is None else now + float(options.deadline_ms) / 1000.0
            ),
            submitted=now,
            key=compat_key(sample),
            order=next(self._order),
            max_retries=options.max_retries,
            retry_backoff_s=float(options.retry_backoff_ms) / 1000.0,
        )
        with self._lock:
            self._check_admitting_locked()
        # admit outside the engine lock: shedding resolves a victim's future,
        # which may run client callbacks that read engine stats (same lock)
        try:
            self._admit(self._scheduler.add, request)
        except EngineClosed:
            # close() won the race between our state check and admission
            raise EngineClosed("cannot submit to a closed ServingEngine") from None
        with self._lock:
            self._stats["requests"] += 1
        return future

    def serve(
        self,
        sample,
        options: Optional[SubmitOptions] = None,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Blocking single-request convenience: submit + wait."""
        return self.submit(sample, options).result(timeout=timeout)

    def serve_batch(
        self,
        samples: Sequence,
        options: Optional[SubmitOptions] = None,
        timeout: Optional[float] = None,
    ) -> List[np.ndarray]:
        """Submit a burst of samples and wait for all results (input order).

        ``timeout`` is a **shared deadline** for the whole burst, not a
        per-future allowance: waiting for result *k* consumes budget from the
        same clock as result *k+1*, so the call never blocks longer than
        ``timeout`` in total (it used to wait up to ``timeout × len(samples)``).
        """
        futures = [self.submit(sample, options) for sample in samples]
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        results = []
        for future in futures:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            results.append(future.result(timeout=remaining))
        return results

    def generate(
        self,
        prompt,
        request: Optional[GenerationRequest] = None,
    ) -> Union[Future, GenerationStream]:
        """Queue an autoregressive generation; decode steps batch across requests.

        ``prompt`` is a 1D token array (or single-row 2D array / Tensor);
        ``request`` a :class:`~repro.serving.api.GenerationRequest`.  Returns
        a :class:`~concurrent.futures.Future` resolving to the full sequence
        (prompt + continuation, best beam), or a
        :class:`~repro.serving.generation.GenerationStream` token iterator
        when ``request.stream``.  Generation runs on the engine's primary
        model through its per-request KV cache
        (``request.kv_cache="float32"`` exact, or an FP8 format name for a
        packed quantized cache) and stops per sequence on EOS,
        ``max_new_tokens`` or the model's ``max_seq_len``.  In-flight decode
        steps and new prefills co-batch each scheduler tick; when more than
        ``decode_slots`` beams are in flight, lower-priority sequences are
        preempted (cache rows released, decoded tokens kept) and restored
        later by replaying prompt+suffix as one prefill.
        """
        if self.worker_mode == "process":
            raise ValueError(
                "generate() is not supported under worker_mode='process' (the decode "
                "state lives parent-side); build the engine with worker_mode='thread' "
                "for generation workloads"
            )
        # local import: repro.serving must stay importable without the model zoo
        from repro.models.transformer import coerce_prompt

        request = (request if request is not None else GenerationRequest()).validated()
        max_seq_len = getattr(self.model, "max_seq_len", None)
        if max_seq_len is None:
            raise TypeError(
                f"{type(self.model).__name__} does not support generation "
                "(needs max_seq_len/new_decode_state/forward_step, e.g. GPTStyleLM)"
            )
        prompt = coerce_prompt(prompt, max_seq_len)
        if prompt.size >= max_seq_len:
            raise ValueError(
                f"prompt of {prompt.size} tokens leaves no room to generate within "
                f"max_seq_len={max_seq_len}"
            )
        with self._lock:
            self._check_admitting_locked()
            driver = self._generation_driver
            if driver is None or driver.crashed:
                # a crashed tick thread failed every open session; later
                # arrivals get a fresh driver instead of a dead letterbox
                driver = GenerationDriver(
                    self.model,
                    slots=self.decode_slots,
                    memory_budget=self.decode_memory_budget,
                    admission=self._admission,
                )
                self._generation_driver = driver
        session = self._admit(driver.submit, prompt, request)
        return session.stream if request.stream else session.future

    @property
    def stats(self) -> dict:
        """Snapshot of served-traffic counters plus latency/occupancy metrics.

        Beyond the raw counters: ``queue_wait_p50_ms``/``queue_wait_p95_ms``
        (submit → forward start), ``forward_p50_ms``/``forward_p95_ms`` (model
        call alone) and ``occupancy_mean`` (mean group size as a fraction of
        ``max_batch_size``) over a sliding window of recent groups.
        """
        with self._lock:
            snapshot = dict(self._stats)
            waits = list(self._queue_wait_s)
            forwards = list(self._forward_s)
            sizes = list(self._group_sizes)
        snapshot["mean_batch"] = (
            snapshot["batched_requests"] / snapshot["batches"] if snapshot["batches"] else 0.0
        )
        snapshot["workers"] = self.workers
        snapshot["alive_workers"] = self.alive_workers
        snapshot["state"] = self.state
        snapshot["worker_mode"] = self.worker_mode
        snapshot["pending"] = self._scheduler.pending()
        if self.worker_mode == "process":
            snapshot["process_workers"] = [slot.worker.info() for slot in list(self._slots)]
        occupancy = float(np.mean(sizes)) / self.max_batch_size if sizes else 0.0
        snapshot["occupancy_mean"] = occupancy
        snapshot["queue_wait_p50_ms"], snapshot["queue_wait_p95_ms"] = _percentiles_ms(waits)
        snapshot["forward_p50_ms"], snapshot["forward_p95_ms"] = _percentiles_ms(forwards)
        if self._plan_caches:
            totals: dict = {}
            for cache in self._plan_caches:
                for key, value in cache.stats().items():
                    totals[key] = totals.get(key, 0) + value
            snapshot["plan_cache"] = totals
        with self._lock:
            driver = self._generation_driver
        if driver is not None:
            snapshot["generation"] = driver.stats
        return snapshot

    def _check_admitting_locked(self) -> None:
        """Raise the typed rejection unless the engine is serving (lock held)."""
        if self._state == "closed":
            raise EngineClosed("cannot submit to a closed ServingEngine")
        if self._state == "draining":
            raise EngineDraining("engine is draining toward shutdown; new requests are rejected")
        if self._state == "failed":
            raise EngineFailed(
                "engine is in the failed state (worker crash-loop exhausted "
                f"max_worker_restarts={self.max_worker_restarts}); build a new engine"
            ) from self._failure_cause

    def _admit(self, add: Callable, *args):
        """Run one admission, counting a :class:`QueueFull` rejection."""
        try:
            return add(*args)
        except QueueFull:
            with self._lock:
                self._stats["rejected_requests"] += 1
            raise

    def _note_expired(self, count: int) -> None:
        with self._lock:
            self._stats["expired_requests"] += count
            self._stats["failed_requests"] += count

    def _note_shed(self, count: int) -> None:
        with self._lock:
            self._stats["shed_requests"] += count
            self._stats["failed_requests"] += count

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _new_worker(self, index: int):
        """Build slot ``index``'s worker: the one place the worker kind is chosen."""
        if self.worker_mode == "process":
            return ProcessWorker(index, self._mp_ctx, self._worker_spec)
        return ThreadWorker(index, self.replicas[index])

    def _start_slot(self, index: int) -> _WorkerSlot:
        slot = _WorkerSlot(index, self._new_worker(index))
        slot.thread = threading.Thread(
            target=self._work,
            args=(slot,),
            name=f"repro-serving-{index}",
            daemon=True,
        )
        slot.thread.start()
        return slot

    def _work(self, slot: _WorkerSlot) -> None:
        """The dispatcher loop of every slot: pull a group, run it on the worker.

        A worker death — a crashed thread, or a dead pipe raising
        :class:`~repro.serving.ipc.WorkerProcessDied` — lands in the crash
        handler with ``slot.inflight`` still populated; the supervisor
        recovers those requests and restarts the slot.
        """
        try:
            if slot.worker.await_ready(lambda: slot.retired or self.state in ("closed", "failed")):
                with self._lock:
                    self._never_ready_deaths = 0
            while True:
                group = self._scheduler.next_group()
                if group is None:
                    break
                if slot.retired:
                    # the supervisor retired this slot (its idle child died)
                    # while we waited for work: hand the group to the
                    # replacement instead of a dead pipe
                    self._requeue(group)
                    return
                slot.inflight = tuple(group)
                slot.forward_started = time.monotonic()
                self._forward_group(group, slot)
                slot.inflight = ()
                slot.forward_started = None
                if slot.retired:
                    # written off as hung while we were forwarding: a
                    # replacement owns this slot now, so stop pulling groups
                    return
            slot.retired = True
            slot.worker.shutdown()
        except BaseException as exc:  # noqa: BLE001 - the supervisor owns recovery
            # Swallow rather than re-raise: threading.excepthook would only
            # spam stderr for a death that is handled.
            slot.crash_exc = exc

    def _requeue(self, requests: Iterable[Request]) -> None:
        """Put requests back into the scheduler: a retired slot's group, or due retries."""
        failed = 0
        for request in requests:
            if request.future.done():
                continue  # cancelled or resolved meanwhile
            try:
                self._scheduler.add(request)
            except EngineClosed:
                failed += request.fail(
                    WorkerCrashed("engine closed before this request could be requeued")
                )
            except QueueFull as exc:
                failed += request.fail(exc)
        if failed:
            with self._lock:
                self._stats["failed_requests"] += failed

    def _forward_group(self, requests: List[Request], slot: _WorkerSlot) -> None:
        # transition every future to RUNNING; a request cancelled while it
        # waited in the queue is dropped here (and a RUNNING future can no
        # longer be cancelled, so resolving it below cannot hit
        # InvalidStateError and kill the worker thread).  A retried request
        # was claimed on its first attempt; claim() only checks liveness then.
        requests = [r for r in requests if r.claim()]
        slot.inflight = tuple(requests)
        if not requests:
            return
        started = time.monotonic()
        waits = [started - request.submitted for request in requests]
        samples = [request.sample for request in requests]
        lengths = [sample.shape[0] if sample.ndim else 0 for sample in samples]
        padded = samples[0].ndim >= 2 and len(set(lengths)) > 1
        forward_s = None
        try:
            faults.fire("engine.forward", worker=slot.index, group_size=len(requests))
            if padded:
                target = max(lengths)
                stacked = np.full(
                    (len(samples), target) + samples[0].shape[1:],
                    self.pad_value,
                    dtype=samples[0].dtype,
                )
                for row, sample in zip(stacked, samples):
                    row[: sample.shape[0]] = sample
            else:
                stacked = np.stack(samples)
            t0 = time.perf_counter()
            # for a process worker forward_s includes the IPC round trip —
            # the honest per-group cost of process mode, not just child compute
            output = slot.worker.run(stacked)
            forward_s = time.perf_counter() - t0
            if output.shape[0] != len(samples):
                raise RuntimeError(
                    f"model returned leading dimension {output.shape[0]} for a batch of "
                    f"{len(samples)} requests; the served model must preserve the batch axis"
                )
        except Exception as exc:  # noqa: BLE001 - ordinary failures belong to the futures
            # (BaseException — an injected or real crash — escapes to _work
            # and kills the worker; the supervisor recovers slot.inflight)
            with self._lock:
                self._queue_wait_s.extend(waits)
                if forward_s is not None:
                    self._forward_s.append(forward_s)
            self._recover_group(requests, exc)
            return
        # count the batch before resolving any future: a client unblocked by
        # set_result may read .stats immediately and must see this batch
        with self._lock:
            self._stats["batches"] += 1
            self._stats["batched_requests"] += len(requests)
            self._stats["padded_requests"] += len(requests) if padded else 0
            self._stats["max_batch"] = max(self._stats["max_batch"], len(requests))
            self._queue_wait_s.extend(waits)
            self._forward_s.append(forward_s)
            self._group_sizes.append(len(requests))
        for index, request in enumerate(requests):
            row = output[index]
            if padded and self.slice_padded_outputs:
                if row.ndim < 1 or row.shape[0] != stacked.shape[1]:
                    request.fail(
                        RuntimeError(
                            f"padded group output has leading shape {row.shape}, expected "
                            f"length {stacked.shape[1]}; the served model does not preserve "
                            "the sequence axis — construct the engine with "
                            "slice_padded_outputs=False"
                        )
                    )
                    continue
                row = row[: lengths[index]]
            request.succeed(row)

    # ------------------------------------------------------------------
    # supervision: crash/hang detection, retry with backoff, restart
    # ------------------------------------------------------------------
    def _recover_group(self, requests: Sequence[Request], exc: BaseException) -> None:
        """Route a failed group: requeue requests with retry budget, fail the rest.

        ``exc`` is what exhausted-budget futures reject with — the original
        exception for an ordinary forward error, or a
        :class:`~repro.serving.errors.WorkerCrashed` (cause attached) from
        the supervisor's crash/hang paths.
        """
        retried: List[Request] = []
        failed = 0
        for request in requests:
            if request.future.done():
                continue  # e.g. resolved late by an abandoned-then-finished worker
            if request.attempts < request.max_retries:
                retried.append(request)
            else:
                failed += request.fail(exc)
        if failed:
            with self._lock:
                self._stats["failed_requests"] += failed
        if not retried:
            return
        now = time.monotonic()
        with self._lock:
            for request in retried:
                request.attempts += 1
                delay = request.retry_backoff_s * (2 ** (request.attempts - 1))
                heapq.heappush(
                    self._retry_heap, (now + delay, next(self._retry_seq), request)
                )
                self._stats["retried_requests"] += 1

    def _flush_due_retries(self, now: float) -> None:
        due: List[Request] = []
        with self._lock:
            while self._retry_heap and self._retry_heap[0][0] <= now:
                due.append(heapq.heappop(self._retry_heap)[2])
        self._requeue(due)

    def _replace_slot(self, slot: _WorkerSlot, cause: BaseException) -> None:
        if not self._restart_allowed():
            self._fail_engine(
                f"worker restarts exceeded max_worker_restarts={self.max_worker_restarts} "
                f"within {self.restart_window_s:g} s — the replica (or checkpoint) is "
                "poisoning every worker started against it",
                cause,
            )
            return
        replacement = self._start_slot(slot.index)
        with self._lock:
            self._stats["worker_restarts"] += 1
            self._slots[self._slots.index(slot)] = replacement

    def _restart_allowed(self) -> bool:
        """Crash-loop containment: admit this restart into the rolling window?"""
        if self.max_worker_restarts is None:
            return True
        now = time.monotonic()
        with self._lock:
            if self._state == "failed":
                return False
            while self._restart_times and now - self._restart_times[0] > self.restart_window_s:
                self._restart_times.popleft()
            if len(self._restart_times) >= self.max_worker_restarts:
                return False
            self._restart_times.append(now)
            return True

    def _fail_engine(self, reason: str, cause: Optional[BaseException]) -> None:
        """Stop restarting, fail every pending request typed, refuse new work.

        Terminal (until ``close()``): restarting harder cannot heal whatever
        kills every worker, so the engine stops burning restarts and makes
        the failure loud instead.  Idempotent; a live worker still finishing
        a group resolves its futures normally.
        """
        with self._lock:
            if self._state in ("closed", "failed"):
                return
            self._state = "failed"
            self._failure_cause = cause
        self._fail_leftovers(EngineFailed, f"engine entered the failed state: {reason}", cause)

    def _fail_leftovers(
        self,
        kind: type,
        message: str,
        cause: Optional[BaseException] = None,
        slots: Sequence[_WorkerSlot] = (),
    ) -> None:
        """Stop admission, then fail every request still queued, backing off,
        or in flight on ``slots`` with its own ``kind(message)``."""
        self._scheduler.close()
        leftovers = self._scheduler.drain_pending()
        with self._lock:
            leftovers.extend(request for _, _, request in self._retry_heap)
            self._retry_heap.clear()
        for slot in slots:
            leftovers.extend(slot.inflight)
            slot.inflight = ()
        failed = 0
        for request in leftovers:
            error = kind(message)
            error.__cause__ = cause
            failed += request.fail(error)
        if failed:
            with self._lock:
                self._stats["failed_requests"] += failed

    def _supervise(self) -> None:
        while not self._stop_supervisor.wait(self.supervision_interval_s):
            try:
                self._supervise_once(time.monotonic())
            except Exception:  # noqa: BLE001 - supervision must outlive one bad sweep
                continue

    def _supervise_once(self, now: float) -> None:
        self._flush_due_retries(now)
        for slot in list(self._slots):
            if slot.retired:
                continue
            if not slot.thread.is_alive():
                self._retire_slot(slot, "died mid-forward")
            elif not slot.inflight and slot.worker.died_idle():
                # no round trip is in flight to trip over the EOF, so the
                # slot's thread would wait on the scheduler forever
                self._retire_slot(slot, "exited while idle")
            elif (
                self.hung_forward_timeout_s is not None
                and slot.forward_started is not None
                and now - slot.forward_started > self.hung_forward_timeout_s
            ):
                timeout_ms = self.hung_forward_timeout_s * 1e3
                self._retire_slot(
                    slot, f"abandoned as hung: forward exceeded {timeout_ms:.0f} ms", hung=True
                )

    def _retire_slot(self, slot: _WorkerSlot, why: str, hung: bool = False) -> None:
        """End a slot whose worker died mid-forward, hung, or exited while idle.

        Its in-flight requests are retried or failed with a
        :class:`~repro.serving.errors.WorkerCrashed` that says ``why``, and a
        replacement takes the slot.  A hung *thread* cannot be killed: it is
        left to finish (or never finish) and stops pulling groups; its late
        results lose the future-resolution race harmlessly — recovered
        requests were either failed (fail wins) or requeued (a late success
        just resolves the future first, bit-identically).  A hung *process*
        is killed, so process mode never leaks a runaway forward, and every
        retired process is reaped, so none is left a zombie.
        """
        slot.retired = True
        inflight, slot.inflight = list(slot.inflight), ()
        worker = slot.worker
        if hung:
            worker.kill()
        ended = worker.reap(timeout=2.0)
        with self._lock:
            self._stats["worker_crashes"] += 1
            self._stats["hung_workers"] += int(hung)
        error = WorkerCrashed(f"{worker.name} {why}" + (f" ({ended})" if ended else ""))
        error.__cause__ = slot.crash_exc
        self._recover_group(inflight, error)
        if worker.init_failed:
            # the replica will not build in *any* child; restarting is a loop
            self._fail_engine(f"{worker.name} cannot build its model replica", error)
            return
        if not worker.ready:
            # died before ever handshaking: the child could not even start
            # (spawn re-import failure, missing interpreter state, OOM at
            # import).  Unlike a mid-forward death, restarting cannot help
            # once it repeats — contain it even with unlimited restarts.
            with self._lock:
                self._never_ready_deaths += 1
                doomed = self._never_ready_deaths >= self._MAX_NEVER_READY_DEATHS
            if doomed:
                self._fail_engine(
                    f"{self._MAX_NEVER_READY_DEATHS} consecutive worker processes "
                    "died before becoming ready — worker startup is broken in this "
                    "environment, so restarting is a loop",
                    error,
                )
                return
        if self.restart_crashed_workers:
            self._replace_slot(slot, error)
