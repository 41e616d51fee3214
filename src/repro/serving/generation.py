"""Token-level generation serving: decode-state pool + batching driver.

The one-shot engine path batches whole forwards; autoregressive generation
needs batching *per decode step*.  This module adds that tier:

* :class:`DecodeStatePool` — one batched per-layer KV cache
  (:class:`~repro.models.transformer.DecodeState`) per storage kind, with
  explicit row allocation so many requests multiplex one cache;
* :class:`GenerationSession` — the unit the :class:`TokenScheduler` schedules:
  a :class:`~repro.serving.api.GenerationRequest`, its
  :class:`~repro.models.transformer.DecodeSearch`, and the cache rows it
  currently occupies (preemption drops the rows but keeps the search — a
  restore replays prompt+suffix as one ragged prefill, which lands it exactly
  where it left off);
* :class:`GenerationStream` — queue-backed token iterator for
  ``GenerationRequest(stream=True)``;
* :class:`GenerationDriver` — the single background thread that ticks:
  each tick it asks the scheduler for admissions/preemptions/expiries, then
  co-batches **prefills of new arrivals with single-token decode steps of
  every in-flight sequence** into one padded
  :meth:`~repro.models.transformer.GPTStyleLM.forward_step` call per storage
  kind.  New requests submitted while a tick's forward runs join the next
  tick — mid-decode admission with no drain barrier.

``GPTStyleLM.generate`` runs the same greedy/beam search
(:class:`~repro.models.transformer.DecodeSearch`) through the same ragged
step (:func:`~repro.models.transformer.ragged_step`), so a lone request
through the engine reproduces the model-level output token-for-token
(dynamic-activation quantized models see co-batch-dependent scales — see the
README notes).
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Dict, List, Optional

import numpy as np

from repro.autograd.tensor import no_grad
from repro.serving import faults
from repro.serving.api import GenerationRequest
from repro.serving.errors import EngineClosed, WorkerCrashed
from repro.serving.scheduler import (
    _STATS_WINDOW,
    Admission,
    DeadlineExceeded,
    TokenScheduler,
    _percentiles_ms,
)

__all__ = [
    "DecodeStatePool",
    "GenerationSession",
    "GenerationStream",
    "GenerationDriver",
]


class DecodeStatePool:
    """Row-slot allocator over one batched :class:`DecodeState`.

    The pool owns ``slots`` cache rows; sessions borrow contiguous-or-not row
    index arrays via :meth:`alloc` and give them back with :meth:`release`
    (which resets the rows' cached lengths so storage is reused).
    """

    def __init__(self, model, slots: int, storage: str = "float32") -> None:
        self.storage = storage
        self.state = model.new_decode_state(slots, storage=storage)
        self._free = list(range(slots))

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def alloc(self, n: int) -> np.ndarray:
        if n > len(self._free):
            raise RuntimeError(
                f"decode-state pool exhausted: need {n} rows, have {len(self._free)}"
            )
        rows = np.asarray([self._free.pop() for _ in range(n)], dtype=np.int64)
        self.state.reset_rows(rows)
        return rows

    def release(self, rows: np.ndarray) -> None:
        self.state.reset_rows(rows)
        self._free.extend(int(r) for r in rows)


class GenerationSession:
    """One in-flight generation request, schedulable by :class:`TokenScheduler`.

    Exposes the scheduler protocol (``slots``/``priority``/``order``/
    ``deadline``/``submitted``) plus the session's tenancy in a
    :class:`DecodeStatePool`: ``rows`` (the cache rows currently held) and
    ``needs_prefill``.  The decoding itself is ``search``, a
    :class:`~repro.models.transformer.DecodeSearch` whose beams survive
    preemption.
    """

    def __init__(
        self,
        prompt: np.ndarray,
        request: GenerationRequest,
        future: Optional[Future],
        stream: Optional["GenerationStream"],
        order: int,
        deadline: Optional[float],
    ) -> None:
        # local import: repro.serving must stay importable without the model zoo
        from repro.models.transformer import DecodeSearch

        self.search = DecodeSearch(
            prompt, request.max_new_tokens, request.beam_size, request.eos_token
        )
        self.future = future
        self.stream = stream
        self.order = order
        self.priority = int(request.priority)
        self.deadline = deadline
        self.submitted = time.monotonic()
        self.slots = int(request.beam_size)
        self.storage = request.kv_cache
        self.rows: Optional[np.ndarray] = None
        self.needs_prefill = True
        self.preemptions = 0

    def resolve(self) -> None:
        """Deliver the finished sequence (outside the driver lock)."""
        sequence = self.search.best()
        if self.stream is not None:
            self.stream._finish(sequence)
        if self.future is not None and self.future.set_running_or_notify_cancel():
            self.future.set_result(sequence)

    def fail(self, exc: BaseException) -> bool:
        """Deliver ``exc``; False if the caller had already cancelled the future."""
        if self.stream is not None:
            self.stream._fail(exc)
            return True
        if self.future.set_running_or_notify_cancel():
            self.future.set_exception(exc)
            return True
        return False


class GenerationStream:
    """Token iterator returned by ``engine.generate(..., stream=True)``.

    Iterating yields token ids as the driver emits them; :meth:`result` blocks
    for (and returns) the full sequence including the prompt.
    """

    _DONE = object()

    def __init__(self) -> None:
        self._queue: "queue.Queue" = queue.Queue()
        self._final: Future = Future()

    def _put_token(self, token: int) -> None:
        self._queue.put(token)

    def _finish(self, sequence: np.ndarray) -> None:
        self._queue.put(self._DONE)
        if self._final.set_running_or_notify_cancel():
            self._final.set_result(sequence)

    def _fail(self, exc: BaseException) -> None:
        self._queue.put(exc)
        if self._final.set_running_or_notify_cancel():
            self._final.set_exception(exc)

    def __iter__(self):
        while True:
            item = self._queue.get()
            if item is self._DONE:
                return
            if isinstance(item, BaseException):
                raise item
            yield item

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        return self._final.result(timeout=timeout)


class GenerationDriver:
    """Single background thread running the token-level batching loop.

    Each tick:

    1. :meth:`TokenScheduler.plan` decides admissions (rows allocated, prefill
       owed), preemptions (rows released, suffixes kept) and expiries (futures
       failed with :class:`DeadlineExceeded`);
    2. every running session contributes its rows to **one padded ragged
       ``forward_step`` call per storage kind** — prompt replays (``S`` = full
       length) and decode steps (``S`` = 1) in the same batch;
    3. each session consumes its rows' last-valid-position logits: greedy
       append / beam seed / beam step, stream emission, completion on EOS,
       ``max_new_tokens`` or cache capacity.

    Submissions landing while a forward runs are queued by the scheduler and
    admitted next tick, so prefills co-batch with in-flight decodes instead of
    waiting for a drain.

    A session whose future the caller cancelled is dropped at the next tick,
    waiting or running, and its cache rows go back to the pool.

    Failure behaviour: a tick-thread death (injected via the
    ``"generation.tick"`` fault site, or real) fails **every** open session
    with :class:`~repro.serving.errors.WorkerCrashed` — futures reject and
    streams terminate with the error instead of hanging — and the driver
    reports :attr:`crashed` so the engine builds a fresh one for later
    arrivals.  An *ordinary* forward exception stays scoped to the storage
    group that raised it: its sessions fail with the original exception,
    other storage kinds keep decoding.  ``admission`` bounds the waiting
    queue (:class:`~repro.serving.errors.QueueFull` fast-fail, or shedding of
    a strictly lower-priority waiting session, which fails with
    :class:`~repro.serving.errors.RequestShed`); the engine passes its own
    :class:`~repro.serving.scheduler.Admission`, so one-shot and generation
    traffic follow the same rule.
    """

    def __init__(
        self,
        model,
        slots: int = 16,
        memory_budget: Optional[int] = None,
        admission: Optional[Admission] = None,
    ) -> None:
        if not hasattr(model, "forward_step") or not hasattr(model, "new_decode_state"):
            raise TypeError(
                f"{type(model).__name__} does not support incremental decode "
                "(needs new_decode_state/forward_step, e.g. GPTStyleLM)"
            )
        self._model = model
        if memory_budget is not None:
            probe = model.new_decode_state(1, storage="float32")
            slots = min(int(slots), max(1, int(memory_budget) // max(1, probe.row_nbytes)))
        self._scheduler = TokenScheduler(int(slots), admission=admission)
        self._pools: Dict[str, DecodeStatePool] = {}
        self._cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._crash_exc: Optional[BaseException] = None
        self._order = itertools.count()
        self._stats = {
            "slots": int(slots),
            "sequences": 0,
            "generated_tokens": 0,
            "prefill_steps": 0,
            "decode_steps": 0,
            "preemptions": 0,
            "restores": 0,
            "expired": 0,
            "shed": 0,
            "tick_failures": 0,
        }
        self._prefill_s: deque = deque(maxlen=_STATS_WINDOW)
        self._decode_s: deque = deque(maxlen=_STATS_WINDOW)
        self._busy_s = 0.0

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def submit(self, prompt: np.ndarray, request: GenerationRequest) -> GenerationSession:
        """Queue one generation; the session carries its future/stream.

        Raises :class:`~repro.serving.errors.EngineClosed` after
        :meth:`close`, :class:`~repro.serving.errors.WorkerCrashed` if the
        tick thread died (the engine replaces crashed drivers, so only direct
        driver users see this), and :class:`~repro.serving.errors.QueueFull`
        when the admission rule rejects the request.
        """
        stream = GenerationStream() if request.stream else None
        future = None if request.stream else Future()
        deadline = None
        if request.deadline_ms is not None:
            deadline = time.monotonic() + request.deadline_ms / 1000.0
        with self._cond:
            if self._closed:
                raise EngineClosed("cannot submit to a closed GenerationDriver")
            if self._crash_exc is not None:
                error = WorkerCrashed("cannot submit: the generation tick thread crashed")
                error.__cause__ = self._crash_exc
                raise error
            session = GenerationSession(
                prompt, request, future, stream, next(self._order), deadline
            )
            victim = self._scheduler.add(session)
            if victim is not None:
                self._stats["shed"] += 1
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-generation-driver", daemon=True
                )
                self._thread.start()
            self._cond.notify_all()
        if victim is not None:
            # resolve outside the lock: future/stream delivery runs client code
            self._scheduler.admission.shed(victim)
        return session

    def close(self, timeout: float = 10.0) -> None:
        """Stop admission of new requests and drain in-flight generations.

        If the tick thread cannot drain within ``timeout`` (hung forward) or
        already crashed, every still-open session fails with
        :class:`~repro.serving.errors.WorkerCrashed` — close never returns
        with a hung future or stream outstanding.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            if thread.is_alive():
                self._fail_sessions(
                    WorkerCrashed(
                        "generation driver could not drain before the close timeout"
                    )
                )

    @property
    def crashed(self) -> bool:
        """True once the tick thread died; open sessions were already failed."""
        return self._crash_exc is not None

    @property
    def stats(self) -> dict:
        with self._cond:
            snapshot = dict(self._stats)
            snapshot["tokens_per_s"] = (
                snapshot["generated_tokens"] / self._busy_s if self._busy_s > 0 else 0.0
            )
            for name, samples in (("prefill", self._prefill_s), ("decode", self._decode_s)):
                if samples:
                    p50, p95 = _percentiles_ms(samples)
                    snapshot[f"{name}_p50_ms"], snapshot[f"{name}_p95_ms"] = p50, p95
            return snapshot

    # ------------------------------------------------------------------
    # driver thread
    # ------------------------------------------------------------------
    def _pool(self, storage: str) -> DecodeStatePool:
        if storage not in self._pools:
            self._pools[storage] = DecodeStatePool(
                self._model, self._scheduler.total_slots, storage=storage
            )
        return self._pools[storage]

    def _run(self) -> None:
        try:
            self._run_loop()
        except BaseException as exc:  # noqa: BLE001 - a dead tick thread must not hang sessions
            self._on_crash(exc)

    def _on_crash(self, exc: BaseException) -> None:
        """Tick-thread death: fail every open session instead of hanging it."""
        with self._cond:
            self._crash_exc = exc
            self._cond.notify_all()
        error = WorkerCrashed("generation tick thread died; this session cannot finish")
        error.__cause__ = exc
        self._fail_sessions(error)

    def _drop_locked(self, session: GenerationSession) -> None:
        """Take a session off the scheduler and give its cache rows back."""
        self._scheduler.discard(session)
        if session.rows is not None:
            self._pool(session.storage).release(session.rows)
            session.rows = None

    def _fail_sessions(
        self, error: BaseException, sessions: Optional[List[GenerationSession]] = None
    ) -> None:
        """Drop ``sessions`` (default: every open one) and fail them with ``error``."""
        with self._cond:
            if sessions is None:
                sessions = self._scheduler.waiting + self._scheduler.running
            for session in sessions:
                self._drop_locked(session)
        for session in sessions:
            session.fail(error)

    def _run_loop(self) -> None:
        while True:
            with self._cond:
                while True:
                    busy = bool(self._scheduler.waiting or self._scheduler.running)
                    if busy or self._closed:
                        break
                    self._cond.wait()
                if self._closed and not busy:
                    return
                for session in self._scheduler.waiting + self._scheduler.running:
                    if session.future is not None and session.future.cancelled():
                        self._drop_locked(session)
                now = time.monotonic()
                admitted, preempted, expired = self._scheduler.plan(now)
                for session in preempted:
                    self._pool(session.storage).release(session.rows)
                    session.rows = None
                    session.needs_prefill = True
                    session.preemptions += 1
                    self._stats["preemptions"] += 1
                for session in admitted:
                    session.rows = self._pool(session.storage).alloc(session.slots)
                    session.needs_prefill = True
                    if session.preemptions:
                        self._stats["restores"] += 1
                self._stats["expired"] += len(expired)
                running = list(self._scheduler.running)
            for session in expired:
                session.fail(
                    DeadlineExceeded(
                        f"generation deadline passed after "
                        f"{time.monotonic() - session.submitted:.3f}s in queue"
                    )
                )
            if running:
                self._tick(running)

    def _tick(self, running: List[GenerationSession]) -> None:
        by_storage: Dict[str, List[GenerationSession]] = {}
        for session in running:
            by_storage.setdefault(session.storage, []).append(session)
        finished: List[GenerationSession] = []
        for storage, sessions in by_storage.items():
            try:
                self._tick_storage(storage, sessions, finished)
            except Exception as exc:  # noqa: BLE001 - scoped: other storages keep decoding
                with self._cond:
                    self._stats["tick_failures"] += 1
                self._fail_sessions(exc, [s for s in sessions if s not in finished])
        for session in finished:
            session.resolve()

    def _tick_storage(
        self,
        storage: str,
        sessions: List[GenerationSession],
        finished: List[GenerationSession],
    ) -> None:
        # local import: repro.serving must stay importable without the model zoo
        from repro.models.transformer import ragged_step

        pool = self._pool(storage)
        rows = np.concatenate([session.rows for session in sessions])
        inputs = [ids for s in sessions for ids in s.search.step_inputs(s.needs_prefill)]
        prefill = any(session.needs_prefill for session in sessions)
        faults.fire("generation.tick", storage=storage, batch=len(inputs))
        start = time.perf_counter()
        with no_grad():
            last = ragged_step(self._model, pool.state, rows, inputs)
        elapsed = time.perf_counter() - start
        with self._cond:
            self._busy_s += elapsed
            (self._prefill_s if prefill else self._decode_s).append(elapsed)
            self._stats["prefill_steps" if prefill else "decode_steps"] += 1
            offset = 0
            for session in sessions:
                search = session.search
                before = sum(map(len, search.suffixes))
                search.advance(last[offset : offset + session.slots], pool.state, session.rows)
                offset += session.slots
                session.needs_prefill = False
                if session.stream is not None:
                    session.stream._put_token(search.suffixes[0][-1])
                self._stats["generated_tokens"] += max(0, sum(map(len, search.suffixes)) - before)
                if search.finished:
                    self._drop_locked(session)
                    self._stats["sequences"] += 1
                    finished.append(session)
