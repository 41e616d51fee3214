"""Continuous-batching scheduler: per-key admission with deadlines and priorities.

PR 4's engine served in lock-step: collect a time window of requests, split it
by compatibility, forward every group, and only then collect again.  Requests
arriving while a forward ran waited behind a drain barrier, and a mixed-key
window fragmented into several underfilled forwards — expensive on the
streaming path, where each forward pays the full block-decode cost no matter
how few rows ride it.

:class:`ContinuousScheduler` replaces the window with **per-compatibility
buckets** and continuous admission:

* every request lands in the bucket for its :func:`compat_key` the moment it
  arrives — including while workers are mid-forward, so arrivals join the
  *next* forward of an in-flight stream of groups instead of waiting for a
  drain;
* a bucket becomes *ready* when it is full (``max_batch_size``), its admission
  window (``max_wait_s`` after the bucket opened) expires, the scheduler is
  closing, or a member's deadline is about to pass — a lone request therefore
  still never waits longer than the admission window;
* among ready buckets, workers are handed the one holding the most urgent
  request, and within a bucket the most urgent ``max_batch_size`` requests go
  first.  Urgency orders by priority (higher first), then deadline (earlier
  first), then arrival.

Deadlines are honoured on both sides of admission: a bucket closes early so a
tight-deadline request starts before its deadline, and a request whose
deadline passes while still queued fails with :class:`DeadlineExceeded`
instead of silently running late.

Overload control
----------------
An unbounded queue accepts work it can never serve; ``max_queue_depth``
bounds it.  At the cap, admission either fast-fails the new request with
:class:`~repro.serving.errors.QueueFull` (``shed_policy="reject"``) or, with
``shed_policy="priority"``, evicts the least urgent *strictly lower-priority*
queued request (failing its future with
:class:`~repro.serving.errors.RequestShed`) to admit the newcomer — the
lowest priority class is shed first, and work already handed to a worker is
never shed, so admitted work is never starved by arrivals.

The scheduler is engine-agnostic: it never touches models or samples, only
:class:`Request` records, and any number of worker threads may block in
:meth:`~ContinuousScheduler.next_group` concurrently.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.serving.errors import DeadlineExceeded, EngineClosed, QueueFull, RequestShed

__all__ = [
    "DeadlineExceeded",
    "Request",
    "ContinuousScheduler",
    "TokenScheduler",
    "compat_key",
]

#: how far ahead of a deadline the admission window closes, so the forward
#: can start before the deadline instead of expiring exactly on it
_DEADLINE_GUARD_S = 0.002


def compat_key(sample: np.ndarray) -> Tuple:
    """Group key: which requests may share one stacked/padded forward call.

    rank-0/rank-1 samples must match exactly and are stacked; rank >= 2
    samples must agree on every dimension except the first (they are padded
    along axis 0 by the engine).
    """
    if sample.ndim <= 1:
        return ("exact", sample.dtype.str, sample.shape)
    return ("padded", sample.dtype.str, sample.ndim, sample.shape[1:])


class Request:
    """One queued sample plus its future and scheduling attributes.

    ``max_retries``/``retry_backoff_s`` carry the caller's retry budget for
    idempotent forwards; ``attempts`` counts requeues so far and ``claimed``
    records that the future already transitioned to RUNNING on an earlier
    attempt (a RUNNING future must not be transitioned twice).
    """

    __slots__ = (
        "sample",
        "future",
        "priority",
        "deadline",
        "submitted",
        "key",
        "order",
        "max_retries",
        "retry_backoff_s",
        "attempts",
        "claimed",
    )

    def __init__(
        self,
        sample: np.ndarray,
        future: Future,
        priority: int = 0,
        deadline: Optional[float] = None,
        submitted: Optional[float] = None,
        key: Optional[Tuple] = None,
        order: int = 0,
        max_retries: int = 0,
        retry_backoff_s: float = 0.025,
    ) -> None:
        self.sample = sample
        self.future = future
        self.priority = int(priority)
        self.deadline = deadline
        self.submitted = time.monotonic() if submitted is None else submitted
        self.key = compat_key(sample) if key is None else key
        self.order = order
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.attempts = 0
        self.claimed = False

    def urgency(self) -> Tuple[int, float, int]:
        """Sort key: higher priority, then earlier deadline, then arrival order."""
        return (
            -self.priority,
            math.inf if self.deadline is None else self.deadline,
            self.order,
        )

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline

    def claim(self) -> bool:
        """Transition the future to RUNNING; False if cancelled or resolved.

        A request requeued by the retry path was already RUNNING on its first
        attempt — ``claimed`` short-circuits the (single-shot) state
        transition so a retried request is simply checked for liveness.
        """
        if self.claimed:
            return not self.future.done()
        self.claimed = self.future.set_running_or_notify_cancel()
        return self.claimed

    def succeed(self, result) -> bool:
        """Resolve the future with ``result``; False if it was already resolved.

        A future can race two resolvers — e.g. an abandoned hung worker
        completing after the supervisor already failed its group — so losing
        the race is reported, never raised.
        """
        try:
            self.future.set_result(result)
            return True
        except Exception:
            return False

    def fail(self, exc: BaseException) -> bool:
        """Resolve the future with ``exc`` unless it was already cancelled/resolved."""
        if not self.claim():
            return False
        try:
            self.future.set_exception(exc)
            return True
        except Exception:
            return False


class ContinuousScheduler:
    """Thread-safe per-compatibility-bucket admission for N worker threads.

    Parameters
    ----------
    max_batch_size:
        Upper bound on requests handed out per group.
    max_wait_s:
        Admission window: how long a bucket may wait for co-riders after its
        first (oldest pending) request opened it.
    on_expired:
        Optional callback invoked with the number of requests that were failed
        with :class:`DeadlineExceeded` (used by the engine's stats).
    max_queue_depth:
        Optional cap on total queued (not yet handed out) requests.  At the
        cap, :meth:`add` applies ``shed_policy``.
    shed_policy:
        ``"reject"`` (default): a request arriving at a full queue fast-fails
        with :class:`~repro.serving.errors.QueueFull`.  ``"priority"``: if a
        strictly lower-priority request is queued, the least urgent such
        request is shed (its future fails with
        :class:`~repro.serving.errors.RequestShed`) and the newcomer is
        admitted; otherwise the newcomer is rejected.
    on_shed:
        Optional callback invoked with the number of requests shed.
    """

    def __init__(
        self,
        max_batch_size: int,
        max_wait_s: float,
        on_expired: Optional[Callable[[int], None]] = None,
        max_queue_depth: Optional[int] = None,
        shed_policy: str = "reject",
        on_shed: Optional[Callable[[int], None]] = None,
    ) -> None:
        if int(max_batch_size) < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size!r}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s!r}")
        if max_queue_depth is not None and int(max_queue_depth) < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth!r}")
        if shed_policy not in ("reject", "priority"):
            raise ValueError(f"shed_policy must be 'reject' or 'priority', got {shed_policy!r}")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.max_queue_depth = None if max_queue_depth is None else int(max_queue_depth)
        self.shed_policy = shed_policy
        self._on_expired = on_expired
        self._on_shed = on_shed
        self._cond = threading.Condition()
        self._buckets: Dict[Tuple, List[Request]] = {}
        #: when each bucket's admission window opened = the arrival time of
        #: its oldest pending request
        self._opened: Dict[Tuple, float] = {}
        #: cached per-bucket (min urgency, earliest deadline or None) so a
        #: scheduling decision is O(buckets), not O(total pending requests);
        #: maintained incrementally on add, recomputed from leftovers on pop
        self._meta: Dict[Tuple, Tuple] = {}
        self._pending = 0
        self._closed = False

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def add(self, request: Request) -> None:
        """Admit one request into its compatibility bucket (wakes waiting workers).

        Raises :class:`~repro.serving.errors.QueueFull` at the queue-depth
        cap (after shedding a lower-priority victim instead, under
        ``shed_policy="priority"``, when one exists).
        """
        victim: Optional[Request] = None
        with self._cond:
            if self._closed:
                raise EngineClosed("cannot add to a closed scheduler")
            if self.max_queue_depth is not None and self._pending >= self.max_queue_depth:
                victim = self._shed_victim_locked(request)
                if victim is None:
                    raise QueueFull(
                        f"serving queue is at its depth cap ({self.max_queue_depth} "
                        f"pending requests); request rejected"
                    )
                self._remove_locked(victim)
            bucket = self._buckets.setdefault(request.key, [])
            if not bucket:
                self._opened[request.key] = request.submitted
                self._meta[request.key] = (request.urgency(), request.deadline)
            else:
                urgency, deadline = self._meta[request.key]
                if request.deadline is not None:
                    deadline = (
                        request.deadline if deadline is None else min(deadline, request.deadline)
                    )
                self._meta[request.key] = (min(urgency, request.urgency()), deadline)
            bucket.append(request)
            self._pending += 1
            self._cond.notify_all()
        if victim is not None:
            # resolve outside the lock: future resolution may run client code
            shed = victim.fail(
                RequestShed(
                    f"request shed after {time.monotonic() - victim.submitted:.3f}s queued: "
                    f"queue at depth cap and higher-priority traffic arrived"
                )
            )
            if shed and self._on_shed is not None:
                self._on_shed(1)

    def _shed_victim_locked(self, incoming: Request) -> Optional[Request]:
        """The least urgent queued request strictly below ``incoming``'s priority."""
        if self.shed_policy != "priority":
            return None
        victim: Optional[Request] = None
        for bucket in self._buckets.values():
            for queued in bucket:
                if queued.priority >= incoming.priority:
                    continue
                if victim is None or queued.urgency() > victim.urgency():
                    victim = queued
        return victim

    def _remove_locked(self, request: Request) -> None:
        """Drop one queued request, repairing its bucket's window/meta caches."""
        bucket = self._buckets.get(request.key)
        if bucket is None or request not in bucket:
            return
        bucket.remove(request)
        self._pending -= 1
        if bucket:
            self._opened[request.key] = min(r.submitted for r in bucket)
            deadlines = [r.deadline for r in bucket if r.deadline is not None]
            self._meta[request.key] = (
                min(r.urgency() for r in bucket),
                min(deadlines) if deadlines else None,
            )
        else:
            del self._buckets[request.key]
            self._opened.pop(request.key, None)
            self._meta.pop(request.key, None)

    def close(self) -> None:
        """Stop admission; queued requests stay servable until drained."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain_pending(self) -> List[Request]:
        """Remove and return every queued request (the close-timeout path).

        Used when draining can no longer make progress (e.g. worker death at
        shutdown): the caller owns the returned requests and must resolve
        their futures.
        """
        with self._cond:
            leftovers = [r for bucket in self._buckets.values() for r in bucket]
            self._buckets.clear()
            self._opened.clear()
            self._meta.clear()
            self._pending = 0
            self._cond.notify_all()
        return leftovers

    def pending(self) -> int:
        with self._cond:
            return self._pending

    # ------------------------------------------------------------------
    # consumer side (worker threads)
    # ------------------------------------------------------------------
    def next_group(self) -> Optional[List[Request]]:
        """Block until a group is ready; ``None`` once closed and drained.

        Expired requests are failed with :class:`DeadlineExceeded` (outside
        the scheduler lock — future resolution may run client callbacks) and
        never appear in a returned group.
        """
        while True:
            with self._cond:
                while True:
                    now = time.monotonic()
                    key = self._ready_key_locked(now)
                    if key is not None:
                        group, dropped = self._pop_locked(key, now)
                        break
                    if self._closed and not any(self._buckets.values()):
                        return None
                    self._cond.wait(timeout=self._next_ready_in_locked(now))
            expired = 0
            for request in dropped:
                # a request cancelled by its client is not an expiry — fail()
                # reports whether the DeadlineExceeded actually landed
                expired += request.fail(
                    DeadlineExceeded(
                        f"request deadline passed after {now - request.submitted:.3f}s in queue"
                    )
                )
            if expired and self._on_expired is not None:
                self._on_expired(expired)
            if group:
                return group

    # ------------------------------------------------------------------
    # internals (all *_locked methods assume self._cond is held)
    # ------------------------------------------------------------------
    def _ready_at_locked(self, key: Tuple) -> float:
        """When the bucket's admission window closes (deadline-aware)."""
        ready_at = self._opened[key] + self.max_wait_s
        deadline = self._meta[key][1]
        if deadline is not None:
            ready_at = min(ready_at, deadline - _DEADLINE_GUARD_S)
        return ready_at

    def _is_ready_locked(self, key: Tuple, now: float) -> bool:
        bucket = self._buckets[key]
        if self._closed or len(bucket) >= self.max_batch_size:
            return True
        return now >= self._ready_at_locked(key)

    def _ready_key_locked(self, now: float) -> Optional[Tuple]:
        """The ready bucket holding the globally most urgent request, if any."""
        best_key = None
        best_urgency = None
        for key, bucket in self._buckets.items():
            if not bucket or not self._is_ready_locked(key, now):
                continue
            head = self._meta[key][0]
            if best_urgency is None or head < best_urgency:
                best_key, best_urgency = key, head
        return best_key

    def _next_ready_in_locked(self, now: float) -> Optional[float]:
        """Seconds until the earliest bucket becomes ready (None = wait for traffic)."""
        waits = [
            self._ready_at_locked(key) - now for key, bucket in self._buckets.items() if bucket
        ]
        if not waits:
            return None
        return max(min(waits), 1e-4)

    def _pop_locked(self, key: Tuple, now: float) -> Tuple[List[Request], List[Request]]:
        """Take the most urgent ``max_batch_size`` alive requests from ``key``."""
        bucket = self._buckets[key]
        alive = [r for r in bucket if not r.expired(now)]
        dropped = [r for r in bucket if r.expired(now)]
        alive.sort(key=Request.urgency)
        group, rest = alive[: self.max_batch_size], alive[self.max_batch_size :]
        self._pending -= len(group) + len(dropped)
        if rest:
            self._buckets[key] = rest
            # the leftovers' window stays anchored to their own arrival — a
            # request bumped by more urgent traffic keeps its already-elapsed
            # wait instead of restarting a full max_wait window
            self._opened[key] = min(r.submitted for r in rest)
            deadlines = [r.deadline for r in rest if r.deadline is not None]
            self._meta[key] = (
                min(r.urgency() for r in rest),
                min(deadlines) if deadlines else None,
            )
        else:
            del self._buckets[key]
            self._opened.pop(key, None)
            self._meta.pop(key, None)
        return group, dropped


class TokenScheduler:
    """Slot-budgeted admission for token-level generation batching.

    The one-shot :class:`ContinuousScheduler` hands out whole groups; a
    generation session instead *occupies* decode-state slots (one KV-cache row
    per beam) for many ticks.  :class:`TokenScheduler` owns that slot budget:
    each tick the generation driver calls :meth:`plan`, which decides

    * **expiry** — waiting sessions whose deadline passed before their prefill
      was admitted fail with :class:`DeadlineExceeded` (a *running* session is
      never killed by its deadline);
    * **admission** — waiting sessions start, most urgent first, while slots
      remain, so new prefills co-batch with in-flight decodes;
    * **preemption** — when slots are exhausted, a waiting session may evict
      **strictly less urgent** running sessions (least urgent first).  The
      strictness is the anti-thrash rule: an evictee can never immediately
      evict its evictor, because equal urgency never preempts.

    Urgency is ``(-priority, order)`` — deadlines affect expiry, not ordering,
    so a tight deadline does not let a late request leapfrog the queue.

    Scheduled items are opaque beyond five attributes: ``slots`` (rows
    needed), ``priority``, ``order``, ``deadline`` and ``submitted``.  The
    class is not itself thread-safe; the generation driver serialises calls
    under its own lock.
    """

    def __init__(
        self,
        total_slots: int,
        max_waiting: Optional[int] = None,
    ) -> None:
        if int(total_slots) < 1:
            raise ValueError(f"total_slots must be >= 1, got {total_slots!r}")
        if max_waiting is not None and int(max_waiting) < 1:
            raise ValueError(f"max_waiting must be >= 1, got {max_waiting!r}")
        self.total_slots = int(total_slots)
        self.max_waiting = None if max_waiting is None else int(max_waiting)
        self._waiting: List = []
        self._running: List = []

    @staticmethod
    def _urgency(item) -> Tuple[int, int]:
        return (-item.priority, item.order)

    @property
    def free_slots(self) -> int:
        return self.total_slots - sum(item.slots for item in self._running)

    @property
    def waiting(self) -> List:
        return list(self._waiting)

    @property
    def running(self) -> List:
        return list(self._running)

    def add(self, item):
        """Queue a session for admission (it needs ``item.slots`` rows).

        With a ``max_waiting`` cap, a full waiting queue either sheds the
        least urgent strictly lower-priority waiting session — returned to
        the caller, which owes its future a
        :class:`~repro.serving.errors.RequestShed` — or raises
        :class:`~repro.serving.errors.QueueFull` for the newcomer.  Running
        sessions are never shed by admission pressure (preemption in
        :meth:`plan` is the only path that pauses running work, and it keeps
        the session queued).  Returns the shed session, or ``None``.
        """
        if item.slots > self.total_slots:
            raise ValueError(
                f"session needs {item.slots} slots but the scheduler only has "
                f"{self.total_slots}; raise decode_slots or lower beam_size"
            )
        victim = None
        if self.max_waiting is not None and len(self._waiting) >= self.max_waiting:
            candidates = [s for s in self._waiting if s.priority < item.priority]
            if not candidates:
                raise QueueFull(
                    f"generation queue is at its depth cap ({self.max_waiting} waiting "
                    f"sessions); request rejected"
                )
            victim = max(candidates, key=self._urgency)
            self._waiting.remove(victim)
        self._waiting.append(item)
        return victim

    def on_finished(self, item) -> None:
        """Release a completed (or failed) running session's slots."""
        if item in self._running:
            self._running.remove(item)

    def discard(self, item) -> None:
        """Drop a session wherever it currently sits (cancellation path)."""
        if item in self._waiting:
            self._waiting.remove(item)
        if item in self._running:
            self._running.remove(item)

    def plan(self, now: float) -> Tuple[List, List, List]:
        """One tick's scheduling decision: ``(admitted, preempted, expired)``.

        ``admitted`` sessions moved waiting→running this tick (the driver owes
        them a prefill, or a restore-prefill if previously preempted);
        ``preempted`` moved running→waiting (the driver must release their
        decode rows); ``expired`` were removed entirely (the driver fails
        their futures).
        """
        expired = [s for s in self._waiting if s.deadline is not None and now > s.deadline]
        for item in expired:
            self._waiting.remove(item)

        admitted: List = []
        preempted: List = []
        free = self.free_slots
        for item in sorted(self._waiting, key=self._urgency):
            if item.slots <= free:
                free -= item.slots
                admitted.append(item)
                continue
            # preemption: evict strictly less urgent running sessions, least
            # urgent first, if that frees enough rows
            victims: List = []
            reclaim = 0
            for victim in sorted(self._running, key=self._urgency, reverse=True):
                if victim in preempted or self._urgency(victim) <= self._urgency(item):
                    continue
                victims.append(victim)
                reclaim += victim.slots
                if free + reclaim >= item.slots:
                    break
            if free + reclaim >= item.slots:
                preempted.extend(victims)
                free += reclaim - item.slots
                admitted.append(item)
        for item in preempted:
            self._running.remove(item)
            self._waiting.append(item)
        for item in admitted:
            self._waiting.remove(item)
            self._running.append(item)
        return admitted, preempted, expired
