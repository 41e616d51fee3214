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
instead of silently running late.  A consumer that was idle in a timed wait
judges readiness and expiry at the earlier of now and the time that wait was
due to end, so a thread the host wakes late does not charge its own wake-up
delay to the request; a consumer that arrives late because it was busy
judges at now, and still expires the request.

Overload control
----------------
An unbounded queue accepts work it can never serve.  One
:class:`Admission` rule bounds the waiting queue of both schedulers: at its
depth cap it either fast-fails the new arrival with
:class:`~repro.serving.errors.QueueFull` (``shed_policy="reject"``) or, with
``shed_policy="priority"``, evicts the least urgent *strictly lower-priority*
waiting item (failing it with :class:`~repro.serving.errors.RequestShed`) to
admit the newcomer — the lowest priority class is shed first, and work
already handed to a worker (or decoding) is never shed, so admitted work is
never starved by arrivals.  Each scheduler keeps its own urgency order.

The scheduler is engine-agnostic: it never touches models or samples, only
:class:`Request` records, and any number of worker threads may block in
:meth:`~ContinuousScheduler.next_group` concurrently.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.errors import DeadlineExceeded, EngineClosed, QueueFull, RequestShed

__all__ = [
    "Admission",
    "DeadlineExceeded",
    "Request",
    "ContinuousScheduler",
    "TokenScheduler",
    "compat_key",
]

#: how far ahead of a deadline the admission window closes, so the forward
#: can start before the deadline instead of expiring exactly on it
_DEADLINE_GUARD_S = 0.002

#: how many recent samples the engine's and the generation driver's
#: latency/occupancy reservoirs keep
_STATS_WINDOW = 2048


def _percentiles_ms(values: Sequence[float]) -> tuple:
    """(p50, p95) in milliseconds of a reservoir of durations in seconds."""
    if not values:
        return 0.0, 0.0
    p50, p95 = np.percentile(np.asarray(values, dtype=np.float64), [50.0, 95.0])
    return float(p50) * 1e3, float(p95) * 1e3


def compat_key(sample: np.ndarray) -> Tuple:
    """Group key: requests share one stacked forward call only at one exact
    dtype and shape, so every row of the batch is a request as submitted."""
    return (sample.dtype.str, sample.shape)


class Admission:
    """The queue-depth cap and shed policy, shared by both schedulers.

    Parameters
    ----------
    max_depth:
        Optional cap on waiting (not yet running) items.  ``None`` admits
        everything.
    shed_policy:
        ``"reject"`` (default): an arrival at a full queue fast-fails with
        :class:`~repro.serving.errors.QueueFull`.  ``"priority"``: if a
        strictly lower-priority item is waiting, the least urgent such item
        is shed and the newcomer admitted; otherwise the newcomer is
        rejected.  Equal priority is never shed.
    on_shed:
        Optional callback invoked with the number of items shed.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        shed_policy: str = "reject",
        on_shed: Optional[Callable[[int], None]] = None,
    ) -> None:
        if max_depth is not None and int(max_depth) < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_depth!r}")
        if shed_policy not in ("reject", "priority"):
            raise ValueError(f"shed_policy must be 'reject' or 'priority', got {shed_policy!r}")
        self.max_depth = None if max_depth is None else int(max_depth)
        self.shed_policy = shed_policy
        self._on_shed = on_shed

    def victim(self, incoming, depth: int, waiting: Iterable, urgency: Callable):
        """Decide one arrival under the caller's lock: ``None``, or the item to evict.

        ``depth`` is the current queue length; the queue itself
        (``waiting``) is walked only at the cap.  ``urgency`` is the
        scheduler's sort key (smaller is more urgent).  Raises
        :class:`~repro.serving.errors.QueueFull` when the newcomer is
        rejected.  The caller removes the victim, then calls :meth:`shed`
        outside its lock.
        """
        if self.max_depth is None or depth < self.max_depth:
            return None
        victim = None
        if self.shed_policy == "priority":
            for item in waiting:
                if item.priority < incoming.priority and (
                    victim is None or urgency(item) > urgency(victim)
                ):
                    victim = item
        if victim is None:
            raise QueueFull(
                f"queue is at its depth cap ({self.max_depth} waiting); request rejected"
            )
        return victim

    def shed(self, victim) -> None:
        """Fail an evicted item with :class:`~repro.serving.errors.RequestShed`.

        Call it outside scheduler locks: resolving a future may run client
        callbacks.  Only a shed that reached the caller is counted — a
        victim cancelled meanwhile is not.
        """
        landed = victim.fail(
            RequestShed(
                f"request shed after {time.monotonic() - victim.submitted:.3f}s queued: "
                "queue at depth cap and higher-priority traffic arrived"
            )
        )
        if landed and self._on_shed is not None:
            self._on_shed(1)


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
    admission:
        The :class:`Admission` rule for queued (not yet handed out)
        requests; the default admits everything.
    """

    def __init__(
        self,
        max_batch_size: int,
        max_wait_s: float,
        on_expired: Optional[Callable[[int], None]] = None,
        admission: Optional[Admission] = None,
    ) -> None:
        if int(max_batch_size) < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size!r}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s!r}")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.admission = admission if admission is not None else Admission()
        self._on_expired = on_expired
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

        At the queue-depth cap the :class:`Admission` rule either sheds a
        lower-priority victim or raises
        :class:`~repro.serving.errors.QueueFull`.
        """
        with self._cond:
            if self._closed:
                raise EngineClosed("cannot add to a closed scheduler")
            victim = self.admission.victim(
                request,
                self._pending,
                (queued for bucket in self._buckets.values() for queued in bucket),
                Request.urgency,
            )
            if victim is not None:
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
            self.admission.shed(victim)

    def _remove_locked(self, request: Request) -> None:
        """Drop one queued request (an admission victim)."""
        rest = [r for r in self._buckets[request.key] if r is not request]
        self._pending -= 1
        self._set_bucket_locked(request.key, rest)

    def _set_bucket_locked(self, key: Tuple, rest: List[Request]) -> None:
        """Replace a bucket's requests, repairing its window/meta caches.

        The window stays anchored to the remaining requests' own arrival — a
        request bumped by more urgent traffic keeps its already-elapsed wait
        instead of restarting a full ``max_wait`` window.
        """
        if not rest:
            del self._buckets[key]
            self._opened.pop(key, None)
            self._meta.pop(key, None)
            return
        self._buckets[key] = rest
        self._opened[key] = min(r.submitted for r in rest)
        deadlines = [r.deadline for r in rest if r.deadline is not None]
        self._meta[key] = (min(r.urgency() for r in rest), min(deadlines) if deadlines else None)

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
                due = None  # when this consumer's timed wait was due to end
                while True:
                    now = time.monotonic()
                    if due is not None:
                        now = min(now, due)
                    key = self._ready_key_locked(now)
                    if key is not None:
                        group, dropped = self._pop_locked(key, now)
                        break
                    if self._closed and not any(self._buckets.values()):
                        return None
                    due = self._next_ready_at_locked()
                    self._cond.wait(
                        timeout=None if due is None else max(due - time.monotonic(), 1e-4)
                    )
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

    def _next_ready_at_locked(self) -> Optional[float]:
        """When the earliest bucket becomes ready (None = wait for traffic)."""
        return min(
            (self._ready_at_locked(key) for key, bucket in self._buckets.items() if bucket),
            default=None,
        )

    def _pop_locked(self, key: Tuple, now: float) -> Tuple[List[Request], List[Request]]:
        """Take the most urgent ``max_batch_size`` alive requests from ``key``."""
        bucket = self._buckets[key]
        alive = [r for r in bucket if not r.expired(now)]
        dropped = [r for r in bucket if r.expired(now)]
        alive.sort(key=Request.urgency)
        group, rest = alive[: self.max_batch_size], alive[self.max_batch_size :]
        self._pending -= len(group) + len(dropped)
        self._set_bucket_locked(key, rest)
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
    so a tight deadline does not let a late request leapfrog the queue.  The
    waiting queue is bounded by an :class:`Admission` rule (the default admits
    everything).

    Scheduled items are opaque beyond six attributes: ``slots`` (rows
    needed), ``priority``, ``order``, ``deadline``, ``submitted`` and, for
    shedding, ``fail(exc)``.  The class is not itself thread-safe; the
    generation driver serialises calls under its own lock.
    """

    def __init__(self, total_slots: int, admission: Optional[Admission] = None) -> None:
        if int(total_slots) < 1:
            raise ValueError(f"total_slots must be >= 1, got {total_slots!r}")
        self.total_slots = int(total_slots)
        self.admission = admission if admission is not None else Admission()
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

        At the :class:`Admission` cap a full waiting queue either sheds a
        strictly lower-priority waiting session — returned to the caller,
        which passes it to ``admission.shed`` outside its lock — or raises
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
        victim = self.admission.victim(item, len(self._waiting), self._waiting, self._urgency)
        if victim is not None:
            self._waiting.remove(victim)
        self._waiting.append(item)
        return victim

    def discard(self, item) -> None:
        """Drop a session wherever it sits: finished, failed, or cancelled."""
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
