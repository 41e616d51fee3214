"""ContinuousScheduler: bucket admission, urgency ordering, windows, deadlines."""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.serving.scheduler import (
    Admission,
    ContinuousScheduler,
    DeadlineExceeded,
    Request,
    compat_key,
)

_ORDER = iter(range(10_000))


class _OversleepingCondition:
    """A condition whose timed waits end ``oversleep_s`` late unless notified.

    Stands in for a consumer thread that a loaded host schedules late.
    """

    def __init__(self, oversleep_s):
        self._cond = threading.Condition()
        self._oversleep_s = oversleep_s

    def __enter__(self):
        return self._cond.__enter__()

    def __exit__(self, *exc):
        return self._cond.__exit__(*exc)

    def notify_all(self):
        self._cond.notify_all()

    def wait(self, timeout=None):
        return self._cond.wait(None if timeout is None else timeout + self._oversleep_s)


def _request(shape=(4,), priority=0, deadline=None):
    sample = np.zeros(shape, dtype=np.float32)
    return Request(
        sample,
        Future(),
        priority=priority,
        deadline=deadline,
        order=next(_ORDER),
    )


class TestCompatKey:
    def test_rank1_exact(self):
        assert compat_key(np.zeros(4, dtype=np.float32)) == compat_key(
            np.zeros(4, dtype=np.float32)
        )
        assert compat_key(np.zeros(4, dtype=np.float32)) != compat_key(
            np.zeros(5, dtype=np.float32)
        )

    def test_rank2_groups_by_trailing_dims(self):
        assert compat_key(np.zeros((3, 4), dtype=np.float32)) == compat_key(
            np.zeros((7, 4), dtype=np.float32)
        )
        assert compat_key(np.zeros((3, 4), dtype=np.float32)) != compat_key(
            np.zeros((3, 5), dtype=np.float32)
        )


class TestGrouping:
    def test_same_key_batched_up_to_max(self):
        scheduler = ContinuousScheduler(max_batch_size=4, max_wait_s=0.0)
        requests = [_request() for _ in range(5)]
        for request in requests:
            scheduler.add(request)
        first = scheduler.next_group()
        second = scheduler.next_group()
        assert [r.order for r in first] == [r.order for r in requests[:4]]
        assert [r.order for r in second] == [requests[4].order]

    def test_incompatible_keys_never_grouped(self):
        scheduler = ContinuousScheduler(max_batch_size=8, max_wait_s=0.0)
        scheduler.add(_request(shape=(4,)))
        scheduler.add(_request(shape=(6,)))
        groups = [scheduler.next_group(), scheduler.next_group()]
        assert all(len(group) == 1 for group in groups)
        assert groups[0][0].key != groups[1][0].key

    def test_full_bucket_ready_before_window(self):
        scheduler = ContinuousScheduler(max_batch_size=3, max_wait_s=10.0)
        for _ in range(3):
            scheduler.add(_request())
        t0 = time.monotonic()
        group = scheduler.next_group()
        assert len(group) == 3
        assert time.monotonic() - t0 < 1.0

    def test_window_waits_for_coriders(self):
        scheduler = ContinuousScheduler(max_batch_size=4, max_wait_s=0.05)
        scheduler.add(_request())
        t0 = time.monotonic()
        group = scheduler.next_group()
        elapsed = time.monotonic() - t0
        assert len(group) == 1
        assert elapsed >= 0.04

    def test_leftover_requests_keep_their_elapsed_wait(self):
        """A request bumped past max_batch must not restart a full window."""
        scheduler = ContinuousScheduler(max_batch_size=8, max_wait_s=0.2)
        for _ in range(9):
            scheduler.add(_request())
        time.sleep(0.25)  # every request's window has now expired
        assert len(scheduler.next_group()) == 8
        t0 = time.monotonic()
        leftover = scheduler.next_group()
        # the leftover's window stays anchored to its own (expired) arrival,
        # so it is served immediately — not after another 200ms wait
        assert len(leftover) == 1
        assert time.monotonic() - t0 < 0.1

    def test_pending(self):
        scheduler = ContinuousScheduler(max_batch_size=4, max_wait_s=0.0)
        assert scheduler.pending() == 0
        scheduler.add(_request())
        assert scheduler.pending() == 1
        scheduler.next_group()
        assert scheduler.pending() == 0


class TestUrgency:
    def test_priority_orders_buckets(self):
        scheduler = ContinuousScheduler(max_batch_size=2, max_wait_s=0.0)
        low = _request(shape=(4,), priority=0)
        high = _request(shape=(6,), priority=5)
        scheduler.add(low)
        scheduler.add(high)
        assert scheduler.next_group()[0] is high
        assert scheduler.next_group()[0] is low

    def test_deadline_orders_within_bucket(self):
        now = time.monotonic()
        scheduler = ContinuousScheduler(max_batch_size=2, max_wait_s=0.0)
        no_deadline = _request()
        far = _request(deadline=now + 100.0)
        near = _request(deadline=now + 50.0)
        for request in (no_deadline, far, near):
            scheduler.add(request)
        first = scheduler.next_group()
        assert [r is near or r is far for r in first] == [True, True]
        assert first[0] is near
        assert scheduler.next_group() == [no_deadline]

    def test_deadline_closes_window_early(self):
        scheduler = ContinuousScheduler(max_batch_size=8, max_wait_s=5.0)
        request = _request(deadline=time.monotonic() + 0.05)
        scheduler.add(request)
        t0 = time.monotonic()
        group = scheduler.next_group()
        elapsed = time.monotonic() - t0
        assert group == [request]
        assert elapsed < 1.0  # nowhere near the 5s window

    def test_late_wakeup_does_not_expire_the_request(self):
        # the window closes 2 ms before the deadline; a consumer whose timed
        # wait ends 20 ms late must still hand the request out, not fail it
        # and then wait for traffic with no timeout
        scheduler = ContinuousScheduler(max_batch_size=8, max_wait_s=5.0)
        scheduler._cond = _OversleepingCondition(oversleep_s=0.02)
        request = _request(deadline=time.monotonic() + 0.05)
        scheduler.add(request)
        groups = []
        consumer = threading.Thread(target=lambda: groups.append(scheduler.next_group()))
        consumer.daemon = True
        consumer.start()
        consumer.join(1.0)
        blocked = consumer.is_alive()
        scheduler.close()
        consumer.join(1.0)
        assert not blocked, "next_group was still blocked 1 s after the deadline"
        assert groups == [[request]]
        assert not request.future.done()

    def test_expired_request_fails_with_deadline_exceeded(self):
        expired_counts = []
        scheduler = ContinuousScheduler(
            max_batch_size=4, max_wait_s=0.0, on_expired=expired_counts.append
        )
        stale = _request(deadline=time.monotonic() - 0.01)
        alive = _request()
        scheduler.add(stale)
        scheduler.add(alive)
        group = scheduler.next_group()
        assert group == [alive]
        with pytest.raises(DeadlineExceeded):
            stale.future.result(timeout=1)
        assert expired_counts == [1]

    def test_cancelled_future_not_resurrected_by_expiry(self):
        scheduler = ContinuousScheduler(max_batch_size=4, max_wait_s=0.0)
        stale = _request(deadline=time.monotonic() - 0.01)
        stale.future.cancel()
        scheduler.add(stale)
        scheduler.add(_request())
        scheduler.next_group()
        assert stale.future.cancelled()


class TestClose:
    def test_close_drains_then_returns_none(self):
        scheduler = ContinuousScheduler(max_batch_size=2, max_wait_s=60.0)
        requests = [_request() for _ in range(3)]
        for request in requests:
            scheduler.add(request)
        scheduler.close()
        assert len(scheduler.next_group()) == 2
        assert len(scheduler.next_group()) == 1
        assert scheduler.next_group() is None
        assert scheduler.next_group() is None

    def test_add_after_close_raises(self):
        scheduler = ContinuousScheduler(max_batch_size=2, max_wait_s=0.0)
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.add(_request())

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ContinuousScheduler(max_batch_size=0, max_wait_s=0.0)
        with pytest.raises(ValueError, match="max_wait_s"):
            ContinuousScheduler(max_batch_size=1, max_wait_s=-1.0)


class TestAdmission:
    def test_queue_is_walked_only_at_the_cap(self):
        def untouchable():
            raise AssertionError("the waiting queue was walked below the cap")
            yield

        admission = Admission(max_depth=2, shed_policy="priority")
        assert admission.victim(_request(priority=5), 1, untouchable(), Request.urgency) is None
        low, high = _request(priority=0), _request(priority=1)
        assert admission.victim(_request(priority=5), 2, [high, low], Request.urgency) is low

    def test_validation(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            Admission(max_depth=0)
        with pytest.raises(ValueError, match="shed_policy"):
            Admission(shed_policy="lifo")
