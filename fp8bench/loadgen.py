"""Load generation: closed-loop capacity, open-loop pacing, stream probes.

All load comes from the calling thread (the submit thread) plus, for
generation, one stream-probe thread.  Completion times are taken in future
callbacks, which run on the engine thread that resolves the future, so the
submit thread never waits on a result to time it.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence

from stats import cpu_times, steal_share
from tracing import OFF


class PhaseResult:
    """Per-request timing of one phase plus its request accounting."""

    def __init__(self, name: str, count: int) -> None:
        self.name = name
        self.sent = 0
        self.failed = 0
        self.due: List[float] = [0.0] * count
        self.sent_at: List[float] = [0.0] * count
        self.done: List[Optional[float]] = [None] * count
        self.outputs: list = [None] * count
        self.started = 0.0
        self.finished = 0.0
        #: share of CPU time the hypervisor stole during the phase (None off Linux)
        self.steal: Optional[float] = None
        self.lock = threading.Lock()

    @property
    def succeeded(self) -> int:
        return sum(1 for d in self.done if d is not None)

    def account(self) -> str:
        steal = "n/a" if self.steal is None else f"{self.steal:.4f}"
        return (
            f"phase {self.name}: sent {self.sent} succeeded {self.succeeded} "
            f"failed {self.failed} steal {steal}"
        )


def _send(result: PhaseResult, index: int, submit, sample, tracer, on_done=None):
    """Submit one request; its future's callback records the completion time."""
    rid = f"{result.name}/{index}"
    phase_span = tracer.current()
    result.sent_at[index] = time.perf_counter()
    with tracer.span("serving.submit", rid=rid):
        future = submit(sample)
    result.sent += 1

    def callback(fut) -> None:
        now = time.perf_counter()
        if fut.cancelled() or fut.exception() is not None:
            with result.lock:
                result.failed += 1
        else:
            result.done[index] = now
            result.outputs[index] = fut.result()
        tracer.record("serving.request", result.sent_at[index], now, rid=rid, parent=phase_span)
        if on_done is not None:
            on_done()

    future.add_done_callback(callback)
    return future


def closed_loop(
    name: str,
    submit: Callable,
    inputs: Sequence,
    concurrency: int,
    tracer=OFF,
    timeout: float = 120.0,
) -> PhaseResult:
    """Keep ``concurrency`` requests in flight until every input has completed."""
    result = PhaseResult(name, len(inputs))
    slots = threading.Semaphore(concurrency)
    all_done = threading.Event()
    remaining = [len(inputs)]
    lock = threading.Lock()

    def finished() -> None:
        slots.release()
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                all_done.set()

    cpu = cpu_times()
    result.started = time.perf_counter()
    for index, sample in enumerate(inputs):
        if not slots.acquire(timeout=timeout):
            raise TimeoutError(f"phase {name}: no request completed within {timeout}s")
        result.due[index] = time.perf_counter()
        _send(result, index, submit, sample, tracer, finished)
    if not all_done.wait(timeout):
        raise TimeoutError(f"phase {name}: requests still pending after {timeout}s")
    result.finished = max(d for d in result.done if d is not None)
    result.steal = steal_share(cpu, cpu_times())
    return result


def open_loop(
    name: str,
    submit: Callable,
    inputs: Sequence,
    rate: float,
    tracer=OFF,
    timeout: float = 120.0,
) -> PhaseResult:
    """Send input ``i`` at ``start + i / rate`` whatever the system's state."""
    result = PhaseResult(name, len(inputs))
    futures = []
    cpu = cpu_times()
    start = time.perf_counter() + 0.01
    result.started = start
    for index, sample in enumerate(inputs):
        due = start + index / rate
        while True:
            wait = due - time.perf_counter()
            if wait <= 0:
                break
            time.sleep(wait)
        result.due[index] = due
        futures.append(_send(result, index, submit, sample, tracer))
    deadline = time.monotonic() + timeout
    for future in futures:
        try:
            future.result(timeout=max(0.0, deadline - time.monotonic()))
        except Exception:  # noqa: BLE001 - counted as failed by the callback
            pass
    result.finished = max((d for d in result.done if d is not None), default=start)
    result.steal = steal_share(cpu, cpu_times())
    return result


class StreamProbe(threading.Thread):
    """Closed-loop token streams: time to first token and gaps between tokens.

    ``start_stream(prompt, new_tokens)`` must return an iterator of tokens.
    The probe runs streams back to back until :meth:`stop`.
    """

    def __init__(self, name: str, start_stream: Callable, requests: Sequence, tracer=OFF) -> None:
        super().__init__(name=f"fp8bench-{name}", daemon=True)
        self.probe_name = name
        self._start_stream = start_stream
        self._requests = requests
        self._tracer = tracer
        #: the span the probe was started under (on the submit thread)
        self._parent = tracer.current()
        self._stop_event = threading.Event()
        self.ttft: List[float] = []
        self.itl: List[float] = []
        self.streams = 0
        self.failed = 0
        self.error: Optional[BaseException] = None

    def stop(self, timeout: float = 60.0) -> None:
        self._stop_event.set()
        self.join(timeout)
        if self.is_alive():
            raise TimeoutError("stream probe did not stop")
        if self.error is not None:
            raise RuntimeError("stream probe failed") from self.error

    def run(self) -> None:
        try:
            index = 0
            while not self._stop_event.is_set():
                prompt, new_tokens = self._requests[index % len(self._requests)]
                self._one(f"{self.probe_name}/{index}", prompt, new_tokens)
                index += 1
        except BaseException as exc:  # noqa: BLE001 - re-raised by stop()
            self.error = exc

    def _one(self, rid: str, prompt, new_tokens: int) -> None:
        sent = time.perf_counter()
        with self._tracer.span("serving.generate_stream", rid=rid, parent=self._parent):
            stream = self._start_stream(prompt, new_tokens)
            last = None
            try:
                for _token in stream:
                    now = time.perf_counter()
                    if last is None:
                        self.ttft.append(now - sent)
                    else:
                        self.itl.append(now - last)
                    last = now
            except Exception:  # noqa: BLE001 - a failed stream is counted, not fatal
                self.failed += 1
                return
        self.streams += 1
