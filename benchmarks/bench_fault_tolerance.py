"""Fault tolerance: crash-recovery time, fail-fast latency, overload control, scrub throughput.

The resilience layer's acceptance gates, measured rather than assumed:

1. **Crash recovery** — with a worker crash injected into the first forward
   of a 16-request burst, every request must still complete (bit-identical
   to the uncrashed run, via transparent retry on the restarted worker) and
   the whole burst must resolve within ``ACCEPTANCE_RESOLVE_S`` — zero hung
   futures.  The wall-clock overhead the crash adds over a clean burst is
   gated at ``ACCEPTANCE_RECOVERY_OVERHEAD_S`` (override with
   ``REPRO_BENCH_RECOVERY_MAX_S`` — shared CI runners jitter).
2. **Fail-fast** — a request with no retry budget on a crashing worker must
   receive its typed :class:`~repro.serving.errors.WorkerCrashed` within
   ``ACCEPTANCE_FAIL_FAST_S`` of submission: supervision latency, not a
   drain timeout, bounds the bad news.
3. **Overload** — at the queue-depth cap, :class:`QueueFull` must be raised
   in well under ``ACCEPTANCE_REJECT_S`` (admission is a fast-fail check,
   not a queue wait) and priority shedding must evict exactly the
   lowest-priority victim.
4. **Integrity scrub** — ``verify_container`` must stream a multi-megabyte
   checkpoint at ``>= ACCEPTANCE_SCRUB_MBPS`` and detect a single flipped
   payload byte.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py

or through pytest::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_fault_tolerance.py
"""

from __future__ import annotations

import os
import struct
import tempfile
import threading
import time

import numpy as np

import repro.nn as nn
from repro.autograd.tensor import Tensor
from repro.evaluation.reporting import format_table
from repro.serialization import ChecksumError, verify_container, write_container
from repro.serving import (
    FaultSpec,
    QueueFull,
    ServingEngine,
    SubmitOptions,
    WorkerCrashed,
    injected,
)

#: every future in the crashed burst must resolve within this bound
ACCEPTANCE_RESOLVE_S = 30.0
#: wall-clock overhead one crash may add to the burst (supervision + backoff)
ACCEPTANCE_RECOVERY_OVERHEAD_S = float(os.environ.get("REPRO_BENCH_RECOVERY_MAX_S", "2.0"))
#: submit -> typed WorkerCrashed latency with no retry budget
ACCEPTANCE_FAIL_FAST_S = float(os.environ.get("REPRO_BENCH_FAIL_FAST_MAX_S", "1.0"))
#: QueueFull must be immediate (an admission check, not a timeout)
ACCEPTANCE_REJECT_S = 0.05
#: verify_container streaming throughput floor
ACCEPTANCE_SCRUB_MBPS = float(os.environ.get("REPRO_BENCH_SCRUB_MIN_MBPS", "200"))

BURST = 16
FEATURES = 64


class Affine(nn.module.Module):
    """Elementwise forward: bit-identical across any batch composition."""

    def forward(self, x):
        return Tensor(np.asarray(x.data) * 2.0 + 1.0)


class Gate(nn.module.Module):
    """Forward blocks until released — deterministic queue buildup."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Event()

    def forward(self, x):
        self.entered.set()
        assert self.release.wait(timeout=30)
        return Tensor(np.asarray(x.data) * 1.0)


def _samples(count=BURST, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 1, (FEATURES,)).astype(np.float32) for _ in range(count)]


def _engine(model, **overrides):
    params = dict(max_batch_size=4, max_wait_ms=2, supervision_interval_ms=5)
    params.update(overrides)
    return ServingEngine(model, **params)


def measure_crash_recovery():
    samples = _samples()
    with _engine(Affine()) as clean_engine:
        start = time.perf_counter()
        expected = clean_engine.serve_batch(samples, timeout=ACCEPTANCE_RESOLVE_S)
        clean_s = time.perf_counter() - start

    options = SubmitOptions(max_retries=3, retry_backoff_ms=5.0)
    with injected({"engine.forward": FaultSpec(kind="crash", on_calls={1}, max_fires=1)}) as inj:
        with _engine(Affine()) as engine:
            start = time.perf_counter()
            futures = [engine.submit(s, options) for s in samples]
            deadline = start + ACCEPTANCE_RESOLVE_S
            outputs = [f.result(timeout=max(0.0, deadline - time.perf_counter())) for f in futures]
            faulted_s = time.perf_counter() - start
            stats = engine.stats
    identical = all(np.array_equal(out, exp) for out, exp in zip(outputs, expected))
    measured = {
        "burst": BURST,
        "clean_s": clean_s,
        "faulted_s": faulted_s,
        "recovery_overhead_s": faulted_s - clean_s,
        "crashes_injected": inj.fired["engine.forward"],
        "worker_crashes": stats["worker_crashes"],
        "worker_restarts": stats["worker_restarts"],
        "retried_requests": stats["retried_requests"],
        "failed_requests": stats["failed_requests"],
        "bit_identical": identical,
        "hung_futures": sum(0 if f.done() else 1 for f in futures),
    }
    rows = [
        {"scenario": "clean burst", "wall_s": f"{clean_s:.4f}", "failed": 0},
        {
            "scenario": "crash mid-burst + retry",
            "wall_s": f"{faulted_s:.4f}",
            "failed": stats["failed_requests"],
        },
    ]
    return rows, measured


def measure_fail_fast():
    with injected({"engine.forward": FaultSpec(kind="crash", max_fires=1)}):
        with _engine(Affine()) as engine:
            start = time.perf_counter()
            future = engine.submit(_samples(1)[0])
            exc = future.exception(timeout=ACCEPTANCE_RESOLVE_S)
            latency_s = time.perf_counter() - start
    return {
        "fail_fast_s": latency_s,
        "typed": isinstance(exc, WorkerCrashed),
    }


def measure_overload():
    gate = Gate()
    with _engine(gate, max_batch_size=1, max_wait_ms=1, max_queue_depth=4) as engine:
        inflight = engine.submit(_samples(1)[0])
        assert gate.entered.wait(timeout=30)
        queued = [engine.submit(s) for s in _samples(4, seed=2)]
        start = time.perf_counter()
        rejected = False
        try:
            engine.submit(_samples(1, seed=3)[0])
        except QueueFull:
            rejected = True
        reject_s = time.perf_counter() - start
        gate.release.set()
        for future in [inflight, *queued]:
            future.result(timeout=30)
        stats = engine.stats
    return {
        "queue_depth_cap": 4,
        "rejected": rejected,
        "reject_latency_s": reject_s,
        "rejected_requests": stats["rejected_requests"],
        "served_after_overload": stats["requests"] - stats["failed_requests"],
    }


def measure_scrub():
    rng = np.random.default_rng(0)
    arrays = {
        f"layer{i}.codes": rng.integers(0, 255, (1024, 1024)).astype(np.uint8) for i in range(8)
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scrub.rpq")
        total = write_container(path, arrays, {"kind": "bench"})
        start = time.perf_counter()
        report = verify_container(path)
        scrub_s = time.perf_counter() - start
        # flip one payload byte (last byte of the file is inside the last span)
        with open(path, "r+b") as fh:
            fh.seek(-1, 2)
            byte = fh.read(1)[0]
            fh.seek(-1, 2)
            fh.write(struct.pack("B", byte ^ 0xFF))
        try:
            verify_container(path)
            detected = False
        except ChecksumError:
            detected = True
    return {
        "file_mb": total / 1e6,
        "scrub_s": scrub_s,
        "scrub_mbps": (total / 1e6) / scrub_s,
        "spans_verified": report["verified"],
        "flipped_byte_detected": detected,
    }


def main():
    rows, recovery = measure_crash_recovery()
    print()
    print(format_table(rows, title=f"Crash recovery ({BURST}-request burst, 1 injected crash)"))
    fail_fast = measure_fail_fast()
    overload = measure_overload()
    scrub = measure_scrub()
    print()
    print(
        format_table(
            [
                {
                    "fail_fast_s": f"{fail_fast['fail_fast_s']:.4f}",
                    "reject_s": f"{overload['reject_latency_s']:.6f}",
                    "scrub_mbps": f"{scrub['scrub_mbps']:.0f}",
                }
            ],
            title="Fail-fast / overload / scrub",
        )
    )
    return recovery, fail_fast, overload, scrub


def test_crash_recovery_gates():
    _, stats = measure_crash_recovery()
    assert stats["hung_futures"] == 0, "a future was left unresolved after the crash"
    assert stats["failed_requests"] == 0, "retry should absorb the single injected crash"
    assert stats["bit_identical"], "recovered outputs diverge from the uncrashed run"
    assert stats["worker_restarts"] >= 1, "the crashed worker was never replaced"
    assert stats["recovery_overhead_s"] <= ACCEPTANCE_RECOVERY_OVERHEAD_S, (
        f"one crash added {stats['recovery_overhead_s']:.3f}s to the burst "
        f"(gate: <= {ACCEPTANCE_RECOVERY_OVERHEAD_S}s)"
    )


def test_fail_fast_gate():
    stats = measure_fail_fast()
    assert stats["typed"], "crash without retry budget must fail with WorkerCrashed"
    assert stats["fail_fast_s"] <= ACCEPTANCE_FAIL_FAST_S, (
        f"typed failure took {stats['fail_fast_s']:.3f}s to reach the caller "
        f"(gate: <= {ACCEPTANCE_FAIL_FAST_S}s)"
    )


def test_overload_gates():
    stats = measure_overload()
    assert stats["rejected"], "submit above the queue-depth cap must raise QueueFull"
    assert stats["reject_latency_s"] <= ACCEPTANCE_REJECT_S, (
        f"QueueFull took {stats['reject_latency_s']:.4f}s (gate: <= {ACCEPTANCE_REJECT_S}s)"
    )
    assert stats["rejected_requests"] == 1


def test_scrub_gates():
    stats = measure_scrub()
    assert stats["flipped_byte_detected"], "a flipped payload byte escaped the scrubber"
    assert stats["scrub_mbps"] >= ACCEPTANCE_SCRUB_MBPS, (
        f"verify_container streamed at {stats['scrub_mbps']:.0f} MB/s "
        f"(gate: >= {ACCEPTANCE_SCRUB_MBPS})"
    )


if __name__ == "__main__":
    main()
