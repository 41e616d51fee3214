"""Continuous batching + multi-worker serving + cross-layer pipelined prefetch.

The serving hot-path optimisations of PR 5:

1. **Continuous batching** — under staggered mixed-key arrivals, the
   per-bucket continuous scheduler must beat PR 4's drain-then-batch loop
   (reimplemented below as :class:`DrainThenBatchEngine`) by >= 1.5x
   requests/sec.  The win is architectural: a drain window fragments into
   one underfilled forward per compatibility key and blocks admission while
   its groups run; per-key buckets keep every forward full and admit new
   arrivals into the next forward of the in-flight stream.
2. **Multi-worker over one shared mmap checkpoint** — ``workers=4`` replicas
   loaded with ``mmap=True`` (one shared file mapping) must beat
   ``workers=1``, with the mapped checkpoint bytes counted exactly once
   across the whole fleet.
3. **Cross-layer pipelined prefetch** — ``prefetch="pipeline"`` on a
   6-layer streaming model: layer k+1's first blocks decode while layer k
   finishes, and the shared pool decodes blocks in parallel.  Its forward
   time over inline decode (``prefetch=False``) is recorded, not gated: on
   this model the two schedules land within a few percent of each other.

Plus the correctness anchor: engine outputs (multi-worker, deterministic
groups) and pipelined streaming forwards are **bit-identical** to cached
mode.

PR 10 adds the **process-worker scaling** measurement: on a deep/narrow
cached model whose forward is dominated by Python-level dispatch (small
per-layer matmuls hold the GIL), ``worker_mode="process"`` must beat both
``workers=1`` and the GIL-bound ``workers=4`` thread tier, and must land
within a sane fraction of the measured per-core roofline
(``single-worker rate x min(workers, cores)``).

First-principles throughput ceilings (à la MLSYSIM): optimisation 2
monetises thread parallelism of GIL-releasing numpy kernels, so its ceiling
is ``min(workers, cores)``.  On a host with fewer cores than the gate
assumes, the default gate degrades to a no-regression bound instead of
pretending the hardware can exceed its roofline; CI (multi-core) enforces
the full targets.  Override with the ``REPRO_BENCH_*_MIN_SPEEDUP`` env vars.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_continuous_batching.py

or through pytest::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_continuous_batching.py
"""

from __future__ import annotations

import os
import queue
import tempfile
import threading
import time
from concurrent.futures import Future, wait

import numpy as np

import repro.nn as nn
from repro.autograd.tensor import Tensor, no_grad
from repro.evaluation.reporting import format_table
from repro.quantization import (
    Approach,
    quantize_model,
    resident_report,
    set_serving_mode,
    standard_recipe,
)
from repro.serialization import clear_mapping_cache, save_quantized
from repro.serving import ServingEngine
from repro.serving.scheduler import compat_key

_CORES = os.cpu_count() or 1


def _gate(env: str, full: float, cores_needed: int, floor: float) -> float:
    """Full acceptance target when the host has the cores for it, else ``floor``."""
    default = full if _CORES >= cores_needed else floor
    return float(os.environ.get(env, default))


#: continuous batching is an algorithmic win (fewer, fuller forwards) — the
#: full gate applies on any core count
ACCEPTANCE_CONTINUOUS = float(os.environ.get("REPRO_BENCH_CB_MIN_SPEEDUP", 1.5))
#: 4 workers need >= 4 cores to reach 2x; below that, bound regression only
ACCEPTANCE_WORKERS = _gate("REPRO_BENCH_WORKERS_MIN_SPEEDUP", 2.0, 4, 0.80)
#: process workers escape the GIL, so 4 of them need >= 4 cores for 2x over a
#: single worker; on fewer cores the gate only bounds the IPC overhead
ACCEPTANCE_PROC = _gate("REPRO_BENCH_PROC_MIN_SPEEDUP", 2.0, 4, 0.55)
#: on a GIL-bound forward, 4 processes must beat 4 threads outright (>= 4
#: cores); a 1-core host runs both tiers serially, so only bound the gap
ACCEPTANCE_PROC_VS_THREAD = _gate("REPRO_BENCH_PROC_VS_THREAD_MIN", 1.1, 4, 0.55)
#: fraction of the measured per-core roofline (single rate x min(workers,
#: cores)) the process fleet must reach — the MLSYSIM-style absolute floor
ACCEPTANCE_PROC_ROOFLINE = _gate("REPRO_BENCH_PROC_ROOFLINE_FRACTION", 0.45, 4, 0.15)

#: staggered-arrival scenario; the gap keeps arrivals faster than the drain
#: baseline's service rate, so the makespan measures scheduling, not arrival
STAGGER_FEATURES = 512
STAGGER_LAYERS = 4
STAGGER_REQUESTS = 96
STAGGER_GAP_S = 0.00025
STAGGER_MAX_BATCH = 8
STAGGER_WAIT_MS = 8.0

#: multi-worker scenario
WORKER_FEATURES = 512
WORKER_LAYERS = 4
WORKER_COUNT = 4
WORKER_REQUESTS = 128

#: process-scaling scenario: deep/narrow *cached* MLP — per-layer matmuls too
#: small to release the GIL for long, so thread workers serialise and the
#: forward is CPU-bound in Python dispatch: the regime process workers target
PROC_FEATURES = 64
PROC_LAYERS = 16
PROC_WORKERS = 4
PROC_REQUESTS = 96

#: pipeline scenario (>= 4 streaming layers, per the acceptance criteria)
PIPELINE_FEATURES = 512
PIPELINE_LAYERS = 6
PIPELINE_ROWS = 2
ROUNDS = 5

#: >= 32 rows so the full-width and per-block matmuls hit the same BLAS
#: kernel and bit-identity with cached mode is exact (see PR 4's bench)
IDENTITY_BATCH = 32


def _build_mlp(layers: int, features: int, seed: int) -> nn.Sequential:
    rng = np.random.default_rng(seed)
    stack = []
    for _ in range(layers):
        stack.extend([nn.Linear(features, features, rng=rng), nn.ReLU()])
    return nn.Sequential(*stack[:-1])


def _streaming_model(layers: int, features: int, seed: int = 7):
    result = quantize_model(
        _build_mlp(layers, features, seed),
        standard_recipe("E4M3", approach=Approach.DYNAMIC),
        deploy=True,
        serving_mode="streaming",
    )
    return result.model


class DrainThenBatchEngine:
    """PR 4's serving loop, preserved as the baseline: collect, then serve.

    One driver thread blocks for a first request, waits up to ``max_wait_ms``
    to collect co-riders (any compatibility), splits the collected window by
    key, and runs the groups **sequentially before collecting again** — the
    drain barrier continuous batching removes.
    """

    _SHUTDOWN = object()

    def __init__(self, model, max_batch_size: int = 8, max_wait_ms: float = 2.0) -> None:
        self.model = model
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self._queue: queue.Queue = queue.Queue()
        self.batches = 0
        self._driver = threading.Thread(target=self._drive, daemon=True)
        self._driver.start()

    def submit(self, sample) -> Future:
        future: Future = Future()
        self._queue.put((np.asarray(sample), future))
        return future

    def close(self) -> None:
        self._queue.put(self._SHUTDOWN)
        self._driver.join(timeout=30)

    def _drive(self) -> None:
        while True:
            first = self._queue.get()
            if first is self._SHUTDOWN:
                return
            window = [first]
            deadline = time.monotonic() + self.max_wait_s
            while len(window) < self.max_batch_size:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is self._SHUTDOWN:
                    self._queue.put(self._SHUTDOWN)
                    break
                window.append(item)
            groups: dict = {}
            for sample, future in window:
                groups.setdefault(compat_key(sample), []).append((sample, future))
            for members in groups.values():
                stacked = np.stack([sample for sample, _ in members])
                with no_grad():
                    output = self.model(Tensor(stacked)).data
                self.batches += 1
                for index, (_, future) in enumerate(members):
                    future.set_result(output[index])


def _staggered_run(submit, samples, gap_s: float) -> float:
    """Submit ``samples`` on a fixed arrival schedule; return the makespan."""
    futures = []
    t0 = time.perf_counter()
    for index, sample in enumerate(samples):
        target = t0 + index * gap_s
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        futures.append(submit(sample))
    wait(futures, timeout=120)
    makespan = time.perf_counter() - t0
    for future in futures:
        future.result(timeout=0)  # surface any forward error
    return makespan


def _mixed_key_samples(count: int, features: int):
    """Alternating compatibility keys: feature vectors and 3-step sequences."""
    rng = np.random.default_rng(5)
    samples = []
    for index in range(count):
        shape = (features,) if index % 2 == 0 else (3, features)
        samples.append(rng.normal(0.0, 1.0, shape).astype(np.float32))
    return samples


def measure_continuous_vs_drain():
    """Staggered mixed-key arrivals: continuous scheduler vs drain-then-batch."""
    model = _streaming_model(STAGGER_LAYERS, STAGGER_FEATURES)
    samples = _mixed_key_samples(STAGGER_REQUESTS, STAGGER_FEATURES)

    # warmup both paths (first-touch decode, BLAS init)
    with no_grad():
        model(Tensor(samples[0][None]))
        model(Tensor(samples[1][None]))

    drain = DrainThenBatchEngine(
        model, max_batch_size=STAGGER_MAX_BATCH, max_wait_ms=STAGGER_WAIT_MS
    )
    drain_s = _staggered_run(drain.submit, samples, STAGGER_GAP_S)
    drain_batches = drain.batches
    drain.close()

    engine = ServingEngine(model, max_batch_size=STAGGER_MAX_BATCH, max_wait_ms=STAGGER_WAIT_MS)
    continuous_s = _staggered_run(engine.submit, samples, STAGGER_GAP_S)
    engine_stats = engine.stats
    engine.close()

    stats = {
        "requests": STAGGER_REQUESTS,
        "drain_s": drain_s,
        "continuous_s": continuous_s,
        "drain_req_per_s": STAGGER_REQUESTS / drain_s,
        "continuous_req_per_s": STAGGER_REQUESTS / continuous_s,
        "speedup": drain_s / continuous_s,
        "drain_batches": drain_batches,
        "continuous_batches": engine_stats["batches"],
        "continuous_occupancy": engine_stats["occupancy_mean"],
        "queue_wait_p95_ms": engine_stats["queue_wait_p95_ms"],
    }
    rows = [
        {
            "Scheduler": "drain-then-batch (PR 4)",
            "Requests/s": f"{stats['drain_req_per_s']:,.1f}",
            "Forwards": drain_batches,
        },
        {
            "Scheduler": "continuous",
            "Requests/s": f"{stats['continuous_req_per_s']:,.1f}",
            "Forwards": engine_stats["batches"],
        },
    ]
    return rows, stats


def _worker_checkpoint(tmp: str) -> str:
    result = quantize_model(
        _build_mlp(WORKER_LAYERS, WORKER_FEATURES, seed=11),
        standard_recipe("E4M3", approach=Approach.DYNAMIC),
        deploy=True,
        serving_mode="streaming",
    )
    path = os.path.join(tmp, "workers.rpq")
    save_quantized(result.model, path, recipe=result.recipe)
    return path


def _burst_throughput(engine: ServingEngine, samples) -> float:
    t0 = time.perf_counter()
    engine.serve_batch(samples, timeout=120)
    return time.perf_counter() - t0


def measure_multi_worker():
    """workers=4 replicas over one shared mmap checkpoint vs workers=1."""
    rng = np.random.default_rng(13)
    samples = [
        rng.normal(0.0, 1.0, (WORKER_FEATURES,)).astype(np.float32)
        for _ in range(WORKER_REQUESTS)
    ]

    def factory():
        return _build_mlp(WORKER_LAYERS, WORKER_FEATURES, seed=11)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cb-") as tmp:
        path = _worker_checkpoint(tmp)
        clear_mapping_cache()
        timings = {}
        mapped = {}
        try:
            for workers in (1, WORKER_COUNT):
                engine = ServingEngine.from_checkpoint(
                    path,
                    factory,
                    workers=workers,
                    prefetch=False,
                    max_batch_size=8,
                    max_wait_ms=4.0,
                )
                report = resident_report(engine.replicas)
                mapped[workers] = report["mapped_bytes"]
                engine.serve_batch(samples[:16], timeout=60)  # warmup
                timings[workers] = min(_burst_throughput(engine, samples) for _ in range(3))
                engine.close()
        finally:
            clear_mapping_cache()

    stats = {
        "requests": WORKER_REQUESTS,
        "cores": _CORES,
        "workers": WORKER_COUNT,
        "single_s": timings[1],
        "multi_s": timings[WORKER_COUNT],
        "single_req_per_s": WORKER_REQUESTS / timings[1],
        "multi_req_per_s": WORKER_REQUESTS / timings[WORKER_COUNT],
        "speedup": timings[1] / timings[WORKER_COUNT],
        "mapped_bytes_single": int(mapped[1]),
        "mapped_bytes_fleet": int(mapped[WORKER_COUNT]),
        "mapped_once": bool(mapped[WORKER_COUNT] == mapped[1] > 0),
    }
    rows = [
        {
            "Engine": "workers=1",
            "Requests/s": f"{stats['single_req_per_s']:,.1f}",
            "Mapped ckpt": f"{mapped[1] / 1e6:.1f} MB",
        },
        {
            "Engine": f"workers={WORKER_COUNT} (shared mmap)",
            "Requests/s": f"{stats['multi_req_per_s']:,.1f}",
            "Mapped ckpt": f"{mapped[WORKER_COUNT] / 1e6:.1f} MB",
        },
    ]
    return rows, stats


def _process_factory():
    """Module-level on purpose: ``worker_mode="process"`` pickles the factory
    by reference into every spawned worker."""
    return _build_mlp(PROC_LAYERS, PROC_FEATURES, seed=31)


def _process_checkpoint(tmp: str) -> str:
    result = quantize_model(
        _process_factory(),
        standard_recipe("E4M3", approach=Approach.DYNAMIC),
        deploy=True,
    )
    path = os.path.join(tmp, "process.rpq")
    save_quantized(result.model, path, recipe=result.recipe)
    return path


def _wait_process_ready(engine: ServingEngine, timeout: float = 120.0) -> None:
    """Block until every worker process reports ready (spawn + import is slow)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        details = engine.stats.get("process_workers") or []
        if details and all(detail["ready"] for detail in details):
            return
        time.sleep(0.05)
    raise RuntimeError(f"process workers never became ready: {engine.stats}")


def measure_process_scaling():
    """workers=4 processes vs 4 threads vs 1 worker on a GIL-bound cached model."""
    rng = np.random.default_rng(37)
    samples = [
        rng.normal(0.0, 1.0, (PROC_FEATURES,)).astype(np.float32) for _ in range(PROC_REQUESTS)
    ]
    tiers = (
        ("thread_1", 1, "thread"),
        ("thread_4", PROC_WORKERS, "thread"),
        ("process_4", PROC_WORKERS, "process"),
    )
    timings = {}
    crashes = 0
    with tempfile.TemporaryDirectory(prefix="repro-bench-proc-") as tmp:
        path = _process_checkpoint(tmp)
        clear_mapping_cache()
        try:
            for label, workers, mode in tiers:
                engine = ServingEngine.from_checkpoint(
                    path,
                    _process_factory,
                    serving_mode="cached",
                    prefetch=False,
                    workers=workers,
                    worker_mode=mode,
                    max_batch_size=8,
                    max_wait_ms=4.0,
                )
                if mode == "process":
                    _wait_process_ready(engine)
                engine.serve_batch(samples[:16], timeout=120)  # warmup
                timings[label] = min(_burst_throughput(engine, samples) for _ in range(3))
                if mode == "process":
                    crashes = engine.stats["worker_crashes"]
                engine.close()

            # bit-identity anchor under process workers: deterministic full
            # groups (same key, long admission window) vs the parent template
            probe = samples[:8]
            with ServingEngine.from_checkpoint(
                path,
                _process_factory,
                serving_mode="cached",
                prefetch=False,
                workers=2,
                worker_mode="process",
                max_batch_size=8,
                max_wait_ms=2000.0,
            ) as engine:
                _wait_process_ready(engine)
                outputs = engine.serve_batch(probe, timeout=120)
                with no_grad():
                    reference = engine.model(Tensor(np.stack(probe))).data
            matches = bool(np.array_equal(np.stack(outputs), reference))
        finally:
            clear_mapping_cache()

    single_rate = PROC_REQUESTS / timings["thread_1"]
    process_rate = PROC_REQUESTS / timings["process_4"]
    roofline_rate = single_rate * min(PROC_WORKERS, _CORES)
    stats = {
        "requests": PROC_REQUESTS,
        "cores": _CORES,
        "workers": PROC_WORKERS,
        "layers": PROC_LAYERS,
        "features": PROC_FEATURES,
        "thread_1_s": timings["thread_1"],
        "thread_4_s": timings["thread_4"],
        "process_4_s": timings["process_4"],
        "thread_1_req_per_s": single_rate,
        "thread_4_req_per_s": PROC_REQUESTS / timings["thread_4"],
        "process_4_req_per_s": process_rate,
        "proc_speedup_vs_single": timings["thread_1"] / timings["process_4"],
        "proc_vs_thread_speedup": timings["thread_4"] / timings["process_4"],
        "roofline_req_per_s": roofline_rate,
        "roofline_fraction": process_rate / roofline_rate,
        "process_matches_cached": matches,
        "worker_crashes": int(crashes),
    }
    rows = [
        {"Engine": "workers=1 (thread)", "Requests/s": f"{single_rate:,.1f}"},
        {
            "Engine": f"workers={PROC_WORKERS} (thread)",
            "Requests/s": f"{stats['thread_4_req_per_s']:,.1f}",
        },
        {
            "Engine": f"workers={PROC_WORKERS} (process)",
            "Requests/s": f"{process_rate:,.1f}",
            "Roofline": f"{stats['roofline_fraction'] * 100:.0f}% of {roofline_rate:,.1f}",
        },
    ]
    return rows, stats


def measure_pipeline_prefetch():
    """Cross-layer pipelined decode vs inline decode, plus the identity anchor."""
    model = _streaming_model(PIPELINE_LAYERS, PIPELINE_FEATURES, seed=19)
    rng = np.random.default_rng(17)
    probe = Tensor(rng.normal(0.0, 1.0, (PIPELINE_ROWS, PIPELINE_FEATURES)).astype(np.float32))

    def _best_forward() -> float:
        best = np.inf
        with no_grad():
            model(probe)  # warmup (starts the decode pool)
            for _ in range(ROUNDS):
                t0 = time.perf_counter()
                model(probe)
                best = min(best, time.perf_counter() - t0)
        return best

    set_serving_mode(model, "streaming", prefetch=False)
    inline_s = _best_forward()
    set_serving_mode(model, "streaming", prefetch="pipeline")
    pipeline_s = _best_forward()

    # bit-identity anchor: cached vs pipelined streaming on a >= 32-row batch
    identity_probe = Tensor(
        rng.normal(0.0, 1.0, (IDENTITY_BATCH, PIPELINE_FEATURES)).astype(np.float32)
    )
    with no_grad():
        pipelined_out = model(identity_probe).data
    set_serving_mode(model, "cached")
    with no_grad():
        cached_out = model(identity_probe).data

    stats = {
        "layers": PIPELINE_LAYERS,
        "rows": PIPELINE_ROWS,
        "cores": _CORES,
        "inline_s": inline_s,
        "pipeline_s": pipeline_s,
        "pipeline_over_inline": pipeline_s / inline_s,
        "pipeline_matches_cached": bool(np.array_equal(pipelined_out, cached_out)),
    }
    rows = [
        {"Prefetch": "off (inline decode)", "Forward": f"{inline_s * 1e3:.1f} ms"},
        {
            "Prefetch": "cross-layer pipeline",
            "Forward": f"{pipeline_s * 1e3:.1f} ms",
            "== cached": stats["pipeline_matches_cached"],
        },
    ]
    return rows, stats


def measure_engine_identity():
    """Multi-worker engine outputs must be bit-identical to cached-mode forwards.

    Groups are made deterministic (same-key requests, max_batch 8, a long
    admission window), so every forward sees the same stacked batch that the
    cached-mode reference forward sees — dynamic activation scales included.
    """
    streaming = _streaming_model(STAGGER_LAYERS, STAGGER_FEATURES, seed=23)
    cached = quantize_model(
        _build_mlp(STAGGER_LAYERS, STAGGER_FEATURES, seed=23),
        standard_recipe("E4M3", approach=Approach.DYNAMIC),
        deploy=True,
    ).model
    rng = np.random.default_rng(29)
    samples = [
        rng.normal(0.0, 1.0, (STAGGER_FEATURES,)).astype(np.float32)
        for _ in range(2 * IDENTITY_BATCH)
    ]
    set_serving_mode(streaming, "streaming", prefetch="pipeline")
    with ServingEngine(
        streaming, max_batch_size=IDENTITY_BATCH, max_wait_ms=2000.0, workers=2
    ) as engine:
        outputs = engine.serve_batch(samples, timeout=60)
    matches = True
    for start in range(0, len(samples), IDENTITY_BATCH):
        with no_grad():
            reference = cached(Tensor(np.stack(samples[start : start + IDENTITY_BATCH]))).data
        matches = matches and np.array_equal(
            np.stack(outputs[start : start + IDENTITY_BATCH]), reference
        )
    return {"engine_matches_cached": bool(matches)}


def main():
    cont_rows, cont_stats = measure_continuous_vs_drain()
    print()
    print(format_table(cont_rows, title="Continuous batching vs drain-then-batch"))
    worker_rows, worker_stats = measure_multi_worker()
    print()
    print(format_table(worker_rows, title=f"Multi-worker over one shared mmap ({_CORES} cores)"))
    proc_rows, proc_stats = measure_process_scaling()
    print()
    print(format_table(proc_rows, title=f"Process-worker scaling ({_CORES} cores)"))
    pipe_rows, pipe_stats = measure_pipeline_prefetch()
    print()
    print(format_table(pipe_rows, title="Cross-layer pipelined prefetch"))
    identity_stats = measure_engine_identity()
    print()
    print(f"engine outputs bit-identical to cached mode: {identity_stats['engine_matches_cached']}")
    return cont_stats, worker_stats, proc_stats, pipe_stats, identity_stats


def test_continuous_batching_gate():
    _, stats = measure_continuous_vs_drain()
    assert stats["continuous_batches"] <= stats["drain_batches"], (
        "continuous batching ran more forwards than the drain baseline "
        f"({stats['continuous_batches']} vs {stats['drain_batches']})"
    )
    assert stats["speedup"] >= ACCEPTANCE_CONTINUOUS, (
        f"continuous batching only {stats['speedup']:.2f}x over drain-then-batch "
        f"(gate: >= {ACCEPTANCE_CONTINUOUS}x)"
    )


def test_multi_worker_gate():
    _, stats = measure_multi_worker()
    assert stats["mapped_once"], (
        f"fleet maps {stats['mapped_bytes_fleet']} bytes vs "
        f"{stats['mapped_bytes_single']} for one replica; the shared checkpoint "
        "must be mapped exactly once"
    )
    assert stats["speedup"] >= ACCEPTANCE_WORKERS, (
        f"workers={WORKER_COUNT} only {stats['speedup']:.2f}x over workers=1 on "
        f"{_CORES} cores (gate: >= {ACCEPTANCE_WORKERS}x)"
    )


def test_process_scaling_gate():
    _, stats = measure_process_scaling()
    assert stats["process_matches_cached"], (
        "process-worker engine outputs diverge from the parent cached-mode forward"
    )
    assert stats["worker_crashes"] == 0, (
        f"{stats['worker_crashes']} worker crashes during a fault-free scaling run"
    )
    assert stats["proc_speedup_vs_single"] >= ACCEPTANCE_PROC, (
        f"workers={PROC_WORKERS} processes only {stats['proc_speedup_vs_single']:.2f}x "
        f"over workers=1 on {_CORES} cores (gate: >= {ACCEPTANCE_PROC}x)"
    )
    assert stats["proc_vs_thread_speedup"] >= ACCEPTANCE_PROC_VS_THREAD, (
        f"processes only {stats['proc_vs_thread_speedup']:.2f}x over the thread tier "
        f"on {_CORES} cores (gate: >= {ACCEPTANCE_PROC_VS_THREAD}x)"
    )
    assert stats["roofline_fraction"] >= ACCEPTANCE_PROC_ROOFLINE, (
        f"process fleet reaches only {stats['roofline_fraction'] * 100:.0f}% of the "
        f"measured per-core roofline ({stats['roofline_req_per_s']:,.1f} req/s; "
        f"gate: >= {ACCEPTANCE_PROC_ROOFLINE * 100:.0f}%)"
    )


def test_pipeline_prefetch_gate():
    _, stats = measure_pipeline_prefetch()
    # pipeline_over_inline is reported, not gated
    assert stats["pipeline_matches_cached"], "pipelined streaming diverges from cached mode"


def test_engine_bit_identity():
    stats = measure_engine_identity()
    assert stats["engine_matches_cached"], (
        "multi-worker engine outputs diverge from cached-mode forwards"
    )


if __name__ == "__main__":
    main()
