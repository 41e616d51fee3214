"""Cold start + throughput: mmap checkpoint loading and the batched serving engine.

The two ends of the serving hot path that PR 4 adds, with acceptance gates:

1. **Cold start** — ``load_quantized(..., mmap=True)`` on a >= 50 MB packed
   checkpoint must (a) materialise < 0.10x of the packed payload bytes before
   the first forward (codes stay as read-only page-on-touch views into the
   mapped file) and (b) load >= 5x faster than the copied load of the same
   file, because the mmap path is O(header + float leftovers).
2. **Throughput** — the :class:`~repro.serving.engine.ServingEngine` serving
   8 single-sample requests as one stacked forward must beat 8 sequential
   single-request streaming forwards by >= 2x: the per-forward block decode
   is paid once per batch instead of once per request.
3. **Bit-identity** — streaming with cross-layer pipelined block prefetch
   (``prefetch="pipeline"``) must produce outputs bit-identical to plain
   streaming and to cached mode on the same batch (same codes, same block
   boundaries, same kernels — only the decode schedule differs).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving_engine.py

or through pytest::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_serving_engine.py
"""

from __future__ import annotations

import os
import tempfile
import time
from contextlib import contextmanager

import numpy as np

import repro.nn as nn
import repro.nn.init as init
from repro.autograd.tensor import Tensor, no_grad
from repro.evaluation.reporting import format_table
from repro.quantization import (
    Approach,
    int8_recipe,
    quantize_model,
    resident_report,
    set_serving_mode,
    standard_recipe,
)
from repro.serialization import load_quantized, save_quantized
from repro.serving import ServingEngine

#: cold-load gates (issue acceptance criteria)
ACCEPTANCE_TOUCHED_RATIO = 0.10
ACCEPTANCE_LOAD_SPEEDUP = 5.0
#: batched-throughput gate at batch 8
ACCEPTANCE_BATCH_SPEEDUP = 2.0

#: cold-start checkpoint: 4 x Linear(4096, 4096) packs to ~64 MiB of codes
COLD_FEATURES = 4096
COLD_LAYERS = 4
MIN_CHECKPOINT_BYTES = 50 * 1000 * 1000

#: throughput model + traffic shape
SERVE_FEATURES = 1024
SERVE_LAYERS = 4
BATCH = 8
ROUNDS = 5

#: batch used for the bit-identity check: BLAS picks a different small-M
#: kernel below ~32 rows for the full-width matmul than for the narrow
#: per-block matmuls, changing the K-summation order by ~1 ulp — at >= 32
#: rows both paths hit the same gemm kernel and the comparison is exact
IDENTITY_BATCH = 32


@contextmanager
def _cheap_init():
    """Zero-cost weight init for factories on the timed load path.

    The load benchmark measures the *checkpoint* path; the factory's random
    init is identical overhead on both sides and its weights are discarded
    anyway (quantized weights come back from packed codes, float leftovers
    from the container), so a deployment-grade factory allocates zeros.
    """
    saved = (init.kaiming_uniform, init.kaiming_normal, init.normal_)

    def _zeros(shape, **kwargs):
        return np.zeros(shape, dtype=np.float32)

    init.kaiming_uniform = _zeros
    init.kaiming_normal = _zeros
    init.normal_ = _zeros
    try:
        yield
    finally:
        init.kaiming_uniform, init.kaiming_normal, init.normal_ = saved


def build_cold_model() -> nn.Sequential:
    with _cheap_init():
        layers = []
        for _ in range(COLD_LAYERS):
            layers.extend([nn.Linear(COLD_FEATURES, COLD_FEATURES), nn.ReLU()])
        return nn.Sequential(*layers[:-1])


#: lazily built (path, file_bytes, packed_bytes, reference_out) shared by the
#: cold-load test and main(); the temp dir object keeps the file alive
_COLD_STATE: dict = {}


def _cold_checkpoint() -> dict:
    if _COLD_STATE:
        return _COLD_STATE
    model = build_cold_model()
    # deterministic non-trivial weights without paying RNG cost on 67M
    # elements: one periodic row broadcast across each weight matrix
    row = ((np.arange(COLD_FEATURES, dtype=np.float32) % 251.0) - 125.0) / 125.0
    for _, module in model.named_modules():
        if isinstance(module, nn.Linear):
            module.weight.data[...] = row
    result = quantize_model(model, int8_recipe(approach=Approach.DYNAMIC), inplace=True)
    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-serving-")
    path = os.path.join(tmp.name, "cold.rpq")
    file_bytes = save_quantized(result.model, path, recipe=result.recipe)
    packed_bytes = result.weight_bytes_packed
    probe = _probe((2, COLD_FEATURES))
    with no_grad():
        reference_out = result.model(probe).data
    _COLD_STATE.update(
        {
            "tmp": tmp,
            "path": path,
            "file_bytes": file_bytes,
            "packed_bytes": packed_bytes,
            "probe": probe,
            "reference_out": reference_out,
        }
    )
    return _COLD_STATE


def _probe(shape, seed: int = 42) -> Tensor:
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0.0, 1.0, shape).astype(np.float32))


def _best_load_time(path: str, mmap: bool, rounds: int = 3) -> float:
    best = np.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        load_quantized(path, build_cold_model, mmap=mmap)
        best = min(best, time.perf_counter() - t0)
    return best


def measure_cold_load():
    """Copied vs mmap load of a >= 50 MB packed checkpoint."""
    state = _cold_checkpoint()
    path, file_bytes, packed_bytes = state["path"], state["file_bytes"], state["packed_bytes"]

    copied_s = _best_load_time(path, mmap=False)
    mmap_s = _best_load_time(path, mmap=True)

    mapped_model = load_quantized(path, build_cold_model, mmap=True)
    report_cold = resident_report(mapped_model)  # before any forward
    with no_grad():
        mmap_out = mapped_model(state["probe"]).data
    copied_model = load_quantized(path, build_cold_model, mmap=False)
    with no_grad():
        copied_out = copied_model(state["probe"]).data

    stats = {
        "file_bytes": int(file_bytes),
        "packed_bytes": int(packed_bytes),
        "copied_load_s": copied_s,
        "mmap_load_s": mmap_s,
        "load_speedup": copied_s / mmap_s,
        "cold_resident_bytes": report_cold["resident_bytes"],
        "cold_mapped_bytes": report_cold["mapped_bytes"],
        "touched_ratio": report_cold["resident_bytes"] / packed_bytes,
        "mmap_matches_copied": bool(np.array_equal(mmap_out, copied_out)),
        "mmap_matches_saved": bool(np.array_equal(mmap_out, state["reference_out"])),
    }
    rows = [
        {
            "Load path": "copied",
            "Load time": f"{copied_s * 1e3:.1f} ms",
            "Payload copied": f"{file_bytes / 1e6:.1f} MB",
        },
        {
            "Load path": "mmap",
            "Load time": f"{mmap_s * 1e3:.1f} ms",
            "Payload copied": (
                f"{report_cold['resident_bytes'] / 1e6:.2f} MB "
                f"({stats['touched_ratio']:.4f}x of packed)"
            ),
        },
    ]
    return rows, stats


def build_serve_model() -> nn.Sequential:
    rng = np.random.default_rng(7)
    layers = []
    for _ in range(SERVE_LAYERS):
        layers.extend([nn.Linear(SERVE_FEATURES, SERVE_FEATURES, rng=rng), nn.ReLU()])
    return nn.Sequential(*layers[:-1])


def measure_batched_throughput():
    """8 sequential single-request streaming forwards vs one engine batch."""
    result = quantize_model(
        build_serve_model(),
        standard_recipe("E4M3", approach=Approach.DYNAMIC),
        serving_mode="streaming",
    )
    model = result.model
    rng = np.random.default_rng(3)
    samples = [rng.normal(0.0, 1.0, (SERVE_FEATURES,)).astype(np.float32) for _ in range(BATCH)]

    with no_grad():
        model(Tensor(samples[0][None]))  # warmup
    sequential_s = np.inf
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        with no_grad():
            for sample in samples:
                model(Tensor(sample[None]))
        sequential_s = min(sequential_s, time.perf_counter() - t0)

    with ServingEngine(model, max_batch_size=BATCH, max_wait_ms=50.0) as engine:
        engine.serve_batch(samples)  # warmup
        batched_s = np.inf
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            outputs = engine.serve_batch(samples)
            batched_s = min(batched_s, time.perf_counter() - t0)
        engine_stats = engine.stats
    with no_grad():
        direct = model(Tensor(np.stack(samples))).data
    outputs_match_direct = bool(np.allclose(np.stack(outputs), direct, rtol=1e-5, atol=1e-6))

    stats = {
        "sequential_s": sequential_s,
        "batched_s": batched_s,
        "batch_speedup": sequential_s / batched_s,
        "sequential_req_per_s": BATCH / sequential_s,
        "batched_req_per_s": BATCH / batched_s,
        "engine_mean_batch": engine_stats["mean_batch"],
        "engine_max_batch": engine_stats["max_batch"],
        "outputs_match_direct_batch": outputs_match_direct,
    }
    rows = [
        {
            "Streaming path": "sequential x8",
            "Requests/s": f"{stats['sequential_req_per_s']:,.1f}",
            "Batch time": f"{sequential_s * 1e3:.1f} ms",
        },
        {
            "Streaming path": f"engine batch {BATCH}",
            "Requests/s": f"{stats['batched_req_per_s']:,.1f}",
            "Batch time": f"{batched_s * 1e3:.1f} ms",
        },
    ]
    return rows, stats


def measure_prefetch_identity():
    """Pipelined streaming must be bit-identical to cached mode (and report overlap timing)."""
    result = quantize_model(build_serve_model(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
    model = result.model
    probe = _probe((IDENTITY_BATCH, SERVE_FEATURES), seed=11)
    with no_grad():
        cached_out = model(probe).data

        set_serving_mode(model, "streaming", prefetch=False)
        model(probe)  # warmup
        plain_s = np.inf
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            plain_out = model(probe).data
            plain_s = min(plain_s, time.perf_counter() - t0)

        set_serving_mode(model, "streaming", prefetch="pipeline")
        model(probe)  # warmup (starts the decode pool)
        prefetch_s = np.inf
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            prefetch_out = model(probe).data
            prefetch_s = min(prefetch_s, time.perf_counter() - t0)

    stats = {
        "prefetch_matches_cached": bool(np.array_equal(prefetch_out, cached_out)),
        "prefetch_matches_plain_streaming": bool(np.array_equal(prefetch_out, plain_out)),
        "plain_streaming_s": plain_s,
        "prefetch_streaming_s": prefetch_s,
        "prefetch_speedup": plain_s / prefetch_s,
    }
    rows = [
        {
            "Mode": "streaming",
            "Forward": f"{plain_s * 1e3:.1f} ms",
            "== cached": bool(np.array_equal(plain_out, cached_out)),
        },
        {
            "Mode": "streaming+pipeline",
            "Forward": f"{prefetch_s * 1e3:.1f} ms",
            "== cached": stats["prefetch_matches_cached"],
        },
    ]
    return rows, stats


def main():
    cold_rows, cold_stats = measure_cold_load()
    print()
    print(format_table(cold_rows, title="Cold load: copied vs mmap"))
    serve_rows, serve_stats = measure_batched_throughput()
    print()
    print(format_table(serve_rows, title=f"Serving engine throughput (batch {BATCH})"))
    prefetch_rows, prefetch_stats = measure_prefetch_identity()
    print()
    print(format_table(prefetch_rows, title="Pipelined block prefetch"))
    return cold_stats, serve_stats, prefetch_stats


def test_mmap_cold_load_gates():
    _, stats = measure_cold_load()
    assert stats["file_bytes"] >= MIN_CHECKPOINT_BYTES, (
        f"checkpoint is only {stats['file_bytes']} bytes; the cold-load gate "
        f"needs >= {MIN_CHECKPOINT_BYTES}"
    )
    assert stats["touched_ratio"] < ACCEPTANCE_TOUCHED_RATIO, (
        f"mmap cold load materialised {stats['touched_ratio']:.4f}x of the packed "
        f"payload before the first forward (gate: < {ACCEPTANCE_TOUCHED_RATIO}x)"
    )
    assert stats["load_speedup"] >= ACCEPTANCE_LOAD_SPEEDUP, (
        f"mmap load only {stats['load_speedup']:.2f}x faster than copied "
        f"(gate: >= {ACCEPTANCE_LOAD_SPEEDUP}x)"
    )
    assert stats["mmap_matches_copied"], "mmap-loaded forward diverges from copied load"
    assert stats["mmap_matches_saved"], "mmap-loaded forward diverges from the saved model"


def test_batched_throughput_gate():
    _, stats = measure_batched_throughput()
    assert stats["outputs_match_direct_batch"], (
        "engine outputs diverge from a direct batched forward"
    )
    assert stats["batch_speedup"] >= ACCEPTANCE_BATCH_SPEEDUP, (
        f"engine batch {BATCH} only {stats['batch_speedup']:.2f}x over sequential "
        f"streaming (gate: >= {ACCEPTANCE_BATCH_SPEEDUP}x)"
    )


def test_prefetch_bit_identity():
    _, stats = measure_prefetch_identity()
    assert stats["prefetch_matches_plain_streaming"], (
        "pipelined streaming diverges from sequential streaming"
    )
    assert stats["prefetch_matches_cached"], "pipelined streaming diverges from cached mode"


if __name__ == "__main__":
    main()
