"""Autoregressive generation serving: KV-cache decode + token-level co-batching.

The two wins of the generation tier, each gated against the architecture it
replaces:

1. **KV-cache incremental decode** — greedy decode to a 64-token sequence
   through the per-layer KV cache must beat `GPTStyleLM.generate`'s
   full-recompute loop by >= 3x.  The win is algorithmic (O(T) attended
   tokens per step instead of O(T²) re-encoded ones), so the full gate
   applies on any core count.
2. **Token-level continuous batching** — under staggered generation arrivals,
   the engine's admission (prefills of new requests co-batch with decode
   steps of in-flight ones each tick) must beat drain-then-batch admission
   by >= 1.3x makespan.  The drain baseline is rebuilt on the client side
   (:func:`_drain_then_batch_generate`): arrivals are held until every
   in-flight generation has finished, then submitted as one wave.

Plus the correctness anchor: cached greedy decode — solo through the model
*and* batched through the engine — must be **token-identical** to the
full-recompute loop.

Override the gates with ``REPRO_BENCH_KV_DECODE_MIN_SPEEDUP`` /
``REPRO_BENCH_GEN_CB_MIN_SPEEDUP``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_generation.py

or through pytest::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_generation.py
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.evaluation.reporting import format_table
from repro.models.transformer import GPTStyleLM
from repro.serving import GenerationRequest, ServingEngine

_CORES = os.cpu_count() or 1

#: incremental decode is an algorithmic win — full gate on any core count
ACCEPTANCE_KV_DECODE = float(os.environ.get("REPRO_BENCH_KV_DECODE_MIN_SPEEDUP", 3.0))
#: so is tick-level co-batching (fewer, fuller forward_step calls)
ACCEPTANCE_GEN_CB = float(os.environ.get("REPRO_BENCH_GEN_CB_MIN_SPEEDUP", 1.3))

#: decode scenario: generate out to the acceptance criterion's 64-token
#: sequence on a model wide enough that forwards are compute-, not
#: dispatch-dominated (the full-recompute loop re-encodes the whole prefix,
#: so its per-token cost grows with T while the cached step's stays flat)
DECODE_SEQ_LEN = 64
DECODE_PROMPT = 8
DECODE_EMBED = 256
DECODE_LAYERS = 4
DECODE_ROUNDS = 3

#: co-batching scenario: arrivals staggered *within* the first request's
#: decode, so drain-then-batch strands them behind a full generation (wave
#: barrier) while continuous admission merges each one into the next tick's
#: forward_step
SERVE_REQUESTS = 6
SERVE_NEW_TOKENS = 64
SERVE_PROMPT = 6
SERVE_GAP_S = 0.002
SERVE_SLOTS = 16
SERVE_ROUNDS = 3


def _decode_model(seed: int = 0) -> GPTStyleLM:
    model = GPTStyleLM(
        vocab_size=64,
        max_seq_len=DECODE_SEQ_LEN,
        embed_dim=DECODE_EMBED,
        num_heads=8,
        num_layers=DECODE_LAYERS,
        rng=seed,
    )
    return model.eval()


def _serve_model(seed: int = 1) -> GPTStyleLM:
    model = GPTStyleLM(
        vocab_size=64,
        max_seq_len=SERVE_PROMPT + SERVE_NEW_TOKENS + 2,
        embed_dim=64,
        num_heads=4,
        num_layers=3,
        rng=seed,
    )
    return model.eval()


def measure_kv_decode():
    """Greedy decode to a 64-token sequence: KV cache vs full recompute."""
    model = _decode_model()
    prompt = (np.arange(DECODE_PROMPT, dtype=np.int64) * 7) % 64
    max_new = DECODE_SEQ_LEN - DECODE_PROMPT

    # warmup both paths (BLAS init, first-touch allocation)
    model.generate(prompt, max_new_tokens=4)
    model.generate(prompt, max_new_tokens=4, use_cache=False)

    cached_s = np.inf
    full_s = np.inf
    cached_seq = full_seq = None
    for _ in range(DECODE_ROUNDS):
        t0 = time.perf_counter()
        cached_seq = model.generate(prompt, max_new_tokens=max_new, use_cache=True)
        cached_s = min(cached_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        full_seq = model.generate(prompt, max_new_tokens=max_new, use_cache=False)
        full_s = min(full_s, time.perf_counter() - t0)

    stats = {
        "seq_len": DECODE_SEQ_LEN,
        "new_tokens": max_new,
        "embed_dim": DECODE_EMBED,
        "layers": DECODE_LAYERS,
        "full_recompute_s": full_s,
        "kv_cache_s": cached_s,
        "full_tok_per_s": max_new / full_s,
        "kv_tok_per_s": max_new / cached_s,
        "speedup": full_s / cached_s,
        "token_identical": bool(np.array_equal(cached_seq, full_seq)),
    }
    rows = [
        {
            "Decode": "full recompute (pre-PR)",
            "Tokens/s": f"{stats['full_tok_per_s']:,.1f}",
            "64-token gen": f"{full_s * 1e3:.0f} ms",
        },
        {
            "Decode": "KV cache",
            "Tokens/s": f"{stats['kv_tok_per_s']:,.1f}",
            "64-token gen": f"{cached_s * 1e3:.0f} ms",
            "== full": stats["token_identical"],
        },
    ]
    return rows, stats


def _staggered_generate(engine: ServingEngine, prompts, gap_s: float) -> float:
    """Submit generation requests on a fixed arrival schedule; return makespan."""
    request = GenerationRequest(max_new_tokens=SERVE_NEW_TOKENS)
    futures = []
    t0 = time.perf_counter()
    for index, prompt in enumerate(prompts):
        target = t0 + index * gap_s
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        futures.append(engine.generate(prompt, request))
    sequences = [future.result(timeout=300) for future in futures]
    makespan = time.perf_counter() - t0
    return makespan, sequences


def _drain_then_batch_generate(engine: ServingEngine, prompts, gap_s: float) -> tuple:
    """The drain-then-batch baseline on the same arrival schedule.

    Arrivals wait on the client until every generation already submitted has
    finished, then everything that has arrived goes in as one wave of at most
    ``SERVE_SLOTS`` requests — the lock-step admission continuous batching
    replaces, driven through the same engine.  Returns ``(makespan,
    sequences)`` like :func:`_staggered_generate`.
    """
    request = GenerationRequest(max_new_tokens=SERVE_NEW_TOKENS)
    sequences = [None] * len(prompts)
    t0 = time.perf_counter()
    arrivals = [t0 + index * gap_s for index in range(len(prompts))]
    pending = 0
    while pending < len(prompts):
        delay = arrivals[pending] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        now = time.perf_counter()
        wave = []
        while pending < len(prompts) and arrivals[pending] <= now and len(wave) < SERVE_SLOTS:
            wave.append((pending, engine.generate(prompts[pending], request)))
            pending += 1
        for index, future in wave:
            sequences[index] = future.result(timeout=300)
    makespan = time.perf_counter() - t0
    return makespan, sequences


def measure_continuous_vs_drain():
    """Staggered generation arrivals: co-batched admission vs drain-then-batch."""
    model = _serve_model()
    rng = np.random.default_rng(3)
    prompts = [
        rng.integers(0, 64, size=SERVE_PROMPT).astype(np.int64) for _ in range(SERVE_REQUESTS)
    ]
    references = [model.generate(p, max_new_tokens=SERVE_NEW_TOKENS) for p in prompts]

    schedules = {"drain": _drain_then_batch_generate, "continuous": _staggered_generate}
    timings = {}
    outputs = {}
    for admission, schedule in schedules.items():
        best = np.inf
        for _ in range(SERVE_ROUNDS):
            engine = ServingEngine(model, plan_cache=False, decode_slots=SERVE_SLOTS)
            # warmup: spin up the driver thread and first-touch the decode pool
            engine.generate(prompts[0], GenerationRequest(max_new_tokens=2)).result(timeout=60)
            makespan, sequences = schedule(engine, prompts, SERVE_GAP_S)
            engine.close()
            if makespan < best:
                best = makespan
                timings[admission] = makespan
                outputs[admission] = sequences

    matches = all(
        np.array_equal(out, ref)
        for mode in ("drain", "continuous")
        for out, ref in zip(outputs[mode], references)
    )
    total_tokens = SERVE_REQUESTS * SERVE_NEW_TOKENS
    stats = {
        "requests": SERVE_REQUESTS,
        "new_tokens_each": SERVE_NEW_TOKENS,
        "arrival_gap_ms": SERVE_GAP_S * 1e3,
        "drain_s": timings["drain"],
        "continuous_s": timings["continuous"],
        "drain_tok_per_s": total_tokens / timings["drain"],
        "continuous_tok_per_s": total_tokens / timings["continuous"],
        "speedup": timings["drain"] / timings["continuous"],
        "engine_matches_model": bool(matches),
    }
    rows = [
        {
            "Admission": "drain-then-batch",
            "Tokens/s": f"{stats['drain_tok_per_s']:,.1f}",
            "Makespan": f"{timings['drain'] * 1e3:.0f} ms",
        },
        {
            "Admission": "continuous (decode+prefill co-batch)",
            "Tokens/s": f"{stats['continuous_tok_per_s']:,.1f}",
            "Makespan": f"{timings['continuous'] * 1e3:.0f} ms",
            "== model.generate": stats["engine_matches_model"],
        },
    ]
    return rows, stats


def main():
    decode_rows, decode_stats = measure_kv_decode()
    print()
    print(format_table(decode_rows, title=f"KV-cache decode at seq {DECODE_SEQ_LEN}"))
    serve_rows, serve_stats = measure_continuous_vs_drain()
    print()
    print(format_table(serve_rows, title="Token-level continuous batching"))
    return decode_stats, serve_stats


def test_kv_decode_gate():
    _, stats = measure_kv_decode()
    assert stats["token_identical"], "KV-cache greedy decode diverged from full recompute"
    assert stats["speedup"] >= ACCEPTANCE_KV_DECODE, (
        f"KV-cache decode only {stats['speedup']:.2f}x over full recompute at "
        f"seq {DECODE_SEQ_LEN} (gate: >= {ACCEPTANCE_KV_DECODE}x)"
    )


def test_continuous_generation_gate():
    _, stats = measure_continuous_vs_drain()
    assert stats["engine_matches_model"], (
        "engine generation diverged from the model.generate reference"
    )
    assert stats["speedup"] >= ACCEPTANCE_GEN_CB, (
        f"continuous decode+prefill co-batching only {stats['speedup']:.2f}x over "
        f"drain-then-batch (gate: >= {ACCEPTANCE_GEN_CB}x)"
    )


if __name__ == "__main__":
    main()
