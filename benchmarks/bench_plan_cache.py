"""Dispatch roofline: compiled plan replay vs eager module dispatch.

The plan cache (:mod:`repro.graph`) exists to kill per-layer Python dispatch
on the serving forward: one traced flat plan, whose every step calls the
function the eager op calls, replaces the ``Module.__call__`` / result-Tensor
tower.  The win is largest exactly where serving hurts most — deep, narrow
models at small batch, where every layer's useful arithmetic is a few
microseconds and the interpreter overhead dominates.

Gates:

* plan replay >= 1.3x eager on a plain float32 MLP (depth 32, width 128,
  batch 2) under ``no_grad`` — override with ``REPRO_BENCH_PLAN_MIN_SPEEDUP``
  (CI uses a looser bound on contended shared runners).  Eager and replay
  forwards are interleaved on one installed cache, so host load that comes
  and goes lands on both sides alike;
* plan replay is **bit-identical** to eager on the float model and on an
  E4M3-dynamic quantized model in the cached and streaming serving modes,
  and the quantized forwards genuinely compile (no silent eager fallback).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_plan_cache.py

or through pytest::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_plan_cache.py
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext

import numpy as np

from repro import nn
from repro.autograd.tensor import Tensor, no_grad
from repro.evaluation.reporting import format_table
from repro.graph import install_plan_cache, remove_plan_cache
from repro.nn.module import suspend_plan_dispatch
from repro.quantization import quantize_model, set_serving_mode, standard_recipe
from repro.quantization.qconfig import Approach

DEPTH = 32
WIDTH = 128
BATCH = 2
#: plan replay must beat eager dispatch by this factor on the deep MLP.  The
#: default is the acceptance target on a quiet machine; CI overrides it with a
#: looser smoke bound via REPRO_BENCH_PLAN_MIN_SPEEDUP (shared-runner jitter).
ACCEPTANCE_SPEEDUP = float(os.environ.get("REPRO_BENCH_PLAN_MIN_SPEEDUP", "1.3"))

#: forwards per side in one round
FORWARDS_PER_ROUND = 50
#: timed rounds (each side's best one counts) and untimed warm-up rounds
ROUNDS = 7
WARMUP_ROUNDS = 2


def build_mlp(depth: int = DEPTH, width: int = WIDTH, seed: int = 7) -> nn.Sequential:
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(depth - 1):
        layers.append(nn.Linear(width, width, rng=rng))
        layers.append(nn.ReLU())
    layers.append(nn.Linear(width, width, rng=rng))
    return nn.Sequential(*layers)


def probe_batch(seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, (BATCH, WIDTH)).astype(np.float32)


def run_dispatch_speedup() -> dict:
    """Time eager vs plan-replay forwards on the plain float32 deep MLP.

    Both sides run on one installed cache, interleaved forward by forward:
    each round times ``FORWARDS_PER_ROUND`` eager forwards (inside
    ``suspend_plan_dispatch()``) and as many replays, alternating which side
    goes first, so every round measures both sides under the same host load.
    Best of ``ROUNDS`` per side.
    """
    model = build_mlp()
    model.eval()
    x = Tensor(probe_batch())

    def forward_s(eager: bool) -> float:
        with suspend_plan_dispatch() if eager else nullcontext():
            t0 = time.perf_counter()
            model(x)
            return time.perf_counter() - t0

    with no_grad():
        eager_out = model(x)

    cache = install_plan_cache(model)
    with no_grad():
        model(x)  # trace + compile
        plan_out = model(x)  # replay
    stats = cache.stats()
    if stats["plans"] != 1 or stats["compiles"] != 1:
        raise AssertionError(f"float MLP did not compile to a plan: {stats}")

    best = {True: np.inf, False: np.inf}  # keyed by "eager?"
    with no_grad():
        for index in range(WARMUP_ROUNDS + ROUNDS):
            spent = {True: 0.0, False: 0.0}
            for step in range(FORWARDS_PER_ROUND):
                first = (index + step) % 2 == 0
                for eager in (first, not first):
                    spent[eager] += forward_s(eager)
            if index >= WARMUP_ROUNDS:
                for eager, seconds in spent.items():
                    best[eager] = min(best[eager], seconds)
    replays = cache.stats()["hits"] - stats["hits"]
    remove_plan_cache(model)
    if replays != (WARMUP_ROUNDS + ROUNDS) * FORWARDS_PER_ROUND:
        raise AssertionError(f"replay forwards fell back to eager: {replays} replays")
    eager_s, plan_s = best[True], best[False]

    if not np.array_equal(eager_out.data, plan_out.data):
        raise AssertionError("plan replay is not bit-identical to eager on the float MLP")

    return {
        "depth": DEPTH,
        "width": WIDTH,
        "batch": BATCH,
        "eager_us_per_forward": eager_s / FORWARDS_PER_ROUND * 1e6,
        "plan_us_per_forward": plan_s / FORWARDS_PER_ROUND * 1e6,
        "speedup": eager_s / plan_s,
        "bit_identical": True,
    }


def run_quantized_bit_identity() -> dict:
    """Plan replay == eager on an E4M3-dynamic model, in both serving modes."""
    recipe = standard_recipe(
        "E4M3",
        approach=Approach.DYNAMIC,
        skip_first_operator=False,
        skip_last_operator=False,
    )
    results = {}
    qmodel = quantize_model(build_mlp(depth=6), recipe).model
    qmodel.eval()
    x = Tensor(probe_batch())
    for mode in ("cached", "streaming"):
        set_serving_mode(qmodel, mode)
        with no_grad():
            eager_out = qmodel(x)
        cache = install_plan_cache(qmodel)
        with no_grad():
            qmodel(x)
            plan_out = qmodel(x)
        stats = cache.stats()
        remove_plan_cache(qmodel)
        if stats["plans"] != 1 or stats["hits"] < 1:
            raise AssertionError(f"quantized model fell back to eager ({mode}): {stats}")
        identical = np.array_equal(eager_out.data, plan_out.data)
        results[mode] = bool(identical)
        if not identical:
            raise AssertionError(f"plan replay differs from eager on E4M3-dynamic ({mode})")
    return results


def run() -> dict:
    dispatch = run_dispatch_speedup()
    quantized = run_quantized_bit_identity()
    return {"dispatch": dispatch, "quantized_bit_identical": quantized}


def test_plan_cache_dispatch_speedup():
    stats = run_dispatch_speedup()
    print(
        f"\nplan replay {stats['plan_us_per_forward']:.1f} us/forward vs eager "
        f"{stats['eager_us_per_forward']:.1f} us/forward -> {stats['speedup']:.2f}x"
    )
    assert stats["speedup"] >= ACCEPTANCE_SPEEDUP, (
        f"plan replay speedup {stats['speedup']:.2f}x is below the "
        f"{ACCEPTANCE_SPEEDUP}x acceptance bound on the depth-{DEPTH} MLP"
    )


def test_plan_cache_quantized_bit_identity():
    results = run_quantized_bit_identity()
    assert all(results.values())


def main():
    stats = run()
    dispatch = stats["dispatch"]
    rows = [
        {
            "Model": f"float32 MLP d{DEPTH} w{WIDTH} b{BATCH}",
            "Eager us/fwd": f"{dispatch['eager_us_per_forward']:.1f}",
            "Plan us/fwd": f"{dispatch['plan_us_per_forward']:.1f}",
            "Speedup": f"{dispatch['speedup']:.2f}x",
        }
    ]
    print(format_table(rows))
    for config, ok in stats["quantized_bit_identical"].items():
        print(f"E4M3-dynamic {config}: plan replay bit-identical = {ok}")
    gate = "PASS" if dispatch["speedup"] >= ACCEPTANCE_SPEEDUP else "FAIL"
    print(f"acceptance (>= {ACCEPTANCE_SPEEDUP}x): {gate}")


if __name__ == "__main__":
    main()
