"""Memory-bound serving paths: float32 vs cached vs streaming (decode-on-the-fly).

The deployment question the packed storage layer exists to answer: what does
it cost to *serve* from packed 8-bit weights?  Three paths over the same MLP
stack:

1. **float32** — the unquantized model; dense weights resident, plain matmul.
2. **cached**  — converted model, dequant cache materialised once and kept;
   fastest quantized path, resident ≈ packed + dense float32.
3. **streaming** — restore-free deployment (``deploy=True``), packed codes
   decoded block-by-block inside each forward
   (:meth:`~repro.fp8.quantize.QuantizedTensor.dequantize_block`); no
   persistent float32 view, resident ≈ the packed footprint.

For each path the benchmark reports resident weight bytes (via
:func:`repro.quantization.resident_report`, deduplicated by actual array
storage) and serving throughput in tokens/sec (rows of the input batch per
second of forward time).

Acceptance (asserted by the ``test_`` entry points and the CI
``checkpoint-roundtrip`` job):

* deployed streaming resident bytes <= 0.35x of the float32 model;
* streaming outputs match cached outputs (same grid, same codes — only the
  matmul blocking differs);
* a ``save_quantized`` → fresh ``load_quantized`` round trip preserves packed
  codes/scales bit-for-bit and produces bit-identical forward outputs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving_path.py

or through pytest::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_serving_path.py
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

import repro.nn as nn
from repro.autograd.tensor import Tensor, no_grad
from repro.evaluation.reporting import format_table
from repro.quantization import (
    Approach,
    QuantizedModule,
    int8_recipe,
    quantize_model,
    resident_report,
    standard_recipe,
)
from repro.serialization import load_quantized, save_quantized

#: deployed streaming resident bytes must come in at or under this fraction
#: of the dense float32 model (the PR's acceptance criterion)
ACCEPTANCE_RESIDENT_RATIO = 0.35

BATCH = 256
IN_FEATURES = 512
ROUNDS = 5


def build_model(rng_seed: int = 0) -> nn.Sequential:
    rng = np.random.default_rng(rng_seed)
    return nn.Sequential(
        nn.Linear(IN_FEATURES, 1024, rng=rng),
        nn.ReLU(),
        nn.Linear(1024, 1024, rng=rng),
        nn.ReLU(),
        nn.Linear(1024, 256, rng=rng),
    )


def _probe() -> Tensor:
    rng = np.random.default_rng(42)
    return Tensor(rng.normal(0.0, 1.0, (BATCH, IN_FEATURES)).astype(np.float32))


def _tokens_per_sec(model, probe: Tensor, rounds: int = ROUNDS) -> float:
    with no_grad():
        model(probe)  # warmup (materialises caches where applicable)
        best = np.inf
        for _ in range(rounds):
            t0 = time.perf_counter()
            model(probe)
            best = min(best, time.perf_counter() - t0)
    return BATCH / best


def measure_serving(recipe_name: str = "E4M3"):
    """Resident bytes + throughput for the three serving paths."""
    if recipe_name.upper().startswith("INT8"):
        recipe = int8_recipe(approach=Approach.DYNAMIC)
    else:
        recipe = standard_recipe(recipe_name, approach=Approach.DYNAMIC)
    probe = _probe()

    fp32_model = build_model()
    fp32_model.eval()
    fp32_out = fp32_model(probe).data
    fp32_resident = resident_report(fp32_model)
    fp32_tps = _tokens_per_sec(fp32_model, probe)

    cached = quantize_model(fp32_model, recipe)
    cached_out = cached.model(probe).data
    cached_tps = _tokens_per_sec(cached.model, probe)
    cached_resident = resident_report(cached.model)  # after forward: cache held

    streaming = quantize_model(fp32_model, recipe, deploy=True, serving_mode="streaming")
    streaming_resident = resident_report(streaming.model)  # at rest: packed only
    streaming_out = streaming.model(probe).data
    streaming_tps = _tokens_per_sec(streaming.model, probe)
    streaming_resident_after = resident_report(streaming.model)

    rows = [
        {
            "Path": "float32",
            "Resident KiB": f"{fp32_resident['resident_bytes'] / 1024:.1f}",
            "Resident ratio": f"{fp32_resident['ratio']:.3f}x",
            "Tokens/s": f"{fp32_tps:,.0f}",
        },
        {
            "Path": f"cached ({recipe.name})",
            "Resident KiB": f"{cached_resident['resident_bytes'] / 1024:.1f}",
            "Resident ratio": f"{cached_resident['ratio']:.3f}x",
            "Tokens/s": f"{cached_tps:,.0f}",
        },
        {
            "Path": f"streaming+deploy ({recipe.name})",
            "Resident KiB": f"{streaming_resident['resident_bytes'] / 1024:.1f}",
            "Resident ratio": f"{streaming_resident['ratio']:.3f}x",
            "Tokens/s": f"{streaming_tps:,.0f}",
        },
    ]
    stats = {
        "fp32_tokens_per_sec": fp32_tps,
        "cached_tokens_per_sec": cached_tps,
        "streaming_tokens_per_sec": streaming_tps,
        "fp32_resident_bytes": fp32_resident["resident_bytes"],
        "cached_resident_ratio": cached_resident["ratio"],
        "streaming_resident_ratio": streaming_resident["ratio"],
        "streaming_resident_ratio_after_forward": streaming_resident_after["ratio"],
        "streaming_matches_cached": bool(
            np.allclose(cached_out, streaming_out, rtol=1e-5, atol=1e-6)
        ),
        "max_quant_error_vs_fp32": float(np.abs(cached_out - fp32_out).max()),
    }
    return rows, stats


def measure_checkpoint_roundtrip(recipe_name: str = "E4M3"):
    """save_quantized → fresh load_quantized: bit-identity + file footprint."""
    recipe = standard_recipe(recipe_name, approach=Approach.DYNAMIC)
    probe = _probe()
    model = build_model()
    model.eval()
    result = quantize_model(model, recipe)
    reference_out = result.model(probe).data
    packed = {
        name: module.weight_q
        for name, module in result.model.named_modules()
        if isinstance(module, QuantizedModule) and module.weight_q is not None
    }

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.rpq")
        file_bytes = save_quantized(result.model, path, recipe=recipe)
        loaded = load_quantized(path, build_model)
        resident_at_rest = resident_report(loaded)  # before any forward: packed only
        loaded_out = loaded(probe).data
        def _same_payload(name, module):
            saved = packed[name]
            return np.array_equal(saved.codes, module.weight_q.codes) and np.array_equal(
                np.asarray(saved.scale), np.asarray(module.weight_q.scale)
            )

        codes_identical = all(
            _same_payload(name, module)
            for name, module in loaded.named_modules()
            if isinstance(module, QuantizedModule) and module.weight_q is not None
        )
    fp32_bytes = resident_at_rest["fp32_bytes"]
    stats = {
        "file_bytes": file_bytes,
        "file_ratio_vs_fp32": file_bytes / fp32_bytes,
        "loaded_resident_ratio": resident_at_rest["ratio"],
        "codes_scales_bit_identical": bool(codes_identical),
        "forward_bit_identical": bool(np.array_equal(reference_out, loaded_out)),
    }
    rows = [
        {
            "Checkpoint": recipe.name,
            "File KiB": f"{file_bytes / 1024:.1f}",
            "File ratio": f"{stats['file_ratio_vs_fp32']:.3f}x",
            "Loaded resident": f"{resident_at_rest['ratio']:.3f}x",
            "Codes bit-identical": stats["codes_scales_bit_identical"],
            "Forward bit-identical": stats["forward_bit_identical"],
        }
    ]
    return rows, stats


def main():
    serving_rows = []
    serving_stats = {}
    for recipe_name in ("E4M3", "INT8"):
        rows, stats = measure_serving(recipe_name)
        serving_rows.extend(rows)
        serving_stats[recipe_name] = stats
    print()
    print(
        format_table(
            serving_rows,
            title=f"Serving paths ({BATCH}x{IN_FEATURES} batch, best of {ROUNDS})",
        )
    )
    ckpt_rows, ckpt_stats = measure_checkpoint_roundtrip()
    print()
    print(format_table(ckpt_rows, title="Packed checkpoint round trip"))
    return serving_stats, ckpt_stats


def test_streaming_resident_footprint():
    _, stats = measure_serving("E4M3")
    ratio = stats["streaming_resident_ratio"]
    assert ratio <= ACCEPTANCE_RESIDENT_RATIO, (
        f"deployed streaming resident bytes {ratio:.3f}x above the "
        f"{ACCEPTANCE_RESIDENT_RATIO}x acceptance ratio"
    )
    # and the streaming forward itself must not leave a cache behind
    assert stats["streaming_resident_ratio_after_forward"] <= ACCEPTANCE_RESIDENT_RATIO


def test_streaming_matches_cached():
    for recipe_name in ("E4M3", "INT8"):
        _, stats = measure_serving(recipe_name)
        assert stats["streaming_matches_cached"], (
            f"streaming outputs diverge from cached outputs on {recipe_name}"
        )


def test_checkpoint_roundtrip_bit_identical():
    _, stats = measure_checkpoint_roundtrip()
    assert stats["codes_scales_bit_identical"], "packed codes/scales changed across save/load"
    assert stats["forward_bit_identical"], "loaded model's forward outputs diverge"
    assert stats["loaded_resident_ratio"] <= ACCEPTANCE_RESIDENT_RATIO


if __name__ == "__main__":
    main()
