"""Packed 8-bit weight storage vs float32, and fused vs unfused per-channel Q/DQ.

Two measurements for the packed storage subsystem
(:class:`repro.fp8.quantize.QuantizedTensor` + the fused per-axis kernels in
:mod:`repro.fp8.kernels`):

1. **Memory footprint** — bytes of quantized weight storage (codes + scales)
   for FP8- and INT8-converted models, against the same weights in dense
   float32.  Acceptance: packed <= 0.3x of float32.
2. **Fused vs unfused per-channel Q/DQ latency** — one fused
   absmax → scale → round → rescale call against the old pipeline (separate
   absmax pass, materialised broadcast scale array, then Q/DQ), with a
   bit-identity check between the two on the active kernel.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_memory_footprint.py

or through pytest (the ``test_`` entry points assert the acceptance targets)::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_memory_footprint.py
"""

from __future__ import annotations

import time

import numpy as np

import repro.nn as nn
from repro.evaluation.reporting import format_table
from repro.fp8 import E4M3, get_format
from repro.fp8.quantize import compute_scale, fp8_round, quantize_dequantize
from repro.quantization import (
    Approach,
    int8_recipe,
    quantize_model,
    standard_recipe,
    storage_report,
)

#: packed weight storage must come in at or under this fraction of float32
ACCEPTANCE_RATIO = 0.3

PER_CHANNEL_SHAPE = (256, 4096)  # 1M elements, 256 channels


def _model(rng_seed: int = 0) -> nn.Sequential:
    rng = np.random.default_rng(rng_seed)
    return nn.Sequential(
        nn.Linear(256, 512, rng=rng),
        nn.ReLU(),
        nn.Linear(512, 512, rng=rng),
        nn.ReLU(),
        nn.Linear(512, 128, rng=rng),
    )


def measure_footprint():
    """Quantize the probe model with FP8 and INT8 recipes; tally packed bytes."""
    rows = []
    ratios = {}
    for recipe in (
        standard_recipe("E4M3", approach=Approach.DYNAMIC),
        standard_recipe("E3M4", approach=Approach.DYNAMIC),
        int8_recipe(approach=Approach.DYNAMIC),
    ):
        model = _model()
        model.eval()
        result = quantize_model(model, recipe, inplace=True)
        per_module = storage_report(result.model)
        assert per_module, "no packed weights found after convert"
        ratio = result.weight_compression_ratio
        ratios[recipe.name] = ratio
        rows.append(
            {
                "Recipe": recipe.name,
                "Quantized ops": result.num_quantized,
                "fp32 KiB": f"{result.weight_bytes_fp32 / 1024:.1f}",
                "Packed KiB": f"{result.weight_bytes_packed / 1024:.1f}",
                "Ratio": f"{ratio:.3f}x",
            }
        )
    return rows, ratios


def _unfused_qdq(x, fmt, axis):
    """The pre-refactor pipeline: absmax pass, materialised scale array, Q/DQ."""
    scale = compute_scale(x, fmt, axis=axis)
    scale_full = np.ascontiguousarray(np.broadcast_to(scale, x.shape))
    q = fp8_round(np.multiply(x, scale_full, dtype=np.float64), fmt)
    return (q / scale_full).astype(np.float32)


def _time(fn, rounds=5, warmup=1):
    for _ in range(warmup):
        fn()
    best = np.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_fused_qdq(fmt=E4M3):
    """Latency + bit-identity of fused vs unfused per-channel Q/DQ."""
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 1.0, PER_CHANNEL_SHAPE).astype(np.float32)
    n = x.size

    fused_out = quantize_dequantize(x, fmt, axis=0)
    unfused_out = _unfused_qdq(x, fmt, axis=0)
    bit_identical = np.array_equal(fused_out, unfused_out)

    t_fused = _time(lambda: quantize_dequantize(x, fmt, axis=0))
    t_unfused = _time(lambda: _unfused_qdq(x, fmt, axis=0))
    rows = [
        {
            "Path": f"per-channel Q/DQ {fmt.name} ({n:,} elems)",
            "Unfused Melem/s": f"{n / t_unfused / 1e6:.1f}",
            "Fused Melem/s": f"{n / t_fused / 1e6:.1f}",
            "Speedup": f"{t_unfused / t_fused:.2f}x",
            "Bit-identical": bit_identical,
        }
    ]
    return rows, bit_identical


def main():
    footprint_rows, ratios = measure_footprint()
    print()
    print(format_table(footprint_rows, title="Packed 8-bit weight storage vs float32"))
    qdq_rows = []
    identical = True
    for fmt_name in ("E4M3", "E5M2"):
        rows, ok = measure_fused_qdq(get_format(fmt_name))
        qdq_rows.extend(rows)
        identical &= ok
    print()
    print(format_table(qdq_rows, title="Fused vs unfused per-channel Q/DQ"))
    return ratios, identical


def test_memory_footprint():
    _, ratios = measure_footprint()
    laggards = {k: v for k, v in ratios.items() if v > ACCEPTANCE_RATIO}
    assert not laggards, (
        f"packed weight storage above the {ACCEPTANCE_RATIO}x acceptance ratio: {laggards}"
    )


def test_fused_qdq_bit_identical():
    for fmt_name in ("E4M3", "E5M2", "E3M4"):
        _, identical = measure_fused_qdq(get_format(fmt_name))
        assert identical, f"fused per-channel Q/DQ diverges from unfused on {fmt_name}"


if __name__ == "__main__":
    main()
