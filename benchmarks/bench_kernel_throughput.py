"""FP8 cast kernel throughput: the public functions vs. the table-based reference.

Records elements/sec for the public FP8 functions (``fp8_round``,
``quantize_dequantize``, ``FP8Format.encode`` / ``decode`` — direct IEEE-754
bit manipulation and a LUT gather) against the original
table-``searchsorted`` oracles in :mod:`repro.fp8.kernels`, called directly,
on 1M-element tensors, covering the raw cast (`fp8_round` in float32 and
float64), the fused Q/DQ round trip used by every quantized operator and
observer search, and encode/decode.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py

or through pytest (the ``test_`` entry point asserts the acceptance target of
a >= 5x elements/sec speedup for the 1M-element round workloads)::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel_throughput.py -s
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.evaluation.reporting import format_table
from repro.fp8 import E4M3, get_format
from repro.fp8.kernels import fp8_decode_reference, fp8_encode_reference, fp8_round_reference
from repro.fp8.quantize import fp8_round, quantize_dequantize

N = 1_000_000
# The fast kernel must beat the searchsorted path by this factor.  The default
# is the acceptance target measured on a quiet machine; CI runs on contended
# shared runners where timing jitter is large, so it overrides this with a
# looser smoke threshold via REPRO_BENCH_MIN_SPEEDUP.
ACCEPTANCE_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))


def _time(fn, rounds=5, warmup=1):
    for _ in range(warmup):
        fn()
    best = np.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _reference_qdq(x, fmt, scale):
    """The Q/DQ round trip on the reference round (the fused kernel's oracle)."""
    q = fp8_round_reference(np.asarray(x, dtype=np.float64) * scale, fmt)
    return (q / scale).astype(np.float32)


def _workloads(fmt):
    """``(name, elements, reference call, public call)`` per workload."""
    rng = np.random.default_rng(0)
    x64 = rng.normal(0.0, 1.0, N)
    x32 = x64.astype(np.float32)
    scale = np.asarray(fmt.max_value / float(np.abs(x64).max()))
    codes = fmt.encode(x32)
    return [
        (
            "fp8_round f32",
            N,
            lambda: fp8_round_reference(x32, fmt),
            lambda: fp8_round(x32, fmt),
        ),
        (
            "fp8_round f64",
            N,
            lambda: fp8_round_reference(x64, fmt),
            lambda: fp8_round(x64, fmt),
        ),
        (
            "quantize_dequantize f32",
            N,
            lambda: _reference_qdq(x32, fmt, scale),
            lambda: quantize_dequantize(x32, fmt, scale=scale),
        ),
        ("encode f32", N, lambda: fp8_encode_reference(x32, fmt), lambda: fmt.encode(x32)),
        ("decode", N, lambda: fp8_decode_reference(codes, fmt), lambda: fmt.decode(codes)),
    ]


def run(fmt=E4M3):
    rows = []
    speedups = {}
    for name, n, reference_fn, fast_fn in _workloads(fmt):
        timings = {"reference": _time(reference_fn), "fast": _time(fast_fn)}
        speedup = timings["reference"] / timings["fast"]
        speedups[name] = speedup
        rows.append(
            {
                "Workload": f"{name} ({fmt.name})",
                "Reference Melem/s": f"{n / timings['reference'] / 1e6:.1f}",
                "Fast Melem/s": f"{n / timings['fast'] / 1e6:.1f}",
                "Speedup": f"{speedup:.1f}x",
            }
        )
    return rows, speedups


def main():
    all_rows = []
    round_speedups = {}
    for fmt_name in ("E4M3", "E5M2"):
        rows, speedups = run(get_format(fmt_name))
        all_rows.extend(rows)
        for name, s in speedups.items():
            if name.startswith("fp8_round"):
                round_speedups[f"{name} ({fmt_name})"] = s
    print()
    print(
        format_table(
            all_rows,
            title=f"FP8 cast kernel throughput ({N:,} elements, best of 5)",
        )
    )
    return round_speedups


def test_kernel_throughput():
    round_speedups = main()
    laggards = {k: v for k, v in round_speedups.items() if v < ACCEPTANCE_SPEEDUP}
    assert not laggards, (
        f"fast kernel below the {ACCEPTANCE_SPEEDUP}x acceptance speedup on: {laggards}"
    )


if __name__ == "__main__":
    main()
