"""Compiled FP8 decode vs the numpy decode, on the streaming matmul.

The compiled decode (:mod:`repro.fp8.native`) replaces the numpy decode
chain — int64 code widening, LUT gather, float64 divide, float32 narrow,
roughly 61 bytes of memory traffic per element across four temporaries —
with one compiled C pass touching ~5 bytes per element (1 code byte in, 4
float32 bytes out).  Both are memory-bound, so the roofline-derived ceiling
for the decode is the traffic ratio, ~12x; the streaming matmul microbench
gated here spends the remainder of its time in the shared BLAS matmul, which
dilutes that ceiling to a conservative **2x floor** on the decode-dominated
small-batch workload (batch 2, 1024x1024 weight — exactly the serving regime
PRs 3-6 optimised around the kernels).  The numpy side runs with the C
compiler masked, the way a host without one decodes.

Gates:

* compiled streaming matmul >= 2x the numpy decode on the blocked
  decode+matmul microbench — override with ``REPRO_BENCH_NATIVE_MIN_SPEEDUP``
  (CI uses a looser bound on contended shared runners);
* compiled outputs **bit-identical** to the numpy decode's on that workload
  (the kernel keeps BLAS for the FLOPs, so this holds exactly).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_native_kernels.py

or through pytest::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_native_kernels.py
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import contextmanager

import numpy as np

from repro import nn
from repro.evaluation.reporting import format_table
from repro.fp8 import native
from repro.fp8.native import runtime
from repro.quantization import quantize_model, set_serving_mode, standard_recipe
from repro.quantization.qconfig import Approach

IN_FEATURES = 1024
OUT_FEATURES = 1024
BATCH = 2
#: native must beat the numpy fused decode→matmul path by this factor on the
#: streaming microbench.  2x is the roofline-derived floor (see module
#: docstring); CI can loosen it for shared-runner jitter.
ACCEPTANCE_SPEEDUP = float(os.environ.get("REPRO_BENCH_NATIVE_MIN_SPEEDUP", "2.0"))

ROUNDS = 30
WARMUP = 3


def build_streaming_linear():
    """One packed E4M3 per-channel QuantizedLinear serving in streaming mode.

    Prefetch is disabled so the timing isolates the kernels themselves rather
    than the overlap schedule (bench_serving_path covers the schedules).
    """
    rng = np.random.default_rng(21)
    model = nn.Sequential(nn.Linear(IN_FEATURES, OUT_FEATURES, rng=rng))
    recipe = standard_recipe(
        "E4M3",
        approach=Approach.DYNAMIC,
        skip_first_operator=False,
        skip_last_operator=False,
    )
    qmodel = quantize_model(model, recipe).model
    qmodel.eval()
    set_serving_mode(qmodel, "streaming", prefetch=False)
    (qlinear,) = list(qmodel)
    return qlinear


def probe_batch(seed: int = 4) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, (BATCH, IN_FEATURES)).astype(np.float32)


def _time(fn, rounds: int = ROUNDS, warmup: int = WARMUP) -> float:
    for _ in range(warmup):
        fn()
    best = np.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@contextmanager
def compiler_masked():
    """Decode on the numpy path: point the compiler setting at a missing binary."""
    previous = os.environ.get(runtime.CC_ENV_VAR)
    os.environ[runtime.CC_ENV_VAR] = "/nonexistent/no-such-cc"
    runtime.reset()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            yield
    finally:
        if previous is None:
            del os.environ[runtime.CC_ENV_VAR]
        else:
            os.environ[runtime.CC_ENV_VAR] = previous
        runtime.reset()


def run_streaming_speedup() -> dict:
    """Time the blocked streaming matmul on the numpy vs compiled decode."""
    qlinear = build_streaming_linear()
    x = probe_batch()

    with compiler_masked():
        numpy_out = qlinear._stream_matmul(x)
        numpy_s = _time(lambda: qlinear._stream_matmul(x))
    native_out = qlinear._stream_matmul(x)
    native_s = _time(lambda: qlinear._stream_matmul(x))

    bit_identical = bool(np.array_equal(numpy_out.view(np.uint32), native_out.view(np.uint32)))
    if not bit_identical:
        raise AssertionError("compiled streaming matmul is not bit-identical to numpy")

    return {
        "batch": BATCH,
        "in_features": IN_FEATURES,
        "out_features": OUT_FEATURES,
        "native_compiler_available": native.native_available(),
        "numpy_us_per_forward": numpy_s * 1e6,
        "native_us_per_forward": native_s * 1e6,
        "speedup": numpy_s / native_s,
        "bit_identical": bit_identical,
    }


def run() -> dict:
    return {"streaming": run_streaming_speedup()}


def test_native_streaming_speedup():
    if not native.native_available():
        import pytest

        pytest.skip("no C compiler available")
    stats = run_streaming_speedup()
    print(
        f"\nnative {stats['native_us_per_forward']:.0f} us/forward vs numpy "
        f"{stats['numpy_us_per_forward']:.0f} us/forward -> {stats['speedup']:.2f}x"
    )
    assert stats["bit_identical"]
    assert stats["speedup"] >= ACCEPTANCE_SPEEDUP, (
        f"compiled decode speedup {stats['speedup']:.2f}x is below the "
        f"{ACCEPTANCE_SPEEDUP}x acceptance bound on the streaming microbench"
    )


def main():
    stats = run()
    s = stats["streaming"]
    rows = [
        {
            "Path": "numpy decode + BLAS",
            "us/forward": f"{s['numpy_us_per_forward']:.0f}",
            "Speedup": "1.00x",
        },
        {
            "Path": "compiled C decode + BLAS",
            "us/forward": f"{s['native_us_per_forward']:.0f}",
            "Speedup": f"{s['speedup']:.2f}x",
        },
    ]
    print(format_table(rows))
    print(f"bit-identical (compiled vs numpy): {s['bit_identical']}")
    gate = "PASS" if s["speedup"] >= ACCEPTANCE_SPEEDUP else "FAIL"
    print(f"acceptance (>= {ACCEPTANCE_SPEEDUP}x): {gate}")


if __name__ == "__main__":
    main()
