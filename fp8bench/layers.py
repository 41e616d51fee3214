"""Direct probes of single layers, for the traced run's per-layer metrics.

Each probe calls a layer's public functions from here, inside a span, and
reports the median over repeated calls.  Engine-level counters come from
``engine.stats``; these probes cover what the engine does not expose (plan
compile and replay in process mode, bare forward cost, decode bandwidth).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.fp8 import quantize_dequantize
from repro.graph import install_plan_cache, remove_plan_cache
from repro.quantization import QuantizedModule, resident_report
from repro.quantization.workflow import set_serving_mode
from repro.serialization import load_quantized
from stats import Sample, median

REPEATS = 20


def _times(tracer, name: str, call, repeats: int = REPEATS) -> list:
    """Wall time of each of ``repeats`` calls of ``call()``, one span per call."""
    times = []
    for _ in range(repeats):
        with tracer.span(name):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
    return times


def _timed(tracer, name: str, call, repeats: int = REPEATS) -> Sample:
    """Median wall time of ``call()`` in ms."""
    times = _times(tracer, name, call, repeats)
    return Sample(median(times) * 1e3, "ms", len(times))


def load_served(checkpoint: str, factory, serving: dict, tracer, plan_cache: bool = True):
    """A replica built the way the engine builds its own: mmap load, serving mode, plans."""
    with tracer.span("serialization.load_quantized"):
        model = load_quantized(checkpoint, factory, mmap=True)
    set_serving_mode(model, serving["serving_mode"], prefetch=serving["prefetch"])
    if plan_cache:
        install_plan_cache(model)
    return model


def checkpoint_probe(checkpoint: str, factory, tracer) -> dict:
    loads = []
    for _ in range(5):
        start = time.perf_counter()
        with tracer.span("serialization.load_quantized"):
            load_quantized(checkpoint, factory, mmap=True)
        loads.append(time.perf_counter() - start)
    return {
        "serialization.load_s": Sample(median(loads), "s", len(loads)),
        "serialization.checkpoint_mb": Sample(os.path.getsize(checkpoint) / 1e6, "MB", 1),
    }


def forward_pair(fp32, served, batches: list, tracer):
    """Median forward time of the fp32 and the served FP8 model, pooled over ``batches``."""
    inputs = [Tensor(batch) for batch in batches]
    repeats = max(1, REPEATS // len(inputs))
    with no_grad():
        for x in inputs:
            fp32(x)
            served(x)
            served(x)
        fp32_times, fp8_times = [], []
        for x in inputs:
            fp32_times += _times(tracer, "models.forward_fp32", lambda: fp32(x), repeats)
            fp8_times += _times(tracer, "models.forward_fp8", lambda: served(x), repeats)
    return (
        Sample(median(fp32_times) * 1e3, "ms", len(fp32_times)),
        Sample(median(fp8_times) * 1e3, "ms", len(fp8_times)),
    )


def graph_probe(checkpoint: str, factory, serving: dict, batch: np.ndarray, tracer) -> dict:
    """Trace+compile on first sight, then replay vs eager on the same batch."""
    model = load_served(checkpoint, factory, serving, tracer, plan_cache=False)
    cache = install_plan_cache(model)
    x = Tensor(batch)
    out = {}
    absent = {}
    with no_grad():
        start = time.perf_counter()
        with tracer.span("graph.compile"):
            model(x)
        out["graph.compile_s"] = Sample(time.perf_counter() - start, "s", 1)
        stats = cache.stats()
        out["graph.trace_aborts"] = Sample(stats["trace_aborts"], "count", stats["misses"])
        if stats["plans"]:
            out["graph.replay_ms"] = _timed(tracer, "graph.replay", lambda: model(x))
        else:
            absent["graph.replay_ms"] = "the trace aborted, so no plan exists to replay"
        remove_plan_cache(model)
        model(x)
        out["graph.eager_ms"] = _timed(tracer, "graph.eager", lambda: model(x))
    return out, absent


def decode_probe(served, tracer, passes: int = 10) -> dict:
    """Bytes moved per second by ``QuantizedTensor.dequantize`` over every served weight.

    Bytes are computed from tensor sizes: one code byte read plus four
    float32 bytes written per element.
    """
    tensors = [
        module.weight_q
        for _, module in served.named_modules()
        if isinstance(module, QuantizedModule) and module.weight_q is not None
    ]
    moved = sum(t.codes.nbytes + t.size * 4 for t in tensors)
    rates = []
    for _ in range(passes):
        start = time.perf_counter()
        for tensor in tensors:
            with tracer.span("fp8.dequantize"):
                tensor.dequantize()
        rates.append(moved / (time.perf_counter() - start) / 1e9)
    return {"fp8.decode_gbps": Sample(median(rates), "GB/s", len(rates))}


def qdq_probe(shape: tuple, tracer) -> dict:
    """Static-scale E4M3 quantize-dequantize at an activation shape."""
    x = np.random.default_rng(0).normal(0.0, 1.0, shape).astype(np.float32)
    scale = np.float64(448.0 / float(np.abs(x).max()))
    ms = _timed(tracer, "fp8.quantize_dequantize", lambda: quantize_dequantize(x, "E4M3", scale))
    return {"fp8.qdq_melem_s": Sample(x.size / (ms.value / 1e3) / 1e6, "Melem/s", ms.samples)}


def step_probe(lm, rows: int, prompt_len: int, storage: str, tracer, label: str) -> tuple:
    """Direct ``forward_step`` calls: a ``rows`` x ``prompt_len`` prefill, then decode steps.

    Returns the median prefill and single-token decode step, in ms; spans
    are ``models.prefill_<label>`` and ``models.forward_<label>`` (a decode
    step is the forward the generation engine runs most).
    """
    state = lm.new_decode_state(rows, storage=storage)
    prompt = np.random.default_rng(0).integers(0, lm.vocab_size, (rows, prompt_len))
    step = np.zeros((rows, 1), dtype=np.int64)
    prefill, decode = [], []
    with no_grad():
        for _ in range(10):
            state.reset_rows()
            start = time.perf_counter()
            with tracer.span(f"models.prefill_{label}"):
                lm.forward_step(prompt, state)
            prefill.append(time.perf_counter() - start)
            for _ in range(5):
                start = time.perf_counter()
                with tracer.span(f"models.forward_{label}"):
                    lm.forward_step(step, state)
                decode.append(time.perf_counter() - start)
    return (
        Sample(median(prefill) * 1e3, "ms", len(prefill)),
        Sample(median(decode) * 1e3, "ms", len(decode)),
    )


def resident(model) -> Sample:
    """Weight bytes held by the served replica: private storage plus mapped checkpoint."""
    report = resident_report(model)
    return Sample((report["resident_bytes"] + report["mapped_bytes"]) / 1e6, "MB", 1)
