"""Quickstart: quantize a trained model to FP8, ship it, serve it.

Trains a small image classifier on a synthetic task (stand-in for a pretrained
checkpoint), quantizes it with the paper's standard E4M3 recipe, and compares
accuracy against the FP32 baseline and the INT8 baseline.  Then walks the
deployment leg: save the converted model as a packed single-file checkpoint,
reload it into a fresh model (streaming serving mode — the packed codes are
the only weight storage, so resident weight bytes stay at the packed
footprint) and evaluate it again.

Run with:  python examples/quickstart.py
"""

import os
import tempfile
import time

from repro.evaluation.reporting import format_table
from repro.models.registry import build_task
from repro.quantization import (
    clone_module,
    int8_recipe,
    quantize_model,
    relative_accuracy_loss,
    resident_report,
    standard_recipe,
)
from repro.serialization import load_quantized, save_quantized
from repro.serving import ServingEngine, SubmitOptions


def main() -> None:
    # 1. Get a trained FP32 model + its task (training is cached after the first run).
    bundle = build_task("resnet18-imagenet")
    print(f"FP32 {bundle.spec.name}: {bundle.metric_name} = {bundle.fp32_metric:.4f}")

    # 2. Quantize it with the paper's standard FP8 scheme and the INT8 baseline.
    rows = []
    e4m3_result = None
    e4m3_metric = None
    for recipe in (standard_recipe("E4M3"), standard_recipe("E3M4"), int8_recipe()):
        result = quantize_model(
            bundle.model,
            recipe,
            calibration_data=bundle.calib_data,
            prepare_inputs=bundle.prepare_inputs,
            is_convolutional=True,
        )
        metric = bundle.evaluate(result.model)
        if e4m3_result is None:
            e4m3_result, e4m3_metric = result, metric
        rows.append(
            {
                "recipe": recipe.name,
                "quantized ops": result.num_quantized,
                bundle.metric_name: metric,
                "relative loss %": relative_accuracy_loss(bundle.fp32_metric, metric) * 100,
            }
        )

    # 3. Report.
    print()
    print(format_table(rows, title="Post-training quantization results"))

    # 4. Ship it: save the E4M3-converted model from step 2 as one packed
    #    checkpoint file, reload it zero-copy (mmap=True: packed codes stay
    #    read-only views into the mapped file, paged in on first touch — the
    #    load is O(header) and no float32 weights are ever materialised) in
    #    streaming serving mode, and check the served accuracy matches.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "resnet18-e4m3.rpq")
        file_bytes = save_quantized(e4m3_result.model, path, recipe=e4m3_result.recipe)
        served = load_quantized(
            path, lambda: clone_module(bundle.model), serving_mode="streaming", mmap=True
        )
        report = resident_report(served)
        served_metric = bundle.evaluate(served)

        # 5. Serve it: continuous batching fuses concurrent single-sample
        #    requests into shared forwards (one decode per batch, not per
        #    request).  Requests are submitted staggered — as they would
        #    arrive from real clients — and still batch together, because
        #    arrivals join the next forward of their in-flight compatibility
        #    group instead of waiting for a drain.  A deadline bounds each
        #    request's queue time; priorities would reorder admission.
        #
        #    To scale out, the same call grows a worker fleet:
        #        ServingEngine.from_checkpoint(path, build_model, workers=4)
        #    runs 4 worker threads over one shared mmap of the checkpoint, and
        #        ServingEngine.from_checkpoint(path, build_model,
        #                                      workers=4, worker_mode="process")
        #    isolates each worker in its own process (crash containment +
        #    GIL-free scaling; build_model must then be a module-level
        #    callable, since each worker process rebuilds the model from the
        #    checkpoint in its own address space).
        inputs = bundle.calib_data.inputs[:8]
        with ServingEngine(served, max_batch_size=8, max_wait_ms=5.0) as engine:
            futures = []
            for sample in inputs:
                futures.append(engine.submit(sample, SubmitOptions(deadline_ms=500.0)))
                time.sleep(0.001)  # staggered arrivals, ~1ms apart
            outputs = [future.result(timeout=30.0) for future in futures]
            engine_stats = engine.stats
        # release the mmap views before TemporaryDirectory unlinks the file
        # (deleting a still-mapped file fails on Windows)
        del served, engine
    print()
    print(f"checkpoint: {file_bytes / 1024:.1f} KiB on disk")
    print(
        f"served model: resident weights {report['ratio']:.2f}x of float32 "
        f"(+{report['mapped_bytes'] / 1024:.1f} KiB mmapped), "
        f"{bundle.metric_name} = {served_metric:.4f} "
        f"(converted model scored {e4m3_metric:.4f})"
    )
    print(
        f"serving engine: {len(outputs)} staggered requests in {engine_stats['batches']} "
        f"batch(es), mean batch {engine_stats['mean_batch']:.1f}, "
        f"occupancy {engine_stats['occupancy_mean']:.2f}, "
        f"queue wait p95 {engine_stats['queue_wait_p95_ms']:.1f} ms, "
        f"forward p50 {engine_stats['forward_p50_ms']:.1f} ms"
    )


if __name__ == "__main__":
    main()
