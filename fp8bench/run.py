"""Benchmark of the FP8 serving stack: quantize -> pack -> mmap -> serve -> generate.

Usage (from the repository root)::

    python3 fp8bench/run.py --workload encoder-e4m3 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports the per-layer metrics, writes the
span file under ``fp8bench/.work/traces/`` and reports the tracing overhead.
Metric names and units come from ``BENCHMARK.json``; every workload
reports every metric listed there.  The last line of standard output is
the JSON result; a failed correctness check exits non-zero without one.
See NOTES.md for the workloads and their constants.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

#: span name -> per-layer metric taken as the median span duration
SPAN_METRICS = {
    "quantization.quantize_model": "quantization.quantize_s",
    "serialization.save_quantized": "serialization.save_s",
    "serving.engine_start": "serving.engine_start_s",
}


def _prepare_environment() -> None:
    """Pin threads and caches before numpy (or the program) is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(WORK, "native-cache")
    os.environ["REPRO_ZOO_CACHE"] = os.path.join(WORK, "zoo-cache")
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _host_line(label: str, snapshot: dict, since: list) -> str:
    """Load average and the share of CPU time stolen by the hypervisor since ``since``."""
    from stats import steal_share

    share = steal_share(since, snapshot["cpu"])
    steal = "n/a" if share is None else f"{share:.4f}"
    return f"host {label}: load1 {snapshot['load1']} steal_share {steal}"


def main(argv=None) -> int:
    args = _parse(argv)
    _prepare_environment()

    import shutil
    import tempfile
    from multiprocessing import resource_tracker

    import selfcheck
    from stats import BOOT, Sample, host_snapshot, median
    from tracing import OFF, Tracer

    selfcheck.run()
    from workloads import WORKLOADS, Failure

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    host_start = host_snapshot()
    print(_host_line("start (steal since boot)", host_start, BOOT))
    tracer = Tracer() if args.trace else OFF
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir, tracer)
    try:
        workload.run()
    except Failure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.close_engines()
        # spawning a worker process starts multiprocessing's resource
        # tracker; stop it and wait for it, so no process outlives the run
        resource_tracker._resource_tracker._stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(_host_line("end (steal during the run)", host_snapshot(), host_start["cpu"]))

    for line in workload.phases:
        print(line)
    if args.trace:
        for span_name, metric in SPAN_METRICS.items():
            values = tracer.durations()[span_name]
            workload.layer[metric] = Sample(median(values), "s", len(values))
        traced, untraced = workload.round_rates(True), workload.round_rates(False)
        workload.layer["trace.overhead_pct"] = Sample(
            (median(untraced) / median(traced) - 1.0) * 100.0, "%", len(traced) + len(untraced)
        )
        path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        print(f"trace: {len(tracer)} spans written to {os.path.relpath(path, ROOT)}")
        listed, measured = spec["per_layer"], workload.layer
    else:
        listed, measured = spec["end_to_end"], workload.metrics

    metrics = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        sample = measured.get(name)
        if sample is None:
            raise RuntimeError(f"{name}: listed in BENCHMARK.json but not measured")
        if sample.unit != unit:
            raise RuntimeError(f"{name}: measured in {sample.unit!r}, BENCHMARK.json says {unit!r}")
        print(f"  {name:<40} {sample.value:>14.6g} {unit:<8} n={sample.samples}")
        metrics[name] = {"value": sample.value, "unit": unit}
    if args.trace:
        # layers only some workloads have: printed here, kept out of the result
        print("layer figures of this workload only (not in BENCHMARK.json):")
        for name, sample in measured.items():
            if name not in metrics:
                print(f"  {name:<40} {sample.value:>14.6g} {sample.unit:<8} n={sample.samples}")
        for name, reason in workload.absent.items():
            print(f"  {name:<40} absent: {reason}")
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
