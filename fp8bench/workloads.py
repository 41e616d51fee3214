"""The three workloads: set-up, measured rounds and correctness checks.

Each workload builds its fp32 model from seeded weights, quantizes it with a
static E4M3 recipe, writes a packed checkpoint, starts a ``ServingEngine``
from the mmap'd checkpoint and warms it; that whole path is ``setup_s``,
repeated ``SETUP_REPEATS`` times per run (median reported).

The measured phases run in ``ROUNDS`` rounds, and the rounds of the two
phases of a workload alternate (capacity, paced, capacity, paced, ...), so
every metric samples the whole run rather than one stretch of it.  Only
the rounds the hypervisor disturbed least count: throughput is their
completed requests over their elapsed time, and each latency percentile
the median of its per-round values, so a host slow spell over a minority
of rounds moves it little.

Offered rates, closed-loop concurrency and request counts are constants
here (see NOTES.md), never derived from a run's own capacity.  Phase sizes
scale with ``--seconds`` only.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from typing import Dict, List

import numpy as np

import layers
import models
from loadgen import StreamProbe, closed_loop, open_loop
from repro.autograd.tensor import Tensor, no_grad
from repro.quantization import Approach, quantize_model, standard_recipe
from repro.serialization import save_quantized
from repro.serving import GenerationRequest, ServingEngine
from stats import (
    Sample,
    due_latencies,
    least_disturbed,
    median,
    pss_mb,
    summarize,
    summarize_rounds,
    supports,
)
from tracing import OFF

RECIPE = standard_recipe("E4M3", approach=Approach.STATIC)
SETUP_REPEATS = 9
#: rounds of each measured phase
ROUNDS = 7
#: share of ``--seconds`` spent in closed-loop or offline rounds (the rest is paced)
CAPACITY_SHARE = 0.4
#: admission window of every one-shot engine
MAX_WAIT_MS = 2.0
#: sequences per fp32 forward when scoring generation agreement
AGREEMENT_BATCH = 32


class Failure(RuntimeError):
    """A correctness check failed: the run prints no result and exits non-zero."""


class Workload:
    """Shared set-up and bookkeeping; subclasses define engine, traffic and checks."""

    name = ""
    factory = None
    prepare = staticmethod(lambda batch: Tensor(batch))

    def __init__(self, seed: int, seconds: float, workdir: str, tracer) -> None:
        self.seconds = float(seconds)
        self.workdir = workdir
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.metrics: Dict[str, Sample] = {}
        self.layer: Dict[str, Sample] = {}
        #: why a layer figure some other workload reports is not measured here
        self.absent: Dict[str, str] = {}
        self.phases: List[str] = []
        #: (traced, completed, elapsed s, steal share) of each capacity or offline round
        self.rates: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.engines: List[ServingEngine] = []
        self.fp32 = None
        self.checkpoint = None
        self.calibration = self.make_calibration()

    # -- hooks --------------------------------------------------------
    def make_calibration(self) -> list:
        raise NotImplementedError

    def start_engine(self, path: str) -> ServingEngine:
        raise NotImplementedError

    def warm(self, engine: ServingEngine) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def probe_layers(self) -> None:
        raise NotImplementedError

    # -- set-up ---------------------------------------------------------
    def cold_start(self, index: int) -> float:
        """fp32 build -> quantize -> save -> engine from mmap -> first forwards."""
        span = self.tracer.span
        path = os.path.join(self.workdir, f"{self.name}-{index}.rpq")
        start = time.perf_counter()
        with span("models.build_fp32"):
            fp32 = type(self).factory()
        with span("quantization.quantize_model"):
            quantized = quantize_model(
                fp32, RECIPE, calibration_data=self.calibration, prepare_inputs=self.prepare
            ).model
        with span("serialization.save_quantized"):
            save_quantized(quantized, path, recipe=RECIPE)
        with span("serving.engine_start"):
            engine = self.start_engine(path)
        self.engines.append(engine)
        with span("serving.first_forward"):
            self.warm(engine)
        elapsed = time.perf_counter() - start
        self.fp32, self.checkpoint = fp32, path
        return elapsed

    def setup(self) -> None:
        times = []
        for index in range(SETUP_REPEATS):
            self.close_engines()
            gc.collect()
            times.append(self.cold_start(index))
        self.metrics["setup_s"] = Sample(median(times), "s", len(times))
        self.phases.append("setup cold starts (s): " + " ".join(f"{t:.4f}" for t in times))

    def fresh_engine(self) -> ServingEngine:
        """Another warmed engine on the same checkpoint (not part of set-up)."""
        engine = self.start_engine(self.checkpoint)
        self.engines.append(engine)
        self.warm(engine)
        return engine

    def close_engines(self) -> None:
        while self.engines:
            self.engines.pop().close(timeout=30.0)

    def run(self) -> None:
        self.setup()
        gc.collect()
        self.measure()
        if self.tracer.enabled:
            gc.collect()
            self.probe_layers()

    # -- helpers ----------------------------------------------------------
    def note_phase(self, phase) -> None:
        self.attempted += phase.sent
        self.failed += phase.failed
        self.phases.append(phase.account())

    def note_rate(self, phase, traced: bool) -> float:
        """Record a capacity or offline round's completions per second, and return it."""
        elapsed = phase.finished - phase.started
        self.rates.append((traced, phase.succeeded, elapsed, phase.steal))
        self.phases[-1] += f" rate {phase.succeeded / elapsed:.2f} req/s"
        return elapsed

    def round_tracer(self, index: int):
        """In the traced run, even rounds run untraced: the gap is the tracing overhead."""
        return self.tracer if index % 2 == 1 else OFF

    def round_rates(self, traced: bool) -> List[float]:
        return [count / elapsed for flag, count, elapsed, _ in self.rates if flag == traced]

    def report_rounds(self, paced_rounds: list) -> None:
        """``throughput_rps`` from the capacity/offline rounds, latencies from the paced ones.

        Throughput is the requests completed over the time taken, and each
        latency percentile the median of its per-round values, over the
        rounds the hypervisor disturbed least (``stats.least_disturbed``).
        """
        kept = least_disturbed([steal for *_, steal in self.rates])
        completed = sum(self.rates[i][1] for i in kept)
        elapsed = sum(self.rates[i][2] for i in kept)
        self.metrics["throughput_rps"] = Sample(completed / elapsed, "req/s", completed)
        self.phases.append(f"throughput_rps from rounds {kept}")
        latencies = [due_latencies(p.due, p.done) for p in paced_rounds]
        for q in (50, 90):
            kept = least_disturbed(
                [p.steal for p in paced_rounds],
                lambda rounds: supports(sum(len(latencies[i]) for i in rounds), q),
            )
            name = f"latency_p{q}_ms"
            self.metrics[name] = summarize_rounds([latencies[i] for i in kept], q, "ms", 1e3)
            self.phases.append(f"{name} from rounds {kept}")
        self.note_lateness(paced_rounds)

    def note_lateness(self, phases: list) -> None:
        """How late the open-loop generator sent its requests (a diagnostic)."""
        late = [sent - due for p in phases for due, sent in zip(p.due, p.sent_at)]
        if supports(len(late), 90):
            self.layer["loadgen.late_p90_ms"] = summarize(late, 90, "ms", 1e3)
        else:
            self.absent["loadgen.late_p90_ms"] = f"{len(late)} open-loop requests are too few"

    def pss(self, engine: ServingEngine) -> Sample:
        """PSS of this process plus the engine's worker processes."""
        pids = [os.getpid()]
        for worker in engine.stats.get("process_workers", []):
            if worker["alive"] and worker["pid"] is not None:
                pids.append(worker["pid"])
        return Sample(pss_mb(pids), "MB", len(pids))


# ----------------------------------------------------------------------
# one-shot workloads
# ----------------------------------------------------------------------
class OneShot(Workload):
    """Closed-loop capacity rounds alternating with open-loop paced rounds.

    Capacity and paced rounds run on two engines over the same checkpoint,
    so the paced engine's ``stats`` windows hold paced traffic only.
    """

    #: ``serving_mode``/``prefetch`` of the served replica
    serving: dict
    #: the compatibility keys of the traffic (sequence lengths, feature widths)
    keys: tuple
    activation_shape: tuple
    max_batch: int
    concurrency: int
    #: nominal capacity, only used to size the closed-loop rounds
    nominal_rps: float
    offered_rps: float
    agreement_requests: int

    def requests(self, count: int) -> list:
        raise NotImplementedError

    def requests_of_key(self, count: int, key) -> list:
        raise NotImplementedError

    def measure(self) -> None:
        capacity_engine = self.engines[-1]
        paced_engine = self.fresh_engine()
        per_round = max(1, int(self.nominal_rps * CAPACITY_SHARE * self.seconds / ROUNDS))
        paced_per_round = int(self.offered_rps * (1.0 - CAPACITY_SHARE) * self.seconds / ROUNDS)
        before = capacity_engine.stats
        paced_rounds = []
        for index in range(ROUNDS):
            gc.collect()
            tracer = self.round_tracer(index)
            inputs = self.requests(per_round)
            with tracer.span("phase.capacity"):
                phase = closed_loop(
                    f"capacity-{index}", capacity_engine.submit, inputs, self.concurrency, tracer
                )
            self.note_phase(phase)
            self.note_rate(phase, tracer.enabled)
            if index == ROUNDS - 1:
                # the last paced round then runs with one engine alive, for PSS
                self.capacity_stats = _delta(before, capacity_engine.stats)
                self.engines.remove(capacity_engine)
                capacity_engine.close(timeout=30.0)
            gc.collect()
            inputs = self.requests(paced_per_round)
            with self.tracer.span("phase.paced"):
                paced = open_loop(
                    f"paced-{index}", paced_engine.submit, inputs, self.offered_rps, self.tracer
                )
            self.note_phase(paced)
            paced_rounds.append(paced)
        self.metrics["mem_pss_mb"] = self.pss(paced_engine)
        self.paced_stats = paced_engine.stats
        self.report_rounds(paced_rounds)
        gc.collect()
        self.check_outputs(paced_engine)

    # -- correctness ------------------------------------------------------
    def burst(self, engine: ServingEngine, samples: list) -> np.ndarray:
        """Serve ``samples`` (one compat key) as exactly one engine batch."""
        for _attempt in range(10):
            before = engine.stats["batches"]
            futures = [engine.submit(sample) for sample in samples]
            outputs = [future.result(timeout=60.0) for future in futures]
            self.attempted += len(samples)
            if engine.stats["batches"] - before == 1:
                return np.stack(outputs)
        raise Failure(f"{self.name}: a burst of {len(samples)} never formed one batch")

    def check_outputs(self, engine: ServingEngine) -> None:
        """Bit-exact served batches vs direct calls, and top-1 agreement vs fp32.

        Outputs are served in bursts that form exactly one batch each, so the
        served rows are a deterministic function of the seed.
        """
        groups: Dict[tuple, list] = {}
        for sample in self.requests(self.agreement_requests):
            groups.setdefault(sample.shape, []).append(sample)
        matches = total = 0
        for _shape, members in sorted(groups.items()):
            for start in range(0, len(members), self.max_batch):
                chunk = members[start : start + self.max_batch]
                with self.tracer.span("check.burst"):
                    served = self.burst(engine, chunk)
                stacked = Tensor(np.stack(chunk))
                with no_grad():
                    if start == 0 and not np.array_equal(served, engine.model(stacked).data):
                        raise Failure(
                            f"{self.name}: a served batch of shape {stacked.shape} differs "
                            "from a direct call of the served model"
                        )
                    reference = self.fp32(stacked).data
                matches += int(np.sum(np.argmax(served, axis=1) == np.argmax(reference, axis=1)))
                total += len(chunk)
        self.phases.append(f"check: {total} outputs, {len(groups)} batches bit-exact")
        self.metrics["agreement"] = Sample(matches / total, "share", total)

    # -- per-layer probes --------------------------------------------------
    def probe_layers(self) -> None:
        capacity, paced = self.capacity_stats, self.paced_stats
        layer = self.layer
        for q in ("p50", "p95"):
            layer[f"serving.queue_wait_{q}_ms"] = Sample(
                paced[f"queue_wait_{q}_ms"], "ms", paced["requests"]
            )
        layer["serving.forward_p50_ms"] = Sample(
            capacity["forward_p50_ms"], "ms", capacity["batches"]
        )
        layer["serving.mean_batch"] = Sample(capacity["mean_batch"], "rows", capacity["batches"])
        factory = type(self).factory
        served = layers.load_served(self.checkpoint, factory, self.serving, self.tracer)
        # one batch per compatibility key at the mean engine batch size, so
        # the pooled median compares with the engine's forward_p50_ms
        rows = max(1, int(round(capacity["mean_batch"])))
        batches = [np.stack(self.requests_of_key(rows, key)) for key in self.keys]
        fp32_ms, fp8_ms = layers.forward_pair(self.fp32, served, batches, self.tracer)
        layer["models.forward_fp32_ms"] = fp32_ms
        layer["models.forward_fp8_ms"] = fp8_ms
        layer["quantization.fp8_over_fp32"] = Sample(
            fp8_ms.value / fp32_ms.value, "x", fp8_ms.samples
        )
        layer["serving.ipc_overhead_ms"] = Sample(
            capacity["forward_p50_ms"] - fp8_ms.value, "ms", capacity["batches"]
        )
        batch = np.stack(self.requests_of_key(self.max_batch, self.keys[0]))
        graph, absent = layers.graph_probe(
            self.checkpoint, factory, self.serving, batch, self.tracer
        )
        layer.update(graph)
        self.absent.update(absent)
        layer.update(layers.decode_probe(served, self.tracer))
        layer.update(layers.qdq_probe(self.activation_shape, self.tracer))
        layer.update(layers.checkpoint_probe(self.checkpoint, factory, self.tracer))
        layer["quantization.resident_mb"] = layers.resident(served)
        for name in GENERATION_ONLY:
            self.absent[name] = "one-shot traffic never reaches the generation tier"


class Encoder(OneShot):
    """BERT-style classifier, static E4M3, cached weights, one thread worker.

    Stresses eager ``nn`` dispatch, activation Q/DQ in the quantization
    wrappers and length-bucketed batching (each sequence length is its own
    compatibility key).  Bypass case for plan replay: every transformer
    trace aborts in ``repro.graph``, and cached weights are never decoded per
    forward.
    """

    name = "encoder-e4m3"
    factory = staticmethod(models.make_encoder)
    serving = {"serving_mode": "cached", "prefetch": None}
    keys = models.ENCODER_LENGTHS
    #: (batch x median length) token rows by embedding width
    activation_shape = (8 * 32, 64)
    max_batch = 8
    concurrency = 32
    nominal_rps = 300.0
    offered_rps = 50.0
    agreement_requests = 1280

    def make_calibration(self) -> list:
        return models.encoder_calibration(self.rng)

    def start_engine(self, path: str) -> ServingEngine:
        return ServingEngine.from_checkpoint(
            path,
            models.make_encoder,
            workers=1,
            worker_mode="thread",
            max_batch_size=self.max_batch,
            max_wait_ms=MAX_WAIT_MS,
            **self.serving,
        )

    def warm(self, engine: ServingEngine) -> None:
        for length in models.ENCODER_LENGTHS:
            engine.submit(np.zeros(length, dtype=np.int64)).result(timeout=60.0)

    def requests(self, count: int) -> list:
        return models.encoder_requests(self.rng, count)

    def requests_of_key(self, count: int, length: int) -> list:
        return [self.rng.integers(0, models.ENCODER_VOCAB, length) for _ in range(count)]


class MlpStreamProc(OneShot):
    """The ``bench_serving_path`` MLP, streaming weights, one worker process.

    Stresses FP8 weight decode on every forward, plan replay, first-touch
    CRC checks of the mmap'd checkpoint and the IPC round trip: the same
    engine as ``encoder-e4m3`` but through the process-worker protocol.
    """

    name = "mlp-stream-proc"
    factory = staticmethod(models.make_mlp)
    serving = {"serving_mode": "streaming", "prefetch": "pipeline"}
    keys = (models.MLP_IN,)
    activation_shape = (16, 1024)
    max_batch = 16
    concurrency = 32
    nominal_rps = 900.0
    #: a forward costs about the same at any batch size (the weight decode
    #: dominates), so the paced rate keeps the worker idle most of the time
    offered_rps = 20.0
    agreement_requests = 1280

    def make_calibration(self) -> list:
        return models.mlp_calibration(self.rng)

    def start_engine(self, path: str) -> ServingEngine:
        engine = ServingEngine.from_checkpoint(
            path,
            models.make_mlp,
            workers=1,
            worker_mode="process",
            max_batch_size=self.max_batch,
            max_wait_ms=MAX_WAIT_MS,
            **self.serving,
        )
        deadline = time.monotonic() + 60.0
        while not all(w["ready"] for w in engine.stats["process_workers"]):
            if engine.state != "serving" or time.monotonic() > deadline:
                engine.close(timeout=10.0)
                raise Failure(f"{self.name}: worker process never became ready")
            time.sleep(0.002)
        return engine

    def warm(self, engine: ServingEngine) -> None:
        engine.submit(np.zeros(models.MLP_IN, dtype=np.float32)).result(timeout=60.0)

    def requests(self, count: int) -> list:
        return models.mlp_requests(self.rng, count)

    def requests_of_key(self, count: int, _width: int) -> list:
        return self.requests(count)


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
#: layer figures only the generation workload has (printed, not in BENCHMARK.json)
GENERATION_ONLY = (
    "serving.generation.ttft_p50_ms",
    "serving.generation.ttft_p90_ms",
    "serving.generation.itl_p50_ms",
    "serving.generation.itl_p90_ms",
    "models.prefill_ms",
    "serving.generation.preempted",
    "serving.generation.kv_bytes_per_token",
)
_NO_PLAN = "generate() runs forward_step, which plan dispatch never sees"
_NO_SCHEDULER = "generate() bypasses the one-shot scheduler"
#: layer figures only the one-shot workloads have (printed, not in BENCHMARK.json)
ONE_SHOT_ONLY = {
    "graph.compile_s": _NO_PLAN,
    "graph.replay_ms": _NO_PLAN,
    "graph.eager_ms": _NO_PLAN,
    "graph.trace_aborts": _NO_PLAN,
    "serving.queue_wait_p50_ms": _NO_SCHEDULER,
    "serving.queue_wait_p95_ms": _NO_SCHEDULER,
}


class TextGen(Workload):
    """GPT-style LM, static E4M3 weights and an E4M3 KV cache, via ``engine.generate``.

    Prompt and output lengths vary and no EOS token is used, so the work per
    request is fixed.  Stresses the token scheduler and decode-state pool,
    ``forward_step`` prefill vs decode, and FP8 KV encode/decode.  Bypass
    case: the one-shot scheduler and weight streaming are idle.

    Offline rounds (every request submitted at once), paced rounds
    (open-loop requests at a fixed rate) and probe rounds alternate.  In a
    probe round one thread runs closed-loop token streams while open-loop
    background requests arrive at the same fixed rate; the latency metrics
    come from the paced rounds only, so the probe's own load and its
    thread's wake-ups on every token stay out of them.
    """

    name = "textgen-fp8kv"
    factory = staticmethod(models.make_lm)
    prepare = staticmethod(models.identity)
    serving = {"serving_mode": "cached", "prefetch": None}
    kv_cache = "E4M3"
    decode_slots = 16
    #: nominal offline rate, only used to size the offline rounds
    nominal_tok_s = 1000.0
    #: low enough that paced requests seldom overlap, so their latency is
    #: the service time rather than a queue that grows on a slow host
    offered_rps = 10.0
    #: share of ``--seconds`` spent in probe rounds (the paced rounds get the rest)
    probe_share = 0.15
    #: probe streams are short so each round yields enough first tokens
    probe_new_tokens = (2, 4)
    agreement_sequences = 96
    bit_exact_sequences = 4

    def make_calibration(self) -> list:
        return models.lm_calibration(self.rng)

    def start_engine(self, path: str) -> ServingEngine:
        return ServingEngine.from_checkpoint(
            path, models.make_lm, workers=1, decode_slots=self.decode_slots, **self.serving
        )

    def warm(self, engine: ServingEngine) -> None:
        request = GenerationRequest(max_new_tokens=2, kv_cache=self.kv_cache)
        engine.generate(np.arange(8, dtype=np.int64), request).result(timeout=60.0)

    def measure(self) -> None:
        engine = self.engines[-1]

        def submit(item):
            prompt, new_tokens = item
            request = GenerationRequest(max_new_tokens=new_tokens, kv_cache=self.kv_cache)
            return engine.generate(prompt, request)

        def start_stream(prompt, new_tokens):
            request = GenerationRequest(
                max_new_tokens=new_tokens, kv_cache=self.kv_cache, stream=True
            )
            return engine.generate(prompt, request)

        mean_new = sum(models.LM_NEW_TOKENS) / 2.0
        per_round = max(
            1, int(self.nominal_tok_s * CAPACITY_SHARE * self.seconds / ROUNDS / mean_new)
        )
        probe_seconds = self.probe_share * self.seconds / ROUNDS
        paced_seconds = (1.0 - CAPACITY_SHARE - self.probe_share) * self.seconds / ROUNDS
        low, high = self.probe_new_tokens
        offline = _GenerationTally()
        online = _GenerationTally()
        paced_rounds, ttft, itl = [], [], []
        for index in range(ROUNDS):
            gc.collect()
            tracer = self.round_tracer(index)
            items = models.lm_requests(self.rng, per_round)
            with offline.counting(engine), tracer.span("phase.offline"):
                phase = closed_loop(f"offline-{index}", submit, items, len(items), tracer)
            self.note_phase(phase)
            elapsed = self.note_rate(phase, tracer.enabled)
            tokens = sum(
                len(out) - len(prompt)
                for (prompt, _), out in zip(items, phase.outputs)
                if out is not None
            )
            self.phases[-1] += f" ({tokens / elapsed:.1f} tokens/s)"

            gc.collect()
            loads = models.lm_requests(self.rng, int(self.offered_rps * paced_seconds))
            with online.counting(engine), self.tracer.span("phase.paced"):
                paced = open_loop(f"paced-{index}", submit, loads, self.offered_rps, self.tracer)
            self.note_phase(paced)
            paced_rounds.append(paced)

            gc.collect()
            probe_items = [
                (prompt, int(self.rng.integers(low, high + 1)))
                for prompt, _ in models.lm_requests(self.rng, 512)
            ]
            loads = models.lm_requests(self.rng, int(self.offered_rps * probe_seconds))
            with online.counting(engine), self.tracer.span("phase.probe"):
                probe = StreamProbe(f"probe-{index}", start_stream, probe_items, self.tracer)
                probe.start()
                try:
                    loaded = open_loop(
                        f"background-{index}", submit, loads, self.offered_rps, self.tracer
                    )
                finally:
                    probe.stop()
            self.note_phase(loaded)
            self.attempted += probe.streams + probe.failed
            self.failed += probe.failed
            self.phases.append(
                f"phase probe-{index}: sent {probe.streams + probe.failed} "
                f"succeeded {probe.streams} failed {probe.failed}"
            )
            ttft += probe.ttft
            itl += probe.itl
        self.metrics["mem_pss_mb"] = self.pss(engine)
        self.offline_stats, self.online_stats = offline.totals, online.totals
        self.generation_stats = engine.stats["generation"]
        self.report_rounds(paced_rounds)
        # layer figures, not end-to-end: on the shared host these moved up to
        # 38% between runs (NOTES.md), beyond any bound the benchmark may set
        for name, times in (("ttft", ttft), ("itl", itl)):
            for q in (50, 90):
                figure = f"serving.generation.{name}_p{q}_ms"
                if supports(len(times), q):
                    self.layer[figure] = summarize(times, q, "ms", 1e3)
                else:
                    self.absent[figure] = f"{len(times)} probe samples are too few for p{q}"
        gc.collect()
        self.check_outputs(engine, submit)

    def check_outputs(self, engine: ServingEngine, submit) -> None:
        """Lone served sequences vs solo ``generate``, and fp32 greedy choice per position.

        The check requests are served one at a time: a lone request runs the
        same ``forward_step`` calls as a solo ``generate()``, so its tokens
        are fixed by the seed.  Co-batched FP8-KV sequences are not (see
        NOTES.md).  Agreement is teacher-forced: at each generated position
        the fp32 model sees the served prefix, and its greedy token is
        compared with the served token, so one early divergence does not
        decide the rest of the sequence.
        """
        served = []
        for item in models.lm_requests(self.rng, self.agreement_sequences):
            with self.tracer.span("check.generate"):
                served.append((item, submit(item).result(timeout=60.0)))
        self.attempted += len(served)
        for (prompt, new_tokens), out in served[: self.bit_exact_sequences]:
            solo = engine.model.generate(prompt, max_new_tokens=new_tokens, kv_cache=self.kv_cache)
            if not np.array_equal(out, solo):
                raise Failure(f"{self.name}: a lone served sequence differs from solo generate()")
        matches = total = 0
        # the model is causal, so padding after a sequence leaves its logits alone
        for chunk in range(0, len(served), AGREEMENT_BATCH):
            batch = served[chunk : chunk + AGREEMENT_BATCH]
            width = max(len(out) for _, out in batch) - 1
            tokens = np.zeros((len(batch), width), dtype=np.int64)
            for row, (_, out) in enumerate(batch):
                tokens[row, : len(out) - 1] = out[:-1]
            with no_grad():
                greedy = np.argmax(self.fp32(tokens).data, axis=-1)
            for row, ((prompt, _), out) in enumerate(batch):
                generated = out[len(prompt) :]
                matches += int(np.sum(greedy[row, len(prompt) - 1 : len(out) - 1] == generated))
                total += len(generated)
        self.phases.append(
            f"check: {len(served)} lone sequences, {self.bit_exact_sequences} bit-exact, "
            f"{total} positions compared"
        )
        self.metrics["agreement"] = Sample(matches / total, "share", total)

    def probe_layers(self) -> None:
        offline, online = self.offline_stats, self.online_stats
        layer = self.layer
        # the engine's batched forward is one forward_step per tick, one row per sequence
        ticks = sum(t["prefill_steps"] + t["decode_steps"] for t in (offline, online))
        tokens = offline["generated_tokens"] + online["generated_tokens"]
        layer["serving.mean_batch"] = Sample(tokens / ticks, "rows", ticks)
        layer["serving.forward_p50_ms"] = Sample(
            self.generation_stats["decode_p50_ms"], "ms", self.generation_stats["decode_steps"]
        )
        layer["serving.generation.preempted"] = Sample(
            offline["preemptions"] + online["preemptions"],
            "count",
            offline["sequences"] + online["sequences"],
        )
        lm = layers.load_served(self.checkpoint, models.make_lm, self.serving, self.tracer)
        state = lm.new_decode_state(1, storage=self.kv_cache)
        layer["serving.generation.kv_bytes_per_token"] = Sample(
            state.row_nbytes / lm.max_seq_len, "B", 1
        )
        # direct decode steps at the engine's mean batch: fp32 with a float32
        # KV cache against the served model with the served KV format
        rows = max(1, int(round(tokens / ticks)))
        prompt_len = sum(models.LM_PROMPT_LENGTHS) // 2
        _, fp32_ms = layers.step_probe(self.fp32, rows, prompt_len, "float32", self.tracer, "fp32")
        prefill_ms, fp8_ms = layers.step_probe(
            lm, rows, prompt_len, self.kv_cache, self.tracer, "fp8"
        )
        layer["models.prefill_ms"] = prefill_ms
        layer["models.forward_fp32_ms"] = fp32_ms
        layer["models.forward_fp8_ms"] = fp8_ms
        layer["quantization.fp8_over_fp32"] = Sample(
            fp8_ms.value / fp32_ms.value, "x", fp8_ms.samples
        )
        layer["serving.ipc_overhead_ms"] = Sample(
            layer["serving.forward_p50_ms"].value - fp8_ms.value,
            "ms",
            self.generation_stats["decode_steps"],
        )
        layer.update(layers.decode_probe(lm, self.tracer))
        layer.update(layers.qdq_probe((self.decode_slots, 64), self.tracer))
        layer.update(layers.checkpoint_probe(self.checkpoint, models.make_lm, self.tracer))
        layer["quantization.resident_mb"] = layers.resident(lm)
        self.absent.update(ONE_SHOT_ONLY)


class _GenerationTally:
    """``engine.stats["generation"]`` counters summed over the rounds of one phase."""

    KEYS = ("sequences", "generated_tokens", "prefill_steps", "decode_steps", "preemptions")

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.KEYS, 0)

    @contextmanager
    def counting(self, engine: ServingEngine):
        before = engine.stats["generation"]
        yield
        after = engine.stats["generation"]
        for key in self.KEYS:
            self.totals[key] += after[key] - before[key]


def _delta(before: dict, after: dict) -> dict:
    """Engine counters accumulated between two ``stats`` snapshots (percentiles as of ``after``)."""
    out = dict(after)
    for key in ("batches", "batched_requests", "requests"):
        out[key] = after[key] - before[key]
    out["mean_batch"] = out["batched_requests"] / out["batches"] if out["batches"] else 0.0
    return out


WORKLOADS = {w.name: w for w in (Encoder, MlpStreamProc, TextGen)}
