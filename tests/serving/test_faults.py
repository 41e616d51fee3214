"""Fault injection and the resilience layer it exercises.

Every recovery path gets its failure *injected* at a named site: worker
crashes mid-forward (supervision + restart + retry), transient forward
errors (retry absorbs, or the original exception lands on the future), hung
forwards (heartbeat abandonment), queue overload (fast-fail and priority
shedding), drain/close lifecycle, generation tick-thread death, and prefetch
error chaining.  The acceptance bar throughout: under any injected fault,
every submitted request either completes (bit-identical to the uncrashed
run) or fails with a typed :class:`~repro.serving.errors.ServingError` —
zero hung futures or streams.
"""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd.tensor import Tensor, no_grad
from repro.models.transformer import GPTStyleLM
from repro.serving import (
    EngineClosed,
    EngineDraining,
    FaultInjector,
    FaultSpec,
    GenerationRequest,
    InjectedCrash,
    InjectedError,
    PrefetchError,
    QueueFull,
    RequestShed,
    ServingEngine,
    ServingError,
    SubmitOptions,
    WorkerCrashed,
    injected,
)
from repro.serving import faults as faults_mod
from repro.quantization import Approach, quantize_model, set_serving_mode, standard_recipe


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """No test may leave a process-wide injector behind."""
    yield
    faults_mod.uninstall()
    assert faults_mod.active_injector() is None


class Affine(nn.module.Module):
    """Deterministic elementwise model: bit-identical across any batching."""

    def forward(self, x):
        return Tensor(np.asarray(x.data) * 2.0 + 1.0)


class Gate(nn.module.Module):
    """Forward blocks until released — makes queue buildup deterministic."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Event()

    def forward(self, x):
        self.entered.set()
        assert self.release.wait(timeout=10), "Gate never released"
        return Tensor(np.asarray(x.data) * 1.0)


def _samples(count, shape=(6,), seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 1, shape).astype(np.float32) for _ in range(count)]


def small_lm(seed=0, max_seq_len=64):
    model = GPTStyleLM(
        vocab_size=32, max_seq_len=max_seq_len, embed_dim=32, num_heads=4, num_layers=2, rng=seed
    )
    return model.eval()


class TestFaultInjector:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="meltdown")
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="crash", probability=1.5)
        with pytest.raises(ValueError, match="max_fires"):
            FaultSpec(kind="crash", max_fires=0)
        with pytest.raises(TypeError, match="FaultSpec"):
            FaultInjector({"site": ["crash"]})

    def test_on_calls_is_deterministic(self):
        injector = FaultInjector({"site": FaultSpec(kind="error", on_calls={2, 4})})
        outcomes = []
        for _ in range(5):
            try:
                injector.fire("site")
                outcomes.append("ok")
            except InjectedError:
                outcomes.append("boom")
        assert outcomes == ["ok", "boom", "ok", "boom", "ok"]
        assert injector.calls["site"] == 5
        assert injector.fired["site"] == 2

    def test_max_fires_caps_the_fault(self):
        injector = FaultInjector({"site": FaultSpec(kind="error", max_fires=1)})
        with pytest.raises(InjectedError):
            injector.fire("site")
        injector.fire("site")  # spent — no longer raises
        assert injector.fired["site"] == 1

    def test_probability_is_seed_reproducible(self):
        def run(seed):
            injector = FaultInjector({"site": FaultSpec(kind="error", probability=0.5)}, seed=seed)
            hits = []
            for call in range(20):
                try:
                    injector.fire("site")
                except InjectedError:
                    hits.append(call)
            return hits

        assert run(7) == run(7)
        assert run(7) != run(8)  # astronomically unlikely to collide

    def test_crash_passes_through_except_exception(self):
        injector = FaultInjector({"site": FaultSpec(kind="crash")})
        with pytest.raises(InjectedCrash):
            try:
                injector.fire("site")
            except Exception:  # noqa: BLE001 — the point: crashes must escape this
                pytest.fail("InjectedCrash was absorbed by an `except Exception`")

    def test_corrupt_flips_exactly_one_byte(self):
        injector = FaultInjector({"site": FaultSpec(kind="corrupt")})
        buffer = bytearray(b"\x00" * 64)
        injector.fire("site", buffer=buffer)
        assert sum(1 for b in buffer if b != 0) == 1
        assert max(buffer) == 0xFF

    def test_slow_sleeps(self):
        injector = FaultInjector({"site": FaultSpec(kind="slow", delay_s=0.05)})
        start = time.monotonic()
        injector.fire("site")
        assert time.monotonic() - start >= 0.04

    def test_scoped_install(self):
        assert faults_mod.active_injector() is None
        with injected({"site": FaultSpec(kind="error")}) as injector:
            assert faults_mod.active_injector() is injector
            with pytest.raises(InjectedError):
                faults_mod.fire("site")
        assert faults_mod.active_injector() is None
        faults_mod.fire("site")  # uninstalled: free no-op

    def test_retry_options_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            SubmitOptions(max_retries=-1).validated()
        with pytest.raises(ValueError, match="retry_backoff_ms"):
            SubmitOptions(retry_backoff_ms=-1.0).validated()


class TestWorkerCrashRecovery:
    def test_crash_with_retries_completes_bit_identical(self):
        """The acceptance bar: a crash mid-forward is invisible to callers."""
        samples = _samples(6)
        with ServingEngine(Affine(), max_batch_size=4, max_wait_ms=5) as clean:
            expected = clean.serve_batch(samples, timeout=10)
        options = SubmitOptions(max_retries=2, retry_backoff_ms=5.0)
        with injected(
            {"engine.forward": FaultSpec(kind="crash", on_calls={1}, max_fires=1)}
        ) as injector:
            with ServingEngine(
                Affine(), max_batch_size=4, max_wait_ms=5, supervision_interval_ms=5
            ) as engine:
                outputs = engine.serve_batch(samples, options, timeout=20)
                stats = engine.stats
        assert injector.fired["engine.forward"] == 1
        for out, exp in zip(outputs, expected):
            np.testing.assert_array_equal(out, exp)
        assert stats["worker_crashes"] >= 1
        assert stats["worker_restarts"] >= 1
        assert stats["retried_requests"] >= 1
        assert stats["failed_requests"] == 0

    def test_crash_without_retries_fails_typed_and_fast(self):
        with injected({"engine.forward": FaultSpec(kind="crash", max_fires=1)}):
            with ServingEngine(
                Affine(), max_batch_size=2, max_wait_ms=2, supervision_interval_ms=5
            ) as engine:
                future = engine.submit(_samples(1)[0])
                with pytest.raises(WorkerCrashed, match="died mid-forward") as info:
                    future.result(timeout=10)
                assert isinstance(info.value.__cause__, InjectedCrash)
                assert isinstance(info.value, ServingError)
                # the restarted worker keeps serving (the fault is spent)
                out = engine.serve(np.ones(6, dtype=np.float32), timeout=10)
                np.testing.assert_array_equal(out, np.full(6, 3.0, dtype=np.float32))
                assert engine.stats["worker_crashes"] == 1
                assert engine.alive_workers == 1

    def test_transient_error_absorbed_by_retry(self):
        sample = _samples(1)[0]
        with injected({"engine.forward": FaultSpec(kind="error", on_calls={1}, max_fires=1)}):
            with ServingEngine(Affine(), max_wait_ms=2) as engine:
                out = engine.serve(
                    sample, SubmitOptions(max_retries=1, retry_backoff_ms=5.0), timeout=10
                )
                stats = engine.stats
        np.testing.assert_array_equal(out, sample * 2.0 + 1.0)
        assert stats["retried_requests"] == 1
        assert stats["failed_requests"] == 0
        assert stats["worker_crashes"] == 0  # an error is not a death

    def test_transient_error_without_retries_delivers_original_exception(self):
        with injected({"engine.forward": FaultSpec(kind="error", max_fires=1)}):
            with ServingEngine(Affine(), max_wait_ms=2) as engine:
                future = engine.submit(_samples(1)[0])
                with pytest.raises(InjectedError, match="injected transient error"):
                    future.result(timeout=10)

    def test_retry_budget_exhaustion_fails_with_worker_crashed(self):
        # the fault always fires: two retries burn down, then a typed failure
        with injected({"engine.forward": FaultSpec(kind="crash")}):
            with ServingEngine(
                Affine(), max_wait_ms=2, supervision_interval_ms=5
            ) as engine:
                future = engine.submit(
                    _samples(1)[0], SubmitOptions(max_retries=2, retry_backoff_ms=1.0)
                )
                with pytest.raises(WorkerCrashed):
                    future.result(timeout=15)
                assert engine.stats["retried_requests"] == 2

    def test_no_hung_futures_under_repeated_crashes(self):
        """Crash several groups across a burst: every future resolves, typed."""
        samples = _samples(10, shape=(4,))
        spec = FaultSpec(kind="crash", on_calls={1, 3}, max_fires=2)
        with injected({"engine.forward": spec}):
            with ServingEngine(
                Affine(),
                max_batch_size=2,
                max_wait_ms=2,
                workers=2,
                supervision_interval_ms=5,
            ) as engine:
                options = SubmitOptions(max_retries=3, retry_backoff_ms=2.0)
                futures = [engine.submit(s, options) for s in samples]
                for sample, future in zip(samples, futures):
                    out = future.result(timeout=20)  # nothing hangs
                    np.testing.assert_array_equal(out, sample * 2.0 + 1.0)

    def test_hung_worker_abandoned_and_replaced(self):
        spec = FaultSpec(kind="slow", delay_s=1.0, max_fires=1)
        with injected({"engine.forward": spec}):
            with ServingEngine(
                Affine(),
                max_wait_ms=2,
                hung_forward_timeout_ms=50,
                supervision_interval_ms=10,
            ) as engine:
                future = engine.submit(_samples(1)[0])
                with pytest.raises(WorkerCrashed, match="abandoned as hung"):
                    future.result(timeout=10)
                stats = engine.stats
                assert stats["hung_workers"] == 1
                # the replacement serves while the zombie is still sleeping
                out = engine.serve(np.zeros(3, dtype=np.float32), timeout=10)
                np.testing.assert_array_equal(out, np.ones(3, dtype=np.float32))

    def test_restart_disabled_close_does_not_hang(self):
        """Satellite: close() must not block forever on a dead worker mid-drain."""
        gate = Gate()
        with injected({"engine.forward": FaultSpec(kind="crash", on_calls={1}, max_fires=1)}):
            engine = ServingEngine(
                gate,
                max_batch_size=1,
                max_wait_ms=2,
                restart_crashed_workers=False,
                supervision_interval_ms=5,
            )
            crashed = engine.submit(_samples(1)[0])
            with pytest.raises(WorkerCrashed):
                crashed.result(timeout=10)
            assert engine.alive_workers == 0
            # queued behind a dead (unreplaced) worker: close must fail it, not hang
            stranded = engine.submit(_samples(1)[0])
            start = time.monotonic()
            engine.close(timeout=0.5)
            assert time.monotonic() - start < 5.0
            with pytest.raises(WorkerCrashed, match="engine closed before"):
                stranded.result(timeout=0)  # already resolved — no wait


class TestOverloadControl:
    def test_queue_full_fast_fail(self):
        gate = Gate()
        with ServingEngine(gate, max_batch_size=1, max_wait_ms=1, max_queue_depth=2) as engine:
            inflight = engine.submit(_samples(1)[0])
            assert gate.entered.wait(timeout=10)  # worker is busy, queue is empty
            queued = [engine.submit(s) for s in _samples(2, seed=2)]
            with pytest.raises(QueueFull, match="depth cap"):
                engine.submit(_samples(1, seed=3)[0])
            assert engine.stats["rejected_requests"] == 1
            gate.release.set()
            for future in [inflight, *queued]:
                future.result(timeout=10)
        assert engine.stats["shed_requests"] == 0

    def test_priority_shedding_evicts_lowest_class(self):
        gate = Gate()
        with ServingEngine(
            gate,
            max_batch_size=1,
            max_wait_ms=1,
            max_queue_depth=2,
            shed_policy="priority",
        ) as engine:
            inflight = engine.submit(_samples(1)[0])
            assert gate.entered.wait(timeout=10)
            low = [engine.submit(s, SubmitOptions(priority=0)) for s in _samples(2, seed=2)]
            vip = engine.submit(_samples(1, seed=3)[0], SubmitOptions(priority=5))
            gate.release.set()
            with pytest.raises(RequestShed, match="shed"):
                low[1].result(timeout=10)  # least urgent lowest-priority victim
            for future in (inflight, low[0], vip):
                future.result(timeout=10)
            stats = engine.stats
        assert stats["shed_requests"] == 1
        assert isinstance(RequestShed("x"), ServingError)

    def test_equal_priority_is_never_shed(self):
        gate = Gate()
        with ServingEngine(
            gate,
            max_batch_size=1,
            max_wait_ms=1,
            max_queue_depth=1,
            shed_policy="priority",
        ) as engine:
            inflight = engine.submit(_samples(1)[0])
            assert gate.entered.wait(timeout=10)
            queued = engine.submit(_samples(1, seed=2)[0], SubmitOptions(priority=1))
            with pytest.raises(QueueFull):  # same class: reject newcomer, keep victim
                engine.submit(_samples(1, seed=3)[0], SubmitOptions(priority=1))
            gate.release.set()
            inflight.result(timeout=10)
            queued.result(timeout=10)


class TestLifecycleStates:
    def test_drain_rejects_new_but_serves_queued(self):
        gate = Gate()
        with ServingEngine(gate, max_batch_size=1, max_wait_ms=1) as engine:
            assert engine.state == "serving"
            inflight = engine.submit(_samples(1)[0])
            assert gate.entered.wait(timeout=10)
            queued = engine.submit(_samples(1, seed=2)[0])
            engine.drain()
            assert engine.state == "draining"
            with pytest.raises(EngineDraining, match="draining"):
                engine.submit(_samples(1, seed=3)[0])
            gate.release.set()
            inflight.result(timeout=10)
            queued.result(timeout=10)
        assert engine.state == "closed"

    def test_drain_rejects_generation_too(self):
        model = small_lm()
        with ServingEngine(model, plan_cache=False) as engine:
            engine.drain()
            with pytest.raises(EngineDraining):
                engine.generate(np.array([1, 2]), GenerationRequest(max_new_tokens=2))

    def test_closed_submit_is_typed_and_matches_legacy_message(self):
        engine = ServingEngine(Affine(), max_wait_ms=1)
        engine.close()
        with pytest.raises(EngineClosed, match="closed"):
            engine.submit(_samples(1)[0])
        assert issubclass(EngineClosed, RuntimeError)  # legacy callers catch this


class TestErrorPathFutures:
    """Satellite: a forward error rejects exactly the affected group, typed."""

    class PoisonSensitive(nn.module.Module):
        def forward(self, x):
            data = np.asarray(x.data)
            if np.any(data > 100.0):
                raise ValueError("poison pill in batch")
            return Tensor(data * 1.0)

    def test_only_the_poisoned_group_fails(self):
        # different shapes never co-batch: the poison can only sink its own group
        poison = np.full((4,), 200.0, dtype=np.float32)
        healthy = _samples(3, shape=(8,))
        with ServingEngine(self.PoisonSensitive(), max_batch_size=4, max_wait_ms=20) as engine:
            bad = engine.submit(poison)
            good = [engine.submit(s) for s in healthy]
            with pytest.raises(ValueError, match="poison pill"):
                bad.result(timeout=10)
            for sample, future in zip(healthy, good):
                np.testing.assert_array_equal(future.result(timeout=10), sample)
            # the engine is still healthy after delivering the error
            out = engine.serve(np.zeros(5, dtype=np.float32), timeout=10)
            np.testing.assert_array_equal(out, np.zeros(5, dtype=np.float32))
            assert engine.stats["failed_requests"] == 1

    def test_failed_future_carries_original_traceback(self):
        with ServingEngine(self.PoisonSensitive(), max_wait_ms=1) as engine:
            future = engine.submit(np.full((4,), 200.0, dtype=np.float32))
            exc = future.exception(timeout=10)
        assert isinstance(exc, ValueError)
        assert exc.__traceback__ is not None


class TestGenerationFaults:
    def test_tick_crash_fails_future_typed_then_driver_recovers(self):
        model = small_lm()
        prompt = np.array([1, 2, 3])
        ref = model.generate(prompt, max_new_tokens=6)
        with injected({"generation.tick": FaultSpec(kind="crash", on_calls={1}, max_fires=1)}):
            with ServingEngine(model, plan_cache=False) as engine:
                future = engine.generate(prompt, GenerationRequest(max_new_tokens=6))
                with pytest.raises(WorkerCrashed, match="tick thread died") as info:
                    future.result(timeout=30)
                assert isinstance(info.value.__cause__, InjectedCrash)
                # a fresh driver replaces the dead letterbox (fault is spent)
                out = engine.generate(prompt, GenerationRequest(max_new_tokens=6)).result(
                    timeout=60
                )
        np.testing.assert_array_equal(out, ref)

    def test_tick_crash_terminates_stream_with_error(self):
        model = small_lm()
        with injected({"generation.tick": FaultSpec(kind="crash", on_calls={1}, max_fires=1)}):
            with ServingEngine(model, plan_cache=False) as engine:
                stream = engine.generate(
                    np.array([1, 2]), GenerationRequest(max_new_tokens=8, stream=True)
                )
                with pytest.raises(WorkerCrashed):
                    list(stream)  # terminates with the typed error, never hangs

    def test_tick_error_fails_group_but_not_the_driver(self):
        model = small_lm()
        prompt = np.array([4, 5])
        ref = model.generate(prompt, max_new_tokens=5)
        with injected({"generation.tick": FaultSpec(kind="error", on_calls={1}, max_fires=1)}):
            with ServingEngine(model, plan_cache=False) as engine:
                future = engine.generate(prompt, GenerationRequest(max_new_tokens=5))
                with pytest.raises(InjectedError):
                    future.result(timeout=30)
                # an ordinary tick error is isolated: the driver thread survives
                out = engine.generate(prompt, GenerationRequest(max_new_tokens=5)).result(
                    timeout=60
                )
                stats = engine.stats["generation"]
        np.testing.assert_array_equal(out, ref)
        assert stats["tick_failures"] == 1


class TestPrefetchFaults:
    def test_pipelined_decode_error_is_typed_and_chained(self):
        """A decode failure on a pipeline pool thread reaches the forward typed."""
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Linear(16, 48, rng=rng), nn.ReLU(), nn.Linear(48, 16, rng=rng)
        ).eval()
        model = quantize_model(model, standard_recipe("E4M3", approach=Approach.DYNAMIC)).model
        # >= 32 rows: the full-width and per-block matmuls hit the same BLAS
        # kernel, so streaming is bit-identical to cached mode
        probe = Tensor(rng.normal(0, 1, (32, 16)).astype(np.float32))
        cached = model(probe).data
        set_serving_mode(model, "streaming", block_channels=16, prefetch="pipeline")
        with injected({"prefetch.decode": FaultSpec(kind="error", on_calls={2}, max_fires=1)}):
            with pytest.raises(PrefetchError, match="pipelined block decode failed") as info:
                model(probe)
        assert isinstance(info.value.__cause__, InjectedError)
        assert isinstance(info.value, ServingError)
        # the next forward restarts the decode window and matches cached mode
        np.testing.assert_array_equal(model(probe).data, cached)

    def test_pipelined_decode_error_fails_the_group_not_the_worker(self):
        rng = np.random.default_rng(1)
        model = nn.Sequential(nn.Linear(16, 48, rng=rng), nn.ReLU(), nn.Linear(48, 8, rng=rng))
        recipe = standard_recipe("E4M3", approach=Approach.DYNAMIC)
        model = quantize_model(model.eval(), recipe).model
        set_serving_mode(model, "streaming", block_channels=16, prefetch="pipeline")
        sample = rng.normal(0, 1, 16).astype(np.float32)
        with no_grad():
            expected = model(Tensor(sample[None])).data[0]
        with injected({"prefetch.decode": FaultSpec(kind="error", on_calls={2}, max_fires=1)}):
            with ServingEngine(model, max_wait_ms=1, plan_cache=False) as engine:
                with pytest.raises(PrefetchError) as info:
                    engine.serve(sample, timeout=30)
                assert isinstance(info.value.__cause__, InjectedError)
                # an ordinary exception stays scoped to its group
                np.testing.assert_array_equal(engine.serve(sample, timeout=30), expected)
                assert engine.stats["worker_crashes"] == 0
