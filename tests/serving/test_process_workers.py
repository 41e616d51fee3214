"""Process-isolated serving workers: crash containment over one shared checkpoint.

The process tier's contract, tested end to end: a worker *process* death from
any cause — ``SIGKILL`` injected through the ``kill`` fault, a child killed
directly while idle, a dispatcher-thread crash — surfaces as the same
:class:`~repro.serving.errors.WorkerCrashed` + requeue + restart flow as a
thread death; results stay bit-identical to single-worker cached mode; and
``close()`` never leaves a zombie process (asserted psutil-free against
``/proc``).  Crash-loop containment (``max_worker_restarts`` →
``EngineFailed`` + ``state == "failed"``) is covered for both worker modes.

Every model and factory here is module-level on purpose: specs and templates
cross the process boundary by pickle, so ``spawn`` children must be able to
import them by reference.
"""

import os
import signal
import time

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd.tensor import Tensor, no_grad
from repro.quantization import Approach, QuantizedLinear, quantize_model, standard_recipe
from repro.serialization import save_quantized
from repro.serving import (
    EngineFailed,
    FaultSpec,
    GenerationRequest,
    InjectedCrash,
    ServingEngine,
    ServingError,
    SubmitOptions,
    WorkerCrashed,
    injected,
)
from repro.serving import faults as faults_mod
from repro.serving.ipc import RemoteError, WorkerProcessDied, wrap_exception
from repro.serving.worker_proc import WorkerSpec

FEATURES = 16


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    yield
    faults_mod.uninstall()
    assert faults_mod.active_injector() is None


class ProcAffine(nn.module.Module):
    """Deterministic elementwise model: bit-identical across any batching."""

    def forward(self, x):
        return Tensor(np.asarray(x.data) * 2.0 + 1.0)


class Unpicklable(nn.module.Module):
    def __init__(self):
        super().__init__()
        self.hook = lambda x: x  # lambdas do not pickle

    def forward(self, x):
        return x


class Poison(nn.module.Module):
    """Raises an *ordinary* exception in the child for marked batches."""

    def forward(self, x):
        data = np.asarray(x.data)
        if np.any(data > 100.0):
            raise ValueError("poison pill in batch")
        return Tensor(data * 1.0)


def dying_factory():
    """Kills the child before the ready handshake — no exception, no reply."""
    os._exit(17)


def build_mlp():
    rng = np.random.default_rng(3)
    return nn.Sequential(
        nn.Linear(FEATURES, FEATURES, rng=rng), nn.ReLU(), nn.Linear(FEATURES, FEATURES, rng=rng)
    )


def _samples(count, shape=(FEATURES,), seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 1, shape).astype(np.float32) for _ in range(count)]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    result = quantize_model(
        build_mlp(),
        standard_recipe("E4M3", approach=Approach.DYNAMIC),
        serving_mode="cached",
    )
    path = tmp_path_factory.mktemp("proc-ckpt") / "model.rpq"
    save_quantized(result.model, str(path), recipe=result.recipe)
    return str(path)


def _process_engine(checkpoint, workers=1, **kwargs):
    kwargs.setdefault("max_batch_size", 8)
    kwargs.setdefault("max_wait_ms", 300.0)
    kwargs.setdefault("supervision_interval_ms", 10.0)
    return ServingEngine.from_checkpoint(
        checkpoint,
        build_mlp,
        serving_mode="cached",
        prefetch=False,
        workers=workers,
        worker_mode="process",
        **kwargs,
    )


def _wait_ready(engine, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        details = engine.stats["process_workers"]
        if details and all(d["ready"] for d in details):
            return details
        time.sleep(0.05)
    raise AssertionError(f"workers never became ready: {engine.stats['process_workers']}")


def _assert_no_zombies(pids, timeout=10.0):
    """psutil-free: each pid must leave /proc (or at least never sit in state Z)."""
    deadline = time.monotonic() + timeout
    remaining = {pid for pid in pids if pid is not None}
    while remaining and time.monotonic() < deadline:
        for pid in list(remaining):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    state = fh.read().rsplit(")", 1)[-1].split()[0]
            except (FileNotFoundError, ProcessLookupError):
                remaining.discard(pid)
                continue
            assert state != "Z", f"pid {pid} is a zombie after close()"
        time.sleep(0.05)
    assert not remaining, f"worker pids {remaining} still alive after close()"


class TestProcessServing:
    def test_bit_identical_to_cached_single_worker(self, checkpoint, decode):
        """Deterministic groups through process workers == cached eager forward.

        On each decode path: the spawned workers inherit the masked compiler.
        """
        samples = _samples(16, seed=5)
        with _process_engine(checkpoint, workers=2) as engine:
            outputs = engine.serve_batch(samples, timeout=60)
            with no_grad():
                reference = engine.model(Tensor(np.stack(samples[:8]))).data
                reference2 = engine.model(Tensor(np.stack(samples[8:]))).data
        np.testing.assert_array_equal(np.stack(outputs[:8]), reference)
        np.testing.assert_array_equal(np.stack(outputs[8:]), reference2)

    def test_token_id_model_served_bit_identical_to_direct_call(self):
        from repro.models.transformer import BertStyleClassifier

        model = BertStyleClassifier(
            vocab_size=32, max_seq_len=16, embed_dim=16, num_layers=1, rng=4
        ).eval()
        rng = np.random.default_rng(6)
        tokens = [rng.integers(0, 32, 12).astype(np.int64) for _ in range(4)]
        with no_grad():
            expected = model(np.stack(tokens)).data
        engine = ServingEngine(
            model,
            worker_mode="process",
            max_batch_size=len(tokens),
            max_wait_ms=2000.0,
            supervision_interval_ms=10.0,
        )
        try:
            _wait_ready(engine)
            outputs = engine.serve_batch(tokens, timeout=60)
        finally:
            engine.close(timeout=10)
        np.testing.assert_array_equal(np.stack(outputs), expected)

    def test_from_checkpoint_default_streams_pipelined_in_the_child(self, checkpoint):
        # no serving_mode/prefetch arguments: the child rebuilds its replica
        # with the streaming + prefetch="pipeline" defaults the template shows
        samples = _samples(8, seed=5)
        engine = ServingEngine.from_checkpoint(
            checkpoint,
            build_mlp,
            block_channels=4,
            worker_mode="process",
            max_batch_size=len(samples),
            max_wait_ms=2000.0,
            supervision_interval_ms=10.0,
        )
        try:
            _wait_ready(engine)
            outputs = engine.serve_batch(samples, timeout=60)
            wrappers = [m for m in engine.model.modules() if isinstance(m, QuantizedLinear)]
            assert wrappers and all(w._pipeline is not None for w in wrappers)
            with no_grad():
                expected = engine.model(Tensor(np.stack(samples))).data
        finally:
            engine.close(timeout=10)
        np.testing.assert_array_equal(np.stack(outputs), expected)

    def test_each_worker_process_maps_checkpoint_once(self, checkpoint):
        with _process_engine(checkpoint, workers=2) as engine:
            details = _wait_ready(engine)
            assert [d["mapped_files"] for d in details] == [1, 1]
            assert {d["pid"] for d in details} != {None}
            assert engine.stats["worker_mode"] == "process"

    def test_child_error_stays_scoped_and_typed(self, checkpoint):
        """An ordinary child exception lands on the future; the worker survives."""
        with ServingEngine(
            Poison(), worker_mode="process", max_wait_ms=20.0, supervision_interval_ms=10.0
        ) as engine:
            bad = engine.submit(np.full((4,), 200.0, dtype=np.float32))
            with pytest.raises(ValueError, match="poison pill"):
                bad.result(timeout=30)
            out = engine.serve(np.zeros(4, dtype=np.float32), timeout=30)
            np.testing.assert_array_equal(out, np.zeros(4, dtype=np.float32))
            assert engine.stats["worker_crashes"] == 0

    def test_generate_raises_typed_valueerror(self, checkpoint):
        with _process_engine(checkpoint) as engine:
            with pytest.raises(ValueError, match="worker_mode='process'"):
                engine.generate(np.array([1, 2]), GenerationRequest(max_new_tokens=2))

    def test_unpicklable_model_fails_fast(self):
        with pytest.raises(TypeError, match="picklable"):
            ServingEngine(Unpicklable(), worker_mode="process")

    def test_replica_lists_are_thread_mode_only(self):
        with pytest.raises(ValueError, match="single template model"):
            ServingEngine([ProcAffine(), ProcAffine()], worker_mode="process")

    def test_worker_mode_validation(self):
        with pytest.raises(ValueError, match="worker_mode"):
            ServingEngine(ProcAffine(), worker_mode="fiber")


class TestKillFault:
    def test_sigkill_recovers_bit_identical(self, checkpoint):
        """The acceptance bar: a SIGKILLed worker is invisible to callers."""
        samples = _samples(16, seed=7)
        with _process_engine(checkpoint, workers=2) as engine:
            before = {d["pid"] for d in _wait_ready(engine)}
            with no_grad():
                reference = engine.model(Tensor(np.stack(samples[:8]))).data
            options = SubmitOptions(max_retries=2, retry_backoff_ms=10.0)
            with injected(
                {"ipc.roundtrip": FaultSpec(kind="kill", on_calls={1}, max_fires=1)}
            ) as injector:
                outputs = engine.serve_batch(samples, options, timeout=120)
            stats = engine.stats
            after = {d["pid"] for d in stats["process_workers"]}
        assert injector.fired["ipc.roundtrip"] == 1
        np.testing.assert_array_equal(np.stack(outputs[:8]), reference)
        assert stats["worker_crashes"] >= 1
        assert stats["worker_restarts"] >= 1
        assert stats["retried_requests"] >= 1
        assert stats["failed_requests"] == 0
        assert after - before, "the killed worker was not restarted as a new process"
        _assert_no_zombies(before | after)

    def test_sigkill_without_retries_fails_typed_with_cause(self, checkpoint):
        with _process_engine(checkpoint) as engine:
            with injected({"ipc.roundtrip": FaultSpec(kind="kill", on_calls={1}, max_fires=1)}):
                future = engine.submit(_samples(1)[0])
                with pytest.raises(WorkerCrashed, match="killed by SIGKILL") as info:
                    future.result(timeout=60)
            assert isinstance(info.value.__cause__, WorkerProcessDied)
            assert isinstance(info.value, ServingError)
            # the restarted worker keeps serving (the fault is spent)
            out = engine.serve(_samples(1, seed=9)[0], timeout=60)
            assert out.shape == (FEATURES,)
            assert engine.stats["worker_crashes"] == 1

    def test_kill_fault_is_process_only_in_thread_mode(self):
        """No kill= handle in thread mode: the injector refuses, typed, scoped."""
        with injected({"engine.forward": FaultSpec(kind="kill", on_calls={1}, max_fires=1)}):
            with ServingEngine(ProcAffine(), max_wait_ms=5.0) as engine:
                future = engine.submit(_samples(1)[0])
                with pytest.raises(RuntimeError, match="process-only|no kill= handle"):
                    future.result(timeout=10)
                # refusal is an ordinary error: the worker thread survives
                assert engine.alive_workers == 1
                assert engine.stats["worker_crashes"] == 0

    def test_idle_child_death_detected_and_restarted(self, checkpoint):
        """A child dying *between* forwards (no pipe EOF in flight) still recovers."""
        with _process_engine(checkpoint) as engine:
            (detail,) = _wait_ready(engine)
            os.kill(detail["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = engine.stats
                if stats["worker_restarts"] >= 1 and stats["alive_workers"] >= 1:
                    break
                time.sleep(0.05)
            stats = engine.stats
            assert stats["worker_crashes"] >= 1
            assert stats["worker_restarts"] >= 1
            out = engine.serve(_samples(1)[0], timeout=60)
            assert out.shape == (FEATURES,)
            (after,) = [d["pid"] for d in stats["process_workers"]]
            assert after != detail["pid"]

    def test_retry_budget_spans_thread_and_process_crashes(self, checkpoint):
        """One max_retries budget covers a process SIGKILL *and* a dispatcher crash."""
        with _process_engine(checkpoint) as engine:
            _wait_ready(engine)
            with injected(
                {
                    "ipc.roundtrip": FaultSpec(kind="kill", on_calls={1}, max_fires=1),
                    "engine.forward": FaultSpec(kind="crash", on_calls={2}, max_fires=1),
                }
            ):
                future = engine.submit(
                    _samples(1)[0], SubmitOptions(max_retries=1, retry_backoff_ms=10.0)
                )
                with pytest.raises(WorkerCrashed) as info:
                    future.result(timeout=60)
            # attempt 1 died by SIGKILL, the retry by an injected dispatcher
            # crash — two crashes, one budget, a typed failure with the cause
            assert isinstance(info.value.__cause__, (InjectedCrash, WorkerProcessDied))
            deadline = time.monotonic() + 30
            while engine.stats["worker_crashes"] < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            stats = engine.stats
            assert stats["worker_crashes"] == 2
            assert stats["retried_requests"] == 1


class TestLifecycle:
    def test_close_reaps_children_zero_zombies(self, checkpoint):
        engine = _process_engine(checkpoint, workers=2)
        pids = [d["pid"] for d in _wait_ready(engine)]
        engine.serve_batch(_samples(8), timeout=60)
        engine.close(timeout=30)
        assert engine.state == "closed"
        _assert_no_zombies(pids)

    def test_close_reaps_even_mid_forward(self, checkpoint):
        """close(timeout) on an engine with queued work: no hung futures, no zombies."""
        engine = _process_engine(checkpoint, max_wait_ms=5.0)
        pids = [d["pid"] for d in _wait_ready(engine)]
        futures = [engine.submit(s) for s in _samples(4)]
        engine.close(timeout=30)
        for future in futures:
            assert future.done()
            exc = future.exception(timeout=0)
            assert exc is None or isinstance(exc, ServingError)
        _assert_no_zombies(pids)

    def test_child_init_failure_fails_engine_typed(self):
        """A replica that cannot build in any child must not crash-loop."""
        spec = WorkerSpec(checkpoint_path="/nonexistent/model.rpq", model_factory=build_mlp)
        engine = ServingEngine(
            ProcAffine(),
            worker_mode="process",
            worker_spec=spec,
            max_wait_ms=5.0,
            supervision_interval_ms=10.0,
        )
        try:
            deadline = time.monotonic() + 30
            while engine.state != "failed" and time.monotonic() < deadline:
                time.sleep(0.05)
            assert engine.stats["state"] == "failed"
            with pytest.raises(EngineFailed, match="failed state"):
                engine.submit(_samples(1)[0])
            assert engine.stats["worker_restarts"] == 0
        finally:
            engine.close(timeout=10)
        assert engine.state == "closed"


class TestNeverReadyContainment:
    def test_children_that_never_start_fail_engine_despite_unlimited_restarts(self, checkpoint):
        """3 consecutive pre-ready deaths -> failed state, even with the default
        max_worker_restarts=None (a child that cannot start is a pure loop)."""
        spec = WorkerSpec(checkpoint_path=checkpoint, model_factory=dying_factory)
        engine = ServingEngine(
            ProcAffine(),
            worker_mode="process",
            worker_spec=spec,
            max_wait_ms=5.0,
            supervision_interval_ms=10.0,
        )
        try:
            deadline = time.monotonic() + 60
            while engine.state != "failed" and time.monotonic() < deadline:
                time.sleep(0.05)
            stats = engine.stats
            assert stats["state"] == "failed"
            assert stats["worker_crashes"] >= 3
            with pytest.raises(EngineFailed):
                engine.submit(_samples(1)[0])
        finally:
            engine.close(timeout=10)
        assert engine.state == "closed"


class TestCrashLoopContainment:
    """Satellite: restart rate limiting applies to thread workers too."""

    def test_thread_crash_loop_enters_failed_state(self):
        with injected({"engine.forward": FaultSpec(kind="crash")}):
            engine = ServingEngine(
                ProcAffine(),
                max_wait_ms=2.0,
                supervision_interval_ms=5.0,
                max_worker_restarts=2,
                restart_window_s=60.0,
            )
            try:
                future = engine.submit(
                    _samples(1)[0], SubmitOptions(max_retries=10, retry_backoff_ms=1.0)
                )
                exc = future.exception(timeout=30)
                # the pending request fails typed (EngineFailed once the loop is
                # contained, or WorkerCrashed if its retry raced the shutdown)
                assert isinstance(exc, ServingError)
                deadline = time.monotonic() + 10
                while engine.state != "failed" and time.monotonic() < deadline:
                    time.sleep(0.02)
                stats = engine.stats
                assert stats["state"] == "failed"
                assert stats["worker_restarts"] == 2
                with pytest.raises(EngineFailed, match="max_worker_restarts"):
                    engine.submit(_samples(1)[0])
            finally:
                engine.close(timeout=10)
        assert engine.state == "closed"

    def test_restart_budget_not_consumed_by_healthy_engine(self):
        samples = _samples(6)
        with injected({"engine.forward": FaultSpec(kind="crash", on_calls={1}, max_fires=1)}):
            with ServingEngine(
                ProcAffine(),
                max_wait_ms=2.0,
                supervision_interval_ms=5.0,
                max_worker_restarts=5,
                restart_window_s=60.0,
            ) as engine:
                outputs = engine.serve_batch(
                    samples, SubmitOptions(max_retries=2, retry_backoff_ms=5.0), timeout=30
                )
                assert engine.state == "serving"
                assert engine.stats["worker_restarts"] == 1
        for out, sample in zip(outputs, samples):
            np.testing.assert_array_equal(out, sample * 2.0 + 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_worker_restarts"):
            ServingEngine(ProcAffine(), max_worker_restarts=-1)
        with pytest.raises(ValueError, match="restart_window_s"):
            ServingEngine(ProcAffine(), restart_window_s=0.0)


class TestDrainEdgeCases:
    """Satellite: a worker dying *while* the engine drains still recovers."""

    def test_worker_crash_during_drain_recovers_queued_work(self):
        samples = _samples(3, shape=(4,))
        with injected({"engine.forward": FaultSpec(kind="crash", on_calls={2}, max_fires=1)}):
            engine = ServingEngine(
                ProcAffine(), max_batch_size=1, max_wait_ms=2.0, supervision_interval_ms=5.0
            )
            options = SubmitOptions(max_retries=2, retry_backoff_ms=5.0)
            futures = [engine.submit(s, options) for s in samples]
            engine.drain()
            assert engine.state == "draining"
            for sample, future in zip(samples, futures):
                np.testing.assert_array_equal(future.result(timeout=30), sample * 2.0 + 1.0)
            stats = engine.stats
            assert stats["worker_crashes"] >= 1
            assert stats["worker_restarts"] >= 1
            engine.close(timeout=10)


class TestFaultSurface:
    def test_sites_listing_exposed(self):
        with injected(
            {
                "ipc.roundtrip": FaultSpec(kind="kill"),
                "engine.forward": FaultSpec(kind="crash"),
            }
        ) as injector:
            assert injector.sites() == ("engine.forward", "ipc.roundtrip")
        assert "ipc.roundtrip" in faults_mod.KNOWN_SITES
        assert set(injector.sites()) <= set(faults_mod.KNOWN_SITES)

    def test_kill_is_a_known_kind(self):
        spec = FaultSpec(kind="kill")
        assert spec.kind == "kill"
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="sigkill")


class TestIpcHelpers:
    def test_wrap_exception_passthrough_and_remote(self):
        plain = ValueError("fits through the pipe")
        assert wrap_exception(plain) is plain

        class Local(Exception):  # local classes do not pickle by reference
            pass

        try:
            raise Local("stuck")
        except Local as exc:
            wrapped = wrap_exception(exc)
        assert isinstance(wrapped, RemoteError)
        assert "Local" in str(wrapped)
        assert "stuck" in wrapped.remote_traceback

    def test_worker_process_died_escapes_except_exception(self):
        with pytest.raises(WorkerProcessDied):
            try:
                raise WorkerProcessDied("gone", exitcode=-9)
            except Exception:  # noqa: BLE001 — the point: process deaths escape
                pytest.fail("WorkerProcessDied absorbed by `except Exception`")
        assert WorkerProcessDied("x", exitcode=-9).exitcode == -9
