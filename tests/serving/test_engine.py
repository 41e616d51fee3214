"""ServingEngine: continuous batching, multi-worker execution, exact-shape groups, lifecycle."""

import sys
import threading
import time

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd.tensor import Tensor, no_grad
from repro.nn.module import Module
from repro.quantization import Approach, QuantizedLinear, quantize_model, standard_recipe
from repro.serving import DeadlineExceeded, ServingEngine, SubmitOptions


class SlowIdentity(Module):
    """Returns its input unchanged after ``delay_s`` (records batch shapes)."""

    def __init__(self, delay_s: float = 0.05) -> None:
        super().__init__()
        self.delay_s = delay_s
        self.seen_shapes = []

    def forward(self, x):
        self.seen_shapes.append(np.asarray(x.data).shape)
        time.sleep(self.delay_s)
        return Tensor(np.asarray(x.data) * 1.0)


def _mlp(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(16, 32, rng=rng),
        nn.ReLU(),
        nn.Linear(32, 8, rng=rng),
    ).eval()


def _samples(count, shape=(16,), seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 1, shape).astype(np.float32) for _ in range(count)]


class TestBatching:
    def test_results_match_direct_forward(self):
        model = _mlp()
        samples = _samples(6)
        with no_grad():
            expected = model(Tensor(np.stack(samples))).data
        with ServingEngine(model, max_batch_size=6, max_wait_ms=50) as engine:
            outputs = engine.serve_batch(samples)
        for out, exp in zip(outputs, expected):
            assert np.allclose(out, exp, rtol=1e-5, atol=1e-6)

    def test_requests_are_fused_into_batches(self):
        model = _mlp()
        with ServingEngine(model, max_batch_size=8, max_wait_ms=100) as engine:
            engine.serve_batch(_samples(8))
            stats = engine.stats
        assert stats["requests"] == 8
        assert stats["batches"] < 8  # at least some fusion happened
        assert stats["max_batch"] > 1

    def test_streaming_quantized_model_served(self):
        result = quantize_model(
            _mlp(),
            standard_recipe("E4M3", approach=Approach.DYNAMIC),
            serving_mode="streaming",
        )
        samples = _samples(4)
        with no_grad():
            expected = result.model(Tensor(np.stack(samples))).data
        with ServingEngine(result.model, max_batch_size=4, max_wait_ms=100) as engine:
            outputs = engine.serve_batch(samples)
        # one fused forward sees the same batch statistics -> bit-identical
        # is not guaranteed across groupings, but the fused group matches
        for out, exp in zip(outputs, expected):
            assert np.allclose(out, exp, rtol=1e-4, atol=1e-5)

    def test_single_request_serve(self):
        model = _mlp()
        sample = _samples(1)[0]
        with no_grad():
            expected = model(Tensor(sample[None])).data[0]
        with ServingEngine(model, max_wait_ms=1) as engine:
            out = engine.serve(sample, timeout=10)
        assert np.allclose(out, expected, rtol=1e-5, atol=1e-6)


def _token_classifier():
    from repro.models.transformer import BertStyleClassifier

    model = BertStyleClassifier(vocab_size=32, max_seq_len=16, embed_dim=16, num_layers=1, rng=4)
    return model.eval()


def _token_batch(count=4, length=12, seed=6, dtype=np.int64):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 32, length).astype(dtype) for _ in range(count)]


class TestTokenIdModels:
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_token_id_model_served_bit_identical_to_direct_call(self, dtype):
        # integer batches reach the model as the int64 array, not a float32
        # Tensor, so a token-id model is served without an adapter
        model = _token_classifier()
        tokens = _token_batch(dtype=dtype)
        with no_grad():
            expected = model(np.stack(tokens)).data
        with ServingEngine(model, max_batch_size=len(tokens), max_wait_ms=2000) as engine:
            outputs = engine.serve_batch(tokens, timeout=30)
            assert engine.stats["batches"] == 1
        np.testing.assert_array_equal(np.stack(outputs), expected)


class MeanPool(Module):
    def forward(self, x):
        return Tensor(x.data.mean(axis=1))  # (B, T, F) -> (B, F)


class TestExactShapeGrouping:
    def test_each_sequence_length_is_its_own_batch(self):
        model = _mlp()
        rng = np.random.default_rng(5)
        seqs = [rng.normal(0, 1, (length, 16)).astype(np.float32) for length in (3, 5, 5, 2)]
        with ServingEngine(model, max_batch_size=4, max_wait_ms=100) as engine:
            outputs = engine.serve_batch(seqs, timeout=30)
            stats = engine.stats
        assert stats["batches"] == 3
        # each output is the model's own output on the batch its request rode
        with no_grad():
            for members in ([0], [1, 2], [3]):
                direct = model(Tensor(np.stack([seqs[i] for i in members]))).data
                for row, i in zip(direct, members):
                    np.testing.assert_array_equal(outputs[i], row)

    def test_sequence_reducing_model_returns_each_requests_own_mean(self):
        rng = np.random.default_rng(8)
        seqs = [rng.normal(0, 1, (n, 8)).astype(np.float32) for n in (5, 8)]
        with ServingEngine(MeanPool(), max_batch_size=2, max_wait_ms=100) as engine:
            outputs = engine.serve_batch(seqs, timeout=30)
        for out, seq in zip(outputs, seqs):
            np.testing.assert_array_equal(out, seq[None].mean(axis=1)[0])

    def test_incompatible_shapes_grouped_separately(self):
        model = _mlp()
        vec = _samples(2)  # rank-1: exact-shape group
        seq = [np.random.default_rng(6).normal(0, 1, (4, 16)).astype(np.float32)]
        with ServingEngine(model, max_batch_size=8, max_wait_ms=100) as engine:
            outputs = engine.serve_batch(vec + seq)
        assert outputs[0].shape == (8,)
        assert outputs[2].shape == (4, 8)

    def test_mismatched_rank1_shapes_never_stacked(self):
        model = _mlp()
        good = _samples(1)[0]
        bad = np.zeros(7, dtype=np.float32)  # wrong feature count
        with ServingEngine(model, max_batch_size=2, max_wait_ms=100) as engine:
            good_future = engine.submit(good)
            bad_future = engine.submit(bad)
            assert good_future.result(timeout=10).shape == (8,)
            with pytest.raises(Exception):
                bad_future.result(timeout=10)


class TestLifecycle:
    def test_close_serves_pending_then_rejects(self):
        model = _mlp()
        engine = ServingEngine(model, max_batch_size=4, max_wait_ms=500)
        futures = [engine.submit(sample) for sample in _samples(4)]
        engine.close()
        for future in futures:
            assert future.result(timeout=10).shape == (8,)
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(_samples(1)[0])

    def test_close_is_idempotent(self):
        engine = ServingEngine(_mlp())
        engine.close()
        engine.close()

    def test_forward_error_lands_on_futures_not_driver(self):
        class Exploding(Module):
            def forward(self, x):
                raise RuntimeError("forward exploded")

        engine = ServingEngine(Exploding(), max_wait_ms=1)
        future = engine.submit(np.zeros(4, dtype=np.float32))
        with pytest.raises(RuntimeError, match="forward exploded"):
            future.result(timeout=10)
        # the worker thread must survive the failure and keep serving
        assert engine.alive_workers == 1
        assert engine.stats["failed_requests"] == 1
        engine.close()

    def test_concurrent_submitters(self):
        model = _mlp()
        samples = _samples(24, seed=9)
        with no_grad():
            expected = [model(Tensor(sample[None])).data[0] for sample in samples]
        results = [None] * len(samples)
        with ServingEngine(model, max_batch_size=8, max_wait_ms=20) as engine:

            def _client(index):
                results[index] = engine.serve(samples[index], timeout=30)

            threads = [
                threading.Thread(target=_client, args=(index,)) for index in range(len(samples))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        for out, exp in zip(results, expected):
            assert np.allclose(out, exp, rtol=1e-5, atol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ServingEngine(_mlp(), max_batch_size=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            ServingEngine(_mlp(), max_wait_ms=-1)


class TestReviewRegressions:
    def test_cancelled_future_does_not_kill_driver(self):
        model = _mlp()
        with ServingEngine(model, max_batch_size=2, max_wait_ms=200) as engine:
            doomed = engine.submit(_samples(1)[0])
            assert doomed.cancel()
            survivor = engine.submit(_samples(1, seed=2)[0])
            # the cancelled request is skipped; its batch-mate still resolves
            assert survivor.result(timeout=10).shape == (8,)
            assert engine.alive_workers == 1
            assert doomed.cancelled()

    def test_no_grad_is_thread_local(self):
        from repro.autograd.tensor import is_grad_enabled

        seen = {}
        release = threading.Event()
        entered = threading.Event()

        def _background():
            with no_grad():
                entered.set()
                release.wait(timeout=10)
            seen["after_exit"] = is_grad_enabled()

        worker = threading.Thread(target=_background)
        worker.start()
        assert entered.wait(timeout=10)
        # the worker holding no_grad must not leak into this thread...
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()
        release.set()
        worker.join(timeout=10)
        # ...and the worker restores its own (enabled) state on exit
        assert seen["after_exit"] is True


def _streaming_quantized(seed=0):
    result = quantize_model(
        _mlp(seed=seed),
        standard_recipe("E4M3", approach=Approach.DYNAMIC),
        serving_mode="streaming",
    )
    return result.model


class TestContinuousBatching:
    def test_arrivals_during_forward_join_next_group(self):
        """No drain barrier: requests landing mid-forward form the next group."""
        model = SlowIdentity(delay_s=0.08)
        with ServingEngine(model, max_batch_size=4, max_wait_ms=5) as engine:
            first = engine.submit(np.zeros(6, dtype=np.float32))
            time.sleep(0.03)  # the worker is now inside first's forward
            late = [engine.submit(np.zeros(6, dtype=np.float32)) for _ in range(3)]
            first.result(timeout=10)
            for future in late:
                future.result(timeout=10)
            stats = engine.stats
        # the three late arrivals were admitted into one follow-up group
        # instead of one forward each after a drain
        assert stats["batches"] == 2
        assert stats["max_batch"] == 3
        assert model.seen_shapes == [(1, 6), (3, 6)]

    def test_incompatible_shapes_never_co_batch_under_staggered_arrivals(self):
        model = SlowIdentity(delay_s=0.02)
        with ServingEngine(model, max_batch_size=8, max_wait_ms=40) as engine:
            futures = []
            for index in range(8):
                shape = (6,) if index % 2 == 0 else (3, 6)
                futures.append(engine.submit(np.zeros(shape, dtype=np.float32)))
                time.sleep(0.004)
            for future in futures:
                future.result(timeout=10)
        # every forward saw either stacked vectors (rank 2) or stacked
        # sequences (rank 3), never a mix
        assert model.seen_shapes
        for shape in model.seen_shapes:
            assert len(shape) in (2, 3)
            assert shape[-1] == 6

    def test_tight_deadline_closes_admission_window_early(self):
        model = SlowIdentity(delay_s=0.0)
        with ServingEngine(model, max_batch_size=8, max_wait_ms=500) as engine:
            t0 = time.monotonic()
            out = engine.serve(
                np.zeros(4, dtype=np.float32), SubmitOptions(deadline_ms=40), timeout=10
            )
            elapsed = time.monotonic() - t0
        assert out.shape == (4,)
        # served around the 40ms deadline, not after the 500ms window
        assert elapsed < 0.3

    def test_queued_request_past_deadline_fails(self):
        model = SlowIdentity(delay_s=0.12)
        engine = ServingEngine(model, max_batch_size=2, max_wait_ms=1)
        blocker = engine.submit(np.zeros(4, dtype=np.float32))
        time.sleep(0.03)  # worker is busy with the blocker's forward
        doomed = engine.submit(np.zeros(4, dtype=np.float32), SubmitOptions(deadline_ms=10))
        with pytest.raises(DeadlineExceeded):
            doomed.result(timeout=10)
        assert blocker.result(timeout=10).shape == (4,)
        stats = engine.stats
        assert stats["expired_requests"] == 1
        assert engine.alive_workers == 1
        engine.close()

    def test_priority_orders_ready_groups(self):
        model = SlowIdentity(delay_s=0.08)
        done_order = []
        with ServingEngine(model, max_batch_size=2, max_wait_ms=1) as engine:
            blocker = engine.submit(np.zeros(4, dtype=np.float32))
            time.sleep(0.03)  # both later requests queue while the worker is busy
            low = engine.submit(np.zeros(6, dtype=np.float32), SubmitOptions(priority=0))
            high = engine.submit(np.zeros((2, 6), dtype=np.float32), SubmitOptions(priority=5))
            low.add_done_callback(lambda f: done_order.append("low"))
            high.add_done_callback(lambda f: done_order.append("high"))
            blocker.result(timeout=10)
            low.result(timeout=10)
            high.result(timeout=10)
        assert done_order[0] == "high"

    def test_non_positive_deadline_rejected(self):
        # zero is rejected too: a zero budget can never be met, so accepting
        # it would guarantee DeadlineExceeded
        with ServingEngine(SlowIdentity(0.0), max_wait_ms=1) as engine:
            with pytest.raises(ValueError, match="deadline_ms"):
                engine.submit(np.zeros(3, dtype=np.float32), SubmitOptions(deadline_ms=-1))
            with pytest.raises(ValueError, match="deadline_ms"):
                engine.submit(np.zeros(3, dtype=np.float32), SubmitOptions(deadline_ms=0))


class TestMultiWorker:
    def test_worker_replica_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ServingEngine(_mlp(), workers=0)
        with pytest.raises(ValueError, match="replicas"):
            ServingEngine([_mlp(), _mlp()], workers=3)
        with pytest.raises(TypeError, match="Module"):
            ServingEngine([])

    def test_workers_default_to_replica_count(self):
        engine = ServingEngine([_mlp(), _mlp()], max_wait_ms=1)
        assert engine.workers == 2
        assert engine.alive_workers == 2
        engine.close()
        assert engine.alive_workers == 0

    def test_multi_worker_bit_identical_to_single_worker(self):
        """Deterministic chunking => identical groups => bit-identical outputs.

        max_wait is long and max_batch small, so groups are always the next
        four arrivals in order no matter how many workers pop them — dynamic
        activation scales then see identical batches in both runs.
        """
        samples = _samples(16, seed=21)
        outputs = {}
        for workers in (1, 4):
            model = _streaming_quantized(seed=3)
            with ServingEngine(
                model, max_batch_size=4, max_wait_ms=2000, workers=workers
            ) as engine:
                outputs[workers] = engine.serve_batch(samples, timeout=30)
        for single, multi in zip(outputs[1], outputs[4]):
            assert np.array_equal(single, multi)

    def test_shared_model_across_workers_serves_correctly(self):
        model = _streaming_quantized(seed=5)
        samples = _samples(12, seed=22)
        with no_grad():
            expected = model(Tensor(np.stack(samples[:4]))).data
        with ServingEngine(model, max_batch_size=4, max_wait_ms=2000, workers=3) as engine:
            outputs = engine.serve_batch(samples, timeout=30)
        assert engine.alive_workers == 0
        for out, exp in zip(outputs[:4], expected):
            assert np.array_equal(out, exp)

    def test_shared_transient_decode_model_across_workers(self):
        # a streaming Conv2d wrapper binds its decoded weight on the shared
        # inner module for the length of its forward; the other worker must
        # never run on the placeholder the first one rebinds when it is done
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Conv2d(3, 16, 3, rng=rng), nn.ReLU(), nn.Conv2d(16, 16, 3, rng=rng)
        ).eval()
        recipe = standard_recipe(
            "E4M3",
            approach=Approach.DYNAMIC,
            skip_first_operator=False,
            skip_last_operator=False,
        )
        model = quantize_model(model, recipe, serving_mode="streaming").model
        samples = [rng.normal(0, 1, (3, 12, 12)).astype(np.float32) for _ in range(400)]
        with no_grad():
            expected = [model(Tensor(sample[None])).data[0] for sample in samples]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServingEngine(model, max_batch_size=1, max_wait_ms=0, workers=4) as engine:
                outputs = engine.serve_batch(samples, timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert engine.alive_workers == 0
        wrong = sum(not np.array_equal(out, exp) for out, exp in zip(outputs, expected))
        assert wrong == 0, f"{wrong} of {len(samples)} served outputs differ from direct calls"

    def test_shared_pipelined_model_across_workers_stress(self):
        """More workers than cores share one model and its decode pool.

        Each worker's forward keeps its own thread-local decode window, so
        every group matches a direct pipelined forward of the same rows; a
        short switch interval forces the workers to interleave mid-window.
        """
        from repro.quantization import set_serving_mode

        model = _streaming_quantized(seed=9)
        for module in model.modules():
            if isinstance(module, QuantizedLinear):
                module.streaming_block_channels = 4
        set_serving_mode(model, "streaming", prefetch="pipeline")
        samples = _samples(64, seed=24)
        with no_grad():
            expected = [
                model(Tensor(np.stack(samples[start : start + 4]))).data
                for start in range(0, len(samples), 4)
            ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServingEngine(model, max_batch_size=4, max_wait_ms=2000, workers=4) as engine:
                outputs = engine.serve_batch(samples, timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert engine.alive_workers == 0
        np.testing.assert_array_equal(np.stack(outputs), np.concatenate(expected))

    def test_from_checkpoint_defaults_to_pipelined_streaming(self, tmp_path):
        from repro.serialization import save_quantized

        result = quantize_model(_mlp(seed=7), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        path = str(tmp_path / "mlp.rpq")
        save_quantized(result.model, path)
        samples = _samples(32, seed=23)
        with no_grad():
            cached = result.model(Tensor(np.stack(samples))).data
        with ServingEngine.from_checkpoint(
            path, lambda: _mlp(seed=7), workers=2, max_batch_size=32, max_wait_ms=2000
        ) as engine:
            wrappers = [m for m in engine.replicas[0].modules() if isinstance(m, QuantizedLinear)]
            assert wrappers and all(w.serving_mode == "streaming" for w in wrappers)
            assert all(w._pipeline is not None for w in wrappers)
            outputs = engine.serve_batch(samples, timeout=30)
        # one full 32-row group: pipelined streaming == cached bit for bit
        np.testing.assert_array_equal(np.stack(outputs), cached)


class TestObservability:
    def test_stats_percentiles_and_occupancy(self):
        model = SlowIdentity(delay_s=0.01)
        with ServingEngine(model, max_batch_size=4, max_wait_ms=10) as engine:
            engine.serve_batch(_samples(8), timeout=10)
            stats = engine.stats
        for key in (
            "queue_wait_p50_ms",
            "queue_wait_p95_ms",
            "forward_p50_ms",
            "forward_p95_ms",
        ):
            assert stats[key] >= 0.0
        assert stats["queue_wait_p95_ms"] >= stats["queue_wait_p50_ms"]
        assert stats["forward_p95_ms"] >= stats["forward_p50_ms"]
        # forwards sleep 10ms, so the measured forward latency must see it
        assert stats["forward_p50_ms"] >= 8.0
        assert 0.0 < stats["occupancy_mean"] <= 1.0
        assert stats["workers"] == 1
        assert stats["pending"] == 0

    def test_serve_batch_timeout_is_a_shared_deadline(self):
        """Total wait is bounded by timeout, not timeout * len(samples)."""
        model = SlowIdentity(delay_s=0.15)
        engine = ServingEngine(model, max_batch_size=1, max_wait_ms=1)
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            # three incompatible singleton groups => ~0.45s of forwards; the
            # old per-future accounting would have allowed ~0.36s of waiting
            engine.serve_batch(
                [np.zeros(4, dtype=np.float32), np.zeros(6, dtype=np.float32),
                 np.zeros(8, dtype=np.float32)],
                timeout=0.12,
            )
        elapsed = time.monotonic() - t0
        assert elapsed < 0.3
        engine.close()
