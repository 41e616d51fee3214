"""Generation serving: typed request API, token-level batching, preemption.

The engine's generation tier must reproduce ``model.generate`` token for
token while decode steps of many requests share each forward — under
mid-decode admission, preemption/restore, streaming delivery, and both
KV-cache storages.
"""

import time

import numpy as np
import pytest

import repro.nn as nn
from repro.models.transformer import GPTStyleLM
from repro.serving import generation
from repro.serving import (
    DeadlineExceeded,
    GenerationRequest,
    GenerationStream,
    QueueFull,
    RequestShed,
    ServingEngine,
    SubmitOptions,
    TokenScheduler,
)


def small_lm(seed=0, max_seq_len=64):
    model = GPTStyleLM(
        vocab_size=32, max_seq_len=max_seq_len, embed_dim=32, num_heads=4, num_layers=2, rng=seed
    )
    return model.eval()


class SlowStepLM(GPTStyleLM):
    """Throttled decode steps so admission/preemption races are deterministic."""

    def __init__(self, *args, step_delay_s=0.01, **kwargs):
        super().__init__(*args, **kwargs)
        self.step_delay_s = step_delay_s

    def forward_step(self, *args, **kwargs):
        time.sleep(self.step_delay_s)
        return super().forward_step(*args, **kwargs)


def slow_lm(seed=0, max_seq_len=64, step_delay_s=0.01):
    model = SlowStepLM(
        vocab_size=32,
        max_seq_len=max_seq_len,
        embed_dim=32,
        num_heads=4,
        num_layers=2,
        rng=seed,
        step_delay_s=step_delay_s,
    )
    return model.eval()


class TestRequestDataclasses:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_new_tokens"):
            GenerationRequest(max_new_tokens=0).validated()
        with pytest.raises(ValueError, match="beam_size"):
            GenerationRequest(beam_size=0).validated()
        with pytest.raises(ValueError, match="stream"):
            GenerationRequest(stream=True, beam_size=2).validated()
        with pytest.raises(ValueError, match="deadline_ms"):
            SubmitOptions(deadline_ms=0).validated()
        with pytest.raises(ValueError, match="kv_cache"):
            GenerationRequest(kv_cache="").validated()

    @pytest.mark.parametrize("kwarg", ["priority", "deadline_ms"])
    @pytest.mark.parametrize("method", ["submit", "serve", "serve_batch"])
    def test_legacy_kwargs_are_rejected(self, method, kwarg):
        # scheduling attributes travel in SubmitOptions only; a rejected call
        # enqueues nothing and the engine keeps serving
        model = nn.Sequential(nn.Linear(4, 4, rng=0)).eval()
        engine = ServingEngine(model)
        sample = np.zeros(4, dtype=np.float32)
        payload = [sample] if method == "serve_batch" else sample
        try:
            with pytest.raises(TypeError, match=kwarg):
                getattr(engine, method)(payload, **{kwarg: 50})
            assert engine.stats["requests"] == 0
            assert engine.serve(sample, SubmitOptions(priority=3), timeout=10).shape == (4,)
        finally:
            engine.close()

    def test_options_must_be_submit_options(self):
        model = nn.Sequential(nn.Linear(4, 4, rng=0)).eval()
        engine = ServingEngine(model)
        sample = np.zeros(4, dtype=np.float32)
        try:
            with pytest.raises(TypeError, match="SubmitOptions"):
                engine.submit(sample, {"priority": 1})
            assert engine.stats["requests"] == 0
        finally:
            engine.close()


class TestEngineGeneration:
    def test_greedy_matches_model_generate(self):
        model = small_lm()
        prompts = [np.array([1, 2, 3]), np.array([7, 8]), np.array([4, 5, 6, 9])]
        refs = [model.generate(p, max_new_tokens=10) for p in prompts]
        with ServingEngine(model) as engine:
            futures = [
                engine.generate(p, GenerationRequest(max_new_tokens=10)) for p in prompts
            ]
            outputs = [f.result(timeout=60) for f in futures]
        for ref, out in zip(refs, outputs):
            np.testing.assert_array_equal(out, ref)

    def test_beam_matches_model_generate(self):
        model = small_lm(seed=3)
        prompt = np.array([2, 9, 4])
        ref = model.generate(prompt, max_new_tokens=8, beam_size=3)
        with ServingEngine(model) as engine:
            out = engine.generate(
                prompt, GenerationRequest(max_new_tokens=8, beam_size=3)
            ).result(timeout=60)
        np.testing.assert_array_equal(out, ref)

    def test_stream_yields_tokens_in_order(self):
        model = small_lm()
        prompt = np.array([1, 2, 3])
        ref = model.generate(prompt, max_new_tokens=8)
        with ServingEngine(model) as engine:
            stream = engine.generate(prompt, GenerationRequest(max_new_tokens=8, stream=True))
            assert isinstance(stream, GenerationStream)
            tokens = list(stream)
            np.testing.assert_array_equal(np.concatenate([prompt, tokens]), ref)
            np.testing.assert_array_equal(stream.result(timeout=10), ref)

    def test_eos_stops_engine_generation(self):
        model = small_lm()
        prompt = np.array([1, 2, 3])
        ref = model.generate(prompt, max_new_tokens=10)
        eos = int(ref[prompt.size + 2])
        model_stopped = model.generate(prompt, max_new_tokens=10, eos_token=eos)
        with ServingEngine(model) as engine:
            out = engine.generate(
                prompt, GenerationRequest(max_new_tokens=10, eos_token=eos)
            ).result(timeout=60)
        np.testing.assert_array_equal(out, model_stopped)

    def test_fp8_kv_cache_request(self):
        model = small_lm(seed=5)
        prompt = np.array([3, 1, 4])
        ref = model.generate(prompt, max_new_tokens=10, kv_cache="E4M3")
        with ServingEngine(model) as engine:
            out = engine.generate(
                prompt, GenerationRequest(max_new_tokens=10, kv_cache="E4M3")
            ).result(timeout=60)
            stats = engine.stats["generation"]
        np.testing.assert_array_equal(out, ref)
        assert stats["sequences"] == 1

    def test_mid_decode_admission(self):
        model = slow_lm()
        p1, p2 = np.array([1, 2, 3]), np.array([7, 8])
        ref1 = model.generate(p1, max_new_tokens=24)
        ref2 = model.generate(p2, max_new_tokens=6)
        with ServingEngine(model, decode_slots=8) as engine:
            f1 = engine.generate(p1, GenerationRequest(max_new_tokens=24))
            time.sleep(0.05)  # f1 is mid-decode when f2 arrives
            f2 = engine.generate(p2, GenerationRequest(max_new_tokens=6))
            np.testing.assert_array_equal(f1.result(timeout=120), ref1)
            np.testing.assert_array_equal(f2.result(timeout=120), ref2)
            stats = engine.stats["generation"]
        assert stats["sequences"] == 2
        assert stats["decode_steps"] >= 1 and stats["prefill_steps"] >= 1
        assert stats["generated_tokens"] == 30

    def test_preemption_restore_round_trip(self):
        model = slow_lm()
        p_low, p_high = np.array([1, 2, 3]), np.array([7, 8])
        ref_low = model.generate(p_low, max_new_tokens=24)
        ref_high = model.generate(p_high, max_new_tokens=6)
        with ServingEngine(model, decode_slots=1) as engine:
            f_low = engine.generate(p_low, GenerationRequest(max_new_tokens=24, priority=0))
            time.sleep(0.06)  # let the low-priority request occupy the only slot
            f_high = engine.generate(p_high, GenerationRequest(max_new_tokens=6, priority=5))
            np.testing.assert_array_equal(f_high.result(timeout=120), ref_high)
            np.testing.assert_array_equal(f_low.result(timeout=120), ref_low)
            stats = engine.stats["generation"]
        assert stats["preemptions"] >= 1
        assert stats["restores"] >= 1

    def test_preempted_beam_restores_identically(self):
        model = slow_lm(seed=2)
        p_low, p_high = np.array([5, 6]), np.array([1, 2, 3])
        ref_low = model.generate(p_low, max_new_tokens=8, beam_size=2)
        with ServingEngine(model, decode_slots=2) as engine:
            f_low = engine.generate(
                p_low, GenerationRequest(max_new_tokens=8, beam_size=2, priority=0)
            )
            time.sleep(0.05)
            f_high = engine.generate(p_high, GenerationRequest(max_new_tokens=4, priority=9))
            f_high.result(timeout=120)
            np.testing.assert_array_equal(f_low.result(timeout=120), ref_low)

    def test_generation_deadline_expires_in_queue(self):
        model = slow_lm(step_delay_s=0.03)
        with ServingEngine(model, decode_slots=1) as engine:
            f_long = engine.generate(np.array([1, 2, 3]), GenerationRequest(max_new_tokens=20))
            time.sleep(0.05)
            # same priority: cannot preempt, and the running request outlives
            # the 1ms deadline budget
            f_late = engine.generate(
                np.array([7, 8]), GenerationRequest(max_new_tokens=4, deadline_ms=1.0)
            )
            with pytest.raises(DeadlineExceeded):
                f_late.result(timeout=120)
            f_long.result(timeout=120)
            assert engine.stats["generation"]["expired"] >= 1

    def test_generate_rejects_bad_prompts_and_models(self):
        model = small_lm(max_seq_len=8)
        with ServingEngine(model) as engine:
            with pytest.raises(ValueError, match="exceeds max_seq_len"):
                engine.generate(np.arange(9) % 8, GenerationRequest(max_new_tokens=2))
            with pytest.raises(ValueError, match="no room"):
                engine.generate(np.arange(8) % 8, GenerationRequest(max_new_tokens=2))
        mlp = nn.Sequential(nn.Linear(4, 4, rng=0)).eval()
        with ServingEngine(mlp) as engine:
            with pytest.raises(TypeError, match="generation"):
                engine.generate(np.array([1, 2]), GenerationRequest())

    def test_generation_stats_shape(self):
        model = small_lm()
        with ServingEngine(model) as engine:
            engine.generate(np.array([1, 2, 3]), GenerationRequest(max_new_tokens=6)).result(
                timeout=60
            )
            stats = engine.stats["generation"]
        assert stats["sequences"] == 1
        assert stats["generated_tokens"] == 6
        assert stats["tokens_per_s"] > 0
        assert "prefill_p50_ms" in stats and "prefill_p95_ms" in stats

    def test_close_drains_inflight_generations(self):
        model = slow_lm()
        engine = ServingEngine(model)
        future = engine.generate(np.array([1, 2, 3]), GenerationRequest(max_new_tokens=12))
        engine.close()
        assert future.done()
        np.testing.assert_array_equal(
            future.result(timeout=1), model.generate(np.array([1, 2, 3]), max_new_tokens=12)
        )
        with pytest.raises(RuntimeError, match="closed"):
            engine.generate(np.array([1, 2]), GenerationRequest())


class TestEngineMatchesModelGenerate:
    """A lone engine request runs the same search as ``model.generate``, in every mode."""

    @pytest.mark.parametrize("use_eos", [False, True], ids=["no-eos", "eos"])
    @pytest.mark.parametrize("kv_cache", ["float32", "E4M3"])
    @pytest.mark.parametrize("beam_size", [1, 3], ids=["greedy", "beam3"])
    def test_lone_request_matches_model_generate(self, beam_size, kv_cache, use_eos):
        model = small_lm(seed=4)
        prompt = np.array([3, 9, 4, 1])
        options = dict(max_new_tokens=12, beam_size=beam_size, kv_cache=kv_cache)
        eos = None
        if use_eos:
            # a token the unstopped search emits, so EOS cuts the output short
            eos = int(model.generate(prompt, **options)[prompt.size + 2])
        ref = model.generate(prompt, eos_token=eos, **options)
        with ServingEngine(model) as engine:
            out = engine.generate(prompt, GenerationRequest(eos_token=eos, **options))
            np.testing.assert_array_equal(out.result(timeout=60), ref)
        if use_eos:
            assert ref[-1] == eos and ref.size < prompt.size + 12


class TestGenerationStats:
    def test_latency_samples_stay_in_a_bounded_window(self, monkeypatch):
        monkeypatch.setattr(generation, "_STATS_WINDOW", 4)
        driver = generation.GenerationDriver(small_lm())
        try:
            session = driver.submit(np.array([1, 2, 3]), GenerationRequest(max_new_tokens=12))
            session.future.result(timeout=60)
            stats = driver.stats
        finally:
            driver.close()
        assert stats["prefill_steps"] == 1 and stats["decode_steps"] == 11
        assert len(driver._prefill_s) == 1 and len(driver._decode_s) == 4
        assert stats["decode_p95_ms"] >= stats["decode_p50_ms"] > 0


class TestTokenScheduler:
    class Item:
        def __init__(self, slots, priority, order, deadline=None):
            self.slots = slots
            self.priority = priority
            self.order = order
            self.deadline = deadline
            self.submitted = 0.0

    def test_admits_in_urgency_order_within_budget(self):
        scheduler = TokenScheduler(4)
        low = self.Item(3, 0, 0)
        high = self.Item(3, 2, 1)
        scheduler.add(low)
        scheduler.add(high)
        admitted, preempted, expired = scheduler.plan(0.0)
        assert admitted == [high] and not preempted and not expired
        assert scheduler.free_slots == 1

    def test_admits_newcomers_while_others_run(self):
        # continuous admission: a free slot admits a new session next tick,
        # without waiting for the running set to empty
        scheduler = TokenScheduler(8)
        first = self.Item(2, 0, 0)
        scheduler.add(first)
        assert scheduler.plan(0.0)[0] == [first]
        second = self.Item(2, 0, 1)
        scheduler.add(second)
        assert scheduler.plan(0.0) == ([second], [], [])
        assert scheduler.running == [first, second]

    def test_preempts_only_strictly_less_urgent(self):
        scheduler = TokenScheduler(2)
        first = self.Item(2, 0, 0)
        scheduler.add(first)
        assert scheduler.plan(0.0)[0] == [first]
        equal = self.Item(2, 0, 1)
        scheduler.add(equal)
        admitted, preempted, _ = scheduler.plan(0.0)
        assert not admitted and not preempted  # equal urgency never preempts
        urgent = self.Item(2, 5, 2)
        scheduler.add(urgent)
        admitted, preempted, _ = scheduler.plan(0.0)
        assert admitted == [urgent] and preempted == [first]
        # the evictee cannot bounce back while its evictor runs
        admitted, preempted, _ = scheduler.plan(0.0)
        assert not admitted and not preempted

    def test_expiry_and_oversized_sessions(self):
        scheduler = TokenScheduler(2)
        with pytest.raises(ValueError, match="slots"):
            scheduler.add(self.Item(3, 0, 0))
        stale = self.Item(1, 0, 1, deadline=1.0)
        scheduler.add(stale)
        admitted, _, expired = scheduler.plan(2.0)
        assert expired == [stale] and not admitted


def _wait_running(engine, timeout=30.0):
    """Block until the generation driver has run its first prefill tick."""
    deadline = time.monotonic() + timeout
    while engine.stats["generation"]["prefill_steps"] < 1:
        assert time.monotonic() < deadline, "the first generation never started"
        time.sleep(0.005)


class TestGenerationQueueCap:
    """generate() follows the engine's one admission rule (max_queue_depth, shed_policy)."""

    @pytest.mark.parametrize("policy, newcomer_priority", [("reject", 1), ("priority", 0)])
    def test_newcomer_rejected_and_waiter_served(self, policy, newcomer_priority):
        model = slow_lm()
        waiter_prompt = np.array([7, 8])
        ref_waiter = model.generate(waiter_prompt, max_new_tokens=3)
        with ServingEngine(
            model, decode_slots=1, max_queue_depth=1, shed_policy=policy
        ) as engine:
            running = engine.generate(np.array([1, 2, 3]), GenerationRequest(max_new_tokens=20))
            _wait_running(engine)
            waiter = engine.generate(waiter_prompt, GenerationRequest(max_new_tokens=3))
            with pytest.raises(QueueFull, match="depth cap"):
                engine.generate(
                    np.array([4, 5]),
                    GenerationRequest(max_new_tokens=3, priority=newcomer_priority),
                )
            np.testing.assert_array_equal(waiter.result(timeout=120), ref_waiter)
            running.result(timeout=120)
            stats = engine.stats
        assert stats["rejected_requests"] == 1
        assert stats["shed_requests"] == 0

    def test_priority_policy_sheds_the_lower_priority_waiter(self):
        model = slow_lm()
        vip_prompt = np.array([4, 5])
        ref_vip = model.generate(vip_prompt, max_new_tokens=3)
        with ServingEngine(
            model, decode_slots=1, max_queue_depth=1, shed_policy="priority"
        ) as engine:
            running = engine.generate(np.array([1, 2, 3]), GenerationRequest(max_new_tokens=20))
            _wait_running(engine)
            low = engine.generate(np.array([7, 8]), GenerationRequest(max_new_tokens=3))
            vip = engine.generate(vip_prompt, GenerationRequest(max_new_tokens=3, priority=1))
            with pytest.raises(RequestShed, match="shed"):
                low.result(timeout=30)
            np.testing.assert_array_equal(vip.result(timeout=120), ref_vip)
            running.result(timeout=120)
            stats = engine.stats
        assert stats["shed_requests"] == 1
        assert stats["generation"]["shed"] == 1
        assert stats["rejected_requests"] == 0


class TestGenerationCancellation:
    """A cancelled generate() future gives its decode rows back at the next tick."""

    def test_cancelled_waiting_generation_is_never_decoded(self):
        model = slow_lm()
        first_prompt, next_prompt = np.array([1, 2, 3]), np.array([4, 5])
        ref_first = model.generate(first_prompt, max_new_tokens=10)
        ref_next = model.generate(next_prompt, max_new_tokens=2)
        with ServingEngine(model, decode_slots=1) as engine:
            first = engine.generate(first_prompt, GenerationRequest(max_new_tokens=10))
            doomed = engine.generate(np.array([7, 8]), GenerationRequest(max_new_tokens=30))
            assert doomed.cancel()
            nxt = engine.generate(next_prompt, GenerationRequest(max_new_tokens=2))
            np.testing.assert_array_equal(first.result(timeout=120), ref_first)
            np.testing.assert_array_equal(nxt.result(timeout=120), ref_next)
            stats = engine.stats["generation"]
        assert doomed.cancelled()
        assert stats["sequences"] == 2
        assert stats["generated_tokens"] == 12  # the cancelled 30-token budget is not decoded

    def test_cancelled_running_generation_releases_its_slot(self):
        model = slow_lm()
        next_prompt = np.array([4, 5])
        ref_next = model.generate(next_prompt, max_new_tokens=2)
        with ServingEngine(model, decode_slots=1) as engine:
            doomed = engine.generate(np.array([7, 8]), GenerationRequest(max_new_tokens=40))
            _wait_running(engine)
            assert doomed.cancel()
            nxt = engine.generate(next_prompt, GenerationRequest(max_new_tokens=2))
            np.testing.assert_array_equal(nxt.result(timeout=120), ref_next)
            stats = engine.stats["generation"]
        assert doomed.cancelled()
        assert stats["sequences"] == 1
        assert stats["generated_tokens"] < 40  # decoding stopped well short of the budget
