"""ServingEngine x plan cache: worker forwards replay compiled plans."""

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd.tensor import Tensor, no_grad
from repro.graph import plan_cache_of
from repro.serving import ServingEngine


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


class TestEnginePlanCache:
    def test_auto_installs_and_outputs_match_eager(self):
        model = _mlp()
        samples = _samples(12)
        with no_grad():
            expected = [model(Tensor(s[None, :])).data[0] for s in samples]
        with ServingEngine(model, max_batch_size=1, max_wait_ms=1) as engine:
            assert plan_cache_of(model) is not None
            outputs = [engine.serve(s, timeout=30) for s in samples]
            stats = engine.stats
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(np.asarray(got), want)
        plan_stats = stats["plan_cache"]
        assert plan_stats["plans"] >= 1
        assert plan_stats["compiles"] >= 1
        assert plan_stats["hits"] >= 1

    def test_disabled_means_no_cache(self):
        model = _mlp()
        with ServingEngine(model, max_wait_ms=1, plan_cache=False) as engine:
            assert plan_cache_of(model) is None
            engine.serve(_samples(1)[0], timeout=30)
            assert "plan_cache" not in engine.stats

    def test_invalid_plan_cache_value_rejected(self):
        for value in ("always", "auto", 1):
            with pytest.raises(ValueError, match="plan_cache"):
                ServingEngine(_mlp(), plan_cache=value)

    def test_multi_worker_shared_model_single_cache(self):
        model = _mlp()
        samples = _samples(20)
        with no_grad():
            expected = [model(Tensor(s[None, :])).data[0] for s in samples]
        with ServingEngine(model, max_batch_size=4, max_wait_ms=10, workers=3) as engine:
            outputs = [engine.serve(s, timeout=30) for s in samples]
            stats = engine.stats
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(np.asarray(got), want)
        # one shared model -> one cache, aggregated once
        assert stats["plan_cache"]["state_invalidations"] >= 0

    def test_replica_models_each_get_a_cache(self):
        replicas = [_mlp(seed=7), _mlp(seed=7)]
        samples = _samples(10)
        with ServingEngine(replicas, max_batch_size=2, max_wait_ms=10) as engine:
            caches = [plan_cache_of(m) for m in replicas]
            assert all(c is not None for c in caches)
            assert caches[0] is not caches[1]
            outputs = [engine.serve(s, timeout=30) for s in samples]
        with no_grad():
            expected = [replicas[0](Tensor(s[None, :])).data[0] for s in samples]
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(np.asarray(got), want)
