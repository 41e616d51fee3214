"""ServingEngine x plan cache: worker forwards replay compiled plans."""

import numpy as np

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

    def test_checkpoint_replicas_each_get_a_cache(self, tmp_path):
        # from_checkpoint builds every replica with WorkerSpec.build, the
        # method a worker process runs, and that installs the plan cache
        from repro.nn.module import suspend_plan_dispatch
        from repro.quantization import Approach, quantize_model, standard_recipe
        from repro.serialization import save_quantized

        result = quantize_model(_mlp(seed=7), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        path = str(tmp_path / "mlp.rpq")
        save_quantized(result.model, path)
        samples = _samples(8)
        with ServingEngine.from_checkpoint(
            path, lambda: _mlp(seed=7), workers=2, max_batch_size=1, max_wait_ms=1
        ) as engine:
            caches = [plan_cache_of(m) for m in engine.replicas]
            assert all(c is not None for c in caches)
            assert caches[0] is not caches[1]
            outputs = [engine.serve(s, timeout=30) for s in samples]
            stats = engine.stats["plan_cache"]
        with no_grad(), suspend_plan_dispatch():
            expected = [engine.replicas[0](Tensor(s[None, :])).data[0] for s in samples]
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(np.asarray(got), want)
        assert stats["trace_aborts"] == 0
        assert stats["compiles"] >= 1
        assert stats["hits"] >= 1

    def test_served_model_still_copies_and_pickles(self):
        # the engine leaves a plan cache on the model it served; a copy (as
        # quantize_model makes) or a pickle (a process-worker template) of
        # that model leaves the cache behind instead of failing on its lock
        import pickle

        from repro.quantization.workflow import clone_module

        model = _mlp()
        sample = _samples(1)[0]
        with ServingEngine(model, max_wait_ms=1) as engine:
            served = engine.serve(sample, timeout=30)
        assert plan_cache_of(model) is not None
        for copied in (clone_module(model), pickle.loads(pickle.dumps(model))):
            assert plan_cache_of(copied) is None
            with no_grad():
                np.testing.assert_array_equal(copied(Tensor(sample[None])).data[0], served)
