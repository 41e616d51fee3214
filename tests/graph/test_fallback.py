"""Dispatch bypass and eager fallback: the cache must know when to stand down.

Shapes it has not compiled yet, kwargs, training mode, gradients and
untraceable models all route to the eager path — silently correct, never
silently wrong.
"""

import numpy as np
import pytest

from repro import nn
from repro.autograd.tensor import Tensor, no_grad
from repro.graph import install_plan_cache, plan_cache_of, remove_plan_cache, trace
from repro.graph.ir import TraceAborted


def mlp(width=10, seed=1):
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.Linear(width, width, rng=rng), nn.ReLU())


def batch(shape, seed=2):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0.0, 1.0, shape).astype(np.float32))


class TestShapeFallback:
    def test_new_shape_compiles_a_second_plan(self):
        model = mlp()
        model.eval()
        cache = install_plan_cache(model)
        with no_grad():
            model(batch((2, 10)))
            model(batch((2, 10)))
            model(batch((5, 10)))  # unseen shape: miss + fresh compile
            out = model(batch((5, 10)))
        stats = cache.stats()
        assert stats["plans"] == 2
        assert stats["compiles"] == 2
        assert stats["misses"] == 2
        assert stats["hits"] == 2
        with no_grad():
            from repro.nn.module import suspend_plan_dispatch

            with suspend_plan_dispatch():
                eager = model(batch((5, 10)))
        remove_plan_cache(model)
        np.testing.assert_array_equal(eager.data, out.data)

    def test_lru_eviction_bounds_plan_count(self):
        model = mlp()
        model.eval()
        cache = install_plan_cache(model, max_plans=2)
        with no_grad():
            for rows in (1, 2, 3, 4):
                model(batch((rows, 10)))
        stats = cache.stats()
        remove_plan_cache(model)
        assert stats["plans"] <= 2
        assert stats["compiles"] == 4


class TestDispatchBypass:
    def test_kwargs_bypass_dispatch(self):
        class KwModel(nn.Module):
            def __init__(self):
                super().__init__()
                self.lin = nn.Linear(10, 10, rng=np.random.default_rng(0))

            def forward(self, x, scale=1.0):
                return self.lin(x) * scale

        model = KwModel()
        model.eval()
        cache = install_plan_cache(model)
        with no_grad():
            model(batch((2, 10)), scale=2.0)
            model(batch((2, 10)), scale=2.0)
        stats = cache.stats()
        remove_plan_cache(model)
        assert stats["plans"] == 0
        assert stats["bypass"] == 2

    def test_training_mode_bypasses_dispatch(self):
        model = mlp()
        model.train()
        cache = install_plan_cache(model)
        with no_grad():
            model(batch((2, 10)))
        stats = cache.stats()
        remove_plan_cache(model)
        assert stats["plans"] == 0
        assert stats["bypass"] == 1

    def test_grad_enabled_bypasses_dispatch(self):
        model = mlp()
        model.eval()
        cache = install_plan_cache(model)
        model(batch((2, 10)))  # gradients enabled by default outside no_grad
        stats = cache.stats()
        remove_plan_cache(model)
        assert stats["plans"] == 0
        assert stats["bypass"] == 1


class TestUntraceableModels:
    def test_data_dependent_control_flow_pins_eager(self):
        class Branchy(nn.Module):
            def __init__(self):
                super().__init__()
                self.lin = nn.Linear(10, 10, rng=np.random.default_rng(0))

            def forward(self, x):
                y = self.lin(x)
                # value-dependent branch into untraced Tensor arithmetic:
                # either path produces a value the tracer never saw a module
                # emit, so tracing aborts and the key is pinned eager
                if float(y.data.sum()) > 0:
                    return y * 1.0
                return y * 2.0

        model = Branchy()
        model.eval()
        cache = install_plan_cache(model)
        x = batch((2, 10))
        with no_grad():
            out1 = model(x)
            out2 = model(x)
        stats = cache.stats()
        assert stats["plans"] == 0
        assert stats["trace_aborts"] == 1
        assert stats["eager_hits"] >= 1  # the EAGER sentinel short-circuits retracing
        from repro.nn.module import suspend_plan_dispatch

        with no_grad(), suspend_plan_dispatch():
            eager = model(x)
        remove_plan_cache(model)
        np.testing.assert_array_equal(eager.data, out1.data)
        np.testing.assert_array_equal(eager.data, out2.data)

    def test_leaf_keyword_arguments_raise_as_eager(self):
        # a leaf's node replays positional arrays only: a keyword argument
        # aborts the trace, and the eager forward then raises as it would
        class KwLeaf(nn.Module):
            def __init__(self):
                super().__init__()
                self.lin = nn.Linear(10, 10, rng=np.random.default_rng(0))
                self.act = nn.ReLU()

            def forward(self, x):
                return self.act(self.lin(x), inplace=True)

        model = KwLeaf()
        model.eval()
        cache = install_plan_cache(model)
        with no_grad():
            for _ in range(2):
                with pytest.raises(TypeError, match="inplace"):
                    model(batch((2, 10)))
        stats = cache.stats()
        remove_plan_cache(model)
        assert stats["plans"] == 0
        assert stats["trace_aborts"] == 1

    def test_trace_raises_on_untraceable_leaf(self):
        class Opaque(nn.Module):
            def forward(self, x):
                return Tensor(np.tanh(x.data))

        class Wrapper(nn.Module):
            def __init__(self):
                super().__init__()
                self.op = Opaque()

            def forward(self, x):
                return self.op(x)

        model = Wrapper()
        model.eval()
        x = batch((2, 10))
        with no_grad():
            try:
                trace(model, (x,), {})
            except TraceAborted:
                pass
            else:
                raise AssertionError("expected TraceAborted for an opaque leaf")


def test_install_is_idempotent():
    model = mlp()
    model.eval()
    cache = install_plan_cache(model)
    assert install_plan_cache(model) is cache
    assert plan_cache_of(model) is cache
    remove_plan_cache(model)
    assert plan_cache_of(model) is None
