"""Plan replay == eager, bit for bit (the compiled path's core contract).

Eager execution is the oracle: for every model the plan cache can compile,
replaying the plan must produce byte-identical outputs.  Hypothesis
drives the inputs; the configuration grid covers FP8 formats x weight
granularities x serving modes on both FP8 decode paths (the compiled kernel
and numpy).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.autograd.tensor import Tensor, no_grad
from repro.graph import install_plan_cache, plan_cache_of, remove_plan_cache
from repro.nn.module import suspend_plan_dispatch
from repro.quantization import quantize_model, set_serving_mode, standard_recipe
from repro.quantization.qconfig import Approach, Granularity

WIDTH = 16


def small_mlp(seed=3):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(WIDTH, 2 * WIDTH, rng=rng),
        nn.ReLU(),
        nn.Linear(2 * WIDTH, WIDTH, rng=rng),
        nn.GELU(),
        nn.Linear(WIDTH, 8, rng=rng),
    )


def batches():
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda b: st.lists(
            st.lists(
                st.floats(
                    min_value=-8.0, max_value=8.0, width=32, allow_nan=False, allow_infinity=False
                ),
                min_size=WIDTH,
                max_size=WIDTH,
            ),
            min_size=b,
            max_size=b,
        )
    )


def assert_replay_matches_eager(model, batch):
    x = Tensor(np.asarray(batch, dtype=np.float32))
    with no_grad():
        with suspend_plan_dispatch():
            eager = model(x)
        first = model(x)  # compile on first sight of the shape, replay after
        replay = model(x)
    np.testing.assert_array_equal(eager.data, first.data)
    np.testing.assert_array_equal(eager.data, replay.data)


class TestFloatModel:
    @given(batch=batches())
    @settings(max_examples=25, deadline=None)
    def test_replay_bit_identical(self, batch):
        model = small_mlp()
        model.eval()
        install_plan_cache(model)
        try:
            assert_replay_matches_eager(model, batch)
        finally:
            remove_plan_cache(model)

    def test_plans_compile_not_fall_back(self):
        model = small_mlp()
        model.eval()
        cache = install_plan_cache(model)
        x = Tensor(np.zeros((2, WIDTH), dtype=np.float32))
        with no_grad():
            model(x)
            model(x)
        stats = cache.stats()
        assert stats["plans"] == 1
        assert stats["compiles"] == 1
        assert stats["hits"] >= 1
        assert stats["trace_aborts"] == 0
        assert stats["verify_failures"] == 0


@pytest.mark.parametrize("mode", ["cached", "streaming"])
@pytest.mark.parametrize("fmt", ["E4M3", "E5M2"])
@pytest.mark.parametrize("granularity", [Granularity.PER_CHANNEL, Granularity.PER_TENSOR])
class TestQuantizedModel:
    def _quantized(self, fmt, granularity):
        recipe = standard_recipe(
            fmt,
            approach=Approach.DYNAMIC,
            weight_granularity=granularity,
            skip_first_operator=False,
            skip_last_operator=False,
        )
        qmodel = quantize_model(small_mlp(), recipe).model
        qmodel.eval()
        return qmodel

    # the decode path is fixed for the whole test, so the function-scoped
    # fixture holds for every example hypothesis draws
    @given(batch=batches())
    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_replay_bit_identical(self, decode, mode, fmt, granularity, batch):
        qmodel = self._quantized(fmt, granularity)
        set_serving_mode(qmodel, mode)
        install_plan_cache(qmodel)
        try:
            assert_replay_matches_eager(qmodel, batch)
            assert plan_cache_of(qmodel).stats()["plans"] >= 1
        finally:
            remove_plan_cache(qmodel)

    def test_quantized_forward_compiles(self, decode, mode, fmt, granularity):
        qmodel = self._quantized(fmt, granularity)
        set_serving_mode(qmodel, mode)
        cache = install_plan_cache(qmodel)
        x = Tensor(np.ones((2, WIDTH), dtype=np.float32))
        with no_grad():
            qmodel(x)
            qmodel(x)
        stats = cache.stats()
        remove_plan_cache(qmodel)
        assert stats["plans"] == 1, stats
        assert stats["hits"] >= 1, stats
