"""Plan-cache invalidation: stale plans must never replay.

Any mutation that changes what a forward computes — loading weights,
flipping the serving mode, re-running quantizer observation, registering a
forward hook — must drop the affected plans and fall back to (or recompile
from) the bit-exact eager path.
"""

import numpy as np

from repro import nn
from repro.autograd.tensor import Tensor, no_grad
from repro.graph import install_plan_cache, remove_plan_cache
from repro.nn.module import Parameter, suspend_plan_dispatch
from repro.quantization import extended_recipe, quantize_model, set_serving_mode, standard_recipe
from repro.quantization.qconfig import Approach


def mlp(seed=0, width=12):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(width, width, rng=rng),
        nn.ReLU(),
        nn.Linear(width, width, rng=rng),
    )


def probe(width=12, batch=2):
    rng = np.random.default_rng(42)
    return Tensor(rng.normal(0.0, 1.0, (batch, width)).astype(np.float32))


def warmed_cache(model, x):
    cache = install_plan_cache(model)
    with no_grad():
        model(x)
        model(x)
    assert cache.stats()["plans"] == 1
    return cache


class TestStateInvalidation:
    def test_load_state_dict_drops_plans_and_recompiles(self):
        model = mlp()
        model.eval()
        donor = mlp(seed=99)
        x = probe()
        cache = warmed_cache(model, x)

        model.load_state_dict(donor.state_dict())
        with no_grad():
            out = model(x)
            replay = model(x)
            with suspend_plan_dispatch():
                eager = model(x)
        stats = cache.stats()
        remove_plan_cache(model)
        assert stats["state_invalidations"] >= 1
        assert stats["compiles"] == 2  # old plan dropped, new one compiled
        np.testing.assert_array_equal(eager.data, out.data)
        np.testing.assert_array_equal(eager.data, replay.data)
        # the recompiled plan reflects the *new* weights
        with no_grad():
            donor_out = donor(x)
        np.testing.assert_array_equal(donor_out.data, out.data)

    def test_parameter_reassignment_drops_plans(self):
        model = nn.Sequential(nn.Linear(4, 4, rng=np.random.default_rng(0))).eval()
        x = probe(width=4)
        cache = warmed_cache(model, x)

        model.get_submodule("0").weight = Parameter(np.zeros((4, 4), dtype=np.float32))
        with no_grad():
            out = model(x)
            with suspend_plan_dispatch():
                eager = model(x)
        stats = cache.stats()
        remove_plan_cache(model)
        assert stats["state_invalidations"] == 1
        np.testing.assert_array_equal(out.data, eager.data)

    def test_set_serving_mode_drops_plans(self):
        recipe = standard_recipe(
            "E4M3",
            approach=Approach.DYNAMIC,
            skip_first_operator=False,
            skip_last_operator=False,
        )
        qmodel = quantize_model(mlp(), recipe).model
        qmodel.eval()
        set_serving_mode(qmodel, "cached")
        x = probe()
        cache = warmed_cache(qmodel, x)

        set_serving_mode(qmodel, "streaming")
        with no_grad():
            out = qmodel(x)
            replay = qmodel(x)
            with suspend_plan_dispatch():
                eager = qmodel(x)
        stats = cache.stats()
        remove_plan_cache(qmodel)
        assert stats["state_invalidations"] >= 1
        assert stats["compiles"] == 2
        np.testing.assert_array_equal(eager.data, out.data)
        np.testing.assert_array_equal(eager.data, replay.data)

    def test_requantize_observation_drops_plans(self):
        recipe = standard_recipe(
            "E4M3",
            approach=Approach.DYNAMIC,
            skip_first_operator=False,
            skip_last_operator=False,
        )
        qmodel = quantize_model(mlp(), recipe).model
        qmodel.eval()
        x = probe()
        cache = warmed_cache(qmodel, x)

        # re-observe: the quantizer lifecycle transition must invalidate
        from repro.quantization.qmodules import QuantizedModule

        wrappers = [m for _, m in qmodel.named_modules() if isinstance(m, QuantizedModule)]
        assert wrappers
        for wrapper in wrappers:
            wrapper.start_observing()
        with no_grad(), suspend_plan_dispatch():
            qmodel(x)
        for wrapper in wrappers:
            wrapper.stop_observing()

        with no_grad():
            out = qmodel(x)
            with suspend_plan_dispatch():
                eager = qmodel(x)
        stats = cache.stats()
        remove_plan_cache(qmodel)
        assert stats["state_invalidations"] >= 1
        np.testing.assert_array_equal(eager.data, out.data)


class TestHookInvalidation:
    def test_register_hook_forces_eager_and_remove_restores_plans(self):
        model = mlp()
        model.eval()
        x = probe()
        cache = warmed_cache(model, x)

        seen = []
        handle = model[0].register_forward_hook(lambda m, inp, out: seen.append(1))
        with no_grad():
            out_hooked = model(x)
            model(x)
        stats = cache.stats()
        assert stats["hook_invalidations"] >= 1
        assert stats["plans"] == 0  # the plan traced through the hooked module
        assert len(seen) == 2  # the hook genuinely ran (eager path)
        with no_grad(), suspend_plan_dispatch():
            eager = model(x)
        np.testing.assert_array_equal(eager.data, out_hooked.data)

        handle.remove()
        seen.clear()
        with no_grad():
            model(x)
            model(x)
        stats = cache.stats()
        remove_plan_cache(model)
        assert stats["plans"] == 1  # traceable again after hook removal
        assert seen == []

    def test_hook_on_a_wrapped_module_forces_eager(self):
        # a quantized wrapper's nodes replay its wrapped module without that
        # module's __call__, so a hook there must send the forward to eager
        recipe = extended_recipe(
            "E4M3",
            approach=Approach.DYNAMIC,
            skip_first_operator=False,
            skip_last_operator=False,
        )
        rng = np.random.default_rng(0)
        float_model = nn.Sequential(nn.Linear(12, 12, rng=rng), nn.LayerNorm(12))
        qmodel = quantize_model(float_model, recipe).model
        qmodel.eval()
        x = probe()
        cache = warmed_cache(qmodel, x)

        seen = []
        for wrapper in qmodel:
            wrapper.inner.register_forward_hook(lambda m, inp, out: seen.append(type(m).__name__))
        with no_grad():
            qmodel(x)
            qmodel(x)
        stats = cache.stats()
        remove_plan_cache(qmodel)
        assert stats["plans"] == 0
        assert seen == ["Linear", "LayerNorm"] * 2

    def test_hook_on_unrelated_model_keeps_plans(self):
        model = mlp()
        model.eval()
        other = mlp(seed=5)
        x = probe()
        cache = warmed_cache(model, x)
        hits_before = cache.stats()["hits"]

        handle = other[0].register_forward_hook(lambda m, inp, out: None)
        try:
            with no_grad():
                model(x)
            stats = cache.stats()
            # the epoch bump is observed, but this model's plan survives it
            assert stats["plans"] == 1
            assert stats["hits"] == hits_before + 1
        finally:
            handle.remove()
            remove_plan_cache(model)
