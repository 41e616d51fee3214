"""Which zoo specs compile a plan, and that each plan replays bit for bit.

Convolutions, pools and BatchNorm replay as opaque leaves and the ops around
them call the eager ops' own functions, so each intermediate keeps eager's
memory layout and the global average pool sums in eager's order: the plan
reproduces eager bit for bit and the cache's compile-time check keeps it.
Factory weights and a few samples suffice: the check is structural.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.graph import TraceAborted, install_plan_cache, remove_plan_cache, trace
from repro.models.registry import TASK_TYPE_TABLE, get_spec, list_specs
from repro.nn.module import suspend_plan_dispatch
from repro.quantization import quantize_model, standard_recipe
from repro.quantization.qconfig import Approach

TRACEABLE_CNNS = [
    "resnet18-imagenet",
    "resnet50-imagenet",
    "resnext101-imagenet",
    "vgg13-imagenet",
    "mobilenet-v2-imagenet",
    "efficientnet-b0-imagenet",
    "se-resnext50-imagenet",
    "stable-diffusion-proxy",
]


def _model_and_batch(spec, precision="fp32"):
    model = spec.model_fn(np.random.default_rng(spec.seed))
    if precision == "E4M3-dynamic":
        recipe = standard_recipe("E4M3", approach=Approach.DYNAMIC)
        model = quantize_model(model, recipe, is_convolutional=spec.is_convolutional).model
    model.eval()
    prepare_inputs = TASK_TYPE_TABLE[spec.task_type][2]
    return model, prepare_inputs(spec.data_fn(np.random.default_rng(spec.seed + 1)).inputs[:3])


def test_exactly_the_traceable_specs_compile():
    """A tripwire over the whole zoo in fp32: the specs in TRACEABLE_CNNS
    compile a plan and every other spec's trace aborts.  A change that widens
    coverage on purpose updates the list."""
    changed = []
    for spec in list_specs():
        model, x = _model_and_batch(spec)
        cache = install_plan_cache(model)
        try:
            with no_grad():
                model(x)
            stats = cache.stats()
        finally:
            remove_plan_cache(model)
        if stats["plans"] == 1:
            outcome = "compiles"
        elif stats["trace_aborts"] == 1:
            outcome = "aborts"
        else:
            outcome = "traces, but its plan fails verification"
        if outcome != ("compiles" if spec.name in TRACEABLE_CNNS else "aborts"):
            if outcome == "aborts":
                try:
                    with no_grad():
                        trace(model, (x,))
                except TraceAborted as exc:
                    outcome = f"aborts: {exc}"
            changed.append(f"{spec.name} {outcome}")
    assert not changed, "zoo specs whose outcome changed:\n" + "\n".join(changed)


@pytest.mark.parametrize("precision", ["fp32", "E4M3-dynamic"])
@pytest.mark.parametrize("name", TRACEABLE_CNNS)
def test_zoo_cnn_compiles_a_verified_plan(name, precision):
    spec = get_spec(name)
    model, x = _model_and_batch(spec, precision)

    cache = install_plan_cache(model)
    try:
        with no_grad():
            with suspend_plan_dispatch():
                eager = model(x)
            model(x)  # trace, compile, verify
            replay = model(x)
        stats = cache.stats()
    finally:
        remove_plan_cache(model)
    assert stats["plans"] == 1, stats
    assert stats["verify_failures"] == 0, stats
    assert stats["hits"] == 1, stats
    assert isinstance(replay, Tensor)
    assert replay.data.dtype == eager.data.dtype
    np.testing.assert_array_equal(replay.data.view(np.uint32), eager.data.view(np.uint32))
