"""Replay ≡ eager for leaf types and quantized wrappers no other test replays.

Each case builds a small model around one float leaf, or around one
quantized wrapper (extended E4M3 recipe, dynamic activations) served cached
and streaming.  The plan cache must store one verified plan, and its replay
must match eager bit for bit, on both FP8 decode paths.
"""

import numpy as np
import pytest

from repro import nn
from repro.autograd.tensor import Tensor, no_grad
from repro.graph import install_plan_cache, remove_plan_cache
from repro.nn.module import suspend_plan_dispatch
from repro.quantization import extended_recipe, quantize_model, set_serving_mode
from repro.quantization.qconfig import Approach


class TwoInputs(nn.Module):
    """Feeds both model inputs to one binary leaf."""

    def __init__(self, op):
        super().__init__()
        self.op = op

    def forward(self, a, b):
        return self.op(a, b)


def _floats(*shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(0.0, 2.0, shape).astype(np.float32))


def _indices(*shape):
    return np.random.default_rng(1).integers(0, 20, shape)


def _rng():
    return np.random.default_rng(5)


# name -> (model factory, inputs factory)
FLOAT_LEAVES = {
    "Tanh": (lambda: nn.Tanh(), lambda: (_floats(3, 8),)),
    "LayerNorm": (lambda: nn.LayerNorm(8), lambda: (_floats(3, 8),)),
    "BatchMatMul": (lambda: nn.BatchMatMul(), lambda: (_floats(2, 3, 4), _floats(2, 4, 5, seed=1))),
    "Dropout": (
        lambda: nn.Sequential(nn.Linear(8, 8, rng=_rng()), nn.Dropout(0.5, rng=_rng())),
        lambda: (_floats(3, 8),),
    ),
    "Embedding": (lambda: nn.Embedding(20, 8, rng=_rng()), lambda: (_indices(3, 5),)),
    "EmbeddingBag": (lambda: nn.EmbeddingBag(20, 8, rng=_rng()), lambda: (_indices(3, 4),)),
    "AvgPool2d": (lambda: nn.AvgPool2d(2), lambda: (_floats(2, 3, 8, 8),)),
    "MultiHeadSelfAttention": (
        lambda: nn.MultiHeadSelfAttention(16, 4, rng=_rng()),
        lambda: (_floats(2, 5, 16),),
    ),
}

# wrapper name -> (float model factory, inputs factory)
QUANTIZED_WRAPPERS = {
    "QuantizedAdd": (lambda: TwoInputs(nn.Add()), lambda: (_floats(3, 8), _floats(3, 8, seed=1))),
    "QuantizedMul": (lambda: TwoInputs(nn.Mul()), lambda: (_floats(3, 8), _floats(3, 8, seed=1))),
    "QuantizedLayerNorm": (lambda: nn.Sequential(nn.LayerNorm(8)), lambda: (_floats(3, 8),)),
    "QuantizedBatchNorm2d": (
        lambda: nn.Sequential(nn.BatchNorm2d(3)),
        lambda: (_floats(2, 3, 6, 6),),
    ),
    "QuantizedBatchMatMul": (
        lambda: TwoInputs(nn.BatchMatMul()),
        lambda: (_floats(2, 3, 4), _floats(2, 4, 5, seed=1)),
    ),
    "QuantizedEmbedding": (
        lambda: nn.Sequential(nn.Embedding(20, 8, rng=_rng())),
        lambda: (_indices(3, 5),),
    ),
}

CASES = [pytest.param(name, None, id=name) for name in FLOAT_LEAVES] + [
    pytest.param(name, mode, id=f"{name}-{mode}")
    for name in QUANTIZED_WRAPPERS
    for mode in ("cached", "streaming")
]


def _model(name, mode):
    if mode is None:
        make, inputs = FLOAT_LEAVES[name]
        model = make()
    else:
        make, inputs = QUANTIZED_WRAPPERS[name]
        recipe = extended_recipe(
            "E4M3",
            approach=Approach.DYNAMIC,
            skip_first_operator=False,
            skip_last_operator=False,
            batchnorm_calibration=False,
        )
        model = quantize_model(make(), recipe).model
        set_serving_mode(model, mode)
        assert name in {type(m).__name__ for m in model.modules()}
    model.eval()
    return model, inputs()


@pytest.mark.parametrize("name, mode", CASES)
def test_replay_matches_eager(decode, name, mode):
    model, args = _model(name, mode)
    cache = install_plan_cache(model)
    try:
        with no_grad():
            with suspend_plan_dispatch():
                eager = model(*args)
            model(*args)  # trace, verify, store
            replay = model(*args)
        stats = cache.stats()
    finally:
        remove_plan_cache(model)
    assert stats["plans"] == 1, stats
    assert stats["verify_failures"] == 0, stats
    assert stats["hits"] == 1, stats
    assert isinstance(replay, Tensor)
    assert replay.data.dtype == eager.data.dtype == np.float32
    np.testing.assert_array_equal(replay.data.view(np.uint32), eager.data.view(np.uint32))
