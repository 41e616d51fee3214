"""Tests for the Module base class (traversal, replacement, state dicts, hooks)."""

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd import Tensor
from repro.nn.module import Module, Parameter


def small_model():
    return nn.Sequential(
        nn.Linear(4, 8, rng=np.random.default_rng(0)),
        nn.ReLU(),
        nn.Linear(8, 2, rng=np.random.default_rng(1)),
    )


class TestTraversal:
    def test_named_modules(self):
        model = small_model()
        names = [name for name, _ in model.named_modules()]
        assert "" in names and "0" in names and "2" in names

    def test_named_parameters(self):
        model = small_model()
        names = dict(model.named_parameters())
        assert "0.weight" in names and "2.bias" in names

    def test_num_parameters(self):
        model = small_model()
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_size_mb(self):
        model = small_model()
        assert model.size_mb() == pytest.approx(model.num_parameters() * 4 / 1024**2)

    def test_named_buffers(self):
        bn = nn.BatchNorm2d(3)
        assert {"running_mean", "running_var"} <= {name for name, _ in bn.named_buffers()}


class TestSubmoduleAccess:
    def test_get_submodule(self):
        model = small_model()
        assert isinstance(model.get_submodule("0"), nn.Linear)

    def test_get_submodule_empty_returns_self(self):
        model = small_model()
        assert model.get_submodule("") is model

    def test_get_submodule_missing(self):
        with pytest.raises(KeyError):
            small_model().get_submodule("7")

    def test_set_submodule_replaces(self):
        model = small_model()
        model.set_submodule("1", nn.Identity())
        assert isinstance(model.get_submodule("1"), nn.Identity)
        out = model(Tensor(np.ones((2, 4), dtype=np.float32)))
        assert out.shape == (2, 2)

    def test_set_submodule_root_rejected(self):
        with pytest.raises(ValueError):
            small_model().set_submodule("", nn.Identity())

    def test_set_submodule_nested(self):
        class Wrapper(Module):
            def __init__(self):
                super().__init__()
                self.inner = small_model()

            def forward(self, x):
                return self.inner(x)

        model = Wrapper()
        model.set_submodule("inner.1", nn.Identity())
        assert isinstance(model.inner.get_submodule("1"), nn.Identity)


class TestStateDict:
    def test_roundtrip(self):
        model = small_model()
        state = model.state_dict()
        other = small_model()
        # perturb then restore
        for p in other.parameters():
            p.data += 1.0
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(model.named_parameters(), other.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_state_dict_copies(self):
        model = small_model()
        state = model.state_dict()
        state["0.weight"][...] = 0
        assert not np.allclose(model.get_submodule("0").weight.data, 0)

    def test_buffers_in_state_dict(self):
        bn = nn.BatchNorm2d(4)
        bn.running_mean[...] = 7.0
        state = bn.state_dict()
        assert np.allclose(state["running_mean"], 7.0)
        bn2 = nn.BatchNorm2d(4)
        bn2.load_state_dict(state)
        assert np.allclose(bn2.running_mean, 7.0)

    def test_shape_mismatch_raises(self):
        model = small_model()
        state = model.state_dict()
        state["0.weight"] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_unexpected_key_strict(self):
        model = small_model()
        state = model.state_dict()
        state["nonexistent"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state, strict=True)
        model.load_state_dict(state, strict=False)

    def test_shape_mismatch_writes_nothing(self):
        model = small_model()
        before = model.state_dict()
        state = {name: np.zeros_like(value) for name, value in before.items()}
        state["2.weight"] = np.zeros((1, 1), dtype=np.float32)  # after 0.weight
        with pytest.raises(ValueError, match="2.weight"):
            model.load_state_dict(state)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_unexpected_key_writes_nothing(self):
        model = small_model()
        before = model.state_dict()
        state = {name: np.zeros_like(value) for name, value in before.items()}
        state["nonexistent"] = np.zeros(1)
        with pytest.raises(KeyError, match="nonexistent"):
            model.load_state_dict(state, strict=True)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])


class TestModes:
    def test_train_eval_propagates(self):
        model = small_model()
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        model = small_model()
        out = model(Tensor(np.ones((2, 4), dtype=np.float32)))
        out.sum().backward()
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_apply(self):
        visited = []
        small_model().apply(lambda m: visited.append(type(m).__name__))
        assert "Linear" in visited and "Sequential" in visited


class TestHooks:
    def test_forward_hook_called(self):
        model = small_model()
        captured = []
        handle = model.get_submodule("0").register_forward_hook(
            lambda module, inputs, output: captured.append(output.data.copy())
        )
        model(Tensor(np.ones((2, 4), dtype=np.float32)))
        assert len(captured) == 1 and captured[0].shape == (2, 8)
        handle.remove()
        model(Tensor(np.ones((2, 4), dtype=np.float32)))
        assert len(captured) == 1

    def test_parameter_registration(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))

            def forward(self, x):
                return x * self.w

        m = M()
        assert "w" in dict(m.named_parameters())
