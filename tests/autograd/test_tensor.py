"""Tests for the Tensor autograd engine (analytic gradients vs numerical differentiation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, gradcheck, no_grad, is_grad_enabled


def t(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestBasics:
    def test_shape_dtype(self):
        x = Tensor(np.ones((2, 3)))
        assert x.shape == (2, 3)
        assert x.dtype == np.float32
        assert x.size == 6

    def test_detach_cuts_tape(self):
        x = t((3,))
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_no_grad_context(self):
        x = t((3,))
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert y._backward is None

    def test_backward_requires_grad(self):
        x = Tensor(np.ones(3), requires_grad=False)
        with pytest.raises(RuntimeError):
            x.backward()

    def test_grad_accumulates_across_backward_calls(self):
        x = t((3,))
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        assert np.allclose(x.grad, 4.0)

    def test_zero_grad(self):
        x = t((3,))
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_item(self):
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)


class TestArithmeticGradients:
    def test_add(self):
        gradcheck(lambda a, b: a + b, [t((3, 4), 1), t((3, 4), 2)])

    def test_add_broadcast(self):
        gradcheck(lambda a, b: a + b, [t((3, 4), 1), t((4,), 2)])

    def test_sub(self):
        gradcheck(lambda a, b: a - b, [t((2, 3), 1), t((2, 3), 2)])

    def test_mul(self):
        gradcheck(lambda a, b: a * b, [t((3, 3), 1), t((3, 3), 2)])

    def test_mul_broadcast_scalar_tensor(self):
        gradcheck(lambda a, b: a * b, [t((2, 3), 1), t((1,), 2)])

    def test_div(self):
        a, b = t((3,), 1), t((3,), 2)
        b.data = np.abs(b.data) + 1.0
        gradcheck(lambda a, b: a / b, [a, b])

    def test_pow(self):
        a = t((4,), 3)
        a.data = np.abs(a.data) + 0.5
        gradcheck(lambda a: a**3, [a])

    def test_neg(self):
        gradcheck(lambda a: -a, [t((3,))])

    def test_rsub_rmul(self):
        x = t((3,))
        y = 2.0 - x
        z = 3.0 * x
        assert np.allclose(y.data, 2.0 - x.data)
        assert np.allclose(z.data, 3.0 * x.data)


class TestMatmulGradients:
    def test_2d_matmul(self):
        gradcheck(lambda a, b: a @ b, [t((3, 4), 1), t((4, 5), 2)])

    def test_batched_matmul(self):
        gradcheck(lambda a, b: a @ b, [t((2, 3, 4), 1), t((2, 4, 5), 2)])

    def test_broadcast_batched_matmul(self):
        gradcheck(lambda a, b: a @ b, [t((2, 3, 4), 1), t((4, 5), 2)])


class TestReductionGradients:
    def test_sum_all(self):
        gradcheck(lambda a: a.sum(), [t((3, 4))])

    def test_sum_axis(self):
        gradcheck(lambda a: a.sum(axis=1), [t((3, 4))])

    def test_sum_axis_keepdims(self):
        gradcheck(lambda a: a.sum(axis=0, keepdims=True), [t((3, 4))])

    def test_mean(self):
        gradcheck(lambda a: a.mean(axis=-1), [t((2, 5))])

    def test_var(self):
        gradcheck(lambda a: a.var(axis=-1), [t((2, 5))])

    def test_max(self):
        a = t((3, 4))
        gradcheck(lambda a: a.max(axis=1), [a])


class TestShapeGradients:
    def test_reshape(self):
        gradcheck(lambda a: a.reshape(6, 2), [t((3, 4))])

    def test_flatten(self):
        gradcheck(lambda a: a.flatten(1), [t((2, 3, 4))])

    def test_transpose(self):
        gradcheck(lambda a: a.transpose(1, 0, 2), [t((2, 3, 4))])

    def test_swapaxes(self):
        gradcheck(lambda a: a.swapaxes(0, 1), [t((2, 3))])

    def test_getitem(self):
        gradcheck(lambda a: a[1:, :2], [t((3, 4))])

    def test_concatenate(self):
        gradcheck(lambda a, b: Tensor.concatenate([a, b], axis=1), [t((2, 3), 1), t((2, 2), 2)])

    def test_pad2d(self):
        gradcheck(lambda a: a.pad2d((1, 2)), [t((1, 2, 3, 3))])


class TestNonlinearityGradients:
    def test_exp(self):
        gradcheck(lambda a: a.exp(), [t((3, 3), scale=0.5)])

    def test_log(self):
        a = t((4,))
        a.data = np.abs(a.data) + 0.5
        gradcheck(lambda a: a.log(), [a])

    def test_sqrt(self):
        a = t((4,))
        a.data = np.abs(a.data) + 0.5
        gradcheck(lambda a: a.sqrt(), [a])

    def test_relu(self):
        gradcheck(lambda a: a.relu(), [t((4, 4))])

    def test_sigmoid(self):
        gradcheck(lambda a: a.sigmoid(), [t((3, 3))])

    def test_tanh(self):
        gradcheck(lambda a: a.tanh(), [t((3, 3))])

    def test_gelu(self):
        gradcheck(lambda a: a.gelu(), [t((3, 3))])

    def test_silu(self):
        gradcheck(lambda a: a.silu(), [t((3, 3))])

    def test_abs(self):
        a = t((5,))
        a.data = a.data + np.sign(a.data) * 0.5  # keep away from the kink
        gradcheck(lambda a: a.abs(), [a])

    def test_clip(self):
        a = t((5,), scale=2.0)
        gradcheck(lambda a: a.clip(-1.0, 1.0), [a])


class TestNonlinearityValues:
    def test_gelu_matches_float64_formula(self):
        # gradcheck covers only the gradient; this pins the forward values
        # against a float64 evaluation of the same tanh approximation
        rng = np.random.default_rng(0)
        grid = np.linspace(-20.0, 20.0, 40001)
        x = np.concatenate([grid, rng.normal(0.0, 3.0, 100_000)]).astype(np.float32)
        got = Tensor(x).gelu().data
        assert got.dtype == np.float32
        x64 = x.astype(np.float64)
        want = 0.5 * x64 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * x64**3)))
        assert np.max(np.abs(got - want)) <= 1e-6


class TestGraphBehaviour:
    def test_diamond_graph_accumulates(self):
        x = t((3,))
        y = x * 2
        z = (y + x).sum()
        z.backward()
        assert np.allclose(x.grad, 3.0)

    def test_chain_through_multiple_ops(self):
        gradcheck(lambda a: ((a * 2 + 1).tanh() ** 2).mean(), [t((3, 3))])

    def test_grad_not_tracked_for_constant_operands(self):
        x = t((3,))
        c = Tensor(np.ones(3))
        (x * c).sum().backward()
        assert c.grad is None

    @given(st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_linear_chain_random_shapes(self, n, m):
        a = t((n, m), seed=n * 10 + m)
        gradcheck(lambda a: (a * 3 - 1).relu().sum(axis=0), [a])
