"""Tests for the NN functional primitives (forward semantics + gradients)."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, gradcheck


def t(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestLinearAndMatmul:
    def test_linear_matches_numpy(self):
        x, w, b = t((4, 3), 1), t((5, 3), 2), t((5,), 3)
        out = F.linear(x, w, b)
        assert np.allclose(out.data, x.data @ w.data.T + b.data, atol=1e-5)

    def test_linear_gradcheck(self):
        gradcheck(lambda x, w, b: F.linear(x, w, b), [t((3, 4), 1), t((2, 4), 2), t((2,), 3)])

    def test_linear_no_bias(self):
        out = F.linear(t((2, 3)), t((4, 3)))
        assert out.shape == (2, 4)

    def test_linear_3d_input(self):
        out = F.linear(t((2, 5, 3)), t((4, 3)), t((4,)))
        assert out.shape == (2, 5, 4)

    def test_matmul_gradcheck(self):
        gradcheck(lambda a, b: F.matmul(a, b), [t((2, 3, 4), 1), t((2, 4, 2), 2)])


class TestConv2d:
    def test_output_shape(self):
        out = F.conv2d(t((2, 3, 8, 8)), t((5, 3, 3, 3), 2, 0.2), stride=1, padding=1)
        assert out.shape == (2, 5, 8, 8)

    def test_stride_and_padding_shapes(self):
        out = F.conv2d(t((1, 3, 9, 9)), t((4, 3, 3, 3), 2, 0.2), stride=2, padding=1)
        assert out.shape == (1, 4, 5, 5)

    def test_identity_kernel(self):
        x = t((1, 1, 5, 5))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32), requires_grad=True)
        w.data[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, w, padding=1)
        assert np.allclose(out.data, x.data, atol=1e-6)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), padding=0).data
        # naive direct computation
        expected = np.zeros((1, 3, 4, 4), dtype=np.float32)
        for co in range(3):
            for i in range(4):
                for j in range(4):
                    expected[0, co, i, j] = np.sum(x[0, :, i : i + 3, j : j + 3] * w[co])
        assert np.allclose(out, expected, atol=1e-4)

    def test_gradcheck(self):
        gradcheck(
            lambda x, w, b: F.conv2d(x, w, b, stride=1, padding=1),
            [t((1, 2, 5, 5), 1), t((3, 2, 3, 3), 2, 0.3), t((3,), 3)],
        )

    def test_grouped_conv_shapes(self):
        out = F.conv2d(t((2, 4, 6, 6)), t((4, 1, 3, 3), 2, 0.3), padding=1, groups=4)
        assert out.shape == (2, 4, 6, 6)

    def test_grouped_conv_gradcheck(self):
        gradcheck(
            lambda x, w: F.conv2d(x, w, padding=1, groups=2),
            [t((1, 4, 4, 4), 1), t((4, 2, 3, 3), 2, 0.3)],
        )

    def test_depthwise_equals_per_channel_conv(self):
        x = t((1, 3, 6, 6), 7)
        w = t((3, 1, 3, 3), 8, 0.3)
        grouped = F.conv2d(x, w, padding=1, groups=3).data
        for c in range(3):
            single = F.conv2d(
                Tensor(x.data[:, c : c + 1]), Tensor(w.data[c : c + 1]), padding=1
            ).data
            assert np.allclose(grouped[:, c : c + 1], single, atol=1e-5)

    def test_incompatible_groups_raise(self):
        with pytest.raises(ValueError):
            F.conv2d(t((1, 3, 4, 4)), t((4, 3, 3, 3)), groups=2)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        assert np.allclose(out.data.reshape(-1), [5, 7, 13, 15])

    def test_max_pool_gradcheck(self):
        gradcheck(lambda x: F.max_pool2d(x, 2), [t((1, 2, 4, 4))])

    def test_avg_pool_values(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        assert np.allclose(F.avg_pool2d(x, 2).data, 1.0)

    def test_avg_pool_gradcheck(self):
        gradcheck(lambda x: F.avg_pool2d(x, 2), [t((1, 2, 4, 4))])

    def test_global_pool(self):
        out = F.adaptive_avg_pool2d(t((2, 3, 5, 5)))
        assert out.shape == (2, 3, 1, 1)

    def test_adaptive_pool_rejects_other_sizes(self):
        with pytest.raises(NotImplementedError):
            F.adaptive_avg_pool2d(t((1, 1, 4, 4)), output_size=2)

    def test_upsample_nearest(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        up = F.upsample_nearest2d(x, 2)
        assert up.shape == (1, 1, 4, 4)
        assert np.allclose(up.data[0, 0, :2, :2], 0.0)

    def test_upsample_gradcheck(self):
        gradcheck(lambda x: F.upsample_nearest2d(x, 2), [t((1, 2, 3, 3))])


class TestEmbedding:
    def test_lookup(self):
        w = t((10, 4))
        idx = np.array([[1, 2], [3, 4]])
        out = F.embedding(w, idx)
        assert out.shape == (2, 2, 4)
        assert np.allclose(out.data[0, 0], w.data[1])

    def test_gradient_accumulates_for_repeated_indices(self):
        w = t((5, 3))
        idx = np.array([[1, 1, 1]])
        F.embedding(w, idx).sum().backward()
        assert np.allclose(w.grad[1], 3.0)
        assert np.allclose(w.grad[0], 0.0)

    def test_embedding_bag_mean(self):
        w = t((6, 4))
        idx = np.array([[0, 1], [2, 3]])
        out = F.embedding_bag(w, idx, mode="mean")
        assert out.shape == (2, 4)
        assert np.allclose(out.data[0], (w.data[0] + w.data[1]) / 2, atol=1e-6)

    def test_embedding_bag_sum(self):
        w = t((6, 4))
        out = F.embedding_bag(w, np.array([[0, 1]]), mode="sum")
        assert np.allclose(out.data[0], w.data[0] + w.data[1], atol=1e-6)

    def test_embedding_bag_invalid_mode(self):
        with pytest.raises(ValueError):
            F.embedding_bag(t((6, 4)), np.array([[0]]), mode="max")


class TestNormalisation:
    def test_layer_norm_statistics(self):
        x = t((4, 8), 1, 3.0)
        w = Tensor(np.ones(8), requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)
        out = F.layer_norm(x, w, b).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_layer_norm_gradcheck(self):
        gradcheck(
            lambda x, w, b: F.layer_norm(x, w, b),
            [t((3, 6), 1), t((6,), 2), t((6,), 3)],
        )

    def test_batch_norm_training_normalises(self):
        x = t((8, 4), 1, 5.0)
        w = Tensor(np.ones(4))
        b = Tensor(np.zeros(4))
        rm, rv = np.zeros(4, dtype=np.float32), np.ones(4, dtype=np.float32)
        out = F.batch_norm(x, w, b, rm, rv, training=True).data
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-3)

    def test_batch_norm_updates_running_stats(self):
        x = Tensor(np.full((16, 3), 2.0, dtype=np.float32))
        w, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        rm, rv = np.zeros(3, dtype=np.float32), np.ones(3, dtype=np.float32)
        F.batch_norm(x, w, b, rm, rv, training=True, momentum=1.0)
        assert np.allclose(rm, 2.0, atol=1e-5)

    def test_batch_norm_eval_uses_running_stats(self):
        x = Tensor(np.full((4, 2), 3.0, dtype=np.float32))
        w, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
        rm = np.full(2, 3.0, dtype=np.float32)
        rv = np.full(2, 1.0, dtype=np.float32)
        out = F.batch_norm(x, w, b, rm, rv, training=False).data
        assert np.allclose(out, 0.0, atol=1e-4)

    def test_batch_norm_4d(self):
        x = t((2, 3, 4, 4))
        w, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        rm, rv = np.zeros(3, dtype=np.float32), np.ones(3, dtype=np.float32)
        out = F.batch_norm(x, w, b, rm, rv, training=True)
        assert out.shape == (2, 3, 4, 4)

    def test_batch_norm_rejects_3d(self):
        with pytest.raises(ValueError):
            F.batch_norm(
                t((2, 3, 4)),
                Tensor(np.ones(3)),
                Tensor(np.zeros(3)),
                np.zeros(3, dtype=np.float32),
                np.ones(3, dtype=np.float32),
                training=True,
            )


class TestSoftmaxAndLosses:
    def test_softmax_sums_to_one(self):
        out = F.softmax(t((4, 7), 1, 3.0)).data
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-5)

    def test_softmax_stable_for_large_logits(self):
        out = F.softmax(Tensor(np.array([[1000.0, 1000.0]]))).data
        assert np.allclose(out, 0.5)

    def test_log_softmax_matches_log_of_softmax(self):
        x = t((3, 5), 2)
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data + 1e-12), atol=1e-4)

    def test_cross_entropy_value(self):
        logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1]], dtype=np.float32)))
        loss = F.cross_entropy(logits, np.array([0]))
        assert float(loss.data) == pytest.approx(-np.log(0.7), abs=1e-4)

    def test_cross_entropy_gradcheck(self):
        targets = np.array([0, 2, 1])
        gradcheck(lambda x: F.cross_entropy(x, targets), [t((3, 4), 1)])

    def test_cross_entropy_3d(self):
        logits = t((2, 3, 5), 1)
        targets = np.random.default_rng(0).integers(0, 5, size=(2, 3))
        loss = F.cross_entropy(logits, targets)
        assert loss.data.shape == ()

    def test_mse_loss(self):
        a = Tensor(np.array([1.0, 2.0]))
        b = np.array([0.0, 0.0])
        assert float(F.mse_loss(a, b).data) == pytest.approx(2.5)

    def test_bce_with_logits_matches_reference(self):
        logits = Tensor(np.array([0.5, -1.0, 2.0], dtype=np.float32))
        targets = np.array([1.0, 0.0, 1.0], dtype=np.float32)
        loss = float(F.binary_cross_entropy_with_logits(logits, targets).data)
        p = 1 / (1 + np.exp(-logits.data))
        expected = -np.mean(targets * np.log(p) + (1 - targets) * np.log(1 - p))
        assert loss == pytest.approx(float(expected), abs=1e-5)

    def test_bce_gradcheck(self):
        targets = np.array([1.0, 0.0, 1.0, 0.0], dtype=np.float32)
        gradcheck(lambda x: F.binary_cross_entropy_with_logits(x, targets), [t((4,), 1)])


class TestDropout:
    def test_identity_in_eval(self):
        x = t((10, 10))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_scaling_in_train(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = F.dropout(x, 0.5, training=True, rng=rng).data
        assert out.mean() == pytest.approx(1.0, abs=0.05)
        assert set(np.unique(out)).issubset({0.0, 2.0})


def weighted(fn, shape, seed=9):
    """``fn`` with its output scaled by a fixed non-uniform upstream weight."""
    weight = Tensor(np.random.default_rng(seed).standard_normal(shape))
    return lambda *inputs: fn(*inputs) * weight


class TestFusedBackwards:
    """``linear``, ``layer_norm`` and ``softmax`` record one tape node with a fused backward."""

    @pytest.mark.parametrize("axis", [-1, 0])
    def test_softmax_gradcheck(self, axis):
        # softmax's outputs sum to one along ``axis``: an unweighted sum()
        # would have a zero gradient and check nothing
        fn = weighted(lambda x: F.softmax(x, axis=axis), (3, 5))
        gradcheck(fn, [t((3, 5), 1, 2.0)])

    @pytest.mark.parametrize("lead", [(), (2, 3)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_linear_gradcheck(self, lead, bias):
        inputs = [t((*lead, 4), 1), t((3, 4), 2)] + ([t((3,), 3)] if bias else [])
        gradcheck(weighted(F.linear, (*lead, 3)), inputs)

    def test_layer_norm_3d_gradcheck(self):
        fn = weighted(F.layer_norm, (2, 3, 6))
        gradcheck(fn, [t((2, 3, 6), 1, 2.0), t((6,), 2), t((6,), 3)])

    def test_one_tape_node_per_call(self):
        x, w, b = t((2, 4), 1), t((3, 4), 2), t((3,), 3)
        gamma, beta = t((4,), 4), t((4,), 5)
        assert F.linear(x, w, b)._prev == (x, w, b)
        assert F.linear(x, w)._prev == (x, w)
        assert F.layer_norm(x, gamma, beta)._prev == (x, gamma, beta)
        assert F.softmax(x)._prev == (x,)

    def test_causal_encoder_layer_gradcheck(self):
        # x fans out to ln1 and to the residual add, so its gradient sums the
        # contributions of both paths
        from repro.models.transformer import TransformerEncoderLayer

        layer = TransformerEncoderLayer(4, 2, ffn_dim=8, rng=np.random.default_rng(0))
        fn = weighted(lambda x, *params: layer(x, causal=True), (2, 3, 4))
        gradcheck(fn, [t((2, 3, 4), 1), *layer.parameters()])
