"""Grad-free forwards are the taped forwards, bit for bit, without the tape.

When grad is off (``no_grad``), or no input requires grad, an op builds no
autograd tape, and ``F.linear`` / ``F.layer_norm`` / ``F.softmax`` run their
numpy sequence directly instead of one tensor per sub-op.  The contract:

* the output is bit-identical to the taped output (grad on, inputs requiring
  grad), NaN payloads and signed zeros included;
* the result carries no tape: ``requires_grad`` False, no parents, no
  backward closure;
* whole models — an encoder classifier, a cached decode step with an E4M3 KV
  cache and a CNN — give the same bits both ways.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad
from repro.models.transformer import GPTStyleLM

#: signed zeros, huge magnitudes (their squares and exps overflow), a
#: subnormal and NaN, mixed with ordinary values
EDGES = [0.0, -0.0, 1e30, -1e30, 3e38, -3e38, 1e-40, np.nan]
VALUES = st.one_of(st.sampled_from(EDGES), st.floats(-8.0, 8.0, width=32))


def arrays(shape):
    return hnp.arrays(np.float32, shape, elements=VALUES)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def assert_no_tape(out):
    assert not out.requires_grad
    assert out._prev == ()
    assert out._backward is None


def check_grad_free(fn, *arrays):
    """``fn`` on tensors over ``arrays``: taped, under no_grad, and on constants."""
    with np.errstate(all="ignore"):
        taped = fn(*(Tensor(a, requires_grad=True) for a in arrays))
        assert taped.requires_grad  # the taped path really ran
        with no_grad():
            free = fn(*(Tensor(a, requires_grad=True) for a in arrays))
        constants = fn(*(Tensor(a) for a in arrays))
    for out in (free, constants):
        assert_no_tape(out)
        assert_same_bits(out.data, taped.data)


LEAD = st.lists(st.integers(1, 3), min_size=0, max_size=2)


class TestOpsMatchTheTape:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), lead=LEAD, n_in=st.integers(1, 9), n_out=st.integers(1, 9))
    def test_linear(self, data, lead, n_in, n_out):
        x = data.draw(arrays((*lead, n_in)))
        weight = data.draw(arrays((n_out, n_in)))
        bias = data.draw(arrays((n_out,)))
        check_grad_free(F.linear, x, weight, bias)
        check_grad_free(F.linear, x, weight)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        lead=LEAD,
        n=st.integers(1, 9),
        eps=st.sampled_from([1e-5, 1e-12]),
    )
    def test_layer_norm(self, data, lead, n, eps):
        x = data.draw(arrays((*lead, n)))
        weight, bias = data.draw(arrays((n,))), data.draw(arrays((n,)))
        check_grad_free(lambda *t: F.layer_norm(*t, eps=eps), x, weight, bias)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), shape=st.lists(st.integers(1, 5), min_size=1, max_size=3))
    def test_softmax(self, data, shape):
        x = data.draw(arrays(tuple(shape)))
        axis = data.draw(st.integers(-len(shape), len(shape) - 1))
        check_grad_free(lambda t: F.softmax(t, axis=axis), x)
        # a transposed (non-contiguous) input takes the same path
        check_grad_free(lambda t: F.softmax(t.transpose(), axis=axis), x)

    @settings(max_examples=60, deadline=None)
    @given(x=arrays(st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple)))
    def test_gelu(self, x):
        check_grad_free(lambda t: t.gelu(), x)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), shape=st.lists(st.integers(1, 4), min_size=1, max_size=4))
    def test_transpose(self, data, shape):
        x = data.draw(arrays(tuple(shape)))
        axes = data.draw(st.permutations(range(len(shape))))
        check_grad_free(lambda t: t.transpose(*axes), x)

    def test_transpose_backward_inverts_the_permutation(self):
        x = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4), requires_grad=True)
        out = x.transpose(2, 0, 1)
        out.backward(np.arange(24, dtype=np.float32).reshape(4, 2, 3))
        np.testing.assert_array_equal(x.grad, np.arange(24).reshape(4, 2, 3).transpose(1, 2, 0))


class TestModelsMatchTheTape:
    """Grad on with parameters requiring grad against no_grad, per model."""

    @staticmethod
    def both_ways(forward):
        """``forward()`` returns a list of output tensors; compare them pairwise."""
        taped = forward()
        with no_grad():
            free = forward()
        for got, want in zip(free, taped, strict=True):
            assert want.requires_grad
            assert_no_tape(got)
            assert_same_bits(got.data, want.data)

    def test_bert_style_classifier(self, bert_bundle):
        model = bert_bundle.model
        tokens = bert_bundle.prepare_inputs(bert_bundle.eval_data.inputs[:8])
        assert all(p.requires_grad for p in model.parameters())
        self.both_ways(lambda: [model(tokens)])

    def test_gpt_forward_step_with_e4m3_kv(self):
        model = GPTStyleLM(vocab_size=32, max_seq_len=24, embed_dim=32, num_layers=2, rng=3)
        model.eval()
        prompts = np.random.default_rng(4).integers(0, 32, (3, 6))
        steps = [(prompts, [6, 4, 5]), (prompts[:, :1], None), (prompts[:, 1:2], None)]

        def decode():
            state = model.new_decode_state(3, storage="E4M3")
            return [model.forward_step(tokens, state, new_lens=lens) for tokens, lens in steps]

        self.both_ways(decode)

    def test_cnn(self, cnn_bundle):
        model = cnn_bundle.model
        images = cnn_bundle.prepare_inputs(cnn_bundle.eval_data.inputs[:4])
        self.both_ways(lambda: [model(images)])

