"""Incremental decode: KV cache, forward_step, and cached generation parity.

The KV-cache decode path's core contract is that it is an *optimisation*, not
an approximation: greedy/beam generation through the float32 cache must
reproduce the full-recompute loop token for token — on the float model and on
a statically-quantized model on both FP8 decode paths.  The FP8 cache
option trades that exactness for ~4x smaller decode state, which the quality
tests bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.autograd.tensor import Tensor
from repro.models.transformer import DecodeState, GPTStyleLM, coerce_prompt
from repro.quantization import Approach, quantize_model, standard_recipe


def small_lm(seed=0, max_seq_len=48, **kwargs):
    model = GPTStyleLM(
        vocab_size=32,
        max_seq_len=max_seq_len,
        embed_dim=32,
        num_heads=4,
        num_layers=2,
        rng=seed,
        **kwargs,
    )
    return model.eval()


def write(cache, k, v, rows=None, new_lens=None):
    """One ``cache.update`` of a step built from ``rows`` and ``new_lens``: ``(step, K, V)``."""
    step = nn.CacheStep(cache.lengths, rows, new_lens, k.shape[2])
    return (step, *cache.update(k, v, step))


def read(cache, rows=None):
    """``(K, V)`` of ``rows`` through their longest length: an update that writes nothing."""
    count = cache.rows if rows is None else len(rows)
    empty = np.zeros((count, cache.num_heads, 1, cache.head_dim), dtype=np.float32)
    _, keys, values = write(cache, empty, empty, rows, np.zeros(count, dtype=np.int64))
    return keys, values


class TestKVCache:
    def test_update_ragged(self):
        cache = nn.KVCache(rows=3, num_heads=2, head_dim=4, capacity=8)
        k = np.random.default_rng(0).standard_normal((2, 2, 5, 4)).astype(np.float32)
        v = np.random.default_rng(1).standard_normal((2, 2, 5, 4)).astype(np.float32)
        step, keys, values = write(cache, k, v, rows=[0, 2], new_lens=[5, 3])
        assert step.starts.tolist() == [0, 0]
        assert step.ends.tolist() == [5, 3]
        assert cache.lengths.tolist() == [5, 0, 3]
        assert keys.shape == values.shape == (2, 2, 5, 4)
        np.testing.assert_array_equal(keys[0], k[0])
        np.testing.assert_array_equal(values[1, :, :3], v[1, :, :3])

    def test_update_overflow_raises(self):
        cache = nn.KVCache(rows=1, num_heads=1, head_dim=2, capacity=4)
        block = np.zeros((1, 1, 3, 2), dtype=np.float32)
        write(cache, block, block)
        with pytest.raises(RuntimeError, match="overflow"):
            write(cache, block, block)
        assert cache.lengths.tolist() == [3]

    def test_permute_rows(self):
        cache = nn.KVCache(rows=3, num_heads=1, head_dim=2, capacity=4)
        k = np.arange(3 * 2 * 2, dtype=np.float32).reshape(3, 1, 2, 2)
        write(cache, k, k)
        cache.permute_rows([0, 1, 2], [2, 2, 0])
        keys, _ = read(cache)
        np.testing.assert_array_equal(keys[0], k[2])
        np.testing.assert_array_equal(keys[1], k[2])
        np.testing.assert_array_equal(keys[2], k[0])

    def test_reset_rows_reuses_storage(self):
        cache = nn.KVCache(rows=2, num_heads=1, head_dim=2, capacity=4)
        block = np.ones((2, 1, 4, 2), dtype=np.float32)
        write(cache, block, block)
        cache.reset_rows([1])
        assert cache.lengths.tolist() == [4, 0]
        step, keys, _ = write(cache, 2 * block[:1], 2 * block[:1], rows=[1])
        assert step.ends.tolist() == [4]
        np.testing.assert_array_equal(keys, 2 * block[:1])

    def test_fp8_storage_roundtrip_and_footprint(self):
        rng = np.random.default_rng(2)
        k = rng.standard_normal((1, 2, 6, 8)).astype(np.float32)
        v = rng.standard_normal((1, 2, 6, 8)).astype(np.float32)
        float_cache = nn.KVCache(rows=1, num_heads=2, head_dim=8, capacity=16)
        fp8_cache = nn.KVCache(rows=1, num_heads=2, head_dim=8, capacity=16, storage="E4M3")
        write(float_cache, k, v)
        step, keys, values = write(fp8_cache, k, v)
        assert step.ends.tolist() == [6]
        assert np.all(np.isfinite(keys)) and np.all(np.isfinite(values))
        # E4M3 has ~2^-3 relative step; channelwise scaling keeps error small
        assert np.max(np.abs(keys - k)) < 0.2 * np.max(np.abs(k))
        assert fp8_cache.nbytes < float_cache.nbytes

    def test_stale_fp8_storage_decodes_finite(self):
        cache = nn.KVCache(rows=2, num_heads=1, head_dim=4, capacity=8, storage="E4M3")
        block = np.ones((1, 1, 5, 4), dtype=np.float32)
        write(cache, block, block, rows=[0])
        # row 1 never wrote anything: its storage is stale but must still
        # decode to finite values (the mask relies on 0 * finite == 0)
        keys, values = read(cache)
        assert np.all(np.isfinite(keys)) and np.all(np.isfinite(values))

    @pytest.mark.parametrize("storage", ["float32", "E4M3"])
    @pytest.mark.parametrize(
        "new_lens, match",
        [
            ([5], r"new_lens\[0\] = 5 .*row 1"),
            ([-1], r"new_lens\[0\] = -1 .*row 1"),
            ([1, 1], "one new length per row"),
            ([0.5], "integer"),
        ],
    )
    def test_out_of_range_new_lens_rejected_before_any_write(self, storage, new_lens, match):
        cache = nn.KVCache(rows=2, num_heads=1, head_dim=2, capacity=8, storage=storage)
        first = np.ones((2, 1, 2, 2), dtype=np.float32)
        write(cache, first, first)
        arrays = [array.copy() for array in cache._arrays()]
        block = np.full((1, 1, 1, 2), 7.0, dtype=np.float32)
        with pytest.raises(ValueError, match=match):
            write(cache, block, block, rows=[1], new_lens=new_lens)
        assert cache.lengths.tolist() == [2, 2]
        for before, after in zip(arrays, cache._arrays()):
            np.testing.assert_array_equal(before, after)

    def test_bad_row_rejected_before_earlier_rows_are_written(self):
        cache = nn.KVCache(rows=3, num_heads=1, head_dim=2, capacity=8, storage="E4M3")
        block = np.ones((3, 1, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match=r"new_lens\[2\] = 3 .*row 0"):
            write(cache, block, block, rows=[2, 1, 0], new_lens=[2, 1, 3])
        assert cache.lengths.tolist() == [0, 0, 0]
        assert not cache._arrays()[0].any()


class TestCacheStep:
    """One step resolved once for every layer: rows, lengths, positions and mask."""

    def test_mask_sees_cached_and_earlier_new_tokens_of_its_own_row(self):
        lengths = np.array([3, 0, 1], dtype=np.int64)
        step = nn.CacheStep(lengths, rows=[0, 2], new_lens=[2, 1], s=2)
        assert step.starts.tolist() == [3, 1]
        assert step.ends.tolist() == [5, 2]
        assert step.total == 5
        assert step.mask.shape == (2, 1, 2, 5)
        assert step.mask.dtype == np.float32
        seen = step.mask[:, 0] == 0.0
        # row 0: new tokens at positions 3 and 4 see 0..3 and 0..4
        assert seen[0].tolist() == [[True] * 4 + [False], [True] * 5]
        # row 2 (one cached token, one new at position 1): its padded second
        # query sees no more than the row holds
        assert seen[1].tolist() == [[True, True, False, False, False]] * 2

    def test_bad_rows_and_new_lens_raise_on_construction(self):
        lengths = np.zeros(2, dtype=np.int64)
        with pytest.raises(IndexError, match="out of range"):
            nn.CacheStep(lengths, rows=[2])
        with pytest.raises(ValueError, match=r"new_lens\[0\] = 3"):
            nn.CacheStep(lengths, rows=[1], new_lens=[3], s=2)

    @pytest.mark.parametrize(
        "kwargs, error, match",
        [
            ({"new_lens": [2]}, ValueError, r"new_lens\[0\] = 2"),
            ({"rows": [5]}, IndexError, "out of range"),
        ],
    )
    def test_forward_step_rejects_a_bad_step_before_any_layer_writes(self, kwargs, error, match):
        model = small_lm()
        state = model.new_decode_state(2, storage="E4M3")
        model.forward_step(np.array([[1, 2], [3, 4]]), state)
        before = [[array.copy() for array in cache._arrays()] for cache in state.caches]
        with pytest.raises(error, match=match):
            model.forward_step(np.array([[5]]), state, **{"rows": [0], **kwargs})
        for cache, arrays in zip(state.caches, before):
            assert cache.lengths.tolist() == [2, 2]
            for a, b in zip(cache._arrays(), arrays):
                np.testing.assert_array_equal(a, b)

    def test_capacity_overflow_raises_before_any_layer_writes(self):
        model = small_lm()
        state = model.new_decode_state(1, capacity=3)
        model.forward_step(np.array([[1, 2, 3]]), state)
        before = [cache._kv.copy() for cache in state.caches]
        with pytest.raises(RuntimeError, match="overflow"):
            model.forward_step(np.array([[4]]), state)
        for cache, kv in zip(state.caches, before):
            assert cache.lengths.tolist() == [3]
            np.testing.assert_array_equal(cache._kv, kv)


def write_per_row(cache, k, v, rows, new_lens):
    """The per-row write ``KVCache.update`` replaced: the bit-exact oracle.

    One ``fp8_quantize_channelwise`` call per row and per K/V, written into the
    cache's (K/V, row, head, position, dim) storage row by row.
    """
    from repro.fp8.kernels import fp8_quantize_channelwise

    rows = np.asarray(rows, dtype=np.int64)
    starts = cache.lengths[rows].copy()
    for i, row in enumerate(rows):
        n = int(new_lens[i])
        if n == 0:
            continue
        start = int(starts[i])
        for which, block in enumerate((k, v)):
            if cache.fmt is None:
                cache._kv[which, row, :, start : start + n] = block[i, :, :n]
            else:
                codes, scale = fp8_quantize_channelwise(block[i, :, :n], cache.fmt, axis=(0, 1))
                cache._codes[which, row, :, start : start + n] = codes
                cache._scales[which, row, :, start : start + n] = scale
    cache.lengths[rows] = starts + np.asarray(new_lens, dtype=np.int64)
    return starts


def read_per_row(cache, rows, total):
    """``(K, V)`` of ``rows`` through ``total`` tokens, each row and K/V decoded on its own."""
    from repro.fp8.kernels import fp8_dequantize_channelwise

    if cache.fmt is None:
        return cache._kv[0, rows, :, :total], cache._kv[1, rows, :, :total]

    def decode(which, row):
        codes = cache._codes[which, row, :, :total]
        return fp8_dequantize_channelwise(codes, cache.fmt, cache._scales[which, row, :, :total])

    return tuple(np.stack([decode(which, row) for row in rows]) for which in (0, 1))


class TestUpdateMatchesPerRow:
    """One fused encode over every row's new K and V ≡ the per-row loop, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        storage=st.sampled_from(["float32", "E4M3", "E5M2"]),
        heads=st.integers(1, 3),
        head_dim=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_updates_bit_identical(self, data, storage, heads, head_dim, seed):
        rng = np.random.default_rng(seed)
        slots, capacity = 5, 24
        batched = nn.KVCache(slots, heads, head_dim, capacity, storage=storage)
        reference = nn.KVCache(slots, heads, head_dim, capacity, storage=storage)
        for _ in range(data.draw(st.integers(1, 4))):
            rows = data.draw(st.permutations(range(slots)))[: data.draw(st.integers(1, slots))]
            s = data.draw(st.integers(1, 8))
            new_lens = np.asarray(
                data.draw(st.lists(st.integers(0, s), min_size=len(rows), max_size=len(rows)))
            )
            if np.any(batched.lengths[rows] + new_lens > capacity):
                break
            # every (row, head, token) vector gets its own magnitude: zeros,
            # tiny, unit or large, so scales span the whole range per block
            shape = (len(rows), heads, s, head_dim)
            magnitude = rng.choice([0.0, 1e-6, 1.0, 300.0], size=shape[:3] + (1,))
            k = (rng.standard_normal(shape) * magnitude).astype(np.float32)
            v = (rng.standard_normal(shape) * magnitude).astype(np.float32)
            step, keys, values = write(batched, k, v, rows, new_lens)
            starts = write_per_row(reference, k, v, rows, new_lens)
            np.testing.assert_array_equal(step.starts, starts)
            np.testing.assert_array_equal(step.ends, reference.lengths[rows])
            np.testing.assert_array_equal(batched.lengths, reference.lengths)
            for a, b in zip(batched._arrays(), reference._arrays()):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))
            want_k, want_v = read_per_row(reference, rows, step.total)
            assert keys.dtype == values.dtype == np.float32
            np.testing.assert_array_equal(keys.view(np.uint32), want_k.view(np.uint32))
            np.testing.assert_array_equal(values.view(np.uint32), want_v.view(np.uint32))


class TestCoercePrompt:
    def test_accepts_tensor_and_2d_single_row(self):
        np.testing.assert_array_equal(coerce_prompt(Tensor(np.array([1, 2, 3])), 8), [1, 2, 3])
        np.testing.assert_array_equal(coerce_prompt(np.array([[4, 5]]), 8), [4, 5])
        np.testing.assert_array_equal(coerce_prompt([6, 7], 8), [6, 7])

    def test_rejects_batched_empty_and_too_long(self):
        with pytest.raises(ValueError, match="1D"):
            coerce_prompt(np.zeros((2, 3), dtype=np.int64), 8)
        with pytest.raises(ValueError, match="at least one token"):
            coerce_prompt(np.array([], dtype=np.int64), 8)
        with pytest.raises(ValueError, match="exceeds max_seq_len"):
            coerce_prompt(np.arange(9), 8)


class TestForwardStep:
    def test_prefill_matches_full_forward(self):
        model = small_lm()
        tokens = np.array([[1, 2, 3, 4, 5]], dtype=np.int64)
        full = model.forward(tokens).data
        state = model.new_decode_state(1)
        step = model.forward_step(tokens, state).data
        np.testing.assert_allclose(step, full, rtol=1e-5, atol=1e-6)
        assert state.lengths.tolist() == [5]

    def test_incremental_matches_full_last_position(self):
        model = small_lm()
        seq = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)
        state = model.new_decode_state(1)
        model.forward_step(seq[None, :4], state)
        for t in range(4, seq.size):
            logits = model.forward_step(seq[None, t : t + 1], state).data[0, -1]
            full = model.forward(seq[None, : t + 1]).data[0, -1]
            np.testing.assert_allclose(logits, full, rtol=1e-4, atol=1e-5)

    def test_step_past_max_seq_len_raises(self):
        model = small_lm(max_seq_len=4)
        state = model.new_decode_state(1)
        model.forward_step(np.array([[1, 2, 3, 4]], dtype=np.int64), state)
        with pytest.raises(RuntimeError, match="max_seq_len"):
            model.forward_step(np.array([[5]], dtype=np.int64), state)

    def test_decode_state_accounting(self):
        model = small_lm()
        state = model.new_decode_state(4, storage="E4M3")
        assert isinstance(state, DecodeState)
        assert state.rows == 4
        assert state.nbytes == 4 * state.row_nbytes
        fp32_state = model.new_decode_state(4)
        assert state.nbytes < fp32_state.nbytes


class TestCachedGenerationParity:
    def test_greedy_cached_matches_full_recompute(self):
        model = small_lm()
        prompt = np.array([1, 2, 3], dtype=np.int64)
        cached = model.generate(prompt, max_new_tokens=16)
        full = model.generate(prompt, max_new_tokens=16, use_cache=False)
        np.testing.assert_array_equal(cached, full)

    def test_greedy_equals_beam_one(self):
        model = small_lm(seed=5)
        prompt = np.array([4, 9, 2], dtype=np.int64)
        greedy = model.generate(prompt, max_new_tokens=12, beam_size=1)
        beam1_cached = model.generate(prompt, max_new_tokens=12, beam_size=1, use_cache=True)
        beam1_full = model.generate(prompt, max_new_tokens=12, beam_size=1, use_cache=False)
        np.testing.assert_array_equal(greedy, beam1_cached)
        np.testing.assert_array_equal(greedy, beam1_full)

    def test_beam_cached_matches_full_recompute(self):
        model = small_lm(seed=7)
        prompt = np.array([6, 7, 8], dtype=np.int64)
        for beam_size in (2, 3):
            cached = model.generate(prompt, max_new_tokens=10, beam_size=beam_size)
            full = model.generate(prompt, max_new_tokens=10, beam_size=beam_size, use_cache=False)
            np.testing.assert_array_equal(cached, full)

    def test_greedy_parity_on_quantized_model_per_kernel(self, decode):
        rng = np.random.default_rng(11)
        calib = rng.integers(0, 32, size=(8, 12)).astype(np.int64)
        recipe = standard_recipe("E4M3", approach=Approach.STATIC)
        qmodel = quantize_model(
            small_lm(seed=3),
            recipe,
            calibration_data=[calib],
            prepare_inputs=lambda x: x,
        ).model.eval()
        prompt = np.array([2, 4, 6], dtype=np.int64)
        cached = qmodel.generate(prompt, max_new_tokens=12)
        full = qmodel.generate(prompt, max_new_tokens=12, use_cache=False)
        np.testing.assert_array_equal(cached, full)

    def test_eos_stops_at_first_emission(self):
        model = small_lm()
        prompt = np.array([1, 2, 3], dtype=np.int64)
        reference = model.generate(prompt, max_new_tokens=12)
        continuation = reference[prompt.size :]
        eos = int(continuation[2])
        stop_at = int(np.argmax(continuation == eos))  # first occurrence
        stopped = model.generate(prompt, max_new_tokens=12, eos_token=eos)
        np.testing.assert_array_equal(stopped, reference[: prompt.size + stop_at + 1])
        full = model.generate(prompt, max_new_tokens=12, eos_token=eos, use_cache=False)
        np.testing.assert_array_equal(stopped, full)

    def test_fp8_kv_cache_quality_delta(self):
        model = small_lm(seed=9)
        prompt = np.array([5, 1, 7], dtype=np.int64)
        float_seq = model.generate(prompt, max_new_tokens=20, kv_cache="float32")
        fp8_seq = model.generate(prompt, max_new_tokens=20, kv_cache="E4M3")
        assert fp8_seq.size == float_seq.size
        assert np.all((fp8_seq >= 0) & (fp8_seq < model.vocab_size))
        # the quantized cache is an approximation: it may diverge, but E4M3's
        # channelwise error is small enough that most decode steps agree
        agreement = float(np.mean(fp8_seq == float_seq))
        assert agreement >= 0.5, (fp8_seq, float_seq)

    def test_overflow_falls_back_to_sliding_window(self):
        model = small_lm(max_seq_len=16)
        prompt = np.array([1, 2, 3, 4], dtype=np.int64)
        sequence = model.generate(prompt, max_new_tokens=20)
        assert sequence.size == prompt.size + 20
        reference = model.generate(prompt, max_new_tokens=20, use_cache=False)
        np.testing.assert_array_equal(sequence, reference)

    def test_generate_accepts_tensor_and_2d_prompts(self):
        model = small_lm()
        prompt = np.array([1, 2, 3], dtype=np.int64)
        reference = model.generate(prompt, max_new_tokens=6)
        np.testing.assert_array_equal(model.generate(Tensor(prompt), max_new_tokens=6), reference)
        np.testing.assert_array_equal(model.generate(prompt[None, :], max_new_tokens=6), reference)

    def test_generate_rejects_too_long_prompt(self):
        model = small_lm(max_seq_len=8)
        with pytest.raises(ValueError, match="exceeds max_seq_len"):
            model.generate(np.arange(9) % 8, max_new_tokens=4)
