"""PipelinePrefetcher: identical blocks, cross-layer window, pool lifecycle."""

import numpy as np
import pytest

from repro.fp8 import E4M3
from repro.fp8.quantize import QuantizedTensor
from repro.serving import PrefetchError


def _packed(shape=(70, 16), seed=0):
    x = np.random.default_rng(seed).normal(0, 1, shape).astype(np.float32)
    return QuantizedTensor.quantize(x, E4M3, axis=0)


class _FakeLayer:
    """Duck-typed streaming wrapper: packed weight + a block size."""

    def __init__(self, wq, block):
        self.weight_q = wq
        self._block = block

    def streaming_block_size(self):
        return self._block


def _layers(count=3, shape=(48, 8), block=16):
    return [_FakeLayer(_packed(shape, seed=seed), block) for seed in range(count)]


class TestPipelinePrefetcher:
    def test_blocks_bit_identical_and_in_order(self):
        from repro.serving import PipelinePrefetcher

        layers = _layers()
        pipeline = PipelinePrefetcher(layers, depth=4, workers=2)
        try:
            for layer in layers:
                blocks = list(pipeline.iter_blocks(layer))
                assert [(s, e) for s, e, _ in blocks] == [(0, 16), (16, 32), (32, 48)]
                for start, stop, block in blocks:
                    assert np.array_equal(
                        block, layer.weight_q.dequantize_block(start, stop, axis=0)
                    )
        finally:
            pipeline.close()

    def test_window_crosses_layer_boundary(self):
        """While layer k's tail is consumed, layer k+1's head is in flight."""
        from repro.serving import PipelinePrefetcher

        layers = _layers(count=2)
        pipeline = PipelinePrefetcher(layers, depth=4, workers=1)
        try:
            iterator = pipeline.iter_blocks(layers[0])
            next(iterator)  # consume block 0 of layer 0, window refills
            run = pipeline._local.run
            pending_modules = {entry[0] for entry in run._pending}
            assert layers[1] in pending_modules
            # draining the rest stays correct
            rest = list(iterator)
            assert [(s, e) for s, e, _ in rest] == [(16, 32), (32, 48)]
            assert [(s, e) for s, e, _ in pipeline.iter_blocks(layers[1])] == [
                (0, 16),
                (16, 32),
                (32, 48),
            ]
        finally:
            pipeline.close()

    def test_out_of_order_layer_restarts_window(self):
        from repro.serving import PipelinePrefetcher

        layers = _layers(count=3)
        pipeline = PipelinePrefetcher(layers, depth=2, workers=1)
        try:
            # ask for the *last* layer first (dynamic control flow)
            blocks = list(pipeline.iter_blocks(layers[2]))
            assert len(blocks) == 3
            # then a full in-order pass still works
            for layer in layers:
                assert len(list(pipeline.iter_blocks(layer))) == 3
        finally:
            pipeline.close()

    def test_abandoned_pass_restarts_from_block_zero(self):
        from repro.serving import PipelinePrefetcher

        layers = _layers(count=2)
        pipeline = PipelinePrefetcher(layers, depth=2, workers=1)
        try:
            iterator = pipeline.iter_blocks(layers[0])
            first = next(iterator)
            assert first[0] == 0
            del iterator  # abandoned mid-layer
            restart = list(pipeline.iter_blocks(layers[0]))
            assert [(s, e) for s, e, _ in restart] == [(0, 16), (16, 32), (32, 48)]
        finally:
            pipeline.close()

    def test_reusable_across_passes(self):
        from repro.serving import PipelinePrefetcher

        layers = _layers(count=2)
        pipeline = PipelinePrefetcher(layers, depth=3, workers=2)
        try:
            for _ in range(3):
                for layer in layers:
                    blocks = list(pipeline.iter_blocks(layer))
                    assert len(blocks) == 3
        finally:
            pipeline.close()

    def test_unknown_module_decodes_standalone(self):
        from repro.serving import PipelinePrefetcher

        layers = _layers(count=1)
        stranger = _FakeLayer(_packed((32, 4), seed=9), 16)
        pipeline = PipelinePrefetcher(layers, depth=2, workers=1)
        try:
            blocks = list(pipeline.iter_blocks(stranger))
            assert [(s, e) for s, e, _ in blocks] == [(0, 16), (16, 32)]
        finally:
            pipeline.close()

    def test_close_then_reuse_recreates_pool(self):
        from repro.serving import PipelinePrefetcher

        layers = _layers(count=1)
        pipeline = PipelinePrefetcher(layers)
        assert len(list(pipeline.iter_blocks(layers[0]))) == 3
        pipeline.close()
        # a fresh iteration after close lazily re-creates the pool; the
        # stale thread-local run (cancelled futures) must not leak into it
        assert len(list(pipeline.iter_blocks(layers[0]))) == 3
        pipeline.close()

    def test_ragged_tail_block(self):
        # 70 rows in 32-row blocks: the last block is a 6-row tail, cut at
        # the same boundary as the sequential path
        from repro.serving import PipelinePrefetcher

        layers = [_FakeLayer(_packed((70, 16), seed=seed), 32) for seed in range(2)]
        pipeline = PipelinePrefetcher(layers, depth=2, workers=2)
        try:
            for layer in layers:
                blocks = list(pipeline.iter_blocks(layer))
                assert [(s, e) for s, e, _ in blocks] == [(0, 32), (32, 64), (64, 70)]
                for start, stop, block in blocks:
                    assert np.array_equal(
                        block, layer.weight_q.dequantize_block(start, stop, axis=0)
                    )
        finally:
            pipeline.close()

    def test_single_block_layers_share_one_window(self):
        # layers narrower than a block decode whole; a window deeper than a
        # layer holds several layers' weights at once
        from repro.serving import PipelinePrefetcher

        layers = [_FakeLayer(_packed((8, 4), seed=seed), 512) for seed in range(3)]
        pipeline = PipelinePrefetcher(layers, depth=3, workers=1)
        try:
            iterator = pipeline.iter_blocks(layers[0])
            first = next(iterator)
            assert [entry[0] for entry in pipeline._local.run._pending] == layers[1:]
            assert list(iterator) == []
            assert (first[0], first[1]) == (0, 8)
            assert np.array_equal(first[2], layers[0].weight_q.dequantize())
            for layer in layers[1:]:
                (block,) = list(pipeline.iter_blocks(layer))
                assert (block[0], block[1]) == (0, 8)
                assert np.array_equal(block[2], layer.weight_q.dequantize())
        finally:
            pipeline.close()

    def test_window_never_exceeds_depth(self):
        from repro.serving import PipelinePrefetcher

        layers = _layers(count=3)  # 9 blocks in all
        pipeline = PipelinePrefetcher(layers, depth=4, workers=1)
        try:
            remaining = 9
            for layer in layers:
                for _ in pipeline.iter_blocks(layer):
                    remaining -= 1
                    assert len(pipeline._local.run._pending) == min(4, remaining)
            assert remaining == 0
        finally:
            pipeline.close()

    def test_decode_error_propagates_to_consumer(self):
        # blocks decoded before the failure still arrive; the failing block
        # raises PrefetchError in the consumer, chained from the pool
        # thread's exception
        from repro.serving import PipelinePrefetcher

        wq = _packed((48, 8))

        class _Boom(QuantizedTensor):
            def dequantize_block(self, start, stop, axis=0):
                if start >= 16:
                    raise RuntimeError("decode exploded")
                return super().dequantize_block(start, stop, axis=axis)

        layer = _FakeLayer(_Boom(codes=wq.codes, scale=wq.scale, fmt=wq.fmt), 16)
        pipeline = PipelinePrefetcher([layer], depth=2, workers=2)
        try:
            iterator = pipeline.iter_blocks(layer)
            start, stop, block = next(iterator)
            assert (start, stop) == (0, 16)
            assert np.array_equal(block, wq.dequantize_block(0, 16, axis=0))
            with pytest.raises(PrefetchError, match="decode exploded") as info:
                next(iterator)
            assert isinstance(info.value.__cause__, RuntimeError)
        finally:
            pipeline.close()

    def test_pass_after_a_decode_error_restarts_clean(self):
        # the failed pass leaves a stale window behind; the next pass must
        # discard it and decode every block afresh
        from repro.serving import PipelinePrefetcher

        wq = _packed((48, 8))
        failures = [RuntimeError("transient decode failure")]

        class _FailsOnce(QuantizedTensor):
            def dequantize_block(self, start, stop, axis=0):
                if start == 16 and failures:
                    raise failures.pop()
                return super().dequantize_block(start, stop, axis=axis)

        layer = _FakeLayer(_FailsOnce(codes=wq.codes, scale=wq.scale, fmt=wq.fmt), 16)
        pipeline = PipelinePrefetcher([layer], depth=3, workers=2)
        try:
            with pytest.raises(PrefetchError):
                list(pipeline.iter_blocks(layer))
            blocks = list(pipeline.iter_blocks(layer))
            assert [(s, e) for s, e, _ in blocks] == [(0, 16), (16, 32), (32, 48)]
            for start, stop, block in blocks:
                assert np.array_equal(block, wq.dequantize_block(start, stop, axis=0))
        finally:
            pipeline.close()

    def test_validation(self):
        from repro.serving import PipelinePrefetcher

        with pytest.raises(ValueError, match="at least one"):
            PipelinePrefetcher([])
        with pytest.raises(ValueError, match="depth"):
            PipelinePrefetcher(_layers(1), depth=0)
        with pytest.raises(ValueError, match="workers"):
            PipelinePrefetcher(_layers(1), workers=0)
