"""The converted weight lifecycle, resident bytes and the serving modes."""

import threading

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd.tensor import Tensor
from repro.fp8.quantize import QuantizedTensor
from repro.quantization import (
    Approach,
    QuantizedModule,
    int8_recipe,
    quantize_model,
    resident_report,
    set_serving_mode,
    standard_recipe,
)


def _mlp(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(64, 128, rng=rng),
        nn.ReLU(),
        nn.Linear(128, 32, rng=rng),
    )


def _probe(shape=(6, 64), seed=1):
    return Tensor(np.random.default_rng(seed).normal(0, 1, shape).astype(np.float32))


def _wrappers(model):
    return [m for _, m in model.named_modules() if isinstance(m, QuantizedModule)]


def _quantized(recipe=None, model=None):
    recipe = recipe or standard_recipe("E4M3", approach=Approach.DYNAMIC)
    return quantize_model(model or _mlp(), recipe)


class TestWeightLifecycle:
    def test_convert_keeps_no_float32_original(self):
        wrapper = _wrappers(_quantized().model)[0]
        view = wrapper.quantized_weight()
        assert wrapper.inner.weight.data is view
        assert not view.flags.writeable
        dense = [
            array
            for array in wrapper.weight_resident_arrays()
            if array.dtype == np.float32 and array.shape == view.shape
        ]
        assert len(dense) == 1 and dense[0] is view

    def test_forward_after_drop_weight_cache_is_bit_identical(self):
        result = _quantized()
        expected = result.model(_probe()).data
        for wrapper in _wrappers(result.model):
            wrapper.drop_weight_cache()
        assert np.array_equal(result.model(_probe()).data, expected)

    def test_drop_weight_cache_binds_placeholder(self):
        """A dropped view must really be freed, not stay reachable through
        the bound parameter."""
        result = quantize_model(_mlp(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        wrapper = _wrappers(result.model)[0]
        # forward re-materialises the cache in cached serving mode
        result.model(_probe())
        assert wrapper._weight_cache is not None
        cache = wrapper._weight_cache
        wrapper.drop_weight_cache()
        assert wrapper._weight_cache is None
        # the bound weight must no longer alias the dropped cache...
        assert wrapper.inner.weight.data is not cache
        # ...and must be the 4-byte broadcast placeholder, not a dense array
        bound = wrapper.inner.weight.data
        assert bound.shape == wrapper.weight_q.shape
        assert not bound.flags.writeable
        assert bound.base is not None and bound.base.nbytes == 4

    def test_cached_model_back_to_packed_after_drop_weight_cache(self):
        result = quantize_model(_mlp(), int8_recipe(approach=Approach.DYNAMIC))
        # a cached forward keeps the views; dropping them gets back down
        result.model(_probe())
        for wrapper in _wrappers(result.model):
            wrapper.drop_weight_cache()
        assert resident_report(result.model)["ratio"] <= 0.35


def _tiny_cnn(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 16, 3, padding=1, rng=rng),
        nn.BatchNorm2d(16),
        nn.ReLU(),
        nn.Conv2d(16, 16, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.AdaptiveAvgPool2d(1),
        nn.Flatten(),
        nn.Linear(16, 10, rng=rng),
    )


class TestQuantizeModelResidentBytes:
    """``quantize_model`` output holds packed codes plus at most one view."""

    @pytest.mark.parametrize("build", [_mlp, _tiny_cnn], ids=["mlp", "cnn"])
    def test_cached_mode_within_1_3x_fp32(self, build):
        result = quantize_model(build(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        assert resident_report(result.model)["ratio"] <= 1.3

    @pytest.mark.parametrize("build", [_mlp, _tiny_cnn], ids=["mlp", "cnn"])
    def test_streaming_mode_within_0_35x_fp32(self, build):
        result = quantize_model(
            build(), standard_recipe("E4M3", approach=Approach.DYNAMIC), serving_mode="streaming"
        )
        assert resident_report(result.model)["ratio"] <= 0.35


class TestServingModes:
    def test_invalid_mode_rejected(self):
        wrapper = _wrappers(_quantized().model)[0]
        with pytest.raises(ValueError, match="unknown serving mode"):
            wrapper.set_serving_mode("warp-speed")

    @pytest.mark.parametrize(
        "recipe",
        [
            standard_recipe("E4M3", approach=Approach.DYNAMIC),
            standard_recipe("E5M2", approach=Approach.DYNAMIC),
            int8_recipe(approach=Approach.DYNAMIC),
            int8_recipe(asymmetric_activations=True, approach=Approach.DYNAMIC),
        ],
        ids=lambda r: r.name,
    )
    def test_streaming_linear_matches_cached(self, recipe):
        result = _quantized(recipe)
        probe = _probe()
        cached_out = result.model(probe).data
        set_serving_mode(result.model, "streaming")
        streaming_out = result.model(probe).data
        assert np.allclose(streaming_out, cached_out, rtol=1e-5, atol=1e-6)

    def test_streaming_blocked_matmul_covers_uneven_blocks(self):
        """Output channels not divisible by the block size must still be exact."""
        rng = np.random.default_rng(3)
        model = nn.Sequential(nn.Linear(16, 70, rng=rng))
        result = quantize_model(model, standard_recipe("E4M3", approach=Approach.DYNAMIC))
        probe = _probe(shape=(5, 16))
        cached_out = result.model(probe).data
        wrapper = _wrappers(result.model)[0]
        wrapper.streaming_block_channels = 32  # 70 = 32 + 32 + 6
        wrapper.set_serving_mode("streaming")
        assert np.allclose(result.model(probe).data, cached_out, rtol=1e-5, atol=1e-6)

    def test_streaming_leaves_no_cache(self):
        result = quantize_model(
            _mlp(),
            standard_recipe("E4M3", approach=Approach.DYNAMIC),
            serving_mode="streaming",
        )
        result.model(_probe())
        for wrapper in _wrappers(result.model):
            assert wrapper._weight_cache is None
        assert resident_report(result.model)["ratio"] <= 0.35

    def test_convert_in_streaming_mode_never_binds_cache(self):
        """Setting streaming before convert() must not leave a resident cache."""
        from repro.quantization import convert_model, prepare_model

        model = _mlp()
        model.eval()
        prepare_model(model, standard_recipe("E4M3", approach=Approach.DYNAMIC))
        set_serving_mode(model, "streaming")
        convert_model(model)
        probe_out = model(_probe()).data
        for wrapper in _wrappers(model):
            assert wrapper._weight_cache is None
        # and the outputs agree with a cached-mode conversion of the same model
        cached = quantize_model(_mlp(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        assert np.allclose(probe_out, cached.model(_probe()).data, rtol=1e-5, atol=1e-6)

    def test_streaming_embedding_gather_decode(self):
        rng = np.random.default_rng(4)
        model = nn.Sequential(nn.Embedding(50, 12, rng=rng))
        recipe = standard_recipe("E4M3", approach=Approach.DYNAMIC)
        result = quantize_model(model, recipe)
        indices = np.array([[3, 7, 49], [0, 1, 3]])
        cached_out = result.model(indices).data
        set_serving_mode(result.model, "streaming")
        streaming_out = result.model(indices).data
        # gather-decode is element-wise: bit-identical, not just close
        assert np.array_equal(streaming_out, cached_out)
        assert _wrappers(result.model)[0]._weight_cache is None

    def test_streaming_conv_fallback_matches_cached(self):
        rng = np.random.default_rng(5)
        model = nn.Sequential(nn.Conv2d(3, 8, 3, rng=rng))
        recipe = standard_recipe("E4M3", approach=Approach.DYNAMIC)
        recipe.skip_first_operator = False
        recipe.skip_last_operator = False
        result = quantize_model(model, recipe)
        probe = Tensor(rng.normal(0, 1, (2, 3, 8, 8)).astype(np.float32))
        cached_out = result.model(probe).data
        set_serving_mode(result.model, "streaming")
        streaming_out = result.model(probe).data
        assert np.array_equal(streaming_out, cached_out)
        assert _wrappers(result.model)[0]._weight_cache is None


class TestExtraStateRoundTrip:
    def test_state_dict_roundtrip_preserves_packed_storage(self):
        recipe = standard_recipe("E4M3")
        rng = np.random.default_rng(5)
        calib = [rng.normal(0, 1, (8, 64)).astype(np.float32) for _ in range(3)]
        result = quantize_model(_mlp(), recipe, calibration_data=calib)
        probe = _probe()
        expected = result.model(probe).data
        state = result.model.state_dict()

        target = quantize_model(_mlp(seed=9), recipe, calibration_data=calib)
        assert not np.array_equal(target.model(probe).data, expected)
        target.model.load_state_dict(state)
        assert np.array_equal(target.model(probe).data, expected)
        src = _wrappers(result.model)[0].weight_q
        dst = _wrappers(target.model)[0].weight_q
        assert np.array_equal(src.codes, dst.codes)
        assert np.array_equal(np.asarray(src.scale), np.asarray(dst.scale))

    def test_plain_models_have_no_extra_state(self):
        model = _mlp()
        assert all(not key.endswith("._extra_state") for key in model.state_dict())

    def test_converted_state_dict_excludes_dense_weight(self):
        result = quantize_model(_mlp(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        state = result.model.state_dict()
        assert "0.inner.weight" not in state
        assert "0.inner.bias" in state
        assert "0._extra_state" in state


class TestStreamingBlockConfig:
    def _linear_wrapper(self):
        rng = np.random.default_rng(11)
        model = nn.Sequential(nn.Linear(16, 70, rng=rng))
        result = quantize_model(model, standard_recipe("E4M3", approach=Approach.DYNAMIC))
        return result.model, _wrappers(result.model)[0]

    def test_block_size_changes_streaming_outputs_not(self):
        model, wrapper = self._linear_wrapper()
        probe = _probe(shape=(5, 16))
        cached_out = model(probe).data
        wrapper.streaming_block_channels = 7  # 70 = 7 x 10
        set_serving_mode(model, "streaming")
        assert wrapper.streaming_block_size() == 7
        assert np.allclose(model(probe).data, cached_out, rtol=1e-5, atol=1e-6)

    def test_prefetch_flag_roundtrips_through_set_serving_mode(self):
        model, wrapper = self._linear_wrapper()
        assert wrapper.streaming_prefetch is False
        set_serving_mode(model, "streaming", prefetch="pipeline")
        assert wrapper.streaming_prefetch == "pipeline"
        set_serving_mode(model, "streaming")  # None leaves it untouched
        assert wrapper.streaming_prefetch == "pipeline"
        set_serving_mode(model, "streaming", prefetch=False)
        assert wrapper.streaming_prefetch is False


class TestEmbeddingStreamingDedupe:
    def _embedding(self, rows=40, dim=6):
        rng = np.random.default_rng(13)
        model = nn.Sequential(nn.Embedding(rows, dim, rng=rng))
        result = quantize_model(model, standard_recipe("E4M3", approach=Approach.DYNAMIC))
        set_serving_mode(result.model, "streaming")
        return result.model, _wrappers(result.model)[0]

    def test_duplicate_indices_decode_each_row_once(self, monkeypatch):
        from repro.fp8 import kernels

        model, wrapper = self._embedding()
        decoded_rows = []
        real = kernels.fp8_dequantize_channelwise

        def _spy(codes, fmt, scale):
            decoded_rows.append(codes.shape[0])
            return real(codes, fmt, scale)

        monkeypatch.setattr(kernels, "fp8_dequantize_channelwise", _spy)
        indices = np.array([[3, 7, 3, 3], [7, 7, 3, 0]])  # 3 unique rows
        model(indices)
        assert decoded_rows == [3]

    def test_deduped_gather_bit_identical_to_cached(self):
        model, wrapper = self._embedding()
        indices = np.array([[5, 5, 5], [2, 5, 39], [39, 39, 2]])
        streaming_out = model(indices).data
        set_serving_mode(model, "cached")
        cached_out = model(indices).data
        assert np.array_equal(streaming_out, cached_out)
        assert streaming_out.shape == (3, 3, 6)

    def test_all_identical_indices(self):
        model, wrapper = self._embedding()
        indices = np.full((4, 8), 17)
        out = model(indices).data
        set_serving_mode(model, "cached")
        assert np.array_equal(out, model(indices).data)


class TestPipelineServingMode:
    def _deep_model(self, layers=4, features=24, seed=17):
        rng = np.random.default_rng(seed)
        stack = []
        for _ in range(layers):
            stack.extend([nn.Linear(features, features, rng=rng), nn.ReLU()])
        model = nn.Sequential(*stack[:-1])
        return quantize_model(model, standard_recipe("E4M3", approach=Approach.DYNAMIC)).model

    def test_pipeline_wires_one_shared_coordinator(self):
        model = self._deep_model()
        set_serving_mode(model, "streaming", prefetch="pipeline")
        wrappers = _wrappers(model)
        assert all(w.streaming_prefetch == "pipeline" for w in wrappers)
        pipelines = {id(w._pipeline) for w in wrappers}
        assert len(pipelines) == 1
        assert wrappers[0]._pipeline is not None
        # the coordinator holds the wrappers in module definition order
        assert wrappers[0]._pipeline.order == wrappers

    def test_pipeline_outputs_match_cached(self):
        model = self._deep_model()
        probe = _probe(shape=(32, 24), seed=23)
        cached_out = model(probe).data
        set_serving_mode(model, "streaming", prefetch="pipeline")
        streamed = model(probe).data
        assert np.array_equal(streamed, cached_out)
        # repeated passes reuse the coordinator and stay identical
        assert np.array_equal(model(probe).data, cached_out)

    def test_switching_prefetch_off_clears_coordinator(self):
        model = self._deep_model()
        set_serving_mode(model, "streaming", prefetch="pipeline")
        assert all(w._pipeline is not None for w in _wrappers(model))
        set_serving_mode(model, "streaming", prefetch=False)
        assert all(w._pipeline is None for w in _wrappers(model))
        assert all(w.streaming_prefetch is False for w in _wrappers(model))

    def test_pipeline_without_wiring_decodes_sequentially(self, monkeypatch):
        model = self._deep_model()
        wrapper = _wrappers(model)[0]
        probe = _probe(shape=(32, 24), seed=23)
        cached_out = model(probe).data
        # per-module call only: no model-level coordinator gets built
        for w in _wrappers(model):
            w.set_serving_mode("streaming", prefetch="pipeline")
        assert all(w._pipeline is None for w in _wrappers(model))
        decode_threads = set()
        real = QuantizedTensor.dequantize_block

        def _spy(self, start, stop, axis=0):
            decode_threads.add(threading.get_ident())
            return real(self, start, stop, axis=axis)

        monkeypatch.setattr(QuantizedTensor, "dequantize_block", _spy)
        assert np.array_equal(model(probe).data, cached_out)
        assert wrapper.streaming_prefetch == "pipeline"
        # every block decoded inline on the calling thread
        assert decode_threads == {threading.get_ident()}

    def test_invalid_prefetch_value_rejected(self):
        model = self._deep_model()
        for value in ("psychic", True):
            with pytest.raises(ValueError, match="prefetch"):
                set_serving_mode(model, "streaming", prefetch=value)
