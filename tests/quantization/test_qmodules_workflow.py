"""Tests for the quantized wrappers and the prepare/calibrate/convert workflow."""

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd import Tensor, no_grad
from repro.models.cnn import TinyResNet
from repro.quantization import (
    Approach,
    QuantFormat,
    QuantizedModule,
    calibrate_model,
    convert_model,
    extended_recipe,
    int8_recipe,
    prepare_model,
    quantize_model,
    standard_recipe,
)
from repro.quantization.qconfig import Granularity, OperatorQuantConfig, TensorQuantConfig
from repro.quantization.qmodules import TensorQuantizer, wrap_module
from repro.quantization.workflow import clone_module, find_first_last_operators, storage_report
from repro.fp8 import E4M3


def _op_config(fmt=QuantFormat.E4M3, approach=Approach.STATIC):
    return OperatorQuantConfig(
        activation=TensorQuantConfig(fmt=fmt, approach=approach),
        weight=TensorQuantConfig(fmt=fmt, granularity=Granularity.PER_CHANNEL),
    )


class TestTensorQuantizer:
    def test_static_quantizer_uses_calibrated_scale(self):
        q = TensorQuantizer(TensorQuantConfig(fmt=QuantFormat.E4M3))
        q.observe(np.array([0.0, 2.0]))
        q.freeze()
        out = q.quantize(np.array([4.0]))  # beyond the calibrated range -> clipped to 2.0
        assert out[0] == pytest.approx(2.0, rel=0.1)

    def test_dynamic_quantizer_adapts_per_batch(self):
        q = TensorQuantizer(TensorQuantConfig(fmt=QuantFormat.E4M3, approach=Approach.DYNAMIC))
        q.freeze()
        out = q.quantize(np.array([4.0, 0.1]))
        assert out[0] == pytest.approx(4.0, rel=0.01)

    def test_direct_quantizer_scale_is_one(self):
        q = TensorQuantizer(TensorQuantConfig(fmt=QuantFormat.E5M2, approach=Approach.DIRECT))
        q.freeze()
        out = q.quantize(np.array([3.0]))
        assert out[0] == pytest.approx(3.0, rel=0.25)

    def test_static_requires_calibration(self):
        q = TensorQuantizer(TensorQuantConfig(fmt=QuantFormat.E4M3))
        with pytest.raises(RuntimeError):
            q.freeze()

    def test_disabled_quantizer_is_identity(self):
        q = TensorQuantizer(TensorQuantConfig(fmt=QuantFormat.FP32))
        q.freeze()
        x = np.array([0.12345678], dtype=np.float32)
        assert np.array_equal(q.quantize(x), x)

    def test_int8_static_path(self):
        q = TensorQuantizer(TensorQuantConfig(fmt=QuantFormat.INT8))
        q.observe(np.array([-1.0, 1.0]))
        q.freeze()
        out = q.quantize(np.array([0.5]))
        assert abs(out[0] - 0.5) <= (1.0 / 127) / 2 + 1e-6

    def test_per_channel_weight_quantization(self):
        q = TensorQuantizer(
            TensorQuantConfig(fmt=QuantFormat.E4M3, granularity=Granularity.PER_CHANNEL),
            channel_axis=0,
        )
        w = np.stack([np.full(8, 0.01), np.full(8, 10.0)]).astype(np.float32)
        out = q.quantize(w)
        # each channel keeps good relative accuracy despite very different ranges
        assert np.allclose(out[0], 0.01, rtol=0.07)
        assert np.allclose(out[1], 10.0, rtol=0.07)

    def test_describe(self):
        q = TensorQuantizer(TensorQuantConfig(fmt=QuantFormat.E3M4))
        assert q.describe()["format"] == "E3M4"


class TestQuantizedWrappers:
    def test_wrap_linear_quantizes_weight_on_convert(self):
        linear = nn.Linear(8, 4, rng=np.random.default_rng(0))
        original = linear.weight.data.copy()
        wrapped = wrap_module("Linear", linear, _op_config())
        wrapped.start_observing()
        wrapped(Tensor(np.random.default_rng(1).standard_normal((4, 8)).astype(np.float32)))
        wrapped.convert()
        # convert packs the weight into 8-bit storage and binds the dequantized
        # float32 compute view over the (pristine) original
        assert wrapped.weight_q is not None
        assert wrapped.weight_q.codes.dtype == np.uint8
        assert not np.array_equal(linear.weight.data, original)
        grid = E4M3.positive_values
        scale = E4M3.max_value / np.abs(original).max(axis=1, keepdims=True)
        scaled = np.abs(linear.weight.data * scale)
        # every quantized weight lies on the E4M3 grid in the scaled domain
        assert np.allclose(
            np.min(np.abs(scaled[..., None] - grid[None, None]), axis=-1), 0, atol=1e-3
        )

    def test_convert_twice_keeps_codes_and_view(self):
        linear = nn.Linear(8, 4, rng=np.random.default_rng(0))
        wrapped = wrap_module("Linear", linear, _op_config())
        wrapped.start_observing()
        wrapped(Tensor(np.ones((2, 8), dtype=np.float32)))
        wrapped.convert()
        codes, view = wrapped.weight_q.codes, wrapped.quantized_weight()
        wrapped.convert()  # idempotent no-op
        assert wrapped.weight_q.codes is codes
        assert linear.weight.data is view
        assert wrapped.quantized_weight() is view

    def test_drop_weight_cache_rematerializes(self):
        linear = nn.Linear(8, 4, rng=np.random.default_rng(0))
        wrapped = wrap_module("Linear", linear, _op_config())
        wrapped.start_observing()
        x = Tensor(np.ones((2, 8), dtype=np.float32))
        wrapped(x)
        wrapped.convert()
        out_before = wrapped(x).data
        wrapped.drop_weight_cache()
        # with the view dropped, a read-only 4-byte placeholder is bound ...
        bound = linear.weight.data
        assert bound.shape == wrapped.weight_q.shape
        assert not bound.flags.writeable
        assert bound.base is not None and bound.base.nbytes == 4
        # ... and the next quantized forward re-materialises the same view
        out_after = wrapped(x).data
        assert np.array_equal(out_before, out_after)

    def test_load_state_dict_cannot_overwrite_derived_weight(self, tmp_path):
        # The bound weight is dequantized from the packed codes; a write into
        # it would change what the wrapper serves but not what it saves.
        from repro.serialization import load_quantized, save_quantized

        def build():
            return nn.Sequential(nn.Linear(8, 4, rng=np.random.default_rng(0))).eval()

        result = quantize_model(build(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        x = Tensor(np.random.default_rng(1).standard_normal((3, 8)).astype(np.float32))
        expected = result.model(x).data
        with pytest.raises(RuntimeError, match="derived from packed 8-bit codes"):
            result.model.load_state_dict({"0.inner.weight": np.zeros((4, 8))}, strict=False)
        assert np.array_equal(result.model(x).data, expected)
        path = str(tmp_path / "model.rpq")
        save_quantized(result.model, path)
        assert np.array_equal(load_quantized(path, build)(x).data, expected)

    def test_state_dict_carries_packed_weight_right_after_convert(self):
        model = nn.Sequential(nn.Linear(8, 4, rng=np.random.default_rng(0)))
        model.eval()
        original = model.get_submodule("0").weight.data.copy()
        result = quantize_model(
            model, standard_recipe("E4M3", approach=Approach.DYNAMIC), inplace=True
        )
        state = result.model.state_dict()
        wrapper = result.model.get_submodule("0")
        # no forward has run, yet the snapshot already holds the quantized
        # weight — as packed codes/scales in the wrapper's extra state (the
        # storage of record since PR 3), not as a derived dense float copy
        assert "0.inner.weight" not in state
        packed = state["0._extra_state"]["weight_q"]
        assert np.array_equal(packed["codes"], wrapper.weight_q.codes)
        assert np.array_equal(packed["scale"], np.asarray(wrapper.weight_q.scale))
        assert not np.array_equal(wrapper.quantized_weight(), original)

    def test_packed_weight_storage_is_quarter_of_fp32(self):
        linear = nn.Linear(64, 64, rng=np.random.default_rng(0))
        wrapped = wrap_module("Linear", linear, _op_config(approach=Approach.DYNAMIC))
        wrapped.convert()
        stats = wrapped.weight_storage_nbytes()
        assert stats["fp32_bytes"] == 64 * 64 * 4
        assert stats["packed_bytes"] <= 0.3 * stats["fp32_bytes"]

    def test_packed_weight_matches_inplace_qdq(self):
        # the packed storage must dequantize to exactly the values the old
        # in-place Q/DQ wrote into inner.weight.data
        linear = nn.Linear(16, 8, rng=np.random.default_rng(5))
        wrapped = wrap_module("Linear", linear, _op_config(approach=Approach.DYNAMIC))
        wrapped.convert()
        expected = wrapped.weight_quantizer.quantize(linear.weight.data)
        assert np.array_equal(wrapped.quantized_weight(), expected)

    def test_embedding_wrapper_has_no_input_quantizer(self):
        emb = nn.Embedding(10, 4)
        wrapped = wrap_module("Embedding", emb, _op_config())
        assert wrapped.input_quantizers == []
        wrapped.convert()
        out = wrapped(np.array([[1, 2]]))
        assert out.shape == (1, 2, 4)

    def test_two_input_wrapper(self):
        add = nn.Add()
        wrapped = wrap_module("Add", add, _op_config(approach=Approach.DYNAMIC))
        wrapped.convert()
        out = wrapped(Tensor(np.ones(4)), Tensor(np.full(4, 2.0)))
        assert np.allclose(out.data, 3.0, rtol=0.1)

    def test_unknown_operator_type(self):
        with pytest.raises(KeyError):
            wrap_module("Conv3d", nn.Identity(), _op_config())

    def test_wrapper_repr_mentions_formats(self):
        wrapped = wrap_module("Linear", nn.Linear(4, 4), _op_config())
        assert "E4M3" in wrapped.extra_repr()


class TestWorkflow:
    def _calib(self, n=32, dim=8, seed=0):
        return [
            np.random.default_rng(seed + i).standard_normal((4, dim)).astype(np.float32)
            for i in range(n // 4)
        ]

    def test_prepare_wraps_standard_operators(self):
        model = nn.Sequential(nn.Linear(8, 16), nn.ReLU(), nn.Linear(16, 2))
        result = prepare_model(model, standard_recipe("E4M3"))
        assert len(result.quantized_modules) == 2
        assert all(
            isinstance(model.get_submodule(n), QuantizedModule) for n in result.quantized_modules
        )

    def test_prepare_respects_fallback_list(self):
        model = nn.Sequential(nn.Linear(8, 16), nn.ReLU(), nn.Linear(16, 2))
        result = prepare_model(model, standard_recipe("E4M3", fallback_modules=("2",)))
        assert "2" in result.skipped_modules

    def test_prepare_is_idempotent_against_double_wrapping(self):
        model = nn.Sequential(nn.Linear(8, 8))
        prepare_model(model, standard_recipe("E4M3"))
        second = prepare_model(model, standard_recipe("E4M3"))
        assert second.quantized_modules == []

    def test_first_last_detection(self):
        model = TinyResNet(num_classes=4, widths=(8, 16), rng=np.random.default_rng(0))
        first, last = find_first_last_operators(model)
        assert first.startswith("stem")
        assert last == "fc"

    def test_first_last_skipped_for_convolutional_models(self):
        model = TinyResNet(num_classes=4, widths=(8, 16), rng=np.random.default_rng(0))
        result = prepare_model(model, standard_recipe("E4M3"), is_convolutional=True)
        assert any(name.startswith("stem") for name in result.skipped_modules)
        assert "fc" in result.skipped_modules

    def test_static_without_calibration_raises(self):
        model = nn.Sequential(nn.Linear(8, 2))
        with pytest.raises(ValueError):
            quantize_model(model, standard_recipe("E4M3"), calibration_data=None)

    def test_convert_names_the_wrapper_calibration_never_reached(self):
        class Unreached(nn.Module):
            def __init__(self):
                super().__init__()
                self.used = nn.Linear(8, 2)
                self.unused = nn.Linear(8, 2)

            def forward(self, x):
                return self.used(x)

        model = Unreached()
        prepare_model(model, standard_recipe("E4M3"))
        calibrate_model(model, self._calib())
        with pytest.raises(RuntimeError, match="cannot convert 'unused': static quantizer"):
            convert_model(model)

    def test_dynamic_needs_no_calibration(self):
        model = nn.Sequential(nn.Linear(8, 2))
        model.eval()
        result = quantize_model(model, standard_recipe("E4M3", approach=Approach.DYNAMIC))
        out = result.model(Tensor(np.ones((1, 8), dtype=np.float32)))
        assert out.shape == (1, 2)

    def test_e5m2_direct_needs_no_calibration(self):
        model = nn.Sequential(nn.Linear(8, 2))
        model.eval()
        result = quantize_model(model, standard_recipe("E5M2"))
        assert result.num_quantized == 1

    def test_quantize_model_leaves_original_untouched(self):
        model = nn.Sequential(nn.Linear(8, 2))
        model.eval()
        original = model.get_submodule("0").weight.data.copy()
        quantize_model(model, standard_recipe("E4M3"), calibration_data=self._calib())
        assert np.array_equal(model.get_submodule("0").weight.data, original)
        assert not isinstance(model.get_submodule("0"), QuantizedModule)

    def test_quantize_model_inplace(self):
        model = nn.Sequential(nn.Linear(8, 2))
        model.eval()
        result = quantize_model(
            model, standard_recipe("E4M3"), calibration_data=self._calib(), inplace=True
        )
        assert result.model is model
        assert isinstance(model.get_submodule("0"), QuantizedModule)

    def test_calibrate_and_convert_pipeline(self):
        model = nn.Sequential(nn.Linear(8, 8), nn.ReLU(), nn.Linear(8, 2))
        model.eval()
        prepare_model(model, standard_recipe("E4M3"))
        used = calibrate_model(model, self._calib(), prepare_inputs=lambda x: Tensor(x))
        assert used == 8
        converted = convert_model(model)
        assert len(converted) == 2
        out = model(Tensor(np.ones((2, 8), dtype=np.float32)))
        assert out.shape == (2, 2)

    def test_quantized_outputs_close_to_fp32(self):
        model = nn.Sequential(nn.Linear(8, 16), nn.ReLU(), nn.Linear(16, 4))
        model.eval()
        x = Tensor(np.random.default_rng(3).standard_normal((16, 8)).astype(np.float32))
        with no_grad():
            ref = model(x).data
        result = quantize_model(model, standard_recipe("E3M4"), calibration_data=self._calib())
        with no_grad():
            q = result.model(x).data
        rel = np.abs(q - ref).max() / (np.abs(ref).max() + 1e-9)
        assert rel < 0.15

    def test_extended_recipe_quantizes_more_operators(self, bert_bundle):
        std = quantize_model(
            bert_bundle.model,
            standard_recipe("E4M3"),
            calibration_data=bert_bundle.calib_data,
            prepare_inputs=bert_bundle.prepare_inputs,
        )
        ext = quantize_model(
            bert_bundle.model,
            extended_recipe("E4M3", batchnorm_calibration=False),
            calibration_data=bert_bundle.calib_data,
            prepare_inputs=bert_bundle.prepare_inputs,
        )
        assert ext.num_quantized > std.num_quantized

    def test_int8_recipe_runs(self, bert_bundle):
        result = quantize_model(
            bert_bundle.model,
            int8_recipe(approach=Approach.DYNAMIC),
            calibration_data=bert_bundle.calib_data,
            prepare_inputs=bert_bundle.prepare_inputs,
        )
        metric = bert_bundle.evaluate(result.model)
        assert metric > 0.3  # still a functioning model

    def test_result_summary_strings(self):
        model = nn.Sequential(nn.Linear(4, 2))
        model.eval()
        result = quantize_model(model, standard_recipe("E4M3", approach=Approach.DYNAMIC))
        assert "quantized operators" in result.summary()

    def test_quantize_model_reports_packed_storage(self):
        model = nn.Sequential(nn.Linear(64, 64), nn.ReLU(), nn.Linear(64, 64))
        model.eval()
        result = quantize_model(model, standard_recipe("E4M3", approach=Approach.DYNAMIC))
        assert result.weight_bytes_fp32 == 2 * 64 * 64 * 4
        assert 0 < result.weight_bytes_packed <= 0.3 * result.weight_bytes_fp32
        assert result.weight_compression_ratio == pytest.approx(
            result.weight_bytes_packed / result.weight_bytes_fp32
        )
        assert "packed weight storage" in result.summary()
        rows = storage_report(result.model)
        assert len(rows) == 2
        assert all(r["format"] == "E4M3" for r in rows)

    def test_int8_recipe_packs_int8_codes(self):
        model = nn.Sequential(nn.Linear(64, 64))
        model.eval()
        result = quantize_model(model, int8_recipe(approach=Approach.DYNAMIC))
        wrapper = result.model.get_submodule("0")
        assert wrapper.weight_q.codes.dtype == np.int8
        assert result.weight_bytes_packed <= 0.3 * result.weight_bytes_fp32

    def test_clone_module_is_independent(self):
        model = nn.Sequential(nn.Linear(4, 2))
        clone = clone_module(model)
        clone.get_submodule("0").weight.data[...] = 0
        assert not np.allclose(model.get_submodule("0").weight.data, 0)
