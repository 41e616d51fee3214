"""Tests for SmoothQuant, BatchNorm calibration, mixed formats, metrics and auto-tuning."""

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd import no_grad
from repro.data.synthetic import make_classification_images
from repro.models.outliers import inject_nlp_outliers
from repro.models.registry import get_spec
from repro.models.transformer import BertStyleClassifier
from repro.quantization import (
    AutoTuner,
    QuantFormat,
    QuantizedModule,
    apply_smoothquant,
    assign_mixed_formats,
    calibrate_batchnorm,
    classify_tensor,
    extended_recipe,
    meets_accuracy_target,
    mse,
    quantize_model,
    relative_accuracy_loss,
    sqnr,
    standard_recipe,
)
from repro.quantization.mixed import format_for_tensor, kurtosis
from repro.quantization.smoothquant import collect_channel_absmax, find_smoothable_pairs
from repro.quantization.tuning import default_search_space


class TestMetrics:
    def test_mse_zero_for_identical(self):
        x = np.random.default_rng(0).standard_normal(100)
        assert mse(x, x) == 0.0

    def test_sqnr_increases_with_fidelity(self):
        x = np.random.default_rng(0).standard_normal(1000)
        assert sqnr(x, x + 0.001) > sqnr(x, x + 0.1)

    def test_relative_loss_sign(self):
        assert relative_accuracy_loss(0.8, 0.72) == pytest.approx(0.1)
        assert relative_accuracy_loss(0.8, 0.84) == pytest.approx(-0.05)

    def test_pass_criterion_is_one_percent_relative(self):
        assert meets_accuracy_target(0.80, 0.7921)
        assert not meets_accuracy_target(0.80, 0.7919)


class TestSmoothQuant:
    def _model_with_outliers(self, alpha=32.0):
        model = BertStyleClassifier(
            embed_dim=16, num_heads=2, num_layers=2, rng=np.random.default_rng(0)
        )
        model.eval()
        inject_nlp_outliers(model, alpha=alpha, num_channels=2, rng=0)
        return model

    def _calib(self):
        rng = np.random.default_rng(1)
        return [rng.integers(0, 64, size=(8, 12)) for _ in range(4)]

    def test_finds_ln_fc1_pairs(self):
        model = self._model_with_outliers()
        pairs = find_smoothable_pairs(model)
        assert len(pairs) == 2
        assert all("ln2" in ln_name and "fc1" in fc_name for ln_name, _, fc_name, _ in pairs)

    def test_collect_channel_absmax(self):
        model = self._model_with_outliers()
        pairs = find_smoothable_pairs(model)
        stats = collect_channel_absmax(
            model, [ln for _, ln, _, _ in pairs], self._calib(), prepare_inputs=lambda x: x
        )
        assert all(v.shape == (16,) for v in stats.values())

    def test_smoothquant_preserves_function(self):
        model = self._model_with_outliers()
        tokens = np.random.default_rng(2).integers(0, 64, size=(4, 12))
        with no_grad():
            before = model(tokens).data.copy()
        smoothed = apply_smoothquant(model, self._calib(), prepare_inputs=lambda x: x, alpha=0.5)
        with no_grad():
            after = model(tokens).data
        assert smoothed == 2
        assert np.allclose(before, after, atol=1e-3)

    def test_smoothquant_reduces_activation_outliers(self):
        model = self._model_with_outliers(alpha=48.0)
        pairs = find_smoothable_pairs(model)
        ln_modules = [ln for _, ln, _, _ in pairs]
        before = collect_channel_absmax(
            model, ln_modules, self._calib(), prepare_inputs=lambda x: x
        )
        apply_smoothquant(model, self._calib(), prepare_inputs=lambda x: x, alpha=0.5)
        after = collect_channel_absmax(model, ln_modules, self._calib(), prepare_inputs=lambda x: x)
        ratio_before = max(v.max() / np.median(v) for v in before.values())
        ratio_after = max(v.max() / np.median(v) for v in after.values())
        assert ratio_after < ratio_before

    def test_smoothquant_without_calibration_is_noop(self):
        model = self._model_with_outliers()
        assert apply_smoothquant(model, None) == 0

    def test_smoothquant_on_model_without_pairs(self):
        model = nn.Sequential(nn.Linear(4, 4))
        assert apply_smoothquant(model, [np.ones((2, 4), dtype=np.float32)]) == 0


class TestBatchNormCalibration:
    def _cnn(self):
        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(0)),
            nn.BatchNorm2d(8),
            nn.ReLU(),
            nn.AdaptiveAvgPool2d(1),
            nn.Flatten(),
            nn.Linear(8, 4, rng=np.random.default_rng(1)),
        )
        model.eval()
        return model

    def test_recalibration_updates_running_stats(self):
        model = self._cnn()
        data = make_classification_images(n_samples=64, rng=0)
        bn = model.get_submodule("1")
        before = bn.running_mean.copy()
        n = calibrate_batchnorm(model, data, num_samples=64, transform="inference")
        assert n == 1
        assert not np.allclose(bn.running_mean, before)

    def test_model_without_batchnorm_returns_zero(self):
        model = nn.Sequential(nn.Linear(4, 2))
        assert calibrate_batchnorm(model, np.zeros((8, 4), dtype=np.float32)) == 0

    def test_calibrating_flag_restored(self):
        model = self._cnn()
        data = make_classification_images(n_samples=32, rng=0)
        calibrate_batchnorm(model, data, num_samples=32)
        assert not model.get_submodule("1").calibrating

    def test_transform_choice_changes_statistics(self):
        data = make_classification_images(n_samples=128, rng=0)
        model_a, model_b = self._cnn(), self._cnn()
        calibrate_batchnorm(model_a, data, num_samples=128, transform="training", seed=3)
        calibrate_batchnorm(model_b, data, num_samples=128, transform="inference", seed=3)
        assert not np.allclose(
            model_a.get_submodule("1").running_var, model_b.get_submodule("1").running_var
        )

    def test_sequence_of_batches_pools_like_a_dataset(self):
        # quantize_model takes calibration data as an ArrayDataset or a
        # sequence of input batches; BN calibration pools the batches, so both
        # forms sample the same images and give the same statistics
        data = make_classification_images(n_samples=64, rng=0)
        recipe = standard_recipe("E4M3", batchnorm_calibration=True)
        recipe.bn_calibration_samples = 64
        results = [
            quantize_model(self._cnn(), recipe, calibration_data=source)
            for source in (data, [data.inputs[:32], data.inputs[32:]])
        ]
        assert all(result.batchnorm_calibrated for result in results)
        bn_a, bn_b = (result.model.get_submodule("1") for result in results)
        np.testing.assert_array_equal(bn_a.running_mean, bn_b.running_mean)
        np.testing.assert_array_equal(bn_a.running_var, bn_b.running_var)

    def test_recipe_level_bn_calibration(self, cnn_bundle):
        recipe = extended_recipe("E3M4", batchnorm_calibration=True)
        recipe.bn_calibration_samples = 256
        result = quantize_model(
            cnn_bundle.model,
            recipe,
            calibration_data=cnn_bundle.calib_data,
            prepare_inputs=cnn_bundle.prepare_inputs,
            is_convolutional=True,
        )
        assert result.batchnorm_calibrated
        metric = cnn_bundle.evaluate(result.model)
        assert metric > 0.5

    @pytest.mark.parametrize("name", ["efficientnet-b0-imagenet", "se-resnext50-imagenet"])
    def test_extended_recipe_converts_blocks_without_a_residual(self, name):
        # MBConv blocks that change shape add no residual; an Add module built
        # for them anyway was wrapped, never calibrated, and failed convert()
        spec = get_spec(name)
        model = spec.model_fn(np.random.default_rng(spec.seed)).eval()
        data = make_classification_images(n_samples=64, rng=0)
        recipe = extended_recipe("E4M3", batchnorm_calibration=True)
        recipe.bn_calibration_samples = 64
        result = quantize_model(model, recipe, calibration_data=data, is_convolutional=True)
        assert result.batchnorm_calibrated
        wrappers = [m for m in result.model.modules() if isinstance(m, QuantizedModule)]
        assert any(isinstance(m.inner, nn.Add) for m in wrappers)
        assert all(m.quantizing for m in wrappers)


class TestMixedFormats:
    def test_classify_outlier_tensor_as_range_bound(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 4096)
        x[:4] = 200.0
        assert classify_tensor(x) == "range-bound"

    def test_classify_gaussian_as_precision_bound(self):
        x = np.random.default_rng(1).normal(0, 1, 4096)
        assert classify_tensor(x) == "precision-bound"

    def test_format_for_tensor(self):
        outliers = np.zeros(1000)
        outliers[0] = 100.0
        outliers[1:] = np.random.default_rng(0).normal(0, 0.5, 999)
        assert format_for_tensor(outliers) is QuantFormat.E4M3
        assert format_for_tensor(np.random.default_rng(1).normal(0, 1, 1000)) is QuantFormat.E3M4

    def test_kurtosis_of_constant_is_zero(self):
        assert kurtosis(np.ones(100)) == 0.0

    def test_assign_mixed_formats_static_rule(self):
        recipe = assign_mixed_formats(standard_recipe("E4M3"))
        assert recipe.activation_fmt is QuantFormat.E4M3
        assert recipe.weight_fmt is QuantFormat.E3M4

    def test_assign_mixed_formats_with_stats(self):
        stats = {
            "fc_outlier": np.concatenate(
                [np.full(4, 300.0), np.random.default_rng(0).normal(0, 1, 996)]
            ),
            "fc_smooth": np.random.default_rng(1).normal(0, 1, 1000),
        }
        recipe = assign_mixed_formats(standard_recipe("E4M3"), activation_stats=stats)
        assert recipe.module_overrides["fc_outlier"].activation.fmt is QuantFormat.E4M3
        assert recipe.module_overrides["fc_smooth"].activation.fmt is QuantFormat.E3M4


class TestAutoTuner:
    def test_search_space_shapes(self):
        nlp = default_search_space("nlp")
        cv = default_search_space("cv")
        assert any(r.smoothquant for r in nlp)
        assert any(r.batchnorm_calibration for r in cv)

    def test_tuner_stops_at_first_pass(self, bert_bundle):
        tuner = AutoTuner(
            evaluate_fn=lambda model: bert_bundle.evaluate(model),
            fp32_metric=bert_bundle.fp32_metric,
        )
        result = tuner.tune(
            bert_bundle.model,
            default_search_space("nlp")[:2],
            calibration_data=bert_bundle.calib_data,
            prepare_inputs=bert_bundle.prepare_inputs,
        )
        assert result.trials
        assert result.best is not None
        assert "trials" in result.summary()

    def test_tuner_fallback_refinement(self, bert_bundle):
        # an impossible target forces the fallback loop to run
        tuner = AutoTuner(
            evaluate_fn=lambda model: bert_bundle.evaluate(model),
            fp32_metric=bert_bundle.fp32_metric,
            relative_loss_target=-1.0,
        )
        candidates = [name for name, _ in bert_bundle.model.named_modules() if name.endswith("fc1")]
        result = tuner.tune(
            bert_bundle.model,
            [standard_recipe("E5M2")],
            fallback_candidates=candidates,
            max_fallback_rounds=1,
            calibration_data=bert_bundle.calib_data,
            prepare_inputs=bert_bundle.prepare_inputs,
        )
        assert len(result.trials) == 2
        assert result.trials[1].recipe.fallback_modules

    def test_invalid_objective(self):
        with pytest.raises(ValueError):
            AutoTuner(evaluate_fn=lambda m: 0.0, fp32_metric=1.0, objective="speed")
