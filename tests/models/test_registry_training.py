"""Tests for the model registry, training loop and zoo cache."""

import numpy as np
import pytest

from repro.data.synthetic import make_classification_images
from repro.models.registry import (
    REGISTRY,
    TASK_TYPE_TABLE,
    build_task,
    classification_accuracy,
    get_spec,
    list_specs,
    mean_iou,
    next_token_accuracy,
    roc_auc,
    size_class_of,
)
from repro.models.mlp import SimpleMLP
from repro.training.cache import ZooCache
from repro.training.trainer import TrainConfig, evaluate_model, train_model


class TestMetrics:
    def test_classification_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert classification_accuracy(logits, np.array([0, 1])) == 1.0
        assert classification_accuracy(logits, np.array([1, 0])) == 0.0

    def test_next_token_accuracy(self):
        logits = np.zeros((1, 2, 3))
        logits[0, 0, 1] = 1.0
        logits[0, 1, 2] = 1.0
        assert next_token_accuracy(logits, np.array([[1, 2]])) == 1.0

    def test_mean_iou_perfect(self):
        logits = np.zeros((1, 2, 4, 4))
        logits[0, 1, :2] = 5.0
        targets = np.zeros((1, 4, 4), dtype=np.int64)
        targets[0, :2] = 1
        assert mean_iou(logits, targets) == pytest.approx(1.0)

    def test_roc_auc_perfect_and_random(self):
        targets = np.array([0, 0, 1, 1], dtype=np.float32)
        assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), targets) == 1.0
        assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), targets) == 0.0

    def test_roc_auc_degenerate_labels(self):
        assert roc_auc(np.array([0.3, 0.4]), np.array([1.0, 1.0])) == 0.5


class TestRegistry:
    def test_registry_covers_domains(self):
        domains = {spec.domain for spec in REGISTRY.values()}
        assert {"cv", "nlp", "audio", "recsys", "generative"} <= domains

    def test_registry_size(self):
        assert len(REGISTRY) >= 30  # scaled-down counterpart of the 75-network study

    def test_nlp_entries_have_outliers(self):
        nlp = list_specs(domain="nlp")
        assert all(spec.outlier_alpha > 0 for spec in nlp)

    def test_cv_entries_are_convolutional_or_vit(self):
        cv = list_specs(domain="cv")
        assert any(spec.has_batchnorm for spec in cv)
        assert any(spec.family == "vit" for spec in cv)

    def test_get_spec_unknown(self):
        with pytest.raises(KeyError):
            get_spec("not-a-model")

    def test_list_specs_filters(self):
        only_lm = list_specs(task_type="language_modeling")
        assert only_lm and all(s.task_type == "language_modeling" for s in only_lm)
        suite = list_specs(in_pass_rate_suite=True)
        assert all(s.in_pass_rate_suite for s in suite)

    def test_every_spec_task_type_is_known(self):
        assert all(spec.task_type in TASK_TYPE_TABLE for spec in REGISTRY.values())

    def test_spec_describe(self):
        desc = get_spec("bert-base-mrpc").describe()
        assert desc["domain"] == "nlp" and "reference_task" in desc

    def test_size_class_thresholds(self):
        tiny = SimpleMLP(4, 2, hidden=(4,))
        assert size_class_of(tiny) == "tiny"


class TestTraining:
    def test_training_reduces_loss(self):
        dataset = make_classification_images(
            n_samples=128, image_size=8, n_classes=4, noise=0.5, rng=0
        )
        model = SimpleMLP(3 * 8 * 8, 4, hidden=(32,), rng=np.random.default_rng(0))
        loss_fn, metric_fn, prepare, _ = TASK_TYPE_TABLE["image_classification"]
        losses = train_model(
            model, dataset, loss_fn, TrainConfig(epochs=3, lr=1e-2), prepare_inputs=prepare
        )
        assert losses[-1] < losses[0]

    def test_trained_model_beats_chance(self):
        dataset = make_classification_images(
            n_samples=192, image_size=8, n_classes=4, noise=0.5, rng=1
        )
        model = SimpleMLP(3 * 8 * 8, 4, hidden=(32,), rng=np.random.default_rng(0))
        loss_fn, metric_fn, prepare, _ = TASK_TYPE_TABLE["image_classification"]
        train_model(model, dataset, loss_fn, TrainConfig(epochs=4, lr=1e-2), prepare_inputs=prepare)
        acc = evaluate_model(model, dataset, metric_fn, prepare_inputs=prepare)
        assert acc > 0.5

    def test_invalid_optimizer(self):
        dataset = make_classification_images(n_samples=16, image_size=8, rng=0)
        loss_fn, _, prepare, _ = TASK_TYPE_TABLE["image_classification"]
        with pytest.raises(ValueError):
            train_model(
                SimpleMLP(3 * 8 * 8, 8),
                dataset,
                loss_fn,
                TrainConfig(epochs=1, optimizer="rmsprop"),
                prepare_inputs=prepare,
            )


class TestCache:
    def test_store_and_load(self, tmp_path):
        cache = ZooCache(cache_dir=str(tmp_path))
        state = {"w": np.ones((2, 2), dtype=np.float32)}
        cache.store("model-a", state, 0.9)
        cache.clear_memory()
        loaded = cache.load("model-a")
        assert loaded is not None
        loaded_state, metric = loaded
        assert metric == pytest.approx(0.9)
        assert np.allclose(loaded_state["w"], 1.0)

    def test_load_missing_returns_none(self, tmp_path):
        assert ZooCache(cache_dir=str(tmp_path)).load("nope") is None

    def test_get_or_train_only_trains_once(self, tmp_path):
        cache = ZooCache(cache_dir=str(tmp_path))
        model = SimpleMLP(4, 2, hidden=(4,), rng=np.random.default_rng(0))
        calls = []

        def train_fn(m):
            calls.append(1)
            return 0.75

        metric1 = cache.get_or_train("k", model, train_fn)
        metric2 = cache.get_or_train(
            "k", SimpleMLP(4, 2, hidden=(4,), rng=np.random.default_rng(1)), train_fn
        )
        assert metric1 == metric2 == 0.75
        assert len(calls) == 1


class TestBuildTask:
    def test_build_task_bundles_everything(self, bert_bundle):
        assert bert_bundle.fp32_metric > 0.5
        assert len(bert_bundle.calib_data) <= len(bert_bundle.train_data)
        assert bert_bundle.size_class in ("tiny", "small", "medium", "large")

    def test_bundle_evaluate_matches_fp32_metric(self, bert_bundle):
        assert bert_bundle.evaluate() == pytest.approx(bert_bundle.fp32_metric, abs=1e-6)

    def test_build_task_is_cached_and_deterministic(self, bert_bundle):
        again = build_task(bert_bundle.spec.name)
        assert again.fp32_metric == pytest.approx(bert_bundle.fp32_metric)
        for (_, a), (_, b) in zip(
            bert_bundle.model.named_parameters(), again.model.named_parameters()
        ):
            assert np.array_equal(a.data, b.data)

    def test_eval_split_keeps_row_aligned_extras(self, lm_bundle):
        # the LM eval split carries its grammar, which Table 4's metric scores against
        evald = lm_bundle.eval_data
        probs = evald.extras["transition_probs"]
        assert len(probs) == len(evald.inputs) == len(evald.targets)
        rows = np.arange(len(evald.inputs))[:, None]
        assert np.all(probs[rows, evald.inputs, evald.targets] > 0)
        assert len(lm_bundle.train_data.extras["transition_probs"]) == len(lm_bundle.train_data)
