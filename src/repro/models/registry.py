"""Model/task registry — the synthetic counterpart of the paper's 75-network study.

Every entry couples an architecture from the zoo with a synthetic task, a
training recipe, and the metadata the quantization workflow keys off of
(domain, BatchNorm presence, outlier injection, size class).  ``build_task``
returns a ready-to-quantize :class:`TaskBundle` whose FP32 model is trained on
first use and cached on disk afterwards (see :mod:`repro.training.cache`).

The registry is intentionally smaller than the paper's study (≈35 tasks instead
of 200+) but spans the same axes: CNNs with/without foldable BatchNorm,
attention models with/without activation outliers, encoder and decoder
transformers, recommendation, audio, segmentation and generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.data.synthetic import (
    ArrayDataset,
    make_classification_images,
    make_language_modeling,
    make_segmentation,
    make_sequence_regression,
    make_tabular_ctr,
    make_token_classification,
)
from repro.models.audio import Wav2VecStyleClassifier
from repro.models.cnn import (
    TinyDenseNet,
    TinyEfficientNet,
    TinyInception,
    TinyMobileNet,
    TinyResNet,
    TinyShuffleNet,
    TinyVGG,
)
from repro.models.generative import TinyDenoiser
from repro.models.mlp import DLRMStyle
from repro.models.outliers import inject_nlp_outliers
from repro.models.transformer import BertStyleClassifier, GPTStyleLM, ViTStyleClassifier
from repro.models.unet import TinyUNet
from repro.nn.module import Module
from repro.training.cache import default_cache
from repro.training.trainer import TrainConfig, evaluate_model, train_model
from repro.utils.logging import get_logger
from repro.utils.seeding import seeded_rng

__all__ = [
    "ModelSpec",
    "TaskBundle",
    "REGISTRY",
    "get_spec",
    "list_specs",
    "build_task",
    "size_class_of",
    "SIZE_CLASS_THRESHOLDS",
]

logger = get_logger("models.registry")


# ----------------------------------------------------------------------
# metrics & losses, keyed by task type
# ----------------------------------------------------------------------
def classification_accuracy(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 accuracy for (N, C) logits."""
    return float(np.mean(outputs.argmax(axis=-1) == targets))


def next_token_accuracy(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Next-token prediction accuracy for (N, T, V) logits (lambada-style metric)."""
    return float(np.mean(outputs.argmax(axis=-1) == targets))


def mean_iou(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean intersection-over-union for (N, K, H, W) segmentation logits."""
    preds = outputs.argmax(axis=1)
    ious = []
    for cls in range(outputs.shape[1]):
        pred_mask = preds == cls
        target_mask = targets == cls
        union = np.logical_or(pred_mask, target_mask).sum()
        if union == 0:
            continue
        ious.append(np.logical_and(pred_mask, target_mask).sum() / union)
    return float(np.mean(ious)) if ious else 0.0


def roc_auc(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Rank-based ROC AUC for binary CTR logits."""
    outputs = outputs.reshape(-1)
    targets = targets.reshape(-1)
    order = np.argsort(outputs, kind="stable")
    ranks = np.empty_like(order, dtype=np.float64)
    ranks[order] = np.arange(1, len(outputs) + 1)
    n_pos = targets.sum()
    n_neg = len(targets) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    return float((ranks[targets > 0.5].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def negative_mse(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Negative mean-squared-error (higher is better) for regression/denoising tasks."""
    return float(-np.mean((outputs - targets) ** 2))


def _classification_loss(outputs: Tensor, targets: np.ndarray) -> Tensor:
    return F.cross_entropy(outputs, targets)


def _segmentation_loss(outputs: Tensor, targets: np.ndarray) -> Tensor:
    n, k, h, w = outputs.shape
    flat = outputs.transpose(0, 2, 3, 1).reshape(n * h * w, k)
    return F.cross_entropy(flat, targets.reshape(-1))


def _ctr_loss(outputs: Tensor, targets: np.ndarray) -> Tensor:
    return F.binary_cross_entropy_with_logits(outputs, targets.astype(np.float32))


def _mse_loss(outputs: Tensor, targets: np.ndarray) -> Tensor:
    return F.mse_loss(outputs, targets)


def _prepare_float(inputs: np.ndarray):
    return Tensor(np.asarray(inputs, dtype=np.float32))


def _prepare_tokens(inputs: np.ndarray):
    return np.asarray(inputs, dtype=np.int64)


TASK_TYPE_TABLE = {
    "image_classification": (_classification_loss, classification_accuracy, _prepare_float, "top1"),
    "text_classification": (
        _classification_loss, classification_accuracy, _prepare_tokens, "accuracy"
    ),
    "sequence_classification": (
        _classification_loss, classification_accuracy, _prepare_float, "accuracy"
    ),
    "language_modeling": (
        _classification_loss, next_token_accuracy, _prepare_tokens, "next-token acc"
    ),
    "segmentation": (_segmentation_loss, mean_iou, _prepare_float, "mIoU"),
    "ctr": (_ctr_loss, roc_auc, _prepare_float, "auc"),
    "denoising": (_mse_loss, negative_mse, _prepare_float, "-mse"),
}


# ----------------------------------------------------------------------
# size classes (paper Figure 5, rescaled to zoo model sizes)
# ----------------------------------------------------------------------
# The paper bins models by checkpoint size in MB (<=32, (32,384], (384,512], >512).
# Our zoo is ~4 orders of magnitude smaller, so the same four bins are defined
# over parameter counts instead; the mapping is documented in DESIGN.md.
SIZE_CLASS_THRESHOLDS = {"tiny": 30_000, "small": 100_000, "medium": 250_000}


def size_class_of(model: Module) -> str:
    """Classify a model into tiny/small/medium/large by parameter count."""
    n = model.num_parameters()
    if n <= SIZE_CLASS_THRESHOLDS["tiny"]:
        return "tiny"
    if n <= SIZE_CLASS_THRESHOLDS["small"]:
        return "small"
    if n <= SIZE_CLASS_THRESHOLDS["medium"]:
        return "medium"
    return "large"


# ----------------------------------------------------------------------
# spec / bundle dataclasses
# ----------------------------------------------------------------------
@dataclass
class ModelSpec:
    """Static description of one zoo entry (architecture + task + training recipe)."""

    name: str
    domain: str  # "cv" | "nlp" | "audio" | "recsys" | "generative"
    task_type: str
    family: str
    model_fn: Callable[[np.random.Generator], Module]
    data_fn: Callable[[np.random.Generator], ArrayDataset]
    train: TrainConfig = field(default_factory=TrainConfig)
    has_batchnorm: bool = False
    is_convolutional: bool = False
    outlier_alpha: float = 0.0
    outlier_channels: int = 2
    seed: int = 0
    eval_samples: int = 256
    calib_samples: int = 128
    in_pass_rate_suite: bool = True
    reference_task: str = ""  # the paper workload this entry stands in for

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "domain": self.domain,
            "task_type": self.task_type,
            "family": self.family,
            "reference_task": self.reference_task,
            "has_batchnorm": self.has_batchnorm,
            "outlier_alpha": self.outlier_alpha,
        }


@dataclass
class TaskBundle:
    """A trained FP32 model together with everything needed to quantize and evaluate it."""

    spec: ModelSpec
    model: Module
    train_data: ArrayDataset
    eval_data: ArrayDataset
    calib_data: ArrayDataset
    loss_fn: Callable[[Tensor, np.ndarray], Tensor]
    metric_fn: Callable[[np.ndarray, np.ndarray], float]
    prepare_inputs: Callable[[np.ndarray], object]
    metric_name: str
    fp32_metric: float

    @property
    def size_class(self) -> str:
        return size_class_of(self.model)

    def evaluate(self, model: Optional[Module] = None, batch_size: int = 64) -> float:
        """Evaluate ``model`` (default: the bundle's FP32 model) on the eval split."""
        target = model if model is not None else self.model
        return evaluate_model(
            target,
            self.eval_data,
            self.metric_fn,
            batch_size=batch_size,
            prepare_inputs=self.prepare_inputs,
        )


# ----------------------------------------------------------------------
# registry construction
# ----------------------------------------------------------------------
REGISTRY: Dict[str, ModelSpec] = {}


def _register(spec: ModelSpec) -> ModelSpec:
    if spec.name in REGISTRY:
        raise ValueError(f"duplicate registry entry {spec.name!r}")
    if spec.task_type not in TASK_TYPE_TABLE:
        raise ValueError(f"unknown task type {spec.task_type!r} for {spec.name!r}")
    REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ModelSpec:
    """Look up a registry entry by name."""
    if name not in REGISTRY:
        raise KeyError(f"unknown model spec {name!r}; see list_specs()")
    return REGISTRY[name]


def list_specs(
    domain: Optional[str] = None,
    task_type: Optional[str] = None,
    in_pass_rate_suite: Optional[bool] = None,
) -> List[ModelSpec]:
    """List registry entries, optionally filtered by domain / task type / suite membership."""
    specs = list(REGISTRY.values())
    if domain is not None:
        specs = [s for s in specs if s.domain == domain]
    if task_type is not None:
        specs = [s for s in specs if s.task_type == task_type]
    if in_pass_rate_suite is not None:
        specs = [s for s in specs if s.in_pass_rate_suite == in_pass_rate_suite]
    return specs


def _split(dataset: ArrayDataset, eval_samples: int) -> tuple:
    n = len(dataset)
    cut = n - min(eval_samples, n // 3)
    # indexing slices extras (e.g. the LM grammar's transition matrix) with the rows
    return ArrayDataset(*dataset[:cut]), ArrayDataset(*dataset[cut:])


def build_task(name: str, cache=None, force_retrain: bool = False) -> TaskBundle:
    """Build (train or load) the TaskBundle for a registry entry.

    Training happens once per spec and is cached on disk; pass
    ``force_retrain=True`` to ignore the cache.
    """
    spec = get_spec(name)
    cache = cache or default_cache()
    loss_fn, metric_fn, prepare_inputs, metric_name = TASK_TYPE_TABLE[spec.task_type]

    data_rng = seeded_rng(spec.seed + 1)
    dataset = spec.data_fn(data_rng)
    train_data, eval_data = _split(dataset, spec.eval_samples)
    calib_data = train_data.subset(spec.calib_samples, rng=seeded_rng(spec.seed + 2))

    model = spec.model_fn(seeded_rng(spec.seed))

    def _train(m: Module) -> float:
        logger.info("training zoo model %s (%d params)", spec.name, m.num_parameters())
        train_model(m, train_data, loss_fn, spec.train, prepare_inputs=prepare_inputs)
        if spec.outlier_alpha > 0:
            inject_nlp_outliers(
                m,
                alpha=spec.outlier_alpha,
                num_channels=spec.outlier_channels,
                rng=seeded_rng(spec.seed + 3),
            )
        return evaluate_model(m, eval_data, metric_fn, prepare_inputs=prepare_inputs)

    if force_retrain:
        fp32_metric = _train(model)
        cache.store(_cache_key(spec), model.state_dict(), fp32_metric)
    else:
        fp32_metric = cache.get_or_train(_cache_key(spec), model, _train)

    model.eval()
    return TaskBundle(
        spec=spec,
        model=model,
        train_data=train_data,
        eval_data=eval_data,
        calib_data=calib_data,
        loss_fn=loss_fn,
        metric_fn=metric_fn,
        prepare_inputs=prepare_inputs,
        metric_name=metric_name,
        fp32_metric=fp32_metric,
    )


#: part of every zoo cache key: bump it whenever training numerics change, so
#: weights cached by an older build are retrained instead of served (r4: GELU
#: cubes with ``x * x * x``; r5: fused linear / layer_norm / softmax backwards)
_RECIPE_VERSION = "r5"


def _cache_key(spec: ModelSpec) -> str:
    return f"{spec.name}-seed{spec.seed}-{_RECIPE_VERSION}"


# ----------------------------------------------------------------------
# CV entries
# ----------------------------------------------------------------------
_CV_CLASSES = 8
_IMG = dict(image_size=16, channels=3, n_classes=_CV_CLASSES)


def _img_data(noise: float, n_samples: int = 896):
    def factory(rng):
        return make_classification_images(n_samples=n_samples, noise=noise, rng=rng, **_IMG)

    return factory


_CNN_TRAIN = TrainConfig(epochs=5, batch_size=32, lr=3e-3, optimizer="adam")
_VIT_TRAIN = TrainConfig(epochs=6, batch_size=32, lr=2e-3, optimizer="adam")

_register(
    ModelSpec(
        name="resnet18-imagenet",
        domain="cv",
        task_type="image_classification",
        family="resnet",
        model_fn=lambda rng: TinyResNet(
            num_classes=_CV_CLASSES, widths=(12, 24, 48), blocks_per_stage=1, rng=rng
        ),
        data_fn=_img_data(noise=3.0),
        train=_CNN_TRAIN,
        has_batchnorm=True,
        is_convolutional=True,
        seed=11,
        reference_task="ResNet-18 / ImageNet",
    )
)
_register(
    ModelSpec(
        name="resnet50-imagenet",
        domain="cv",
        task_type="image_classification",
        family="resnet",
        model_fn=lambda rng: TinyResNet(
            num_classes=_CV_CLASSES, widths=(16, 32, 64), blocks_per_stage=2, rng=rng
        ),
        data_fn=_img_data(noise=3.0),
        train=_CNN_TRAIN,
        has_batchnorm=True,
        is_convolutional=True,
        seed=12,
        reference_task="ResNet-50 / ImageNet",
    )
)
_register(
    ModelSpec(
        name="resnext101-imagenet",
        domain="cv",
        task_type="image_classification",
        family="resnet",
        model_fn=lambda rng: TinyResNet(
            num_classes=_CV_CLASSES, widths=(16, 32, 48), blocks_per_stage=2, rng=rng
        ),
        data_fn=_img_data(noise=3.3),
        train=_CNN_TRAIN,
        has_batchnorm=True,
        is_convolutional=True,
        seed=13,
        reference_task="ResNeXt-101 / ImageNet",
    )
)
_register(
    ModelSpec(
        name="vgg13-imagenet",
        domain="cv",
        task_type="image_classification",
        family="vgg",
        model_fn=lambda rng: TinyVGG(
            num_classes=_CV_CLASSES, widths=(12, 24, 48), batch_norm=False, rng=rng
        ),
        data_fn=_img_data(noise=3.0),
        train=_CNN_TRAIN,
        has_batchnorm=False,
        is_convolutional=True,
        seed=14,
        reference_task="VGG-13 / ImageNet",
    )
)
_register(
    ModelSpec(
        name="densenet121-imagenet",
        domain="cv",
        task_type="image_classification",
        family="densenet",
        model_fn=lambda rng: TinyDenseNet(
            num_classes=_CV_CLASSES, growth=8, layers_per_block=3, rng=rng
        ),
        data_fn=_img_data(noise=3.0),
        train=_CNN_TRAIN,
        has_batchnorm=True,
        is_convolutional=True,
        seed=15,
        reference_task="DenseNet-121 / ImageNet",
    )
)
_register(
    ModelSpec(
        name="densenet169-imagenet",
        domain="cv",
        task_type="image_classification",
        family="densenet",
        model_fn=lambda rng: TinyDenseNet(
            num_classes=_CV_CLASSES, growth=12, layers_per_block=4, rng=rng
        ),
        data_fn=_img_data(noise=3.15),
        train=_CNN_TRAIN,
        has_batchnorm=True,
        is_convolutional=True,
        seed=16,
        reference_task="DenseNet-169 / ImageNet",
    )
)
_register(
    ModelSpec(
        name="mobilenet-v2-imagenet",
        domain="cv",
        task_type="image_classification",
        family="mobilenet",
        model_fn=lambda rng: TinyMobileNet(num_classes=_CV_CLASSES, widths=(12, 24, 48), rng=rng),
        data_fn=_img_data(noise=3.3),
        train=_CNN_TRAIN,
        has_batchnorm=True,
        is_convolutional=True,
        seed=17,
        reference_task="MobileNetV2 / ImageNet",
    )
)
_register(
    ModelSpec(
        name="shufflenet-v2-imagenet",
        domain="cv",
        task_type="image_classification",
        family="shufflenet",
        model_fn=lambda rng: TinyShuffleNet(num_classes=_CV_CLASSES, width=32, groups=4, rng=rng),
        data_fn=_img_data(noise=3.3),
        train=_CNN_TRAIN,
        has_batchnorm=True,
        is_convolutional=True,
        seed=18,
        reference_task="ShuffleNetV2 / ImageNet",
    )
)
_register(
    ModelSpec(
        name="efficientnet-b0-imagenet",
        domain="cv",
        task_type="image_classification",
        family="efficientnet",
        model_fn=lambda rng: TinyEfficientNet(
            num_classes=_CV_CLASSES, widths=(12, 20, 32), rng=rng
        ),
        data_fn=_img_data(noise=3.45),
        train=_CNN_TRAIN,
        has_batchnorm=True,
        is_convolutional=True,
        seed=19,
        reference_task="EfficientNet-B0 / ImageNet",
    )
)
_register(
    ModelSpec(
        name="inception-v3-imagenet",
        domain="cv",
        task_type="image_classification",
        family="inception",
        model_fn=lambda rng: TinyInception(num_classes=_CV_CLASSES, branch_width=8, rng=rng),
        data_fn=_img_data(noise=3.0),
        train=_CNN_TRAIN,
        has_batchnorm=True,
        is_convolutional=True,
        seed=20,
        reference_task="GoogleNet / Inception-V3 / ImageNet",
    )
)
_register(
    ModelSpec(
        name="vit-small-imagenet",
        domain="cv",
        task_type="image_classification",
        family="vit",
        model_fn=lambda rng: ViTStyleClassifier(
            num_classes=_CV_CLASSES, embed_dim=32, num_layers=2, rng=rng
        ),
        data_fn=_img_data(noise=3.0),
        train=_VIT_TRAIN,
        has_batchnorm=False,
        is_convolutional=False,
        seed=21,
        reference_task="ViT-S / ImageNet",
    )
)
_register(
    ModelSpec(
        name="vit-base-cifar10",
        domain="cv",
        task_type="image_classification",
        family="vit",
        model_fn=lambda rng: ViTStyleClassifier(
            num_classes=_CV_CLASSES, embed_dim=64, num_layers=3, rng=rng
        ),
        data_fn=_img_data(noise=2.9),
        train=_VIT_TRAIN,
        has_batchnorm=False,
        is_convolutional=False,
        seed=22,
        reference_task="ViT-B / CIFAR-10",
    )
)
_register(
    ModelSpec(
        name="unet-carvana",
        domain="cv",
        task_type="segmentation",
        family="unet",
        model_fn=lambda rng: TinyUNet(num_classes=2, base_width=10, rng=rng),
        data_fn=lambda rng: make_segmentation(n_samples=576, noise=1.4, rng=rng),
        train=TrainConfig(epochs=4, batch_size=16, lr=3e-3),
        has_batchnorm=True,
        is_convolutional=True,
        seed=23,
        eval_samples=160,
        reference_task="U-Net / Carvana masking",
    )
)
_register(
    ModelSpec(
        name="se-resnext50-imagenet",
        domain="cv",
        task_type="image_classification",
        family="efficientnet",
        model_fn=lambda rng: TinyEfficientNet(
            num_classes=_CV_CLASSES, widths=(16, 24, 40), rng=rng
        ),
        data_fn=_img_data(noise=3.15),
        train=_CNN_TRAIN,
        has_batchnorm=True,
        is_convolutional=True,
        seed=24,
        reference_task="SE-ResNeXt-50 / ImageNet",
    )
)


# ----------------------------------------------------------------------
# NLP entries
# ----------------------------------------------------------------------
def _text_data(n_classes: int, seq_len: int = 24, noise: float = 0.18, n_samples: int = 896):
    def factory(rng):
        return make_token_classification(
            n_samples=n_samples,
            seq_len=seq_len,
            vocab_size=64,
            n_classes=n_classes,
            signal_density=noise,
            rng=rng,
        )

    return factory


def _lm_data(vocab_size: int = 48, seq_len: int = 32, n_samples: int = 640):
    def factory(rng):
        return make_language_modeling(
            n_samples=n_samples, seq_len=seq_len, vocab_size=vocab_size, rng=rng
        )

    return factory


_BERT_TRAIN = TrainConfig(epochs=6, batch_size=32, lr=2e-3, optimizer="adam")
_LM_TRAIN = TrainConfig(epochs=5, batch_size=32, lr=2e-3, optimizer="adam")


def _bert_entry(
    name: str,
    reference: str,
    embed_dim: int = 32,
    num_layers: int = 2,
    num_heads: int = 4,
    n_classes: int = 4,
    outlier_alpha: float = 24.0,
    local_window: Optional[int] = None,
    funnel_pool: bool = False,
    seed: int = 0,
    signal_density: float = 0.18,
) -> ModelSpec:
    return ModelSpec(
        name=name,
        domain="nlp",
        task_type="text_classification",
        family="bert",
        model_fn=lambda rng: BertStyleClassifier(
            vocab_size=64,
            num_classes=n_classes,
            embed_dim=embed_dim,
            num_heads=num_heads,
            num_layers=num_layers,
            local_window=local_window,
            funnel_pool=funnel_pool,
            rng=rng,
        ),
        data_fn=_text_data(n_classes=n_classes, noise=signal_density),
        train=_BERT_TRAIN,
        outlier_alpha=outlier_alpha,
        seed=seed,
        reference_task=reference,
    )


_register(_bert_entry("bert-base-mrpc", "BERT-base / MRPC", seed=31))
_register(_bert_entry("bert-base-stsb", "BERT-base / STS-B", n_classes=5, seed=32))
_register(_bert_entry("bert-base-cola", "BERT-base / CoLA", n_classes=2, seed=33))
_register(
    _bert_entry("bert-base-sst2", "BERT-base / SST-2", n_classes=2, seed=34, signal_density=0.16)
)
_register(
    _bert_entry(
        "bert-large-rte",
        "BERT-large / RTE",
        embed_dim=64,
        num_layers=3,
        n_classes=2,
        seed=35,
        outlier_alpha=32.0,
    )
)
_register(
    _bert_entry(
        "bert-large-cola",
        "BERT-large / CoLA",
        embed_dim=64,
        num_layers=3,
        n_classes=2,
        seed=36,
        outlier_alpha=32.0,
    )
)
_register(_bert_entry("distilbert-mrpc", "DistilBERT / MRPC", num_layers=1, seed=37))
_register(
    _bert_entry(
        "longformer-mrpc",
        "Longformer / MRPC",
        local_window=4,
        num_layers=2,
        seed=38,
        outlier_alpha=28.0,
    )
)
_register(_bert_entry("funnel-mrpc", "Funnel / MRPC", funnel_pool=True, seed=39))
_register(
    _bert_entry(
        "xlm-roberta-base-mrpc", "XLM-RoBERTa-base / MRPC", embed_dim=48, num_layers=2, seed=40
    )
)
_register(
    _bert_entry("albert-base-sst2", "ALBERT-base / SST-2", embed_dim=24, n_classes=2, seed=41)
)
_register(
    _bert_entry("electra-small-sst2", "ELECTRA-small / SST-2", embed_dim=24, n_classes=2, seed=42)
)
_register(
    _bert_entry("roberta-base-qnli", "RoBERTa-base / QNLI", embed_dim=48, n_classes=2, seed=43)
)


def _lm_entry(
    name: str,
    reference: str,
    embed_dim: int = 32,
    num_layers: int = 2,
    vocab_size: int = 48,
    outlier_alpha: float = 48.0,
    seed: int = 0,
) -> ModelSpec:
    return ModelSpec(
        name=name,
        domain="nlp",
        task_type="language_modeling",
        family="gpt",
        model_fn=lambda rng: GPTStyleLM(
            vocab_size=vocab_size, embed_dim=embed_dim, num_heads=4, num_layers=num_layers, rng=rng
        ),
        data_fn=_lm_data(vocab_size=vocab_size),
        train=_LM_TRAIN,
        outlier_alpha=outlier_alpha,
        seed=seed,
        eval_samples=192,
        reference_task=reference,
    )


_register(
    _lm_entry(
        "bloom-7b1-lambada", "Bloom-7B1 / lambada-openai", embed_dim=48, num_layers=3, seed=51
    )
)
_register(
    _lm_entry(
        "bloom-176b-lambada",
        "Bloom-176B / lambada-openai",
        embed_dim=64,
        num_layers=4,
        outlier_alpha=64.0,
        seed=52,
    )
)
_register(
    _lm_entry(
        "llama-65b-lambada",
        "LLaMA-65B / lambada-openai",
        embed_dim=64,
        num_layers=3,
        outlier_alpha=56.0,
        seed=53,
    )
)
_register(
    _lm_entry("dialogpt-wikitext", "DialoGPT / wikitext", embed_dim=32, num_layers=2, seed=54)
)
_register(
    _lm_entry(
        "marianmt-wmt-enro",
        "MarianMT / WMT EN-RO",
        embed_dim=32,
        num_layers=2,
        vocab_size=56,
        seed=55,
    )
)
_register(
    _lm_entry(
        "pegasus-samsum", "Pegasus / SAMSum", embed_dim=40, num_layers=2, vocab_size=56, seed=56
    )
)


# ----------------------------------------------------------------------
# audio / recsys / generative entries
# ----------------------------------------------------------------------
_register(
    ModelSpec(
        name="wav2vec2-librispeech",
        domain="audio",
        task_type="sequence_classification",
        family="wav2vec",
        model_fn=lambda rng: Wav2VecStyleClassifier(
            n_features=16, num_classes=6, embed_dim=32, rng=rng
        ),
        data_fn=lambda rng: make_sequence_regression(n_samples=768, noise=0.9, rng=rng),
        train=TrainConfig(epochs=7, batch_size=32, lr=2e-3),
        outlier_alpha=20.0,
        seed=61,
        reference_task="wav2vec 2.0 / LibriSpeech",
    )
)
_register(
    ModelSpec(
        name="hubert-librispeech",
        domain="audio",
        task_type="sequence_classification",
        family="wav2vec",
        model_fn=lambda rng: Wav2VecStyleClassifier(
            n_features=16, num_classes=6, embed_dim=40, rng=rng
        ),
        data_fn=lambda rng: make_sequence_regression(n_samples=768, noise=1.0, rng=rng),
        train=TrainConfig(epochs=7, batch_size=32, lr=2e-3),
        outlier_alpha=20.0,
        seed=62,
        reference_task="HuBERT / LibriSpeech",
    )
)
_register(
    ModelSpec(
        name="dlrm-criteo",
        domain="recsys",
        task_type="ctr",
        family="dlrm",
        model_fn=lambda rng: DLRMStyle(rng=rng),
        data_fn=lambda rng: make_tabular_ctr(n_samples=1280, rng=rng),
        train=TrainConfig(epochs=6, batch_size=64, lr=3e-3),
        seed=63,
        eval_samples=384,
        reference_task="DLRM / Criteo Terabyte",
    )
)
_register(
    ModelSpec(
        name="stable-diffusion-proxy",
        domain="generative",
        task_type="denoising",
        family="diffusion",
        model_fn=lambda rng: TinyDenoiser(width=16, rng=rng),
        data_fn=lambda rng: _denoising_data(rng),
        train=TrainConfig(epochs=6, batch_size=32, lr=3e-3),
        seed=64,
        eval_samples=128,
        in_pass_rate_suite=False,
        reference_task="Stable Diffusion / FID",
    )
)


def _denoising_data(rng) -> ArrayDataset:
    clean = make_classification_images(n_samples=640, noise=0.0, rng=rng, **_IMG).inputs
    noise_rng = seeded_rng(12345)
    noisy = clean + noise_rng.standard_normal(clean.shape).astype(np.float32)
    return ArrayDataset(noisy.astype(np.float32), clean.astype(np.float32))
