"""The post-training quantization workflow (paper Figure 2).

``quantize_model`` is the top-level API: it takes a trained FP32 model, a
:class:`~repro.quantization.qconfig.QuantizationRecipe` and calibration data,
and returns a quantized (Q/DQ-emulated) copy of the model plus a report of
what was quantized.  The stages map one-to-one onto the paper's flow diagram:

``SmoothQuant`` (optional, NLP) → ``prepare`` (insert observers) →
``calibrate`` (range calibration on calibration data; skipped for E5M2 direct
and for dynamic quantization) → ``convert`` (swap in quantized operators,
quantize weights) → ``BatchNorm calibration`` (optional, CV).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.data.synthetic import ArrayDataset, DataLoader
from repro.fp8.quantize import is_memory_mapped
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.quantization.bn_calibration import calibrate_batchnorm
from repro.quantization.qconfig import Approach, QuantizationRecipe
from repro.quantization.qmodules import QUANTIZED_MODULE_MAP, QuantizedModule, wrap_module
from repro.quantization.smoothquant import apply_smoothquant
from repro.utils.logging import get_logger

__all__ = [
    "QuantizationResult",
    "prepare_model",
    "calibrate_model",
    "convert_model",
    "quantize_model",
    "deploy_model",
    "set_serving_mode",
    "storage_report",
    "resident_report",
    "find_first_last_operators",
    "clone_module",
]

logger = get_logger("quantization.workflow")

CalibrationData = Union[ArrayDataset, Sequence[np.ndarray], None]
PrepareFn = Callable[[np.ndarray], object]


def clone_module(model: Module) -> Module:
    """Deep-copy a module tree (parameters, buffers and structure)."""
    return copy.deepcopy(model)


def find_first_last_operators(model: Module) -> tuple:
    """Return the names of the first Conv2d and the last Linear leaf modules.

    The paper keeps these two operators of convolutional networks in higher
    precision under the standard scheme (they are <1% of compute but are the
    most quantization-sensitive).  Module definition order is used as a proxy
    for execution order, which holds for every model in the zoo.
    """
    conv_names = [name for name, m in model.named_modules() if isinstance(m, Conv2d)]
    linear_names = [name for name, m in model.named_modules() if isinstance(m, Linear)]
    first_conv = conv_names[0] if conv_names else None
    last_linear = linear_names[-1] if linear_names else None
    return first_conv, last_linear


@dataclass
class QuantizationResult:
    """Outcome of a quantization run."""

    model: Module
    recipe: QuantizationRecipe
    quantized_modules: List[str] = field(default_factory=list)
    skipped_modules: List[str] = field(default_factory=list)
    smoothquant_applied: bool = False
    batchnorm_calibrated: bool = False
    #: bytes of packed 8-bit weight storage (codes + scales) across all wrappers
    weight_bytes_packed: int = 0
    #: bytes the same weights occupy as dense float32
    weight_bytes_fp32: int = 0

    @property
    def num_quantized(self) -> int:
        return len(self.quantized_modules)

    @property
    def weight_compression_ratio(self) -> Optional[float]:
        """Packed weight bytes as a fraction of float32 bytes (None if nothing packed)."""
        if not self.weight_bytes_fp32:
            return None
        return self.weight_bytes_packed / self.weight_bytes_fp32

    def summary(self) -> str:
        lines = [
            f"recipe: {self.recipe.name}",
            f"quantized operators: {self.num_quantized}",
            f"fp32 fallbacks: {len(self.skipped_modules)}",
            f"smoothquant: {self.smoothquant_applied}",
            f"batchnorm calibration: {self.batchnorm_calibrated}",
        ]
        ratio = self.weight_compression_ratio
        if ratio is not None:
            lines.append(
                f"packed weight storage: {self.weight_bytes_packed / 1024:.1f} KiB "
                f"({ratio:.2f}x of {self.weight_bytes_fp32 / 1024:.1f} KiB fp32)"
            )
        return "\n".join(lines)


def _iter_target_modules(model: Module, recipe: QuantizationRecipe):
    """Yield (name, type_name, module) for every leaf operator the recipe may quantize."""
    wrapped_parents = set()
    for name, module in model.named_modules():
        if isinstance(module, QuantizedModule):
            wrapped_parents.add(name)
            continue
        if any(name.startswith(f"{p}.") for p in wrapped_parents):
            continue  # the float module inside an existing wrapper
        for type_name, (module_cls, _) in QUANTIZED_MODULE_MAP.items():
            if type(module) is module_cls:
                yield name, type_name, module
                break


def prepare_model(
    model: Module,
    recipe: QuantizationRecipe,
    is_convolutional: bool = False,
) -> QuantizationResult:
    """Insert quantization wrappers (in observation mode) according to the recipe.

    The model is modified in place; use :func:`clone_module` first if the
    original must stay untouched (``quantize_model`` does this for you).
    """
    fallbacks = set(recipe.fallback_modules)
    if is_convolutional:
        first_conv, last_linear = find_first_last_operators(model)
        if recipe.skip_first_operator and first_conv:
            fallbacks.add(first_conv)
        if recipe.skip_last_operator and last_linear:
            fallbacks.add(last_linear)

    result = QuantizationResult(model=model, recipe=recipe)
    targets = list(_iter_target_modules(model, recipe))
    for name, type_name, module in targets:
        if name in fallbacks:
            result.skipped_modules.append(name)
            continue
        config = recipe.config_for(type_name, name)
        if config is None:
            result.skipped_modules.append(name)
            continue
        wrapper = wrap_module(type_name, module, config, name=name)
        wrapper.start_observing()
        model.set_submodule(name, wrapper)
        result.quantized_modules.append(name)
    return result


def _iter_calibration_batches(
    calibration_data: CalibrationData,
    prepare_inputs: PrepareFn,
    batch_size: int,
    max_batches: Optional[int] = None,
) -> Iterable[object]:
    if calibration_data is None:
        return
    if isinstance(calibration_data, ArrayDataset):
        loader = DataLoader(calibration_data, batch_size=batch_size, shuffle=False)
        for idx, (inputs, _) in enumerate(loader):
            if max_batches is not None and idx >= max_batches:
                break
            yield prepare_inputs(inputs)
    else:
        for idx, inputs in enumerate(calibration_data):
            if max_batches is not None and idx >= max_batches:
                break
            yield prepare_inputs(inputs) if isinstance(inputs, np.ndarray) else inputs


def calibrate_model(
    model: Module,
    calibration_data: CalibrationData,
    prepare_inputs: PrepareFn = lambda x: Tensor(x),
    batch_size: int = 32,
    max_batches: Optional[int] = None,
) -> int:
    """Run calibration data through a prepared model so observers record ranges.

    Returns the number of calibration batches used.
    """
    model.eval()
    count = 0
    with no_grad():
        for batch in _iter_calibration_batches(
            calibration_data, prepare_inputs, batch_size, max_batches
        ):
            model(batch)
            count += 1
    return count


def convert_model(model: Module) -> List[str]:
    """Freeze observers and switch every wrapper into quantized mode."""
    converted = []
    for name, module in model.named_modules():
        if isinstance(module, QuantizedModule):
            try:
                module.convert()
            except RuntimeError as exc:
                raise RuntimeError(f"cannot convert {name!r}: {exc}") from exc
            converted.append(name)
    return converted


def storage_report(model: Module) -> List[dict]:
    """Per-module packed weight storage for a converted model.

    One row per quantized wrapper holding a packed weight: module name,
    storage format, packed bytes (codes + scales), dense float32 bytes and
    their ratio.  Feeds the workflow summary and
    ``benchmarks/bench_memory_footprint.py``.
    """
    rows = []
    for name, module in model.named_modules():
        if isinstance(module, QuantizedModule) and module.weight_q is not None:
            stats = module.weight_storage_nbytes()
            rows.append(
                {
                    "module": name,
                    "format": module.weight_q.fmt.name,
                    "packed_bytes": stats["packed_bytes"],
                    "fp32_bytes": stats["fp32_bytes"],
                    "ratio": stats["ratio"],
                }
            )
    return rows


def deploy_model(model: Module, serving_mode: Optional[str] = None) -> int:
    """Switch every converted wrapper into restore-free deployment mode.

    Drops the pristine float32 originals and the dequant caches so resident
    weight bytes approach the packed footprint; ``restore()`` raises from now
    on.  Optionally sets the serving mode in the same pass.  Returns the
    number of wrappers deployed.
    """
    count = 0
    for _, module in model.named_modules():
        if isinstance(module, QuantizedModule):
            if serving_mode is not None:
                module.set_serving_mode(serving_mode)
            module.drop_originals()
            count += 1
    return count


def set_serving_mode(
    model: Module,
    mode: str,
    block_channels: Optional[int] = None,
    prefetch: Union[bool, str, None] = None,
) -> int:
    """Set the serving mode (``"cached"`` / ``"streaming"``) on every wrapper.

    ``block_channels`` pins the streaming block size on every wrapper;
    ``prefetch`` selects block prefetch on operators with a blocked streaming
    kernel: ``False`` decodes inline, ``"pipeline"`` pipelines decode across
    layers — this is where the model-level wiring happens: one shared
    :class:`~repro.serving.prefetch.PipelinePrefetcher` is built over the
    model's blocked streaming wrappers in module definition order (the
    workflow's usual proxy for execution order) and attached to each of
    them, so layer *k+1*'s first blocks decode while layer *k* finishes.
    ``None`` leaves either setting untouched; any other value raises
    ``ValueError``.
    """
    count = 0
    wrappers = []
    for _, module in model.named_modules():
        if isinstance(module, QuantizedModule):
            module.set_serving_mode(mode, block_channels=block_channels, prefetch=prefetch)
            wrappers.append(module)
            count += 1
    if prefetch == "pipeline" and mode == "streaming":
        # lazy import: the quantization layer must stay importable without
        # the serving package in the loop
        from repro.serving.prefetch import PipelinePrefetcher

        targets = [
            module
            for module in wrappers
            if module.streaming_prefetch == "pipeline"
            and module.weight_q is not None
            and hasattr(module, "_iter_weight_blocks")
        ]
        if targets:
            pipeline = PipelinePrefetcher(targets)
            for module in targets:
                module._pipeline = pipeline
    return count


def _storage_base(array: np.ndarray) -> np.ndarray:
    """Walk views back to the array that owns the bytes (broadcasts → their base)."""
    while isinstance(array, np.ndarray) and isinstance(array.base, np.ndarray):
        array = array.base
    return array


def resident_report(model: Union[Module, Sequence[Module]]) -> dict:
    """Actual bytes resident for the model's weights, deduplicated by storage.

    Unlike :func:`storage_report` (packed bytes *at rest*), this counts what
    is really held in memory right now: parameter/buffer storage (views share
    their base, so a deployment placeholder costs its 4 real bytes, not its
    dense shape), packed codes/scales, materialised dequant caches and any
    retained float32 originals.  ``fp32_bytes`` is what the same model costs
    with every parameter dense float32 — the serving benchmark's baseline.

    mmap-loaded storage is counted separately: arrays backed by an
    ``np.memmap`` view of the checkpoint file (``load_quantized(...,
    mmap=True)``) occupy address space, not committed memory — the kernel
    pages them in on first touch and may drop them again under pressure.
    They land in ``mapped_bytes`` (deduplicated per mapping, so one mapped
    checkpoint counts its file size once no matter how many views alias it),
    while ``resident_bytes``/``ratio`` cover only materialised private
    storage.  A cold mmap load therefore reports near-zero resident bytes
    until a forward touches the codes.

    ``model`` may also be a sequence of modules — e.g. serving-engine
    replicas.  Deduplication then spans the whole fleet: replicas loaded with
    ``load_quantized(..., mmap=True)`` alias one file mapping, so their
    shared checkpoint bytes are counted exactly once while ``fp32_bytes``
    still sums every replica's dense cost.
    """
    models = list(model) if isinstance(model, (list, tuple)) else [model]
    storages = {}
    mapped = {}
    fp32_bytes = 0

    def _tally(array: np.ndarray) -> None:
        base = _storage_base(array)
        if is_memory_mapped(base):
            mapped[id(base)] = base.nbytes
        else:
            storages[id(base)] = base.nbytes

    for entry in models:
        for _, param in entry.named_parameters():
            _tally(param.data)
            fp32_bytes += param.data.size * 4
        for _, buf in entry.named_buffers():
            _tally(buf)
            fp32_bytes += np.asarray(buf).size * 4
        for _, module in entry.named_modules():
            if isinstance(module, QuantizedModule):
                for array in module.weight_resident_arrays():
                    _tally(array)
    resident = int(sum(storages.values()))
    return {
        "resident_bytes": resident,
        "mapped_bytes": int(sum(mapped.values())),
        "fp32_bytes": int(fp32_bytes),
        "ratio": resident / fp32_bytes if fp32_bytes else 1.0,
    }


def quantize_model(
    model: Module,
    recipe: QuantizationRecipe,
    calibration_data: CalibrationData = None,
    prepare_inputs: PrepareFn = lambda x: Tensor(x),
    is_convolutional: bool = False,
    calibration_batch_size: int = 32,
    bn_calibration_data: CalibrationData = None,
    inplace: bool = False,
    deploy: bool = False,
    serving_mode: Optional[str] = None,
) -> QuantizationResult:
    """Quantize a trained FP32 model following the paper's workflow (Figure 2).

    Parameters
    ----------
    model:
        Trained FP32 model (left untouched unless ``inplace=True``).
    recipe:
        The quantization recipe (standard / extended / INT8 baseline).
    calibration_data:
        Calibration samples for static range calibration (an
        :class:`~repro.data.synthetic.ArrayDataset` or a sequence of input
        batches).  Not needed for purely dynamic or E5M2-direct recipes.
    prepare_inputs:
        How to turn a raw numpy batch into model inputs (matches the task).
    is_convolutional:
        Enables the convolution-network first/last-operator exception.
    bn_calibration_data:
        Data used for BatchNorm re-calibration when the recipe requests it
        (falls back to ``calibration_data``).
    deploy:
        Enter restore-free deployment mode after conversion (see
        :func:`deploy_model`): originals and caches dropped, resident weight
        bytes ≈ the packed footprint, ``restore()`` raises.
    serving_mode:
        Optionally set ``"cached"`` / ``"streaming"`` on every wrapper.
    """
    target = model if inplace else clone_module(model)
    target.eval()

    smoothquant_applied = False
    if recipe.smoothquant:
        smoothquant_applied = apply_smoothquant(
            target,
            calibration_data,
            prepare_inputs=prepare_inputs,
            alpha=recipe.smoothquant_alpha,
            batch_size=calibration_batch_size,
        ) > 0

    result = prepare_model(target, recipe, is_convolutional=is_convolutional)
    result.smoothquant_applied = smoothquant_applied

    # Gate on the per-quantizer configs alone: a mixed recipe whose top-level
    # approach is dynamic can still contain static per-module overrides, and
    # those would otherwise be converted with unobserved ranges.
    needs_calibration = any(
        q.config.approach is Approach.STATIC and q.config.enabled
        for _, m in target.named_modules()
        if isinstance(m, QuantizedModule)
        for q in m.input_quantizers
    )
    if needs_calibration:
        if calibration_data is None:
            raise ValueError(
                f"recipe {recipe.name!r} uses static quantization and requires calibration_data"
            )
        used = calibrate_model(
            target,
            calibration_data,
            prepare_inputs=prepare_inputs,
            batch_size=calibration_batch_size,
        )
        logger.debug("calibrated %s on %d batches", recipe.name, used)

    for _, module in target.named_modules():
        if isinstance(module, QuantizedModule):
            module.stop_observing()
    convert_model(target)

    for row in storage_report(target):
        result.weight_bytes_packed += row["packed_bytes"]
        result.weight_bytes_fp32 += row["fp32_bytes"]

    if recipe.batchnorm_calibration:
        data = bn_calibration_data if bn_calibration_data is not None else calibration_data
        if data is not None:
            calibrate_batchnorm(
                target,
                data,
                prepare_inputs=prepare_inputs,
                num_samples=recipe.bn_calibration_samples,
                transform=recipe.bn_calibration_transform,
                batch_size=calibration_batch_size,
            )
            result.batchnorm_calibrated = True

    # Deployment last: BN calibration runs forwards that would re-materialise
    # the caches deploy just dropped.
    if serving_mode is not None:
        set_serving_mode(target, serving_mode)
    if deploy:
        deploy_model(target)

    return result
