"""Save / load converted models as packed single-file checkpoints.

``save_quantized`` walks a converted model and writes one container file
holding:

* the packed 8-bit weight payloads (codes + scales + zero points) of every
  :class:`~repro.quantization.qmodules.QuantizedModule`, via the extra-state
  composition in ``Module.state_dict()`` — the dense float32 view of a packed
  weight is **never** written (nor read back);
* every remaining float parameter and buffer (biases, unquantized modules,
  BatchNorm statistics);
* the frozen activation-calibration state of every quantizer, the per-module
  operator configs, and (optionally) the full quantization recipe.

``load_quantized`` inverts it against a fresh float model from
``model_factory``: it wraps exactly the modules recorded in the checkpoint,
restores packed storage and calibration without ever dequantizing, and
returns the model in restore-free deployment mode — the factory's float
weights for quantized operators are released and replaced by 4-byte broadcast
placeholders, so resident weight bytes approach the packed footprint.
``restore()`` raises on such a model; the packed codes are the storage of
record.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.nn.module import EXTRA_STATE_KEY, Module
from repro.quantization.qconfig import OperatorQuantConfig, QuantizationRecipe
from repro.quantization.qmodules import QUANTIZED_MODULE_MAP, QuantizedModule, wrap_module
from repro.quantization.workflow import set_serving_mode
from repro.serialization.container import (
    CheckpointError,
    CheckpointVersionError,
    read_container,
    read_header,
    write_container,
)
from repro.serialization.tree import flatten_state, unflatten_state

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_VERSION",
    "save_quantized",
    "load_quantized",
    "read_checkpoint_meta",
    "load_recipe",
]

CHECKPOINT_KIND = "repro-packed-quantized-model"
#: schema version of the model-level checkpoint layout (inside the container)
CHECKPOINT_VERSION = 1

ModelFactory = Callable[[], Module]


def _quantized_wrappers(model: Module) -> Dict[str, QuantizedModule]:
    return {
        name: module
        for name, module in model.named_modules()
        if isinstance(module, QuantizedModule)
    }


def _type_name_for(module: Module) -> str:
    for type_name, (module_cls, _) in QUANTIZED_MODULE_MAP.items():
        if type(module) is module_cls:
            return type_name
    raise CheckpointError(
        f"module type {type(module).__name__} has no registered quantized wrapper"
    )


def save_quantized(
    model: Module,
    path: str,
    recipe: Optional[QuantizationRecipe] = None,
    metadata: Optional[dict] = None,
) -> int:
    """Write a converted model to ``path`` as one packed checkpoint file.

    The dense float32 view of every packed weight is excluded — only codes,
    scales and the surrounding float state travel.  Returns the file size in
    bytes (≈ packed weight bytes + float leftovers + header).
    """
    wrappers = _quantized_wrappers(model)
    # Packed weights are excluded from the plain state dict at the source
    # (QuantizedModule.state_dict_excluded_keys): the float view is never
    # even copied, let alone written — only codes/scales travel.
    state = model.state_dict()
    arrays, skeleton = flatten_state(state)
    meta = {
        "kind": CHECKPOINT_KIND,
        "checkpoint_version": CHECKPOINT_VERSION,
        "recipe": None if recipe is None else recipe.to_dict(),
        "metadata": metadata or {},
        "quantized_modules": {
            name: type(wrapper.inner).__name__ for name, wrapper in wrappers.items()
        },
        "state": skeleton,
    }
    return write_container(path, arrays, meta)


def _check_meta(meta: dict, path: str) -> dict:
    if meta.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(
            f"{path}: container holds {meta.get('kind')!r}, not a packed quantized model"
        )
    version = int(meta.get("checkpoint_version", 0))
    if version > CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: checkpoint schema version {version} is newer than supported "
            f"version {CHECKPOINT_VERSION}; upgrade repro to read it"
        )
    return meta


def _validated_meta(
    path: str, mmap: bool = False, verify: bool = True
) -> Tuple[Dict[str, np.ndarray], dict]:
    arrays, meta = read_container(path, mmap=mmap, verify=verify)
    return arrays, _check_meta(meta, path)


def read_checkpoint_meta(path: str) -> dict:
    """Header-level inspection: kind, versions, recipe and module table.

    Reads only the JSON header (:func:`repro.serialization.container.read_header`)
    — no payload bytes are copied — and returns the checkpoint's ``meta`` tree
    minus the bulky state skeleton, so tooling can know *what* a file is in
    O(header) time regardless of model size.
    """
    meta = _check_meta(read_header(path), path)
    return {key: value for key, value in meta.items() if key != "state"}


def load_recipe(path: str) -> Optional[QuantizationRecipe]:
    """The exact recipe embedded at save time (None if the saver omitted it)."""
    recipe = read_checkpoint_meta(path).get("recipe")
    return None if recipe is None else QuantizationRecipe.from_dict(recipe)


def load_quantized(
    path: str,
    model_factory: ModelFactory,
    serving_mode: Optional[str] = None,
    strict: bool = True,
    mmap: bool = False,
    verify: bool = True,
) -> Module:
    """Rebuild a converted model from a packed checkpoint — float32-free.

    ``model_factory`` must produce the same architecture the checkpoint was
    saved from (a fresh float model; its weight values for quantized operators
    are irrelevant and are released).  Quantized wrappers are recreated from
    the checkpoint's per-module configs, packed storage and calibration state
    are restored bit-identically, and the model comes back in restore-free
    deployment mode with ``serving_mode`` applied (default: as saved).

    With ``mmap=True`` the packed payload is never copied: the wrappers'
    ``weight_q`` codes/scales become read-only zero-copy views into the
    mapped file (see :func:`repro.serialization.container.read_container`),
    so load time is O(header + float leftovers) and the codes are paged in
    by the kernel on first touch.  Small plain arrays (biases, BatchNorm
    statistics, calibration snapshots) are still copied into the model's own
    storage; only the dominant packed payloads stay mapped.
    :func:`repro.quantization.workflow.resident_report` counts those mapped
    bytes separately from materialised resident bytes.  Repeated mmap loads
    of the same checkpoint alias **one** process-wide file mapping — the
    multi-worker serving pattern, where N replica models share a single
    read-only mmap'd checkpoint and the packed bytes on disk are mapped
    exactly once per process (``resident_report([replica, ...])`` then
    counts them once too).

    ``verify=True`` (default) enforces the container's per-span integrity
    digests: copied loads raise
    :class:`~repro.serialization.container.ChecksumError` at load time for a
    corrupt payload span; mmap loads verify each span lazily on the first
    decode touch of a view into it.  Version-1 checkpoints (no digests) load
    unchanged.
    """
    arrays, meta = _validated_meta(path, mmap=mmap, verify=verify)
    state = unflatten_state(meta["state"], arrays)

    model = model_factory()
    if not isinstance(model, Module):
        raise TypeError(f"model_factory returned {type(model).__name__}, expected a Module")
    model.eval()

    for name, inner_type in meta.get("quantized_modules", {}).items():
        try:
            module = model.get_submodule(name)
        except KeyError as exc:
            raise CheckpointError(
                f"{path}: checkpoint quantizes module {name!r} which the factory "
                "model does not have"
            ) from exc
        if isinstance(module, QuantizedModule):
            raise CheckpointError(
                f"{path}: factory model already wraps {name!r}; pass an unquantized model"
            )
        if type(module).__name__ != inner_type:
            raise CheckpointError(
                f"{path}: module {name!r} is {type(module).__name__} in the factory "
                f"model but was saved as {inner_type}"
            )
        extra = state.get(f"{name}.{EXTRA_STATE_KEY}" if name else EXTRA_STATE_KEY)
        if not isinstance(extra, dict) or "config" not in extra:
            raise CheckpointError(f"{path}: missing wrapper state for module {name!r}")
        config = OperatorQuantConfig.from_dict(extra["config"])
        model.set_submodule(name, wrap_module(_type_name_for(module), module, config, name=name))

    model.load_state_dict(state, strict=strict)

    # A loaded model has no float32 originals to restore to: enforce the
    # restore-free contract and release the factory's random weights.
    for wrapper in _quantized_wrappers(model).values():
        wrapper.drop_originals()
    if serving_mode is not None:
        set_serving_mode(model, serving_mode)
    return model
