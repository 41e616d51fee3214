"""Packed model serialization: single-file checkpoints for converted models.

The deployment side of the PTQ workflow: a converted model round-trips to
disk and back **without ever materialising float32 weights** —

>>> from repro.serialization import save_quantized, load_quantized
>>> save_quantized(result.model, "model.rpq", recipe=result.recipe)  # doctest: +SKIP
>>> served = load_quantized("model.rpq", model_factory=build_model)  # doctest: +SKIP

``load_quantized`` returns the model with its packed codes as the only weight
storage; pair it with ``serving_mode="streaming"`` for decode-on-the-fly
forwards whose resident weight bytes stay at the packed footprint.  See
:mod:`repro.serialization.container` for the on-disk layout and
:mod:`repro.serialization.checkpoint` for the model-level semantics.
"""

from repro.serialization.container import (
    CONTAINER_MAGIC,
    CONTAINER_VERSION,
    CheckpointError,
    CheckpointVersionError,
    ChecksumError,
    clear_mapping_cache,
    mapping_cache_size,
    read_container,
    read_header,
    verify_container,
    write_container,
)
from repro.serialization.tree import flatten_state, unflatten_state
from repro.serialization.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
    load_quantized,
    load_recipe,
    read_checkpoint_meta,
    save_quantized,
)

__all__ = [
    "CheckpointError",
    "CheckpointVersionError",
    "ChecksumError",
    "verify_container",
    "CONTAINER_MAGIC",
    "CONTAINER_VERSION",
    "CHECKPOINT_KIND",
    "CHECKPOINT_VERSION",
    "read_container",
    "read_header",
    "write_container",
    "clear_mapping_cache",
    "mapping_cache_size",
    "flatten_state",
    "unflatten_state",
    "save_quantized",
    "load_quantized",
    "load_recipe",
    "read_checkpoint_meta",
]
