"""The parameters of the seven surfaces that configure a deployed model.

Every option doubles what the tests and benchmarks must cover, so each
serving decision keeps the one setting the measured workloads use.  A
tripwire: a change that adds or removes a parameter on purpose updates
``SURFACES`` and says why.
"""

import dataclasses
import inspect

from repro.quantization import QuantizedModule
from repro.quantization.workflow import set_serving_mode
from repro.serialization import load_quantized
from repro.serving import GenerationDriver, ServingEngine
from repro.serving.worker_proc import WorkerSpec

SURFACES = {
    "ServingEngine.__init__": (
        ServingEngine.__init__,
        [
            "model",
            "max_batch_size",
            "max_wait_ms",
            "workers",
            "decode_slots",
            "max_queue_depth",
            "shed_policy",
            "hung_forward_timeout_ms",
            "restart_crashed_workers",
            "supervision_interval_ms",
            "worker_mode",
            "max_worker_restarts",
            "restart_window_s",
            "worker_spec",
        ],
    ),
    "ServingEngine.from_checkpoint": (
        ServingEngine.from_checkpoint,
        [
            "path",
            "model_factory",
            "serving_mode",
            "prefetch",
            "workers",
            "worker_mode",
            "**engine_kwargs",
        ],
    ),
    "workflow.set_serving_mode": (set_serving_mode, ["model", "mode", "prefetch"]),
    "QuantizedModule.set_serving_mode": (QuantizedModule.set_serving_mode, ["mode", "prefetch"]),
    "WorkerSpec": (
        WorkerSpec,
        ["checkpoint_path", "model_factory", "model_pickle", "serving_mode", "prefetch"],
    ),
    "GenerationDriver.__init__": (GenerationDriver.__init__, ["model", "slots", "admission"]),
    "load_quantized": (load_quantized, ["path", "model_factory", "serving_mode", "mmap"]),
}


def _parameters(surface) -> list:
    if dataclasses.is_dataclass(surface):
        return [field.name for field in dataclasses.fields(surface)]
    names = []
    for name, parameter in inspect.signature(surface).parameters.items():
        if name == "self":
            continue
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            name = f"**{name}"
        elif parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            name = f"*{name}"
        names.append(name)
    return names


def test_each_surface_has_exactly_its_parameters():
    changed = {
        name: _parameters(surface)
        for name, (surface, expected) in SURFACES.items()
        if _parameters(surface) != expected
    }
    assert not changed, f"surfaces whose parameters changed (update SURFACES on purpose): {changed}"
