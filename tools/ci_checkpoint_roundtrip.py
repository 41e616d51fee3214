"""Two-phase checkpoint round-trip check for CI (save and load in separate processes).

Phase 1 (``save``) quantizes a small deterministic model, writes the packed
checkpoint plus a reference bundle (packed codes/scales per module and eval
outputs on a fixed probe batch).  Phase 2 (``load``) runs in a **fresh
process** — no state can leak through module globals — loads the checkpoint
via ``repro.serialization.load_quantized`` and asserts:

* packed codes, scales and zero points are bit-identical to the reference;
* forward outputs on the probe batch are bit-identical;
* every loaded wrapper's bound weight is read-only, and before the first
  forward it holds only its packed codes, scales and zero points;
* the loaded model's at-rest resident bytes are <= 0.35x of the dense
  float32 model;
* the streaming serving mode agrees with the cached outputs.

Usage::

    python tools/ci_checkpoint_roundtrip.py save --dir /tmp/roundtrip
    python tools/ci_checkpoint_roundtrip.py load --dir /tmp/roundtrip
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import repro.nn as nn  # noqa: E402
from repro.autograd.tensor import Tensor  # noqa: E402
from repro.quantization import (  # noqa: E402
    QuantizedModule,
    quantize_model,
    resident_report,
    set_serving_mode,
    standard_recipe,
)
from repro.serialization import load_quantized, save_quantized  # noqa: E402

#: at-rest resident bytes of the loaded model vs dense float32 (acceptance)
RESIDENT_RATIO_GATE = 0.35

CKPT_NAME = "model.rpq"
REF_NAME = "reference.npz"


def build_model() -> nn.Sequential:
    rng = np.random.default_rng(1234)
    return nn.Sequential(
        nn.Linear(128, 256, rng=rng),
        nn.ReLU(),
        nn.Linear(256, 256, rng=rng),
        nn.ReLU(),
        nn.Linear(256, 64, rng=rng),
    )


def probe_batch() -> np.ndarray:
    rng = np.random.default_rng(99)
    return rng.normal(0.0, 1.0, (32, 128)).astype(np.float32)


def calibration_batches():
    rng = np.random.default_rng(7)
    return [rng.normal(0.0, 1.0, (32, 128)).astype(np.float32) for _ in range(4)]


def _packed_reference(model) -> dict:
    arrays = {}
    for name, module in model.named_modules():
        if isinstance(module, QuantizedModule) and module.weight_q is not None:
            arrays[f"{name}.codes"] = module.weight_q.codes
            arrays[f"{name}.scale"] = np.asarray(module.weight_q.scale)
            if module.weight_q.zero_point is not None:
                arrays[f"{name}.zero_point"] = np.asarray(module.weight_q.zero_point)
    return arrays


def phase_save(directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    recipe = standard_recipe("E4M3")
    model = build_model()
    model.eval()
    result = quantize_model(model, recipe, calibration_data=calibration_batches())
    outputs = result.model(Tensor(probe_batch())).data

    ckpt_path = os.path.join(directory, CKPT_NAME)
    file_bytes = save_quantized(result.model, ckpt_path, recipe=recipe)
    np.savez(
        os.path.join(directory, REF_NAME),
        __outputs__=outputs,
        **_packed_reference(result.model),
    )
    print(f"saved {ckpt_path} ({file_bytes} bytes) + reference outputs {outputs.shape}")


def phase_load(directory: str) -> None:
    ckpt_path = os.path.join(directory, CKPT_NAME)
    reference = np.load(os.path.join(directory, REF_NAME))

    loaded = load_quantized(ckpt_path, build_model)
    for name, module in loaded.named_modules():
        if isinstance(module, QuantizedModule) and module.weight_q is not None:
            assert not module.inner.weight.data.flags.writeable, (
                f"{name}: the bound weight of a loaded wrapper must be read-only"
            )
            held = module.weight_resident_arrays()
            wq = module.weight_q
            parts = [wq.codes, wq.scale] + ([] if wq.zero_point is None else [wq.zero_point])
            assert len(held) == len(parts) and all(map(np.array_equal, held, parts)), (
                f"{name}: before the first forward a loaded wrapper must hold only "
                "its packed codes, scales and zero points"
            )
    resident = resident_report(loaded)
    assert resident["ratio"] <= RESIDENT_RATIO_GATE, (
        f"loaded at-rest resident bytes {resident['ratio']:.3f}x exceed the "
        f"{RESIDENT_RATIO_GATE}x gate"
    )

    packed = _packed_reference(loaded)
    mismatches = [
        key
        for key in reference.files
        if key != "__outputs__" and not np.array_equal(reference[key], packed[key])
    ]
    assert not mismatches, f"packed payloads changed across the process boundary: {mismatches}"

    outputs = loaded(Tensor(probe_batch())).data
    assert np.array_equal(outputs, reference["__outputs__"]), (
        "forward outputs diverge from the save-time model"
    )

    set_serving_mode(loaded, "streaming")
    streaming_outputs = loaded(Tensor(probe_batch())).data
    assert np.allclose(outputs, streaming_outputs, rtol=1e-5, atol=1e-6), (
        "streaming serving outputs diverge from cached outputs"
    )
    print(
        "fresh-process load ok: read-only weights, packed-only at rest, codes/scales "
        f"bit-identical, outputs bit-identical, resident {resident['ratio']:.3f}x <= "
        f"{RESIDENT_RATIO_GATE}x, streaming agrees"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=("save", "load"))
    parser.add_argument("--dir", default="/tmp/repro-roundtrip", help="working directory")
    args = parser.parse_args()
    if args.phase == "save":
        phase_save(args.dir)
    else:
        phase_load(args.dir)


if __name__ == "__main__":
    main()
