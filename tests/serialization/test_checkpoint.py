"""Model-level checkpoint tests: property-based round trips + error paths.

The hypothesis sweep drives the full pipeline — pack with ``QuantizedTensor``
across every storage format × per-tensor/per-channel × zero-point config,
flatten through the state tree, write/read the container, rebuild — and
asserts bit-identity of codes, scales, zero points and dequantized values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.autograd.tensor import Tensor
from repro.fp8.quantize import QuantizedTensor
from repro.quantization import (
    Approach,
    QuantizedModule,
    extended_recipe,
    int8_recipe,
    quantize_model,
    resident_report,
    standard_recipe,
)
from repro.serialization import (
    CheckpointError,
    flatten_state,
    load_quantized,
    load_recipe,
    read_checkpoint_meta,
    read_container,
    save_quantized,
    unflatten_state,
    write_container,
)

ALL_FORMATS = ["E5M2", "E4M3", "E3M4", "E2M5", "INT8", "INT8-asym"]


def _build_model(seed: int = 3) -> nn.Sequential:
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(32, 48, rng=rng),
        nn.ReLU(),
        nn.Linear(48, 16, rng=rng),
    )


def _probe() -> Tensor:
    return Tensor(np.random.default_rng(11).normal(0, 1, (4, 32)).astype(np.float32))


class TestPackedTensorContainerRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        fmt=st.sampled_from(ALL_FORMATS),
        axis=st.sampled_from([None, 0, 1]),
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 9),
        cols=st.integers(1, 9),
    )
    def test_roundtrip_bit_identical(self, tmp_path_factory, fmt, axis, seed, rows, cols):
        x = (np.random.default_rng(seed).standard_normal((rows, cols)) * 4).astype(np.float32)
        qt = QuantizedTensor.quantize(x, fmt, axis=axis)
        state = {
            "codes": qt.codes,
            "scale": np.asarray(qt.scale),
            "format": qt.fmt.name,
        }
        if qt.zero_point is not None:
            state["zero_point"] = np.asarray(qt.zero_point)
        arrays, skeleton = flatten_state({"qt": state})
        path = str(tmp_path_factory.mktemp("ckpt") / "t.rpq")
        write_container(path, arrays, {"state": skeleton})
        loaded_arrays, meta = read_container(path)
        rebuilt = QuantizedTensor.from_state_dict(
            unflatten_state(meta["state"], loaded_arrays)["qt"]
        )
        assert rebuilt.codes.dtype == qt.codes.dtype
        assert np.array_equal(rebuilt.codes, qt.codes)
        assert np.array_equal(np.asarray(rebuilt.scale), np.asarray(qt.scale))
        if qt.zero_point is None:
            assert rebuilt.zero_point is None
        else:
            assert np.array_equal(np.asarray(rebuilt.zero_point), np.asarray(qt.zero_point))
        assert np.array_equal(rebuilt.dequantize(), qt.dequantize())


RECIPES = [
    standard_recipe("E4M3", approach=Approach.DYNAMIC),
    standard_recipe("E3M4"),
    standard_recipe("E5M2"),
    int8_recipe(approach=Approach.DYNAMIC),
    int8_recipe(asymmetric_activations=True, approach=Approach.DYNAMIC),
    extended_recipe("E4M3", mixed_formats=True, batchnorm_calibration=False),
]


def _calib():
    rng = np.random.default_rng(5)
    return [rng.normal(0, 1, (8, 32)).astype(np.float32) for _ in range(3)]


class TestModelCheckpointRoundTrip:
    @pytest.mark.parametrize("recipe", RECIPES, ids=lambda r: r.name)
    def test_save_load_bit_identical(self, tmp_path, recipe):
        model = _build_model()
        model.eval()
        result = quantize_model(model, recipe, calibration_data=_calib())
        probe = _probe()
        expected = result.model(probe).data

        path = str(tmp_path / "model.rpq")
        save_quantized(result.model, path, recipe=recipe)
        loaded = load_quantized(path, _build_model)

        saved_packed = {
            name: m.weight_q
            for name, m in result.model.named_modules()
            if isinstance(m, QuantizedModule) and m.weight_q is not None
        }
        loaded_packed = {
            name: m.weight_q
            for name, m in loaded.named_modules()
            if isinstance(m, QuantizedModule) and m.weight_q is not None
        }
        assert set(saved_packed) == set(loaded_packed)
        for name, qt in saved_packed.items():
            assert np.array_equal(qt.codes, loaded_packed[name].codes), name
            assert np.array_equal(np.asarray(qt.scale), np.asarray(loaded_packed[name].scale)), name
        assert np.array_equal(loaded(probe).data, expected)

    def test_loaded_model_is_packed_resident(self, tmp_path):
        result = quantize_model(_build_model(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        path = str(tmp_path / "model.rpq")
        save_quantized(result.model, path)
        loaded = load_quantized(path, _build_model)
        assert resident_report(loaded)["ratio"] <= 0.35
        for _, module in loaded.named_modules():
            if isinstance(module, QuantizedModule):
                bound = module.inner.weight.data
                assert not bound.flags.writeable
                assert bound.base is not None and bound.base.nbytes == 4

    @pytest.mark.parametrize("deployed", [True, False])
    def test_wrapper_state_with_deployed_flag_still_loads(self, tmp_path, monkeypatch, deployed):
        # Checkpoints written before the flag was dropped carry a "deployed"
        # key in every wrapper's state; they load and serve the same outputs.
        recipe = standard_recipe("E4M3", approach=Approach.DYNAMIC)
        result = quantize_model(_build_model(), recipe)
        probe = _probe()
        expected = result.model(probe).data
        plain = QuantizedModule.get_extra_state
        monkeypatch.setattr(
            QuantizedModule, "get_extra_state", lambda self: {**plain(self), "deployed": deployed}
        )
        path = str(tmp_path / "legacy.rpq")
        save_quantized(result.model, path)
        legacy_state = result.model.state_dict()
        monkeypatch.undo()
        assert legacy_state["0._extra_state"]["deployed"] is deployed
        assert np.array_equal(load_quantized(path, _build_model)(probe).data, expected)
        target = quantize_model(_build_model(seed=5), recipe).model
        target.load_state_dict(legacy_state)
        assert np.array_equal(target(probe).data, expected)

    def test_load_with_streaming_mode(self, tmp_path):
        result = quantize_model(_build_model(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        probe = _probe()
        expected = result.model(probe).data
        path = str(tmp_path / "model.rpq")
        save_quantized(result.model, path)
        loaded = load_quantized(path, _build_model, serving_mode="streaming")
        out = loaded(probe).data
        assert np.allclose(out, expected, rtol=1e-5, atol=1e-6)
        assert resident_report(loaded)["ratio"] <= 0.35  # no cache left behind

    def test_recipe_and_meta_travel(self, tmp_path):
        recipe = standard_recipe("E3M4", approach=Approach.DYNAMIC)
        result = quantize_model(_build_model(), recipe)
        path = str(tmp_path / "model.rpq")
        save_quantized(result.model, path, recipe=recipe, metadata={"run": "unit-test"})
        meta = read_checkpoint_meta(path)
        assert meta["metadata"] == {"run": "unit-test"}
        assert set(meta["quantized_modules"]) == {"0", "2"}
        rebuilt = load_recipe(path)
        assert rebuilt is not None
        assert rebuilt.to_dict() == recipe.to_dict()

    def test_unquantized_params_travel(self, tmp_path):
        """Biases and any unquantized float params must round trip exactly."""
        result = quantize_model(_build_model(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        path = str(tmp_path / "model.rpq")
        save_quantized(result.model, path)
        loaded = load_quantized(path, _build_model)
        saved_bias = dict(result.model.named_parameters())["0.inner.bias"].data
        loaded_bias = dict(loaded.named_parameters())["0.inner.bias"].data
        assert np.array_equal(saved_bias, loaded_bias)

    def test_checkpoint_never_stores_dense_weights(self, tmp_path):
        """The container must not contain a float32 copy of any packed weight."""
        result = quantize_model(_build_model(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        path = str(tmp_path / "model.rpq")
        save_quantized(result.model, path)
        arrays, _ = read_container(path)
        weight_shapes = {
            m.weight_q.shape
            for _, m in result.model.named_modules()
            if isinstance(m, QuantizedModule) and m.weight_q is not None
        }
        for name, array in arrays.items():
            if array.dtype == np.float32 and array.shape in weight_shapes:
                raise AssertionError(f"dense float32 weight leaked into checkpoint: {name}")


class TestCheckpointErrorPaths:
    def _saved(self, tmp_path):
        result = quantize_model(_build_model(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        path = str(tmp_path / "model.rpq")
        save_quantized(result.model, path)
        return path

    def test_wrong_architecture_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with pytest.raises(CheckpointError, match="does not have"):
            load_quantized(path, lambda: nn.Sequential(nn.Linear(32, 48)))

    def test_wrong_module_type_rejected(self, tmp_path):
        path = self._saved(tmp_path)

        def factory():
            rng = np.random.default_rng(0)
            return nn.Sequential(
                nn.Embedding(32, 48, rng=rng),
                nn.ReLU(),
                nn.Linear(48, 16, rng=rng),
            )

        with pytest.raises(CheckpointError, match="saved as"):
            load_quantized(path, factory)

    def test_already_quantized_factory_rejected(self, tmp_path):
        path = self._saved(tmp_path)

        def factory():
            return quantize_model(
                _build_model(), standard_recipe("E4M3", approach=Approach.DYNAMIC)
            ).model

        with pytest.raises(CheckpointError, match="already wraps"):
            load_quantized(path, factory)

    def test_non_module_factory_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with pytest.raises(TypeError, match="expected a Module"):
            load_quantized(path, lambda: object())

    def test_non_checkpoint_container_rejected(self, tmp_path):
        path = str(tmp_path / "other.rpq")
        write_container(path, {}, {"kind": "something-else"})
        with pytest.raises(CheckpointError, match="not a packed quantized model"):
            load_quantized(path, _build_model)
