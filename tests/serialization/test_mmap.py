"""mmap checkpoint loading: zero-copy views, read-only contract, corruption."""

import struct

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd.tensor import Tensor
from repro.fp8.quantize import is_memory_mapped
from repro.quantization import (
    Approach,
    QuantizedModule,
    int8_recipe,
    quantize_model,
    resident_report,
    set_serving_mode,
    standard_recipe,
)
from repro.serialization import (
    CheckpointError,
    load_quantized,
    read_container,
    save_quantized,
    write_container,
)


def _mlp(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(32, 48, rng=rng),
        nn.ReLU(),
        nn.Linear(48, 16, rng=rng),
    )


def _probe(shape=(5, 32), seed=1):
    return Tensor(np.random.default_rng(seed).normal(0, 1, shape).astype(np.float32))


def _wrappers(model):
    return [m for _, m in model.named_modules() if isinstance(m, QuantizedModule)]


def _sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "codes": rng.integers(0, 255, (16, 32)).astype(np.uint8),
        "scale": rng.normal(0, 1, (16, 1)).astype(np.float64),
        "empty": np.zeros((0, 4), dtype=np.float32),
    }


class TestContainerMmap:
    def test_mmap_views_bit_identical_to_copied(self, tmp_path):
        path = str(tmp_path / "c.rpq")
        arrays = _sample_arrays()
        write_container(path, arrays, {"kind": "test"})
        copied, meta_c = read_container(path)
        mapped, meta_m = read_container(path, mmap=True)
        assert meta_c == meta_m
        assert set(copied) == set(mapped)
        for name in arrays:
            assert mapped[name].dtype == copied[name].dtype, name
            assert mapped[name].shape == copied[name].shape, name
            assert np.array_equal(mapped[name], copied[name]), name

    def test_mmap_views_are_read_only(self, tmp_path):
        path = str(tmp_path / "c.rpq")
        write_container(path, _sample_arrays(), {})
        mapped, _ = read_container(path, mmap=True)
        for name, array in mapped.items():
            assert not array.flags.writeable, name
            assert is_memory_mapped(array), name
            with pytest.raises(ValueError):
                array[...] = 0

    def test_mmap_is_zero_copy(self, tmp_path):
        path = str(tmp_path / "c.rpq")
        write_container(path, _sample_arrays(), {})
        mapped, _ = read_container(path, mmap=True)
        bases = {id(_root_base(array)) for array in mapped.values()}
        # every array is a view into the single file mapping
        assert len(bases) == 1

    def test_corrupt_span_raises_checkpoint_error_not_numpy(self, tmp_path):
        path = str(tmp_path / "c.rpq")
        write_container(path, _sample_arrays(), {})
        # truncate into the payload: the span check must fail loudly before
        # any view is built
        size = (tmp_path / "c.rpq").stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size - 64)
        with pytest.raises(CheckpointError):
            read_container(path, mmap=True)

    def test_overlapping_spans_rejected_with_mmap(self, tmp_path):
        import json

        path = str(tmp_path / "c.rpq")
        write_container(path, _sample_arrays(), {})
        # rewrite the header so two arrays alias the same payload offset
        prefix_struct = struct.Struct("<8sIQ")
        with open(path, "r+b") as fh:
            magic, version, header_len = prefix_struct.unpack(fh.read(prefix_struct.size))
            header = json.loads(fh.read(header_len).decode("utf-8"))
            header["arrays"]["scale"]["offset"] = header["arrays"]["codes"]["offset"]
            raw = json.dumps(header, sort_keys=True).encode("utf-8")
            raw = raw + b" " * (header_len - len(raw))  # keep offsets stable
            fh.seek(0)
            fh.write(prefix_struct.pack(magic, version, len(raw)))
            fh.write(raw)
        with pytest.raises(CheckpointError, match="overlap"):
            read_container(path, mmap=True)


def _root_base(array):
    while isinstance(getattr(array, "base", None), np.ndarray):
        array = array.base
    return array


class TestLoadQuantizedMmap:
    @pytest.mark.parametrize(
        "recipe",
        [
            standard_recipe("E4M3", approach=Approach.DYNAMIC),
            int8_recipe(asymmetric_activations=True, approach=Approach.DYNAMIC),
        ],
        ids=lambda r: r.name,
    )
    def test_mmap_load_bit_identical_to_copied(self, tmp_path, recipe):
        result = quantize_model(_mlp(), recipe)
        probe = _probe()
        expected = result.model(probe).data
        path = str(tmp_path / "m.rpq")
        save_quantized(result.model, path, recipe=recipe)

        copied = load_quantized(path, _mlp)
        mapped = load_quantized(path, _mlp, mmap=True)
        for (name, wc), (_, wm) in zip(
            [(n, m) for n, m in copied.named_modules() if isinstance(m, QuantizedModule)],
            [(n, m) for n, m in mapped.named_modules() if isinstance(m, QuantizedModule)],
        ):
            assert np.array_equal(wc.weight_q.codes, wm.weight_q.codes), name
            assert np.array_equal(
                np.asarray(wc.weight_q.scale), np.asarray(wm.weight_q.scale)
            ), name
        assert np.array_equal(mapped(probe).data, expected)
        assert np.array_equal(copied(probe).data, expected)

    def test_mmap_load_keeps_codes_mapped_and_resident_low(self, tmp_path):
        result = quantize_model(_mlp(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        path = str(tmp_path / "m.rpq")
        save_quantized(result.model, path)
        mapped = load_quantized(path, _mlp, mmap=True)
        for wrapper in _wrappers(mapped):
            assert wrapper.weight_q.is_mapped
            assert not wrapper.weight_q.codes.flags.writeable
        report = resident_report(mapped)
        assert report["mapped_bytes"] > 0
        # before any forward only biases/placeholders are materialised
        packed = sum(w.weight_q.nbytes for w in _wrappers(mapped))
        assert report["resident_bytes"] < packed
        copied_report = resident_report(load_quantized(path, _mlp))
        assert copied_report["mapped_bytes"] == 0

    def test_mmap_codes_raise_on_write(self, tmp_path):
        result = quantize_model(_mlp(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        path = str(tmp_path / "m.rpq")
        save_quantized(result.model, path)
        mapped = load_quantized(path, _mlp, mmap=True)
        wrapper = _wrappers(mapped)[0]
        with pytest.raises(ValueError):
            wrapper.weight_q.codes[0, 0] = 1

    def test_materialize_is_copy_on_write(self, tmp_path):
        result = quantize_model(_mlp(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        path = str(tmp_path / "m.rpq")
        save_quantized(result.model, path)
        mapped = load_quantized(path, _mlp, mmap=True)
        wq = _wrappers(mapped)[0].weight_q
        before = wq.dequantize()
        assert wq.is_mapped
        wq.materialize()
        assert not wq.is_mapped
        assert wq.codes.flags.writeable
        wq.codes[...] = 0  # private copy: writable, file untouched
        reread = load_quantized(path, _mlp, mmap=True)
        assert np.array_equal(_wrappers(reread)[0].weight_q.dequantize(), before)

    def test_mmap_streaming_and_prefetch_serving(self, tmp_path):
        result = quantize_model(_mlp(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        probe = _probe()
        expected = result.model(probe).data
        path = str(tmp_path / "m.rpq")
        save_quantized(result.model, path)
        mapped = load_quantized(path, _mlp, mmap=True)
        set_serving_mode(mapped, "streaming", block_channels=16, prefetch="pipeline")
        assert np.allclose(mapped(probe).data, expected, rtol=1e-5, atol=1e-6)
        for wrapper in _wrappers(mapped):
            assert wrapper._weight_cache is None

    def test_corrupt_checkpoint_mmap_load_raises_checkpoint_error(self, tmp_path):
        result = quantize_model(_mlp(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        path = str(tmp_path / "m.rpq")
        save_quantized(result.model, path)
        size = (tmp_path / "m.rpq").stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size - 256)
        with pytest.raises(CheckpointError):
            load_quantized(path, _mlp, mmap=True)


class TestSharedViews:
    def _save(self, tmp_path, seed=0):
        result = quantize_model(_mlp(seed=seed), standard_recipe("E4M3", approach=Approach.DYNAMIC))
        path = str(tmp_path / "shared.rpq")
        save_quantized(result.model, path, recipe=result.recipe)
        return path

    def test_replicas_alias_one_mapping(self, tmp_path):
        from repro.serialization import clear_mapping_cache

        path = self._save(tmp_path)
        clear_mapping_cache()
        try:
            replicas = [load_quantized(path, _mlp, mmap=True) for _ in range(3)]
            bases = {id(_root_base(_wrappers(replica)[0].weight_q.codes)) for replica in replicas}
            assert len(bases) == 1
            # the fleet maps the checkpoint bytes exactly once
            one = resident_report(replicas[0])
            fleet = resident_report(replicas)
            assert fleet["mapped_bytes"] == one["mapped_bytes"] > 0
            # while fp32_bytes (the dense baseline) scales with the fleet
            assert fleet["fp32_bytes"] == 3 * one["fp32_bytes"]
        finally:
            del replicas
            clear_mapping_cache()

    def test_shared_replicas_outputs_bit_identical(self, tmp_path):
        from repro.serialization import clear_mapping_cache

        path = self._save(tmp_path)
        clear_mapping_cache()
        try:
            m1 = load_quantized(path, _mlp, mmap=True)
            m2 = load_quantized(path, _mlp, mmap=True)
            copied = load_quantized(path, _mlp)
            probe = _probe()
            out1, out2 = m1(probe).data, m2(probe).data
            assert np.array_equal(out1, out2)
            assert np.array_equal(out1, copied(probe).data)
        finally:
            del m1, m2
            clear_mapping_cache()

    def test_rewritten_file_gets_fresh_mapping(self, tmp_path):
        import time as _time

        from repro.serialization import clear_mapping_cache

        path = self._save(tmp_path, seed=0)
        clear_mapping_cache()
        try:
            before = load_quantized(path, _mlp, mmap=True)
            base_before = _root_base(_wrappers(before)[0].weight_q.codes)
            _time.sleep(0.01)  # ensure a distinct mtime for the rewrite
            result = quantize_model(
                _mlp(seed=9), standard_recipe("E4M3", approach=Approach.DYNAMIC)
            )
            save_quantized(result.model, path, recipe=result.recipe)
            after = load_quantized(path, _mlp, mmap=True)
            base_after = _root_base(_wrappers(after)[0].weight_q.codes)
            # a (size, mtime)-mismatched cache entry is never reused
            assert base_before is not base_after
            # the reload really reflects the rewritten weights
            copied = load_quantized(path, _mlp)
            assert np.array_equal(after(_probe()).data, copied(_probe()).data)
        finally:
            del before, after
            clear_mapping_cache()

    def test_clear_mapping_cache_counts_and_resets(self, tmp_path):
        from repro.serialization import clear_mapping_cache

        path = self._save(tmp_path)
        clear_mapping_cache()
        model = load_quantized(path, _mlp, mmap=True)
        base = _root_base(_wrappers(model)[0].weight_q.codes)
        assert clear_mapping_cache() == 1
        assert clear_mapping_cache() == 0
        fresh = load_quantized(path, _mlp, mmap=True)
        assert _root_base(_wrappers(fresh)[0].weight_q.codes) is not base
        clear_mapping_cache()

    def test_unused_mappings_evicted_on_next_miss(self, tmp_path):
        from repro.serialization import clear_mapping_cache
        from repro.serialization.container import _MAPPINGS

        path_a = self._save(tmp_path, seed=0)
        clear_mapping_cache()
        try:
            model_a = load_quantized(path_a, _mlp, mmap=True)
            assert len(_MAPPINGS) == 1
            del model_a  # releases every view into path_a's mapping
            result = quantize_model(
                _mlp(seed=3),
                standard_recipe("E4M3", approach=Approach.DYNAMIC),
            )
            path_b = str(tmp_path / "rotated.rpq")
            save_quantized(result.model, path_b, recipe=result.recipe)
            model_b = load_quantized(path_b, _mlp, mmap=True)
            # the miss on path_b swept path_a's now-unreferenced mapping, so
            # rotating checkpoints does not accumulate stale mappings/fds
            assert len(_MAPPINGS) == 1
            del model_b
        finally:
            clear_mapping_cache()

    def test_shared_views_still_memory_mapped_and_read_only(self, tmp_path):
        from repro.serialization import clear_mapping_cache

        path = self._save(tmp_path)
        clear_mapping_cache()
        try:
            model = load_quantized(path, _mlp, mmap=True)
            codes = _wrappers(model)[0].weight_q.codes
            assert is_memory_mapped(codes)
            with pytest.raises((ValueError, RuntimeError)):
                codes[0] = 1
        finally:
            del model
            clear_mapping_cache()
