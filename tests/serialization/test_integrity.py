"""Checkpoint integrity: per-span crc32 digests, lazy mmap verification, scrubbing.

Version-2 containers record a crc32 per payload span.  Copied loads verify
eagerly (a flipped byte raises :class:`ChecksumError` at load time); mmap
loads verify lazily on the first decode touch of a view into the corrupted
span, so load stays O(header).  Version-1 checkpoints carry no digests and
load unchanged — forever.  ``verify_container`` / ``tools/verify_checkpoint.py``
scrub checkpoints at rest.
"""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd.tensor import Tensor, no_grad
from repro.quantization import Approach, quantize_model, standard_recipe
from repro.serialization import (
    CheckpointError,
    ChecksumError,
    load_quantized,
    read_container,
    save_quantized,
    verify_container,
    write_container,
)
from repro.serialization.container import verify_view
from repro.serving import FaultSpec, injected

_PREFIX = struct.Struct("<8sIQ")
_ALIGN = 64

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCRUBBER = os.path.join(REPO_ROOT, "tools", "verify_checkpoint.py")


def _span_table(path):
    """(payload_start, {name: (absolute_offset, nbytes)}) from the raw header."""
    with open(path, "rb") as fh:
        _, _, header_len = _PREFIX.unpack(fh.read(_PREFIX.size))
        header = json.loads(fh.read(header_len).decode("utf-8"))
    payload_start = (_PREFIX.size + header_len + _ALIGN - 1) // _ALIGN * _ALIGN
    return {
        name: (payload_start + int(spec["offset"]), int(spec["nbytes"]))
        for name, spec in header["arrays"].items()
    }


def _flip_byte(path, name, index=0):
    """Flip one payload byte inside array ``name``'s span."""
    offset, nbytes = _span_table(path)[name]
    assert nbytes > index
    with open(path, "r+b") as fh:
        fh.seek(offset + index)
        byte = fh.read(1)[0]
        fh.seek(offset + index)
        fh.write(bytes([byte ^ 0xFF]))


def _arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "codes": rng.integers(0, 255, (48, 32)).astype(np.uint8),
        "scale": rng.normal(0, 1, (48, 1)).astype(np.float64),
        "bias": rng.normal(0, 1, (7,)).astype(np.float32),
    }


def _mlp(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(32, 48, rng=rng),
        nn.ReLU(),
        nn.Linear(48, 16, rng=rng),
    )


def _quantized_checkpoint(tmp_path, name="model.rpq"):
    result = quantize_model(_mlp().eval(), standard_recipe("E4M3", approach=Approach.DYNAMIC))
    path = str(tmp_path / name)
    save_quantized(result.model, path, recipe=result.recipe)
    return path


def _codes_span_name(path):
    """The biggest uint8 span — a packed codes payload."""
    with open(path, "rb") as fh:
        _, _, header_len = _PREFIX.unpack(fh.read(_PREFIX.size))
        header = json.loads(fh.read(header_len).decode("utf-8"))
    candidates = {
        name: spec["nbytes"]
        for name, spec in header["arrays"].items()
        if spec["dtype"] == "uint8" and "codes" in name
    }
    assert candidates, "no packed codes span found in the checkpoint"
    return max(candidates, key=candidates.get)


class TestDigests:
    def test_v2_roundtrip_and_report(self, tmp_path):
        path = str(tmp_path / "c.rpq")
        arrays = _arrays()
        write_container(path, arrays, {"kind": "test"})
        loaded, _ = read_container(path)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])
        report = verify_container(path)
        assert report["version"] == 2
        assert report["arrays"] == len(arrays)
        assert report["verified"] == len(arrays)
        assert report["skipped"] == 0

    @pytest.mark.parametrize("name", ["codes", "scale", "bias"])
    def test_flipped_byte_raises_on_copied_load(self, tmp_path, name):
        path = str(tmp_path / "c.rpq")
        write_container(path, _arrays(), {"kind": "test"})
        _flip_byte(path, name, index=3)
        with pytest.raises(ChecksumError, match=f"array {name!r} failed integrity"):
            read_container(path)
        with pytest.raises(ChecksumError):
            verify_container(path)
        assert issubclass(ChecksumError, CheckpointError)  # old handlers still catch

    def test_verify_false_skips_the_check(self, tmp_path):
        path = str(tmp_path / "c.rpq")
        arrays = _arrays()
        write_container(path, arrays, {"kind": "test"})
        _flip_byte(path, "codes", index=0)
        loaded, _ = read_container(path, verify=False)  # corrupt but unchecked
        assert not np.array_equal(loaded["codes"], arrays["codes"])

    def test_v1_has_no_digests_and_loads_unchanged(self, tmp_path):
        path = str(tmp_path / "c.rpq")
        arrays = _arrays()
        write_container(path, arrays, {"kind": "test"}, container_version=1)
        with open(path, "rb") as fh:
            _, version, header_len = _PREFIX.unpack(fh.read(_PREFIX.size))
            header = json.loads(fh.read(header_len).decode("utf-8"))
        assert version == 1
        assert all("crc32" not in spec for spec in header["arrays"].values())
        loaded, _ = read_container(path)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])
        report = verify_container(path)
        assert report["version"] == 1
        assert report["verified"] == 0
        assert report["skipped"] == len(arrays)
        # and a corrupt v1 file is (by design) undetectable: no digests to check
        _flip_byte(path, "codes")
        read_container(path)

    def test_write_rejects_unknown_version(self, tmp_path):
        with pytest.raises(ValueError, match="container_version"):
            write_container(str(tmp_path / "c.rpq"), _arrays(), {}, container_version=3)


class TestLazyMmapVerification:
    def test_mmap_load_defers_then_first_touch_raises(self, tmp_path):
        path = str(tmp_path / "c.rpq")
        write_container(path, _arrays(), {"kind": "test"})
        _flip_byte(path, "codes", index=5)
        arrays, _ = read_container(path, mmap=True)  # load is lazy: no raise
        with pytest.raises(ChecksumError, match="failed integrity"):
            verify_view(arrays["codes"])
        # untouched pristine spans still verify cleanly
        verify_view(arrays["bias"])

    def test_verified_span_is_retired_not_rechecked(self, tmp_path):
        path = str(tmp_path / "c.rpq")
        arrays = _arrays()
        write_container(path, arrays, {"kind": "test"})
        mapped, _ = read_container(path, mmap=True)
        verify_view(mapped["codes"])
        verify_view(mapped["codes"])  # second touch: span already retired, no-op
        np.testing.assert_array_equal(mapped["codes"], arrays["codes"])

    def test_verify_view_checks_slices_through_base_chain(self, tmp_path):
        path = str(tmp_path / "c.rpq")
        write_container(path, _arrays(), {"kind": "test"})
        _flip_byte(path, "codes", index=0)
        mapped, _ = read_container(path, mmap=True)
        with pytest.raises(ChecksumError):
            verify_view(mapped["codes"][:8])  # a view of a view still verifies

    def test_quantized_model_mmap_corruption_caught_on_first_decode(self, tmp_path):
        path = _quantized_checkpoint(tmp_path)
        _flip_byte(path, _codes_span_name(path), index=17)
        # lazy: the corrupted span is not read at load time, so load succeeds
        model = load_quantized(path, model_factory=_mlp, mmap=True)
        probe = Tensor(np.zeros((2, 32), dtype=np.float32))
        with pytest.raises(ChecksumError, match="failed integrity"):
            with no_grad():
                model(probe)

    def test_quantized_model_copied_corruption_caught_at_load(self, tmp_path):
        path = _quantized_checkpoint(tmp_path)
        _flip_byte(path, _codes_span_name(path), index=17)
        with pytest.raises(ChecksumError):
            load_quantized(path, model_factory=_mlp)

    def test_pristine_mmap_model_forwards_bit_identical(self, tmp_path):
        path = _quantized_checkpoint(tmp_path)
        copied = load_quantized(path, model_factory=_mlp)
        mapped = load_quantized(path, model_factory=_mlp, mmap=True)
        probe = Tensor(np.random.default_rng(1).normal(0, 1, (4, 32)).astype(np.float32))
        with no_grad():
            np.testing.assert_array_equal(mapped(probe).data, copied(probe).data)


class TestCorruptFaultInjection:
    def test_injected_corruption_trips_verification(self, tmp_path):
        path = str(tmp_path / "c.rpq")
        write_container(path, _arrays(), {"kind": "test"})
        with injected({"container.read_span": FaultSpec(kind="corrupt", on_calls={1})}):
            with pytest.raises(ChecksumError):
                read_container(path)
        read_container(path)  # the file itself was never harmed

    def test_injection_window_scopes_the_hook(self, tmp_path):
        path = str(tmp_path / "c.rpq")
        write_container(path, _arrays(), {"kind": "test"})
        with injected({"container.read_span": FaultSpec(kind="corrupt", max_fires=1)}) as inj:
            with pytest.raises(ChecksumError):
                read_container(path)
            assert inj.fired["container.read_span"] == 1
        arrays, _ = read_container(path)  # hook uninstalled: clean read
        np.testing.assert_array_equal(arrays["codes"], _arrays()["codes"])


class TestScrubberTool:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, SCRUBBER, *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_clean_files_pass(self, tmp_path):
        v2 = str(tmp_path / "v2.rpq")
        v1 = str(tmp_path / "v1.rpq")
        write_container(v2, _arrays(), {"kind": "test"})
        write_container(v1, _arrays(), {"kind": "test"}, container_version=1)
        proc = self._run(v2, v1)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("OK") and "v2" in lines[0]
        assert lines[1].startswith("OK") and "without digests" in lines[1]

    def test_corrupt_file_fails_with_exit_1(self, tmp_path):
        good = str(tmp_path / "good.rpq")
        bad = str(tmp_path / "bad.rpq")
        write_container(good, _arrays(), {"kind": "test"})
        write_container(bad, _arrays(), {"kind": "test"})
        _flip_byte(bad, "scale", index=1)
        proc = self._run(good, bad)
        assert proc.returncode == 1
        assert "CORRUPT" in proc.stderr and "bad.rpq" in proc.stderr
        assert "OK" in proc.stdout  # the clean file still reports

    def test_json_report(self, tmp_path):
        path = str(tmp_path / "c.rpq")
        write_container(path, _arrays(), {"kind": "test"})
        proc = self._run(path, "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout.strip())
        assert report["verified"] == 3 and report["version"] == 2

    def test_invalid_file_fails(self, tmp_path):
        junk = tmp_path / "junk.rpq"
        junk.write_bytes(b"not a checkpoint at all")
        proc = self._run(str(junk))
        assert proc.returncode == 1
        assert "INVALID" in proc.stderr
