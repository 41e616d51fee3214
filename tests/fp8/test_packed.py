"""Packed 8-bit storage round trip: bit-exactness, specials, sizes, state dicts.

The contract under test (see the memory model in :mod:`repro.fp8.quantize`):

* ``QuantizedTensor.quantize(x, fmt, ...).dequantize()`` is bit-identical to
  the value-domain round trip (``quantize_dequantize`` for FP8,
  ``int8_quantize_dequantize`` for INT8) on both decode paths, the compiled
  kernel and numpy — the packed codes are storage, not a different quantizer;
* the fused per-axis Q/DQ is bit-identical to the unfused
  ``compute_scale`` + ``quantize_dequantize(scale=...)`` sequence;
* packed storage costs ~¼ of dense float32 bytes.
"""

import numpy as np
import pytest

from repro.fp8 import E2M5, E3M4, E4M3, E5M2
from repro.fp8.int8 import (
    INT8_ASYMMETRIC,
    INT8_SYMMETRIC,
    int8_quantize_dequantize,
)
from repro.fp8.kernels import fp8_round_reference
from repro.fp8.quantize import (
    QuantizedTensor,
    compute_scale,
    fp8_round,
    quantize_dequantize,
)

FORMATS = [E5M2, E4M3, E3M4, E2M5]


def _random(shape=(16, 32), seed=0, scale=3.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(np.float32)


class TestPackedFp8RoundTrip:
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_scale1_roundtrip_bitmatches_fp8_round(self, fmt, decode):
        x = _random(seed=1)
        qt = QuantizedTensor.quantize(x, fmt, scale=np.asarray(1.0))
        expected = fp8_round(x, fmt)
        assert qt.codes.dtype == np.uint8
        deq = qt.dequantize()
        assert deq.dtype == np.float32
        assert np.array_equal(deq, expected)

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_roundtrip_bitmatches_qdq(self, fmt, decode, axis):
        x = _random(seed=2)
        qt = QuantizedTensor.quantize(x, fmt, axis=axis)
        expected = quantize_dequantize(x, fmt, axis=axis)
        assert np.array_equal(qt.dequantize(), expected)

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_specials(self, fmt, decode):
        x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0], dtype=np.float32)
        qt = QuantizedTensor.quantize(x, fmt, scale=np.asarray(1.0))
        deq = qt.dequantize()
        assert np.isnan(deq[0])
        # infinities saturate to +-max_value on the way in
        assert deq[1] == pytest.approx(fmt.max_value)
        assert deq[2] == pytest.approx(-fmt.max_value)
        assert deq[3] == 0.0 and not np.signbit(deq[3])
        # packed codes keep the sign of zero (the value-domain round trip
        # normalises -0.0 to +0.0; storage is richer)
        assert deq[4] == 0.0 and np.signbit(deq[4])
        assert deq[5] == pytest.approx(1.0, rel=0.1)

    def test_per_channel_roundtrip_quality(self, decode):
        # channels with wildly different ranges stay accurate independently
        x = np.stack([np.full(32, 0.01), np.full(32, 10.0)]).astype(np.float32)
        qt = QuantizedTensor.quantize(x, E4M3, axis=0)
        deq = qt.dequantize()
        assert np.allclose(deq[0], 0.01, rtol=0.07)
        assert np.allclose(deq[1], 10.0, rtol=0.07)
        assert qt.scale.shape == (2, 1)

    def test_fp64_input_matches_qdq(self):
        x = np.random.default_rng(3).standard_normal((8, 8))  # float64
        qt = QuantizedTensor.quantize(x, E4M3, axis=0)
        assert np.array_equal(qt.dequantize(), quantize_dequantize(x, E4M3, axis=0))


class TestPackedInt8RoundTrip:
    @pytest.mark.parametrize("spec", [INT8_SYMMETRIC, INT8_ASYMMETRIC], ids=lambda s: s.name)
    @pytest.mark.parametrize("axis", [None, 0])
    def test_roundtrip_bitmatches_qdq(self, spec, axis):
        x = _random(seed=4)
        qt = QuantizedTensor.quantize(x, spec, axis=axis)
        expected = int8_quantize_dequantize(x, spec=spec, axis=axis)
        assert qt.codes.dtype == np.int8
        assert np.array_equal(qt.dequantize(), expected)

    def test_nan_lands_on_zero_point(self):
        # packed INT8 has no NaN representation: NaNs take the zero-point code
        x = np.array([np.nan, 1.0, -1.0], dtype=np.float32)
        with pytest.warns(RuntimeWarning, match="non-finite scale"):
            qt = QuantizedTensor.quantize(x, INT8_SYMMETRIC)
        deq = qt.dequantize()
        assert deq[0] == 0.0
        assert np.isfinite(deq).all()

    def test_injected_scale_is_honored(self):
        x = _random(seed=13)
        s = np.asarray(0.05)
        qt = QuantizedTensor.quantize(x, INT8_SYMMETRIC, scale=s)
        assert float(qt.scale) == 0.05
        expected = int8_quantize_dequantize(
            x, spec=INT8_SYMMETRIC, scale=s, zero_point=np.asarray(0.0)
        )
        assert np.array_equal(qt.dequantize(), expected)

    def test_resolves_spec_by_name(self):
        x = _random(seed=5)
        qt = QuantizedTensor.quantize(x, "INT8-asym")
        assert qt.fmt is INT8_ASYMMETRIC
        assert qt.zero_point is not None


class TestFusedVsUnfused:
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize(
        "round_fn",
        [pytest.param(fp8_round, id="fast"), pytest.param(fp8_round_reference, id="reference")],
    )
    @pytest.mark.parametrize("axis", [None, 0])
    def test_fused_axis_qdq_bitmatches_unfused(self, fmt, round_fn, axis):
        x = _random((32, 48), seed=6)
        fused = quantize_dequantize(x, fmt, axis=axis)
        scale = compute_scale(x, fmt, axis=axis)
        # the old unfused pipeline: separate absmax pass, materialised
        # broadcast scale array, then scale->round->rescale, on the public
        # round and on the reference oracle
        scale_full = np.ascontiguousarray(np.broadcast_to(scale, x.shape))
        q = round_fn(np.multiply(x, scale_full, dtype=np.float64), fmt)
        unfused = (q / scale_full).astype(np.float32)
        assert np.array_equal(fused, unfused)


class TestNonFiniteAbsmax:
    def test_all_nan_channel_does_not_poison_others(self):
        x = _random((4, 16), seed=7)
        x[2] = np.nan
        with pytest.warns(RuntimeWarning, match="non-finite absmax"):
            scale = compute_scale(x, E4M3, axis=0)
        assert scale[2, 0] == 1.0
        assert np.isfinite(scale).all()
        with pytest.warns(RuntimeWarning):
            qt = QuantizedTensor.quantize(x, E4M3, axis=0)
        deq = qt.dequantize()
        # the healthy channels survive untouched by the NaN channel
        for ch in (0, 1, 3):
            assert np.isfinite(deq[ch]).all()
            assert np.array_equal(deq[ch], quantize_dequantize(x[ch], E4M3))
        assert np.isnan(deq[2]).all()

    def test_per_tensor_nan_absmax_falls_back_to_scale_1(self):
        with pytest.warns(RuntimeWarning, match="non-finite absmax"):
            scale = compute_scale(np.full(4, np.nan), E4M3)
        assert float(scale) == 1.0


class TestStorageFootprint:
    def test_per_tensor_nbytes_quarter_of_fp32(self):
        x = _random((64, 64), seed=8)
        qt = QuantizedTensor.quantize(x, E4M3)
        assert qt.nbytes_dense == 64 * 64 * 4
        assert 0.25 <= qt.compression_ratio <= 0.26

    def test_per_channel_nbytes_within_bound(self):
        x = _random((64, 64), seed=9)
        for fmt in (E4M3, INT8_SYMMETRIC):
            qt = QuantizedTensor.quantize(x, fmt, axis=0)
            assert qt.nbytes <= 0.3 * qt.nbytes_dense
            assert qt.nbytes >= 0.25 * qt.nbytes_dense

    def test_shape_introspection(self):
        qt = QuantizedTensor.quantize(_random((3, 4, 5), seed=10), E3M4, axis=0)
        assert qt.shape == (3, 4, 5)
        assert qt.ndim == 3
        assert qt.size == 60
        assert "E3M4" in repr(qt)


class TestStateDictRoundTrip:
    @pytest.mark.parametrize(
        "fmt", FORMATS + [INT8_SYMMETRIC, INT8_ASYMMETRIC], ids=lambda f: f.name
    )
    def test_roundtrip(self, fmt):
        x = _random(seed=11)
        qt = QuantizedTensor.quantize(x, fmt, axis=0)
        state = qt.state_dict()
        rebuilt = QuantizedTensor.from_state_dict(state)
        assert rebuilt.fmt is qt.fmt
        assert np.array_equal(rebuilt.codes, qt.codes)
        assert np.array_equal(rebuilt.dequantize(), qt.dequantize())

    def test_state_dict_is_plain_arrays(self):
        qt = QuantizedTensor.quantize(_random(seed=12), E4M3)
        state = qt.state_dict()
        assert set(state) == {"codes", "scale", "format"}
        assert all(isinstance(v, np.ndarray) for v in state.values())


class TestDequantizeBlockEdges:
    """Streaming-primitive edge cases: spans, granularities, zero points."""

    @pytest.mark.parametrize("fmt", [E4M3, INT8_SYMMETRIC], ids=lambda f: f.name)
    def test_block_span_past_axis_end_clamps(self, fmt):
        qt = QuantizedTensor.quantize(_random((10, 6), seed=20), fmt, axis=0)
        full = qt.dequantize()
        block = qt.dequantize_block(8, 100, axis=0)
        assert block.shape == (2, 6)
        assert np.array_equal(block, full[8:])

    @pytest.mark.parametrize("fmt", [E4M3, INT8_SYMMETRIC], ids=lambda f: f.name)
    def test_single_block_covering_whole_axis(self, fmt):
        qt = QuantizedTensor.quantize(_random((7, 5), seed=21), fmt, axis=0)
        assert np.array_equal(qt.dequantize_block(0, 7, axis=0), qt.dequantize())
        # block size larger than the dimension is the same single block
        assert np.array_equal(qt.dequantize_block(0, 512, axis=0), qt.dequantize())

    @pytest.mark.parametrize("fmt", [E4M3, INT8_SYMMETRIC], ids=lambda f: f.name)
    def test_per_tensor_scale_passes_through_unsliced(self, fmt):
        # axis=None -> one scalar scale shared by every block
        qt = QuantizedTensor.quantize(_random((12, 4), seed=22), fmt, axis=None)
        full = qt.dequantize()
        for start in range(0, 12, 5):
            stop = min(start + 5, 12)
            assert np.array_equal(qt.dequantize_block(start, stop, axis=0), full[start:stop])

    def test_int8_zero_point_path_slices_with_codes(self):
        # shift the data so asymmetric INT8 uses genuinely non-zero zero points
        x = _random((16, 8), seed=23) + 4.0
        qt = QuantizedTensor.quantize(x, INT8_ASYMMETRIC, axis=0)
        assert qt.zero_point is not None
        assert np.any(np.asarray(qt.zero_point) != 0)
        full = qt.dequantize()
        for start in range(0, 16, 6):
            stop = min(start + 6, 16)
            assert np.array_equal(qt.dequantize_block(start, stop, axis=0), full[start:stop])

    def test_blocks_along_non_leading_axis(self):
        qt = QuantizedTensor.quantize(_random((6, 9), seed=24), E4M3, axis=1)
        full = qt.dequantize()
        block = qt.dequantize_block(3, 7, axis=1)
        assert np.array_equal(block, full[:, 3:7])

    def test_empty_block(self):
        qt = QuantizedTensor.quantize(_random((4, 4), seed=25), E4M3, axis=0)
        assert qt.dequantize_block(2, 2, axis=0).shape == (0, 4)
