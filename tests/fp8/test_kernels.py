"""Equivalence and property tests for the bit-twiddling FP8 cast kernels.

The fast kernel must be bit-exact against the table-based reference oracle:
on every one of the 256 raw codes of each format (512 signed values counting
both signs of every magnitude), on random tensors in float32 and float64, and
on every special case — NaN, ±inf, ±0, subnormals and exact ties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp8 import E2M5, E3M4, E4M3, E5M2
from repro.fp8 import kernels
from repro.fp8.kernels import (
    fp8_decode_fast,
    fp8_decode_reference,
    fp8_encode_fast,
    fp8_encode_reference,
    fp8_round_fast,
    fp8_round_reference,
)
from repro.fp8.quantize import compute_scale, quantize_dequantize

FORMATS = [E5M2, E4M3, E3M4, E2M5]
ALL_CODES = np.arange(256, dtype=np.int64)


def assert_bitequal(a, b):
    """Float32 arrays must match bit-for-bit (distinguishes ±0, exact NaN bits)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == np.float32 and b.dtype == np.float32
    np.testing.assert_array_equal(a.view(np.int32), b.view(np.int32))


def special_values(fmt):
    """NaN / inf / zeros / saturation boundary / subnormal boundary cases."""
    return np.array(
        [
            np.nan,
            -np.nan,
            np.inf,
            -np.inf,
            0.0,
            -0.0,
            fmt.max_value,
            -fmt.max_value,
            np.nextafter(fmt.max_value, np.inf),
            np.nextafter(fmt.max_value, 0.0),
            fmt.max_value * 2,
            fmt.min_normal,
            -fmt.min_normal,
            fmt.min_subnormal,
            fmt.min_subnormal / 2,      # exact tie with zero
            -fmt.min_subnormal / 2,
            fmt.min_subnormal * 1.5,    # exact tie between first two subnormals
            np.nextafter(fmt.min_subnormal / 2, 0.0),
            np.nextafter(fmt.min_subnormal / 2, 1.0),
            1e-300,
            -1e-300,
            1e300,
        ]
    )


def tie_values(fmt):
    """Exact midpoints of every adjacent pair of representable magnitudes."""
    pos = fmt.positive_values
    mids = (pos[:-1] + pos[1:]) / 2.0
    return np.concatenate([mids, -mids])


def random_values(fmt, seed=0, n=5000):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.normal(0.0, 1.0, n),
            rng.normal(0.0, 100.0, n),
            rng.uniform(-2 * fmt.max_value, 2 * fmt.max_value, n),
            rng.uniform(-fmt.min_normal, fmt.min_normal, n),
            rng.normal(0.0, fmt.min_subnormal, n),
        ]
    )


class TestExhaustiveCodeEquivalence:
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_decode_all_256_codes_bitmatch(self, fmt):
        assert_bitequal(fp8_decode_reference(ALL_CODES, fmt), fp8_decode_fast(ALL_CODES, fmt))

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_all_512_signed_values_roundtrip(self, fmt):
        """Every representable value (both signs of all 256 magnitudes) survives a round trip."""
        decoded = fp8_decode_fast(ALL_CODES, fmt)
        values = np.concatenate([decoded, -decoded])  # 512 signed values
        finite = values[np.isfinite(values)]
        for arr in (finite.astype(np.float64), finite.astype(np.float32)):
            # grid values are fixed points of rounding (±0 compare as values:
            # the round kernels normalise a -0.0 input to +0.0)
            assert np.array_equal(fp8_round_fast(arr, fmt), arr.astype(np.float32))
            assert_bitequal(fp8_round_fast(arr, fmt), fp8_round_reference(arr, fmt))
            # encode→decode→encode is stable and kernel-independent
            codes_fast = fp8_encode_fast(arr, fmt)
            codes_ref = fp8_encode_reference(arr, fmt)
            np.testing.assert_array_equal(codes_fast, codes_ref)
            assert_bitequal(fp8_decode_fast(codes_fast, fmt), arr.astype(np.float32))

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_encode_all_decoded_specials_bitmatch(self, fmt):
        """NaN/inf codes encode identically through both kernels."""
        decoded = fp8_decode_fast(ALL_CODES, fmt)
        np.testing.assert_array_equal(
            fp8_encode_reference(decoded, fmt), fp8_encode_fast(decoded, fmt)
        )


class TestRandomTensorEquivalence:
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_bitmatch(self, fmt, dtype):
        x = np.concatenate([random_values(fmt), special_values(fmt), tie_values(fmt)])
        x = x.astype(dtype)
        assert_bitequal(fp8_round_reference(x, fmt), fp8_round_fast(x, fmt))

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encode_bitmatch(self, fmt, dtype):
        x = np.concatenate([random_values(fmt), special_values(fmt), tie_values(fmt)])
        x = x.astype(dtype)
        np.testing.assert_array_equal(fp8_encode_reference(x, fmt), fp8_encode_fast(x, fmt))

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_round_preserves_shape_and_noncontiguous_input(self, fmt):
        x = np.asfortranarray(np.random.default_rng(3).normal(size=(17, 9)))
        assert_bitequal(fp8_round_reference(x, fmt), fp8_round_fast(x, fmt))
        assert fp8_round_fast(x, fmt).shape == x.shape

    def test_scalar_and_empty_inputs(self):
        assert_bitequal(fp8_round_reference(1.07, E4M3), fp8_round_fast(1.07, E4M3))
        empty = np.empty((0,), dtype=np.float64)
        assert_bitequal(fp8_round_reference(empty, E4M3), fp8_round_fast(empty, E4M3))


def reference_qdq(x, fmt, scale):
    """The unfused Q/DQ round trip on the reference round: the fused kernels' oracle."""
    q = fp8_round_reference(np.asarray(x, dtype=np.float64) * scale, fmt)
    return (q / scale).astype(np.float32)


class TestFusedQuantizeDequantize:
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("axis", [None, 0])
    def test_qdq_bitmatch_between_kernels(self, fmt, axis):
        x = np.random.default_rng(7).normal(0, 3, (16, 24))
        ref = reference_qdq(x, fmt, compute_scale(x, fmt, axis=axis))
        assert_bitequal(ref, quantize_dequantize(x, fmt, axis=axis))

    def test_qdq_explicit_scale_bitmatch(self):
        x = np.random.default_rng(8).normal(size=300).astype(np.float32)
        scale = np.asarray(3.7)
        ref = reference_qdq(x, E3M4, scale)
        assert_bitequal(ref, quantize_dequantize(x, E3M4, scale=scale))

    def test_qdq_propagates_nan(self):
        out = quantize_dequantize(np.array([np.nan, 1.0]), E4M3, scale=np.asarray(1.0))
        assert np.isnan(out[0]) and not np.isnan(out[1])


ROUND_FUNCTIONS = [
    pytest.param(fp8_round_fast, id="fast"),
    pytest.param(fp8_round_reference, id="reference"),
]


class TestRoundProperties:
    """Property-style guarantees: both round functions are idempotent and monotone."""

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("round_fn", ROUND_FUNCTIONS)
    def test_idempotent_on_dense_sample(self, fmt, round_fn):
        x = np.concatenate([random_values(fmt, seed=11), tie_values(fmt)])
        once = round_fn(x, fmt)
        twice = round_fn(once, fmt)
        # value-level equality: rounding a -0.0 result again normalises it to
        # +0.0 (reference semantics, faithfully replicated by the fast kernel)
        assert np.array_equal(once, twice, equal_nan=True)

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("round_fn", ROUND_FUNCTIONS)
    def test_monotone_on_sorted_sample(self, fmt, round_fn):
        x = np.sort(np.concatenate([random_values(fmt, seed=13), tie_values(fmt)]))
        assert np.all(np.diff(round_fn(x, fmt)) >= 0)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_hypothesis(self, value):
        for fmt in FORMATS:
            once = fp8_round_fast(np.array([value]), fmt)
            assert np.array_equal(once, fp8_round_fast(once, fmt))

    @given(st.floats(-1e4, 1e4, allow_nan=False), st.floats(0.0, 10.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_monotone_hypothesis(self, value, delta):
        for fmt in FORMATS:
            lo, hi = fp8_round_fast(np.array([value, value + delta]), fmt)
            assert lo <= hi


class TestFormatMethods:
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_format_encode_decode_match_reference(self, fmt):
        x = np.concatenate([random_values(fmt, seed=5, n=500), special_values(fmt)])
        codes = fmt.encode(x)
        np.testing.assert_array_equal(fp8_encode_reference(x, fmt), codes)
        assert_bitequal(fp8_decode_reference(codes, fmt), fmt.decode(codes))
        assert codes.dtype == np.uint8

    def test_nan_encodes_to_canonical_code(self):
        for fmt in FORMATS:
            assert int(fmt.encode(np.array([np.nan]))[0]) == fmt.nan_code
            assert np.isnan(fmt.decode(np.array([fmt.nan_code]))[0])

    def test_decode_lut_is_cached_and_readonly(self):
        lut = kernels._decode_lut(E4M3)
        assert lut is kernels._decode_lut(E4M3)
        assert not lut.flags.writeable
