"""FP8 cast kernels: bit-twiddling numpy kernels, a compiled decode, and their oracles.

The emulated FP8 cast is the innermost primitive of the whole reproduction:
every Q/DQ-wrapped operator, every MSE/KL threshold-search iteration and every
benchmark sweep funnels through :func:`repro.fp8.quantize.fp8_round`.  The
original implementation resolved each element with a ``searchsorted`` against
the 256-entry table of representable values in float64 — correct, but ~10
temporaries and a binary search per element.  This module provides an
O(1)-per-element replacement that manipulates IEEE-754 bit patterns directly,
plus the original table-based implementation kept verbatim as the oracle the
fast path is tested against.

One path per operation
----------------------
Encode, round and Q/DQ run the numpy bit-twiddling kernels: direct IEEE-754
bit manipulation on float32 (or float64) views — exponent clamp + saturation
against the format's ``max_value`` bit pattern, subnormal flush-to-grid with
an explicit leading bit, and mantissa round-to-nearest-even implemented as an
integer rounding-bias add.  Each is already one fused numpy pass.

Decode → rescale (:func:`fp8_dequantize_channelwise`) runs the compiled C
kernel of :mod:`repro.fp8.native` whenever it can provide one — a C compiler
is found and the scale layout is covered — and the numpy 256-entry LUT
gather plus float64 divide otherwise.  The two are bit-identical by
construction, so which one ran never changes a result.

The table-based ``*_reference`` functions are the oracles: only tests and
benches call :func:`fp8_round_reference` and :func:`fp8_encode_reference`.
:func:`fp8_decode_reference` also builds the decode LUT, and through it the
table baked into the C kernel.

``benchmarks/bench_kernel_throughput.py`` times the numpy kernels against the
oracles and ``benchmarks/bench_native_kernels.py`` gates the compiled decode.

Bit-twiddling notes
-------------------
For an input float of width ``W`` with ``F`` mantissa bits and exponent bias
``B`` (``F=23, B=127`` for float32; ``F=52, B=1023`` for float64) and a target
format with ``m`` mantissa bits and bias ``b``:

* magnitudes are clamped against the bit pattern of ``max_value`` *before*
  rounding (bit patterns of same-sign IEEE floats order like integers), which
  implements saturation exactly like the reference's pre-round clip and also
  saturates infinities;
* normal results round in place: add ``2**(F-m-1) - 1 + lsb`` to the magnitude
  bits and truncate the low ``F-m`` bits — the carry of a mantissa overflow
  propagates into the exponent field, which is exactly the IEEE rollover to
  the next binade, and the ``lsb`` term turns truncation into
  round-half-to-even;
* subnormal results (input exponent below ``1-b``) make the implicit leading
  one explicit and shift further right so the retained integer counts
  multiples of ``min_subnormal``; the same rounding-bias add applies, and a
  full carry (``2**m``) lands on ``min_normal``'s code automatically;
* the integer adds are exact, so unlike "renormalize by adding min_normal"
  float tricks there is no double rounding anywhere.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fp8 import native
from repro.fp8.formats import FP8Format

__all__ = [
    "fp8_round_fast",
    "fp8_round_reference",
    "fp8_encode_fast",
    "fp8_encode_reference",
    "fp8_decode_fast",
    "fp8_decode_reference",
    "quantize_dequantize_fused",
    "channel_absmax",
    "absmax_to_scale",
    "fp8_quantize_channelwise",
    "fp8_dequantize_channelwise",
    "quantize_dequantize_axis",
]

AxisLike = Optional[Union[int, Sequence[int]]]


# ======================================================================
# Reference kernels (table-based oracles; the original implementation).
# Only tests and benches call the round and encode oracles; the decode
# oracle also builds the LUT of the fast and compiled decoders.
# ======================================================================
def fp8_round_reference(x: np.ndarray, fmt: FP8Format) -> np.ndarray:
    """Table-``searchsorted`` round-to-nearest-even onto the format grid."""
    x = np.asarray(x, dtype=np.float64)
    out_shape = x.shape
    flat = x.reshape(-1)

    table = fmt.positive_values
    lsb = fmt.mantissa_lsbs

    sign = np.sign(flat)
    sign = np.where(sign == 0, 1.0, sign)
    mags = np.abs(flat)
    finite = np.isfinite(mags)
    mags_clipped = np.clip(np.where(finite, mags, 0.0), 0.0, fmt.max_value)

    # nearest-value lookup: idx is the insertion point, candidates are idx-1/idx
    idx = np.searchsorted(table, mags_clipped)
    hi = np.clip(idx, 0, table.size - 1)
    lo = np.clip(idx - 1, 0, table.size - 1)
    d_hi = np.abs(table[hi] - mags_clipped)
    d_lo = np.abs(mags_clipped - table[lo])

    take_lo = d_lo < d_hi
    take_hi = d_hi < d_lo
    tie = ~take_lo & ~take_hi
    # ties-to-even: prefer the candidate whose mantissa LSB is 0
    tie_take_lo = tie & (lsb[lo] == 0)
    choose_lo = take_lo | tie_take_lo
    chosen = np.where(choose_lo, table[lo], table[hi])

    result = sign * chosen
    # saturate infinities, propagate NaN
    result = np.where(np.isinf(flat), np.sign(flat) * fmt.max_value, result)
    result = np.where(np.isnan(flat), np.nan, result)
    return result.reshape(out_shape).astype(np.float32)


def fp8_encode_reference(x: np.ndarray, fmt: FP8Format) -> np.ndarray:
    """Reference encoder: reference round, then a ``searchsorted`` code lookup."""
    x = np.asarray(x, dtype=np.float64)
    rounded = fp8_round_reference(x, fmt)
    sign = (np.signbit(rounded) | ((rounded == 0) & np.signbit(x))).astype(np.int64)
    mags = np.abs(rounded)
    table = fmt.positive_values
    idx = np.searchsorted(table, mags)
    idx = np.clip(idx, 0, table.size - 1)
    # searchsorted returns the left insertion point; the rounded value is
    # exactly on the grid so at most one step correction is required.
    mismatch = table[idx] != mags
    idx = np.where(mismatch & (idx > 0) & (table[np.maximum(idx - 1, 0)] == mags), idx - 1, idx)
    codes = fmt.codes[idx]
    out = (sign << 7) | codes
    nan_mask = np.isnan(x)
    if np.any(nan_mask):
        out = np.where(nan_mask, fmt.nan_code, out)
    return out.astype(np.uint8)


def fp8_decode_reference(codes: np.ndarray, fmt: FP8Format) -> np.ndarray:
    """Reference decoder: reconstruct values field-by-field from the raw codes."""
    codes = np.asarray(codes, dtype=np.int64)
    sign = (codes >> 7) & 1
    mag_code = codes & 0x7F
    m = fmt.mantissa_bits
    exp_field = mag_code >> m
    mant_field = mag_code & (2**m - 1)

    subnormal = exp_field == 0
    value = np.where(
        subnormal,
        2.0 ** (1 - fmt.bias) * (mant_field / 2**m),
        2.0 ** (exp_field.astype(np.float64) - fmt.bias) * (1.0 + mant_field / 2**m),
    )
    if fmt.ieee_like:
        special = exp_field == fmt.exponent_all_ones
        inf_mask = special & (mant_field == 0)
        nan_mask = special & (mant_field != 0)
        value = np.where(inf_mask, np.inf, value)
        value = np.where(nan_mask, np.nan, value)
    else:
        nan_mask = (exp_field == fmt.exponent_all_ones) & (mant_field == 2**m - 1)
        value = np.where(nan_mask, np.nan, value)
    value = np.where(sign == 1, -value, value)
    return value.astype(np.float32)


# ======================================================================
# Fast kernel (direct IEEE-754 bit manipulation)
# ======================================================================
class _Consts(NamedTuple):
    """Precomputed per-(format, float width) bit-twiddling constants."""

    float_t: type
    int_t: type
    F: int                # input mantissa bits (23 / 52)
    sign_mask: int        # the sign bit (as a negative python int of the right width)
    abs_mask: int         # clears the sign bit
    inf_bits: int         # magnitude bit pattern of +inf
    m: int                # target mantissa bits
    shift: int            # F - m: bits dropped for normal results
    round_bias: int       # 2**(shift-1) - 1
    drop_mask: int        # clears the dropped low bits
    e_min: int            # smallest biased input exponent with a normal result
    e_off: int            # input bias - target bias (exponent re-bias)
    mant_mask: int        # input mantissa field mask
    implicit: int         # input implicit leading one (1 << F)
    mant_out_mask: int    # target mantissa field mask
    sub_shift_cap: int    # F + 2: beyond this every magnitude rounds to zero
    min_normal_bits: int  # magnitude bit pattern of fmt.min_normal
    max_bits: int         # magnitude bit pattern of fmt.max_value
    min_sub: float        # fmt.min_subnormal in the input float type
    nan_code: int


_WIDTH_PARAMS = {
    32: (np.float32, np.int32, 23, 127, 0x7FFFFFFF, 0x7F800000),
    64: (np.float64, np.int64, 52, 1023, 0x7FFFFFFFFFFFFFFF, 0x7FF0000000000000),
}


@lru_cache(maxsize=None)
def _consts(fmt: FP8Format, width: int) -> _Consts:
    float_t, int_t, F, bias_f, abs_mask, inf_bits = _WIDTH_PARAMS[width]
    m = fmt.mantissa_bits
    shift = F - m
    e_min = bias_f + 1 - fmt.bias
    return _Consts(
        float_t=float_t,
        int_t=int_t,
        F=F,
        sign_mask=~abs_mask,
        abs_mask=abs_mask,
        inf_bits=inf_bits,
        m=m,
        shift=shift,
        round_bias=(1 << (shift - 1)) - 1,
        drop_mask=abs_mask ^ ((1 << shift) - 1),
        e_min=e_min,
        e_off=bias_f - fmt.bias,
        mant_mask=(1 << F) - 1,
        implicit=1 << F,
        mant_out_mask=(1 << m) - 1,
        sub_shift_cap=F + 2,
        min_normal_bits=e_min << F,
        max_bits=int(np.abs(np.asarray(fmt.max_value, dtype=float_t)).view(int_t)),
        min_sub=float_t(fmt.min_subnormal),
        nan_code=fmt.nan_code,
    )


def _as_kernel_input(x: np.ndarray) -> np.ndarray:
    """float32 inputs run through the 32-bit kernel, everything else via float64."""
    x = np.asarray(x)
    if x.dtype == np.float32:
        return x
    return np.asarray(x, dtype=np.float64)


def _clamp_and_round(bits: np.ndarray, c: _Consts):
    """Shared core: clamp magnitudes and RNE-round the normal-result region.

    Returns ``(mag, rounded, nan_mask, sub)``: the clamped magnitude bits, the
    rounded magnitude bits (valid where ``~sub``; normal-path RNE via a
    rounding-bias add whose mantissa carry rolls the exponent), the NaN mask
    and the subnormal-result mask.  All intermediates reuse two buffers.
    """
    mag = bits & c.abs_mask
    nan_mask = mag > c.inf_bits
    np.minimum(mag, c.max_bits, out=mag)  # saturation (+inf incl.): bit patterns order like ints
    sub = mag < c.min_normal_bits
    rounded = np.right_shift(mag, c.shift)
    np.bitwise_and(rounded, 1, out=rounded)          # RNE lsb term
    np.add(rounded, c.round_bias, out=rounded)
    np.add(rounded, mag, out=rounded)
    np.bitwise_and(rounded, c.drop_mask, out=rounded)
    return mag, rounded, nan_mask, sub


def _subnormal_grid(mag_sub: np.ndarray, c: _Consts) -> np.ndarray:
    """Round magnitudes below ``min_normal`` to integer multiples of ``min_subnormal``.

    Makes the implicit leading one explicit and shifts deeper than the normal
    path so the retained integer counts grid steps; the same rounding-bias add
    applies, and a full carry (``2**m``) is exactly ``min_normal``'s code.
    """
    sub_shift = np.minimum(c.shift + (c.e_min - (mag_sub >> c.F)), c.sub_shift_cap)
    sig = (mag_sub & c.mant_mask) | c.implicit
    return (sig + (((1 << (sub_shift - 1)) - 1) + ((sig >> sub_shift) & 1))) >> sub_shift


def _rounded_values(flat: np.ndarray, c: _Consts) -> np.ndarray:
    """Signed rounded values for a flat float array (shared by round and Q/DQ)."""
    bits = flat.view(c.int_t)
    mag, rounded, nan_mask, sub = _clamp_and_round(bits, c)
    value = rounded.view(c.float_t)
    if sub.any():
        value[sub] = _subnormal_grid(mag[sub], c).astype(c.float_t) * c.min_sub
    # reapply the sign in integer space; masking zero magnitudes reproduces the
    # reference's normalisation of -0.0 inputs to +0.0 (negative values that
    # flush to zero keep their sign and come out as -0.0).
    sign = bits & c.sign_mask
    np.multiply(sign, mag != 0, out=sign)
    np.bitwise_or(rounded, sign, out=rounded)
    if nan_mask.any():
        value[nan_mask] = np.nan
    return value


def fp8_round_fast(x: np.ndarray, fmt: FP8Format) -> np.ndarray:
    """Bit-twiddling round-to-nearest-even onto the format grid (fast kernel)."""
    x = _as_kernel_input(x)
    c = _consts(fmt, 32 if x.dtype == np.float32 else 64)
    value = _rounded_values(np.ravel(x), c)
    return value.astype(np.float32, copy=False).reshape(x.shape)


def fp8_encode_fast(x: np.ndarray, fmt: FP8Format) -> np.ndarray:
    """Bit-twiddling encoder to raw 8-bit codes (sign<<7 | magnitude code)."""
    x = _as_kernel_input(x)
    c = _consts(fmt, 32 if x.dtype == np.float32 else 64)
    flat = np.ravel(x)
    bits = flat.view(c.int_t)
    mag, rounded, nan_mask, sub = _clamp_and_round(bits, c)
    code = ((rounded >> c.F) - c.e_off) << c.m
    code |= (rounded >> c.shift) & c.mant_out_mask
    if sub.any():
        code[sub] = _subnormal_grid(mag[sub], c)
    code[bits < 0] |= 0x80
    if nan_mask.any():
        code[nan_mask] = c.nan_code
    return code.astype(np.uint8).reshape(x.shape)


@lru_cache(maxsize=None)
def _decode_lut(fmt: FP8Format) -> np.ndarray:
    """256-entry code→value table, built once from the reference decoder."""
    lut = fp8_decode_reference(np.arange(256, dtype=np.int64), fmt)
    lut.setflags(write=False)
    return lut


def fp8_decode_fast(codes: np.ndarray, fmt: FP8Format) -> np.ndarray:
    """LUT decoder: one gather per element."""
    codes = np.asarray(codes, dtype=np.int64) & 0xFF
    return _decode_lut(fmt)[codes]


def quantize_dequantize_fused(x: np.ndarray, fmt: FP8Format, scale: np.ndarray) -> np.ndarray:
    """Fused scale → bit-round → rescale Q/DQ round trip.

    Bit-identical to the reference ``fp8_round(x * scale) / scale`` pipeline
    (the scaled product and the rescale both stay in float64) but with the
    rounding done by the fast kernel and the rescale applied in place, so the
    whole round trip allocates a handful of buffers instead of the reference
    path's dozen temporaries.
    """
    scaled = np.multiply(x, scale, dtype=np.float64)
    c = _consts(fmt, 64)
    value = _rounded_values(np.ravel(scaled), c).reshape(scaled.shape)
    np.divide(value, scale, out=value)
    return value.astype(np.float32, copy=False)


# ======================================================================
# Fused per-axis (channelwise) kernels
# ======================================================================
# These are the one-call-per-operator entry points used by the packed storage
# subsystem (:class:`repro.fp8.quantize.QuantizedTensor`) and the quantized
# operator wrappers.  Each call performs the whole absmax → scale → encode (or
# decode → rescale) chain in a single pass over the tensor; the per-channel
# scale keeps its reduced ``keepdims`` shape end to end and is only ever
# *broadcast* against the data (numpy broadcasting allocates nothing), never
# materialised into a full-size scale array.


def _channel_reduce_axes(ndim: int, axis: AxisLike) -> Optional[Tuple[int, ...]]:
    """Axes to reduce over so that only the channel axis/axes survive."""
    if axis is None:
        return None
    channel_axes = (axis,) if isinstance(axis, int) else tuple(axis)
    channel_axes = tuple(a % ndim for a in channel_axes)
    return tuple(a for a in range(ndim) if a not in channel_axes)


def channel_absmax(x: np.ndarray, axis: AxisLike = None) -> np.ndarray:
    """Absolute maximum reduced over every axis except the channel axis/axes.

    Per-tensor (``axis=None``) returns a scalar array; per-channel returns a
    ``keepdims`` array broadcastable against ``x``.  The reduction runs on the
    input's native dtype (max of |x| is exact in any float width) and only the
    reduced result is promoted to float64.
    """
    x = np.asarray(x)
    reduce_axes = _channel_reduce_axes(x.ndim, axis)
    if reduce_axes is None and axis is None:
        absmax = np.max(np.abs(x)) if x.size else np.asarray(0.0)
    else:
        absmax = np.max(np.abs(x), axis=reduce_axes, keepdims=True)
    return np.asarray(absmax, dtype=np.float64)


def absmax_to_scale(absmax: np.ndarray, max_value: float, eps: float = 1e-12) -> np.ndarray:
    """Map calibrated absmax values onto scales, ``s = max_value / absmax``.

    The absmax is clamped from below by ``eps`` so all-zero tensors/channels
    get a finite scale.  A *non-finite* absmax (an all-NaN channel, or an inf
    produced by overflowed calibration) would otherwise poison every element
    that shares the scale; those entries map to scale 1.0 with a warning so
    the damage stays confined to the already-broken channel.
    """
    absmax = np.asarray(absmax, dtype=np.float64)
    scale = max_value / np.maximum(absmax, eps)
    finite = np.isfinite(absmax)
    if not np.all(finite):
        warnings.warn(
            "non-finite absmax in scale computation (all-NaN or inf channel); "
            "affected scales fall back to 1.0",
            RuntimeWarning,
            stacklevel=2,
        )
        scale = np.where(finite, scale, 1.0)
    return scale


def fp8_quantize_channelwise(
    x: np.ndarray,
    fmt: FP8Format,
    axis: AxisLike = None,
    absmax: Optional[np.ndarray] = None,
    scale: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused absmax → scale → encode: one reduction plus one encode pass.

    Returns ``(codes, scale)``: packed uint8 codes of ``x * scale`` and the
    float64 scale actually used (scalar for per-tensor, ``keepdims``-shaped
    for per-channel).  The scaled product is formed in float64 via a single
    broadcast multiply, exactly like :func:`quantize_dequantize_fused`, so
    ``decode(codes) / scale`` is bit-identical to the Q/DQ round trip.
    """
    if scale is None:
        if absmax is None:
            absmax = channel_absmax(x, axis)
        scale = absmax_to_scale(absmax, fmt.max_value)
    else:
        scale = np.asarray(scale, dtype=np.float64)
    scaled = np.multiply(x, scale, dtype=np.float64)
    return fp8_encode_fast(scaled, fmt), scale


def fp8_dequantize_channelwise(codes: np.ndarray, fmt: FP8Format, scale: np.ndarray) -> np.ndarray:
    """Fused decode → rescale: one gather plus one broadcast divide.

    Inverse of :func:`fp8_quantize_channelwise`; the divide happens in float64
    against the broadcast (never materialised) scale and the result is cast
    to float32, matching the fused Q/DQ pipeline bit for bit.  The whole chain
    runs as one compiled C pass when :func:`repro.fp8.native.decode_rescale`
    provides one (bit-identical by construction); without a C compiler, or
    for a layout the C kernel does not cover, the numpy LUT decode runs.
    """
    out = native.decode_rescale(codes, fmt, scale)
    if out is not None:
        return out
    out = np.divide(fp8_decode_fast(codes, fmt), scale, dtype=np.float64)
    # np.asarray, not astype: 0-d codes divide to a numpy scalar, and both
    # paths return an ndarray
    return np.asarray(out, dtype=np.float32)


def quantize_dequantize_axis(
    x: np.ndarray,
    fmt: FP8Format,
    axis: AxisLike = None,
    absmax: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fused absmax → scale → round → rescale in a single call.

    The per-operator activation/weight Q/DQ entry point: replaces the old
    two-step ``compute_scale`` + ``quantize_dequantize`` sequence (which
    re-walked the tensor once per step) with one reduction and one fused
    round-trip, and never materialises a broadcast scale array.  Bit-identical
    to the unfused sequence and to the reference round trip.
    """
    if absmax is None:
        absmax = channel_absmax(x, axis)
    return quantize_dequantize_fused(x, fmt, absmax_to_scale(absmax, fmt.max_value))
