"""Native compiled decode: bit-identity, the default path, fallback and plans.

The contract under test (see :mod:`repro.fp8.native`):

* the fused decode → rescale C kernel is **bit-identical** to the numpy
  decode on every input — all formats, per-tensor and per-channel scales,
  ragged shapes, NaN/inf codes (including NaN payload bits), empty arrays —
  verified by comparing uint32 views;
* with a C compiler present every covered decode runs the kernel, with no
  setting; one kernel per format serves both scale layouts;
* the kernel keeps BLAS for the FLOPs, so streaming and cached forwards —
  eager and plan replay — are bit-identical to the numpy path;
* with no C compiler every decode takes the numpy path with a single warning
  and everything keeps working.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp8 import E2M5, E3M4, E4M3, E5M2, QuantizedTensor
from repro.fp8 import native
from repro.fp8.kernels import _decode_lut, fp8_decode_fast, fp8_dequantize_channelwise
from repro.fp8.native import codegen, runtime

FORMATS = [E5M2, E4M3, E3M4, E2M5]

pytestmark = pytest.mark.skipif(not native.native_available(), reason="no C compiler available")


def assert_bits_equal(a, b):
    """float32 arrays must agree bit-for-bit (NaN payloads, signed zeros)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == np.float32 and b.dtype == np.float32
    np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


def numpy_decode(codes, fmt, scale):
    """The numpy decode the native kernel must reproduce exactly."""
    return np.divide(fp8_decode_fast(codes, fmt), scale, dtype=np.float64).astype(np.float32)


def count_c_decodes(monkeypatch):
    """Record ``(codes shape, whether the C kernel ran)`` per later decode."""
    calls = []
    decode_rescale = native.decode_rescale

    def counting_decode(codes, fmt, scale):
        out = decode_rescale(codes, fmt, scale)
        calls.append((np.shape(codes), out is not None))
        return out

    monkeypatch.setattr(native, "decode_rescale", counting_decode)
    return calls


# ----------------------------------------------------------------------
# fused decode → rescale: bit-identity against the numpy decode
# ----------------------------------------------------------------------
class TestDecodeBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        fmt=st.sampled_from([E4M3, E5M2]),
        rows=st.integers(0, 33),
        cols=st.integers(0, 300),
        per_channel=st.booleans(),
    )
    def test_hypothesis_decode_matches_fast(self, data, fmt, rows, cols, per_channel):
        # random raw codes cover the whole code space: normals, subnormals,
        # signed zeros, infinities (E5M2) and NaNs with payload bits; codes
        # come from a drawn seed because rows*cols can exceed the element
        # count hypothesis will generate as a list
        seed = data.draw(st.integers(0, 2**32 - 1))
        codes = (
            np.random.default_rng(seed)
            .integers(0, 256, size=rows * cols, dtype=np.int64)
            .astype(np.uint8)
            .reshape(rows, cols)
        )
        if per_channel:
            scale = np.asarray(
                data.draw(
                    st.lists(
                        st.floats(1e-6, 1e6, allow_nan=False),
                        min_size=rows,
                        max_size=rows,
                    )
                ),
                dtype=np.float64,
            ).reshape(rows, 1)
        else:
            scale = np.asarray(data.draw(st.floats(1e-6, 1e6, allow_nan=False)))
        got = native.decode_rescale(codes, fmt, scale)
        assert got is not None
        assert_bits_equal(got, numpy_decode(codes, fmt, scale))

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("per_channel", [False, True], ids=["tensor", "channel"])
    def test_all_codes_all_formats(self, fmt, per_channel):
        # every code appears in every row; rows wide enough to take the
        # rescaled-LUT branch and narrow slices to take the direct branch
        codes = np.tile(np.arange(256, dtype=np.uint8), (5, 1))
        scale = (
            np.array([[0.25], [1.0], [3.7], [1e-5], [1e5]])
            if per_channel
            else np.asarray(0.37)
        )
        assert_bits_equal(
            native.decode_rescale(codes, fmt, scale),
            numpy_decode(codes, fmt, scale),
        )
        narrow = np.ascontiguousarray(codes[:, :7])
        assert_bits_equal(
            native.decode_rescale(narrow, fmt, scale),
            numpy_decode(narrow, fmt, scale),
        )

    @pytest.mark.parametrize("shape", [(0, 16), (16, 0), (0,), (3, 1), (1, 1)])
    def test_empty_and_degenerate_shapes(self, shape):
        codes = np.zeros(shape, dtype=np.uint8)
        got = native.decode_rescale(codes, E4M3, np.asarray(2.0))
        assert got is not None and got.shape == shape
        assert_bits_equal(got, numpy_decode(codes, E4M3, np.asarray(2.0)))

    def test_ragged_tail_blocks(self):
        # block slicing as the streaming path produces it: a 70-row weight in
        # 32-row blocks leaves a ragged 6-row tail
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 256, (70, 200), dtype=np.uint8)
        scale = np.abs(rng.normal(1.0, 2.0, (70, 1))) + 1e-3
        for start in range(0, 70, 32):
            stop = min(start + 32, 70)
            block, s = codes[start:stop], scale[start:stop]
            assert_bits_equal(
                native.decode_rescale(block, E4M3, s),
                numpy_decode(block, E4M3, s),
            )

    def test_nan_payloads_and_infinities_survive(self):
        # E5M2 is IEEE-like: codes carry ±inf and NaNs with distinct payloads
        codes = np.array([[0x7C, 0xFC, 0x7D, 0x7E, 0x7F, 0xFF]], dtype=np.uint8)
        scale = np.asarray(1.7)
        got = native.decode_rescale(codes, E5M2, scale)
        want = numpy_decode(codes, E5M2, scale)
        assert np.isinf(want[0, 0]) and np.isnan(want[0, 2])
        assert_bits_equal(got, want)

    def test_unsupported_layouts_return_none(self):
        codes = np.zeros((4, 6), dtype=np.uint8)
        # per-column scale (channel axis 1) is not a native layout
        assert native.decode_rescale(codes, E4M3, np.ones((1, 6))) is None
        # int8 codes (the INT8 baseline path) are not FP8 codes
        assert native.decode_rescale(codes.astype(np.int8), E4M3, np.asarray(1.0)) is None


def _codes(rng, shape):
    return rng.integers(0, 256, size=shape, dtype=np.int64).astype(np.uint8)


def _scales(rng, shape, dtype=np.float64):
    return (np.abs(rng.normal(1.0, 2.0, shape)) + 1e-3).astype(dtype)


#: (codes, scale) layouts and whether the C kernel covers them: exactly a
#: single scale, or a keepdims scale on the leading axis
SCALE_LAYOUTS = {
    "scalar-codes": (lambda r: (_codes(r, ()), _scales(r, ())), True),
    "one-scale-keepdims": (lambda r: (_codes(r, (4, 250)), _scales(r, (1, 1))), True),
    "per-element-1d": (lambda r: (_codes(r, (37,)), _scales(r, (37,))), True),
    "leading-3d": (lambda r: (_codes(r, (6, 5, 70)), _scales(r, (6, 1, 1))), True),
    "leading-4d": (lambda r: (_codes(r, (3, 2, 9, 16)), _scales(r, (3, 1, 1, 1))), True),
    "float32-scale": (lambda r: (_codes(r, (8, 300)), _scales(r, (8, 1), np.float32)), True),
    "strided-rows": (lambda r: (_codes(r, (16, 300))[::2], _scales(r, (8, 1))), True),
    "transposed": (lambda r: (_codes(r, (40, 30)).T, _scales(r, ())), True),
    "trailing-axis": (lambda r: (_codes(r, (4, 300)), _scales(r, (1, 300))), False),
    "middle-axis": (lambda r: (_codes(r, (4, 5, 6)), _scales(r, (1, 5, 1))), False),
    "per-token-kv": (lambda r: (_codes(r, (2, 3, 7, 16)), _scales(r, (2, 3, 7, 1))), False),
}


class TestScaleLayouts:
    @pytest.mark.parametrize("fmt", [E4M3, E5M2], ids=lambda f: f.name)
    @pytest.mark.parametrize("layout", sorted(SCALE_LAYOUTS))
    def test_coverage_and_bits(self, layout, fmt):
        make, covered = SCALE_LAYOUTS[layout]
        codes, scale = make(np.random.default_rng(0))
        want = numpy_decode(codes, fmt, scale)
        got = native.decode_rescale(codes, fmt, scale)
        assert (got is not None) == covered
        if covered:
            assert_bits_equal(got, want)
        # the public decode gives the same bits whichever path ran
        assert_bits_equal(fp8_dequantize_channelwise(codes, fmt, scale), want)


class TestDispatchIntegration:
    def test_channelwise_dispatch_uses_native_and_matches(self, monkeypatch):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 256, (24, 256), dtype=np.uint8)
        scale = np.abs(rng.normal(1.0, 1.0, (24, 1))) + 1e-3
        calls = count_c_decodes(monkeypatch)
        got = fp8_dequantize_channelwise(codes, E4M3, scale)
        assert calls == [((24, 256), True)]
        assert_bits_equal(got, numpy_decode(codes, E4M3, scale))

    def test_dequantize_and_streaming_forward_reach_the_c_kernel(self, monkeypatch):
        # no setting selects the kernel: a compiler on the host is enough
        from repro.autograd.tensor import Tensor, no_grad

        weight = _packed_weight()
        qmodel = _streaming_linear(per_row=True)
        x = Tensor(np.random.default_rng(2).normal(0, 1, (3, 129)).astype(np.float32))
        calls = count_c_decodes(monkeypatch)
        weight.dequantize()
        with no_grad():
            qmodel(x)
        assert calls == [((48, 300), True)] + [(shape, True) for shape in BLOCKS]

    def test_native_falls_back_on_unsupported_layout(self):
        # per-column scale: the C kernel does not cover it, numpy decodes it
        rng = np.random.default_rng(12)
        codes = rng.integers(0, 256, (4, 8), dtype=np.uint8)
        scale = np.abs(rng.normal(1.0, 1.0, (1, 8))) + 1e-3
        assert native.decode_rescale(codes, E4M3, scale) is None
        got = fp8_dequantize_channelwise(codes, E4M3, scale)
        assert_bits_equal(got, numpy_decode(codes, E4M3, scale))

    def test_one_kernel_serves_both_scale_layouts(self, monkeypatch):
        # a per-tensor scale is the per-row kernel with one row
        loaded = []
        load = runtime._load

        def recording_load(source):
            loaded.append(source)
            return load(source)

        rng = np.random.default_rng(11)
        codes = rng.integers(0, 256, (24, 256), dtype=np.uint8)
        runtime.reset()
        monkeypatch.setattr(runtime, "_load", recording_load)
        try:
            for scale in (np.asarray(0.37), np.abs(rng.normal(1.0, 1.0, (24, 1))) + 1e-3):
                got = native.decode_rescale(codes, E4M3, scale)
                assert got is not None
                assert_bits_equal(got, numpy_decode(codes, E4M3, scale))
        finally:
            runtime.reset()
        assert loaded == [codegen.render_decode_kernel(E4M3)]

    def test_disk_cache_hits_on_repeat_render(self, tmp_path, monkeypatch):
        monkeypatch.setenv(runtime.CACHE_ENV_VAR, str(tmp_path))
        runtime.reset()
        try:
            assert native.decode_rescale(
                np.zeros((2, 2), np.uint8), E4M3, np.asarray(1.0)
            ) is not None
            sos = sorted(p.name for p in tmp_path.glob("*.so"))
            assert len(sos) == 1
            # a fresh process state must reuse the cached object, not recompile
            runtime.reset()
            mtime = next(tmp_path.glob("*.so")).stat().st_mtime_ns
            assert native.decode_rescale(
                np.zeros((2, 2), np.uint8), E4M3, np.asarray(1.0)
            ) is not None
            assert next(tmp_path.glob("*.so")).stat().st_mtime_ns == mtime
        finally:
            runtime.reset()

    def test_kernel_lookup_is_memoised_until_reset(self, monkeypatch):
        # the source hash is the slow part of a lookup: one per format until
        # reset() forgets the loaded kernels
        calls = []
        source_key = runtime._source_key

        def counting_source_key(source, cc):
            calls.append(1)
            return source_key(source, cc)

        runtime.reset()
        monkeypatch.setattr(runtime, "_source_key", counting_source_key)
        codes, scale = np.zeros((2, 2), np.uint8), np.asarray(1.0)
        try:
            assert native.decode_rescale(codes, E4M3, scale) is not None
            assert native.decode_rescale(codes, E4M3, scale) is not None
            assert len(calls) == 1
            runtime.reset()
            assert native.decode_rescale(codes, E4M3, scale) is not None
            assert len(calls) == 2
        finally:
            runtime.reset()


# ----------------------------------------------------------------------
# the streaming matmul: native decode per block, BLAS for the FLOPs
# ----------------------------------------------------------------------
def _packed_weight():
    """A 48 x 300 E4M3 weight packed with one scale per output channel."""
    x = np.random.default_rng(17).normal(0, 1, (48, 300)).astype(np.float32)
    return QuantizedTensor.quantize(x, E4M3, axis=0)


#: the code blocks one streaming forward of ``_streaming_linear`` decodes
BLOCKS = [(16, 129), (16, 129), (5, 129)]


def _streaming_linear(per_row, block=16):
    """One quantized 129 → 37 linear layer streaming in ``block``-row blocks.

    37 output channels in 16-row blocks leave a ragged 5-row tail block.
    """
    from repro import nn
    from repro.quantization import (
        QuantizedModule,
        quantize_model,
        set_serving_mode,
        standard_recipe,
    )
    from repro.quantization.qconfig import Approach, Granularity

    recipe = standard_recipe(
        "E4M3",
        approach=Approach.DYNAMIC,
        weight_granularity=Granularity.PER_CHANNEL if per_row else Granularity.PER_TENSOR,
        skip_first_operator=False,
        skip_last_operator=False,
    )
    model = nn.Sequential(nn.Linear(129, 37, rng=np.random.default_rng(3)))
    qmodel = quantize_model(model, recipe).model
    qmodel.eval()
    for module in qmodel.modules():
        if isinstance(module, QuantizedModule):
            module.streaming_block_channels = block
    set_serving_mode(qmodel, "streaming", prefetch=False)
    return qmodel


class TestNativeStreamingMatmul:
    @pytest.mark.parametrize("n", [1, 2, 8, 9, 40], ids=lambda n: f"n{n}")
    @pytest.mark.parametrize("per_row", [True, False], ids=["channel", "tensor"])
    def test_matches_fast_bitwise(self, monkeypatch, mask_compiler, n, per_row):
        # every weight block decodes through the C kernel and the matmul
        # stays on BLAS, so the output equals the numpy path's bit for bit at
        # every batch size and both weight-scale granularities
        from repro.autograd.tensor import Tensor, no_grad

        qmodel = _streaming_linear(per_row)
        x = Tensor(np.random.default_rng(n).normal(0, 1, (n, 129)).astype(np.float32))
        calls = count_c_decodes(monkeypatch)
        with no_grad():
            got = qmodel(x).data
            mask_compiler()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = qmodel(x).data
        assert calls == [(shape, True) for shape in BLOCKS] + [(shape, False) for shape in BLOCKS]
        assert got.shape == (n, 37)
        assert_bits_equal(got, want)

    def test_empty_batch(self):
        from repro.autograd.tensor import Tensor, no_grad

        qmodel = _streaming_linear(per_row=True)
        with no_grad():
            y = qmodel(Tensor(np.empty((0, 129), dtype=np.float32))).data
        assert y.shape == (0, 37) and y.dtype == np.float32


# ----------------------------------------------------------------------
# whole forwards: the native decode is bit-identical to numpy on every path
# ----------------------------------------------------------------------
class TestNativeForwards:
    def _quantized_mlp(self):
        from repro import nn
        from repro.quantization import quantize_model, set_serving_mode, standard_recipe
        from repro.quantization.qconfig import Approach

        rng = np.random.default_rng(7)
        model = nn.Sequential(nn.Linear(32, 48, rng=rng), nn.ReLU(), nn.Linear(48, 16, rng=rng))
        recipe = standard_recipe(
            "E4M3",
            approach=Approach.DYNAMIC,
            skip_first_operator=False,
            skip_last_operator=False,
        )
        qmodel = quantize_model(model, recipe).model
        qmodel.eval()
        set_serving_mode(qmodel, "streaming")
        return qmodel

    def test_streaming_plan_replay_matches_eager(self):
        # the plan's streaming qlinear nodes call _stream_matmul (native
        # decode per block, BLAS FLOPs), exactly the path eager takes — the
        # cache's compile-time check enforces it
        from repro.autograd.tensor import Tensor, no_grad
        from repro.graph import install_plan_cache, remove_plan_cache

        qmodel = self._quantized_mlp()
        x = Tensor(np.random.default_rng(13).normal(0, 1, (3, 32)).astype(np.float32))
        with no_grad():
            eager = qmodel(x)
        cache = install_plan_cache(qmodel)
        try:
            with no_grad():
                qmodel(x)
                replay = qmodel(x)
            stats = cache.stats()
        finally:
            remove_plan_cache(qmodel)
        assert stats["plans"] == 1 and stats["verify_failures"] == 0, stats
        np.testing.assert_array_equal(eager.data, replay.data)

    @pytest.mark.parametrize(
        "mode, prefetch",
        [("cached", None), ("streaming", False), ("streaming", "pipeline")],
        ids=["cached", "streaming", "pipeline"],
    )
    def test_native_forward_bit_identical_to_fast(self, mask_compiler, mode, prefetch):
        # masking the compiler is process-wide, so pipeline decode threads
        # take the numpy path too; dropping the weight caches makes cached
        # mode re-decode on each path
        from repro.autograd.tensor import Tensor, no_grad
        from repro.quantization import QuantizedModule, set_serving_mode

        qmodel = self._quantized_mlp()
        set_serving_mode(qmodel, mode, prefetch=prefetch)
        x = Tensor(np.random.default_rng(5).normal(0, 1, (4, 32)).astype(np.float32))
        outputs = {}
        for path in ("native", "numpy"):
            if path == "numpy":
                mask_compiler()
            for module in qmodel.modules():
                if isinstance(module, QuantizedModule):
                    module.drop_weight_cache()
            with no_grad(), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                outputs[path] = qmodel(x).data
        assert_bits_equal(outputs["native"], outputs["numpy"])


# ----------------------------------------------------------------------
# codegen properties
# ----------------------------------------------------------------------
class TestCodegen:
    def test_renders_are_deterministic_and_distinct(self):
        a = codegen.render_decode_kernel(E4M3)
        assert a == codegen.render_decode_kernel(E4M3)
        assert a != codegen.render_decode_kernel(E5M2)

    def test_lut_bits_are_exact(self):
        src = codegen.render_decode_kernel(E4M3)
        for bits in _decode_lut(E4M3).view(np.uint32)[:8]:
            assert f"0x{int(bits):08x}u" in src


# ----------------------------------------------------------------------
# no-compiler fallback
# ----------------------------------------------------------------------
class TestNoCompilerFallback:
    def test_same_bits_and_one_warning_without_compiler(self, monkeypatch, mask_compiler):
        from repro.autograd.tensor import Tensor, no_grad

        weight = _packed_weight()
        qmodel = _streaming_linear(per_row=True)
        x = Tensor(np.random.default_rng(2).normal(0, 1, (3, 129)).astype(np.float32))
        with no_grad():
            with_cc = (weight.dequantize(), qmodel(x).data)
        mask_compiler()
        calls = count_c_decodes(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with no_grad():
                without_cc = (weight.dequantize(), qmodel(x).data)
        assert calls == [((48, 300), False)] + [(shape, False) for shape in BLOCKS]
        for got, want in zip(without_cc, with_cc):
            assert_bits_equal(got, want)
        relevant = [w for w in caught if "C compiler" in str(w.message)]
        assert len(relevant) == 1

    def test_everything_still_green_without_compiler(self, mask_compiler):
        mask_compiler()
        rng = np.random.default_rng(9)
        codes = rng.integers(0, 256, (8, 64), dtype=np.uint8)
        scale = np.abs(rng.normal(1.0, 1.0, (8, 1))) + 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = fp8_dequantize_channelwise(codes, E4M3, scale)
            assert not native.native_available()
            assert native.decode_rescale(codes, E4M3, scale) is None
        assert_bits_equal(got, numpy_decode(codes, E4M3, scale))
