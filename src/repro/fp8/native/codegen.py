"""Render the fused FP8 decode kernel to C source (the codegen half).

This module is the *renderer* of the renderer/runtime split (in the style of
tinygrad's ``cstyle.py`` / ``ops_clang.py``): it turns an FP8 format table
into one self-contained C translation unit, and
:mod:`repro.fp8.native.runtime` compiles and loads it.  Nothing here touches
a compiler — rendering is pure string work, so it is cheap, deterministic
and directly testable.

:func:`render_decode_kernel` renders the fused decode → rescale:
``out[r, c] = float32(float64(LUT[code]) / s_r)`` over a ``rows x cols``
block of packed codes with one scale per row; a per-tensor scale is one row.
This is **bit-identical** to the numpy path by construction: the 256-entry
LUT is baked into the source as the exact float32 bit patterns of the numpy
LUT, the divide happens in float64 and the result is narrowed to float32 —
the same three IEEE-754 operations numpy performs, in the same order.  For
wide rows the kernel first folds the row scale into a rescaled 256-entry
float32 LUT (256 divides amortised over the row) and decodes by pure gather;
the memoisation is bit-safe because each table entry is produced by the
identical divide+narrow the direct path would perform per element.

The runtime caches one compiled shared object per distinct rendered source.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.fp8.formats import FP8Format

__all__ = [
    "KERNEL_SYMBOL",
    "render_decode_kernel",
]

#: every rendered translation unit exports exactly this symbol
KERNEL_SYMBOL = "repro_kernel"

#: below this many columns a per-row rescaled LUT costs more than it saves
#: (256 divides per row vs one divide per element), so the decode kernel
#: switches to the direct per-element divide — both branches are bit-identical
LUT_MIN_COLS = 192


def _lut_initializer(fmt: FP8Format) -> str:
    """The 256-entry code→float32 value table as exact bit patterns.

    Baking bit patterns (not decimal literals) guarantees the C LUT is
    byte-for-byte the numpy LUT, including the quiet-NaN payloads the
    reference decoder produces for NaN codes and the signed infinities of
    IEEE-like formats.
    """
    from repro.fp8.kernels import _decode_lut

    bits = _decode_lut(fmt).view(np.uint32)
    rows = []
    for start in range(0, 256, 8):
        chunk = ", ".join(f"0x{int(b):08x}u" for b in bits[start : start + 8])
        rows.append(f"    {chunk},")
    return "\n".join(rows)


def _header(fmt: FP8Format) -> str:
    return (
        "/* repro native FP8 decode kernel (generated - do not edit)\n"
        f" * format: {fmt.name} (e={fmt.exponent_bits}, "
        f"m={fmt.mantissa_bits}, bias={fmt.bias}, ieee_like={fmt.ieee_like})\n"
        " * granularity: one scale per row\n"
        " */\n"
        "#include <stdint.h>\n"
        "\n"
        "typedef union { uint32_t u; float f; } f32bits;\n"
        "\n"
        "static const uint32_t LUT_BITS[256] = {\n"
        f"{_lut_initializer(fmt)}\n"
        "};\n"
    )


@lru_cache(maxsize=None)
def render_decode_kernel(fmt: FP8Format) -> str:
    """C source for the fused decode → rescale kernel (exact numpy mirror).

    Signature of the exported symbol::

        void repro_kernel(const uint8_t *codes, const double *scale,
                          float *out, long rows, long cols);

    ``scale`` points at ``rows`` float64 values: the flattened keepdims
    channel scale, or the one per-tensor scale with ``rows == 1``.
    """
    # Wide rows: fold the row scale into a rescaled 256-entry LUT and decode
    # by pure gather.  Each table entry is the identical float64-divide +
    # float32-narrow the direct branch performs per element, so both
    # branches (and numpy) agree bit for bit.
    body = f"""
void {KERNEL_SYMBOL}(const uint8_t *codes, const double *scale,
                     float *out, long rows, long cols)
{{
    f32bits v;
    float row_lut[256];
    for (long r = 0; r < rows; r++) {{
        const double s = scale[r];
        const uint8_t *src = codes + r * cols;
        float *dst = out + r * cols;
        if (cols >= {LUT_MIN_COLS}) {{
            for (int c = 0; c < 256; c++) {{
                v.u = LUT_BITS[c];
                row_lut[c] = (float)((double)v.f / s);
            }}
            for (long i = 0; i < cols; i++)
                dst[i] = row_lut[src[i]];
        }} else {{
            for (long i = 0; i < cols; i++) {{
                v.u = LUT_BITS[src[i]];
                dst[i] = (float)((double)v.f / s);
            }}
        }}
    }}
}}
"""
    return _header(fmt) + body
