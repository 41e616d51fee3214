"""FP8 binary format specifications (paper Table 1).

The paper studies three 8-bit floating-point formats with a 1-bit sign, ``e``
exponent bits and ``m`` mantissa bits (``1 + e + m == 8``):

================  ======  ======  ======
property          E5M2    E4M3    E3M4
================  ======  ======  ======
exponent bias     15      7       3
max value         57344   448     30.0
min value         1.5e-5  1.9e-3  1.5e-2
subnormals        yes     yes     yes
NaNs              all     single  single
infinity          yes     no      no
================  ======  ======  ======

``E5M2`` follows IEEE-754 style encoding rules (top exponent reserved for
infinities and NaNs).  ``E4M3`` and ``E3M4`` use the *extended* encoding of
the OCP / NVIDIA FP8 proposal: the top exponent is reclaimed for normal
values and only the all-ones bit pattern encodes NaN, so there is no
infinity and the maximum magnitude is larger than the IEEE-style encoding
would permit.

Each :class:`FP8Format` lazily materialises the full table of representable
values (plus per-value metadata such as the mantissa LSB, needed for
round-to-nearest-even tie breaking) which the quantizer in
:mod:`repro.fp8.quantize` uses for vectorised nearest-value rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict

import numpy as np

__all__ = [
    "FP8Format",
    "E5M2",
    "E4M3",
    "E3M4",
    "E2M5",
    "FORMAT_REGISTRY",
    "get_format",
]


@dataclass(frozen=True)
class FP8Format:
    """Specification of an 8-bit floating point format.

    Parameters
    ----------
    name:
        Human readable name, e.g. ``"E4M3"``.
    exponent_bits:
        Number of exponent bits ``e``.
    mantissa_bits:
        Number of explicitly stored mantissa bits ``m``.
    bias:
        Exponent bias ``b``; the stored exponent ``E`` encodes ``2**(E - b)``.
    ieee_like:
        If ``True`` the top exponent value is reserved for infinity / NaN
        (IEEE-754 style, used by E5M2).  If ``False`` the extended encoding is
        used: only the all-ones bit pattern is NaN, there is no infinity and
        the top exponent encodes ordinary normal values (E4M3, E3M4).
    """

    name: str
    exponent_bits: int
    mantissa_bits: int
    bias: int
    ieee_like: bool

    def __post_init__(self) -> None:
        if self.exponent_bits + self.mantissa_bits != 7:
            raise ValueError(
                f"{self.name}: exponent_bits + mantissa_bits must equal 7 "
                f"(got {self.exponent_bits} + {self.mantissa_bits})"
            )
        if self.exponent_bits < 2:
            raise ValueError(f"{self.name}: need at least 2 exponent bits")

    # ------------------------------------------------------------------
    # Scalar properties (paper Table 1)
    # ------------------------------------------------------------------
    @property
    def num_bits(self) -> int:
        """Total storage width in bits (always 8)."""
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def exponent_all_ones(self) -> int:
        """The maximum raw exponent field value."""
        return (1 << self.exponent_bits) - 1

    @property
    def max_normal_exponent(self) -> int:
        """Largest raw exponent field usable for finite normal values."""
        if self.ieee_like:
            return self.exponent_all_ones - 1
        return self.exponent_all_ones

    @property
    def max_value(self) -> float:
        """Largest representable finite magnitude."""
        exp = self.max_normal_exponent - self.bias
        if self.ieee_like:
            mant = 1.0 + (2**self.mantissa_bits - 1) / 2**self.mantissa_bits
        else:
            # extended encoding: the all-ones mantissa at the top exponent is
            # NaN, so the largest finite value drops the mantissa LSB... no —
            # it uses the all-ones-minus-one mantissa (all ones except LSB=0
            # would be wrong for E4M3 whose max mantissa is 0b110).  The
            # reclaimed NaN is exactly one code point: mantissa == all ones.
            mant = 1.0 + (2**self.mantissa_bits - 2) / 2**self.mantissa_bits
        return float(2.0**exp * mant)

    @property
    def min_normal(self) -> float:
        """Smallest positive *normal* magnitude, ``2**(1 - bias)``."""
        return float(2.0 ** (1 - self.bias))

    @property
    def min_subnormal(self) -> float:
        """Smallest positive subnormal magnitude."""
        return float(2.0 ** (1 - self.bias) * 2.0**-self.mantissa_bits)

    @property
    def min_value(self) -> float:
        """Smallest positive representable magnitude (subnormal)."""
        return self.min_subnormal

    @property
    def has_infinity(self) -> bool:
        """Whether the format encodes +/- infinity."""
        return self.ieee_like

    @property
    def nan_encoding(self) -> str:
        """``"all"`` for IEEE-like formats, ``"single"`` for extended ones."""
        return "all" if self.ieee_like else "single"

    @property
    def num_nan_codes(self) -> int:
        """Number of bit patterns (per sign) that decode to NaN."""
        if self.ieee_like:
            return 2**self.mantissa_bits - 1
        return 1

    # ------------------------------------------------------------------
    # Value tables
    # ------------------------------------------------------------------
    @cached_property
    def _table(self) -> Dict[str, np.ndarray]:
        """Build the table of all finite representable magnitudes >= 0.

        Returns a dict with

        ``values``
            sorted unique non-negative finite magnitudes (float64),
        ``mantissa_lsb``
            the mantissa LSB of the canonical encoding of each magnitude
            (used for round-to-nearest-even tie breaking),
        ``codes``
            the raw 7-bit magnitude code (exponent << m | mantissa).
        """
        values = []
        lsbs = []
        codes = []
        m = self.mantissa_bits
        for exp_field in range(self.exponent_all_ones + 1):
            for mant_field in range(2**m):
                code = (exp_field << m) | mant_field
                if self.ieee_like and exp_field == self.exponent_all_ones:
                    # Inf (mant == 0) or NaN: not a finite value.
                    continue
                if (
                    not self.ieee_like
                    and exp_field == self.exponent_all_ones
                    and mant_field == 2**m - 1
                ):
                    # extended encoding: single NaN code point.
                    continue
                if exp_field == 0:
                    value = 2.0 ** (1 - self.bias) * (mant_field / 2**m)
                else:
                    value = 2.0 ** (exp_field - self.bias) * (1.0 + mant_field / 2**m)
                values.append(value)
                lsbs.append(mant_field & 1)
                codes.append(code)
        values_arr = np.asarray(values, dtype=np.float64)
        lsbs_arr = np.asarray(lsbs, dtype=np.int64)
        codes_arr = np.asarray(codes, dtype=np.int64)
        order = np.argsort(values_arr, kind="stable")
        return {
            "values": values_arr[order],
            "mantissa_lsb": lsbs_arr[order],
            "codes": codes_arr[order],
        }

    @property
    def positive_values(self) -> np.ndarray:
        """Sorted array of all non-negative finite representable magnitudes."""
        return self._table["values"]

    @property
    def mantissa_lsbs(self) -> np.ndarray:
        """Mantissa LSB for each entry of :attr:`positive_values`."""
        return self._table["mantissa_lsb"]

    @property
    def codes(self) -> np.ndarray:
        """Raw 7-bit magnitude codes for each entry of :attr:`positive_values`."""
        return self._table["codes"]

    @cached_property
    def all_values(self) -> np.ndarray:
        """Sorted array of all finite representable values (negative + positive)."""
        pos = self.positive_values
        neg = -pos[pos > 0][::-1]
        return np.concatenate([neg, pos])

    @property
    def num_finite_values(self) -> int:
        """Number of distinct finite values (counting +0/-0 once)."""
        return int(self.all_values.size)

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray) -> np.ndarray:
        """Encode FP32 values into raw 8-bit codes (sign<<7 | magnitude code).

        Values are first rounded onto the representable grid with
        round-to-nearest-even and saturation (see :func:`repro.fp8.quantize.fp8_round`).
        NaNs map to the canonical NaN code.  Runs the bit-twiddling encoder
        (see :mod:`repro.fp8.kernels`).
        """
        from repro.fp8 import kernels

        return kernels.fp8_encode_fast(x, self)

    @property
    def nan_code(self) -> int:
        """The canonical raw code used for NaN.

        For IEEE-like formats this is the all-ones-mantissa quiet NaN at the
        top exponent; for extended formats the single reclaimed all-ones bit
        pattern — the same expression either way.
        """
        return (self.exponent_all_ones << self.mantissa_bits) | (2**self.mantissa_bits - 1)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Decode raw 8-bit codes back to FP32 values (one LUT gather per code).

        See :mod:`repro.fp8.kernels`.
        """
        from repro.fp8 import kernels

        return kernels.fp8_decode_fast(codes, self)

    def is_representable(self, x: float) -> bool:
        """Return True if the scalar ``x`` lies exactly on the format grid."""
        if np.isnan(x):
            return True
        if np.isinf(x):
            return self.has_infinity
        return bool(np.any(np.isclose(self.all_values, x, rtol=0.0, atol=0.0)))

    def describe(self) -> Dict[str, object]:
        """Return the Table 1 row for this format as a dictionary."""
        return {
            "format": self.name,
            "exponent_bits": self.exponent_bits,
            "mantissa_bits": self.mantissa_bits,
            "exponent_bias": self.bias,
            "max_value": self.max_value,
            "min_value": self.min_value,
            "min_normal": self.min_normal,
            "subnormals": True,
            "nans": self.nan_encoding,
            "infinity": self.has_infinity,
            "finite_values": self.num_finite_values,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FP8Format({self.name}, e={self.exponent_bits}, m={self.mantissa_bits}, "
            f"bias={self.bias}, max={self.max_value}, ieee_like={self.ieee_like})"
        )


# ----------------------------------------------------------------------
# The formats studied in the paper (Table 1) plus E2M5 from related work.
# ----------------------------------------------------------------------
E5M2 = FP8Format(name="E5M2", exponent_bits=5, mantissa_bits=2, bias=15, ieee_like=True)
E4M3 = FP8Format(name="E4M3", exponent_bits=4, mantissa_bits=3, bias=7, ieee_like=False)
E3M4 = FP8Format(name="E3M4", exponent_bits=3, mantissa_bits=4, bias=3, ieee_like=False)
# E2M5 appears in the related-work discussion (Noune et al., Kuzmin et al.);
# included for completeness / ablations.
E2M5 = FP8Format(name="E2M5", exponent_bits=2, mantissa_bits=5, bias=1, ieee_like=False)

FORMAT_REGISTRY: Dict[str, FP8Format] = {fmt.name: fmt for fmt in (E5M2, E4M3, E3M4, E2M5)}


def get_format(name: str) -> FP8Format:
    """Look up an FP8 format by name (case-insensitive)."""
    key = name.upper()
    if key not in FORMAT_REGISTRY:
        raise KeyError(f"Unknown FP8 format {name!r}; available: {sorted(FORMAT_REGISTRY)}")
    return FORMAT_REGISTRY[key]
