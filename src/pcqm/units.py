"""Natural-units conversion layer (hbar = c = 1).

All dimensions reduce to a single energy exponent: length and time carry
GeV^-1, mass and frequency GeV.  Two constant sets are provided: the
``paper-approx`` set uses the rounded conversion factors

    1 fm  ~ 5 GeV^-1      1 sec = 3e8 m      1 kg ~ 6e26 GeV

while ``precise`` uses CODATA-grade values.  Conversion arithmetic runs on
exact rationals, so every conversion round-trips identically in both modes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .record import Record

Number = Union[int, float, Fraction, str]

PAPER_APPROX = "paper-approx"
PRECISE = "precise"


class DimensionError(ValueError):
    """Conversion between quantities of different dimension."""


class ConstantSet(Record):
    __slots__ = (
        "mode",
        "fm_to_gevinv",     # 1 fm  = this many GeV^-1
        "sec_to_m",         # 1 sec = this many m
        "kg_to_gev",        # 1 kg  = this many GeV
        "ev_to_hz",         # 1 eV  = this many Hz
    )

    @classmethod
    def paper_approx(cls) -> "ConstantSet":
        return cls(
            mode=PAPER_APPROX,
            fm_to_gevinv=Fraction(5),
            sec_to_m=Fraction(3) * 10 ** 8,
            kg_to_gev=Fraction(6) * 10 ** 26,
            ev_to_hz=Fraction("2.4e14"),
        )

    @classmethod
    def precise(cls) -> "ConstantSet":
        return cls(
            mode=PRECISE,
            fm_to_gevinv=Fraction("5.0677"),
            sec_to_m=Fraction(299792458),
            kg_to_gev=Fraction("5.6096e26"),
            ev_to_hz=Fraction("2.417989242e14"),
        )

    @classmethod
    def from_mode(cls, mode: str) -> "ConstantSet":
        if mode == PAPER_APPROX:
            return cls.paper_approx()
        if mode == PRECISE:
            return cls.precise()
        raise ValueError(f"unknown constant-set mode {mode!r}")


_EV = Fraction(1, 10 ** 9)  # 1 eV in GeV

# unit -> (energy exponent, 1 <unit> in GeV**exponent under a constant set).
_UNITS = {
    "GeV": (1, lambda c: Fraction(1)),
    "GeV^2": (2, lambda c: Fraction(1)),
    "GeV^-1": (-1, lambda c: Fraction(1)),
    "GeV^-2": (-2, lambda c: Fraction(1)),
    "eV": (1, lambda c: _EV),
    "fm": (-1, lambda c: c.fm_to_gevinv),
    "cm": (-1, lambda c: c.fm_to_gevinv * 10 ** 13),
    "m": (-1, lambda c: c.fm_to_gevinv * 10 ** 15),
    "sec": (-1, lambda c: c.fm_to_gevinv * 10 ** 15 * c.sec_to_m),
    "Hz": (1, lambda c: _EV / c.ev_to_hz),
    "kg": (1, lambda c: c.kg_to_gev),
}

UNITS = tuple(_UNITS)


def _unit(unit: str) -> tuple:
    try:
        return _UNITS[unit]
    except KeyError:
        raise ValueError(f"unknown unit {unit!r}") from None


def unit_exponent(unit: str) -> int:
    return _unit(unit)[0]


def unit_factor(unit: str, constants: ConstantSet) -> Fraction:
    """1 <unit> = factor * GeV**exponent."""
    return _unit(unit)[1](constants)


class Quantity(Record):
    """Magnitude plus energy-exponent dimension and a rendering unit tag."""

    __slots__ = ("magnitude", "exponent", "unit")

    def __float__(self) -> float:
        return float(self.magnitude)

    def __str__(self) -> str:
        return f"{float(self.magnitude):.6g} {self.unit}"


def require_finite(value: Number, name: str) -> None:
    """Refuse a NaN or infinite float, naming it as ``name``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def as_float(x: Fraction, name: str) -> float:
    """``x`` as a float, unless it lies beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{name} exceeds the float range") from None


def quantity(value: Number, unit: str) -> Quantity:
    require_finite(value, "value")
    return Quantity(magnitude=Fraction(value), exponent=unit_exponent(unit), unit=unit)


def convert(q: Quantity, target_unit: str, constants: ConstantSet) -> Quantity:
    """Rescale to the target unit; dimension must match."""
    target_exp = unit_exponent(target_unit)
    if target_exp != q.exponent:
        raise DimensionError(
            f"cannot convert {q.unit} (GeV^{q.exponent}) to {target_unit} (GeV^{target_exp})"
        )
    magnitude = q.magnitude * unit_factor(q.unit, constants) / unit_factor(target_unit, constants)
    return Quantity(magnitude=magnitude, exponent=target_exp, unit=target_unit)


# Energy exponents of the theory's symbols in natural units.
_SYMBOL_DIMENSION = {
    "X": -1,
    "x": -1,
    "l": -1,
    "y": 0,
    "P": 1,
    "p": 1,
    "px": 1,
    "py": 2,
    "Lx": 0,
    "Ly": 2,
    "Lxy": 1,
    "Lyx": 1,
    "LR": 0,
    "LI": 1,
    "mu": 1,
    "e2": 0,
}


def dimension_of(symbol: str) -> int:
    """Energy exponent of a tabulated symbol; exponents add under products."""
    try:
        return _SYMBOL_DIMENSION[symbol]
    except KeyError:
        raise ValueError(f"unknown symbol {symbol!r}") from None
