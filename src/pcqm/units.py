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
import re
from fractions import Fraction
from pathlib import Path
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

    @classmethod
    def from_file(cls, path: str | Path) -> "ConstantSet":
        """Load from a small ``key = value`` file; all four factors required,
        each a positive decimal or fraction."""
        values: dict[str, str] = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed constant line {raw!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
        keys = ("fm_to_gevinv", "sec_to_m", "kg_to_gev", "ev_to_hz")
        return cls(mode=values.get("mode", "custom"), **{key: _factor(values, key) for key in keys})


# Decimal or fraction text of at most 20 digits a side, as ``irrep --k-max``
# is read, and a decimal may carry an exponent of at most 3 digits (the
# factors are like 3e8 and 5.6096e26): 1e10000000 is refused as text, before
# anything expands it.
_FACTOR_TEXT_RE = re.compile(
    r"[-+]?(\d{1,20}/\d{1,20}|(\d{1,20}(\.\d{0,20})?|\.\d{1,20})([eE][-+]?\d{1,3})?)"
)


def _factor(values: dict[str, str], key: str) -> Fraction:
    """The conversion factor ``key`` of a constant file, a positive number."""
    if key not in values:
        raise ValueError(f"constant file missing key {key!r}")
    text = values[key]
    try:
        factor = Fraction(text) if _FACTOR_TEXT_RE.fullmatch(text) else None
    except ZeroDivisionError:
        factor = None
    if factor is None or factor <= 0:
        raise ValueError(f"constant {key} must be a positive decimal or fraction, got {text!r}")
    return factor


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
