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

Number = Union[int, float, Fraction, str]

PAPER_APPROX = "paper-approx"
PRECISE = "precise"

EV_PER_GEV = Fraction(10 ** 9)


class DimensionError(ValueError):
    """Conversion between quantities of different dimension."""


def _unit_table(
    fm_to_gevinv: Fraction, sec_to_m: Fraction, kg_to_gev: Fraction, ev_to_hz: Fraction
) -> dict:
    """unit -> (energy exponent, 1 <unit> in GeV**exponent), from the four
    factors of a constant set: 1 fm in GeV^-1, 1 sec in m, 1 kg in GeV and
    1 eV in Hz."""
    ev = 1 / EV_PER_GEV
    m = fm_to_gevinv * 10 ** 15
    return {
        "GeV": (1, Fraction(1)),
        "GeV^2": (2, Fraction(1)),
        "GeV^-1": (-1, Fraction(1)),
        "GeV^-2": (-2, Fraction(1)),
        "eV": (1, ev),
        "fm": (-1, fm_to_gevinv),
        "cm": (-1, fm_to_gevinv * 10 ** 13),
        "m": (-1, m),
        "sec": (-1, m * sec_to_m),
        "Hz": (1, ev / ev_to_hz),
        "kg": (1, kg_to_gev),
    }


# constant-set name -> unit -> (energy exponent, exact factor).
CONSTANT_SETS = {
    PAPER_APPROX: _unit_table(
        Fraction(5), Fraction(3) * 10 ** 8, Fraction(6) * 10 ** 26, Fraction("2.4e14")
    ),
    PRECISE: _unit_table(
        Fraction("5.0677"), Fraction(299792458), Fraction("5.6096e26"), Fraction("2.417989242e14")
    ),
}

UNITS = tuple(CONSTANT_SETS[PAPER_APPROX])


def unit_table(constants: str) -> dict:
    """The unit table of the named constant set."""
    try:
        return CONSTANT_SETS[constants]
    except KeyError:
        raise ValueError(f"unknown constant-set mode {constants!r}") from None


def _unit(table: dict, unit: str) -> tuple:
    try:
        return table[unit]
    except KeyError:
        raise ValueError(f"unknown unit {unit!r}") from None


def require_finite(value: Number, name: str) -> None:
    """Refuse a NaN or infinite float, naming it as ``name``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def as_float(x: Fraction, name: str) -> float:
    """``x`` as a float, unless it lies beyond the float range or is nonzero
    and rounds to 0."""
    try:
        value = float(x)
    except OverflowError:
        raise ValueError(f"{name} exceeds the float range") from None
    if value == 0 and x:
        raise ValueError(f"{name} is too small for the float range")
    return value


def convert(value: Number, unit: str, target_unit: str, constants: str) -> Fraction:
    """``value`` in ``unit``, exactly, in ``target_unit``; dimension must match."""
    table = unit_table(constants)
    require_finite(value, "value")
    exponent, factor = _unit(table, unit)
    target_exponent, target_factor = _unit(table, target_unit)
    if target_exponent != exponent:
        raise DimensionError(
            f"cannot convert {unit} (GeV^{exponent}) to {target_unit} (GeV^{target_exponent})"
        )
    return Fraction(value) * factor / target_factor
