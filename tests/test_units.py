import itertools
from fractions import Fraction

import pytest

from pcqm.units import (
    CONSTANT_SETS,
    DimensionError,
    PAPER_APPROX,
    PRECISE,
    UNITS,
    as_float,
    convert,
    unit_table,
)

APPROX, EXACT = PAPER_APPROX, PRECISE


def test_fm_to_gev_inverse():
    assert convert(1, "fm", "GeV^-1", APPROX) == 5
    assert convert(1, "fm", "GeV^-1", EXACT) == Fraction("5.0677")


def test_second_to_meters():
    assert convert(1, "sec", "m", APPROX) == 3 * 10 ** 8
    assert convert(1, "sec", "m", EXACT) == 299792458


def test_kg_to_gev():
    assert convert(1, "kg", "GeV", APPROX) == 6 * 10 ** 26
    assert convert(1, "kg", "GeV", EXACT) == Fraction("5.6096e26")


def test_bound_rendering_chain():
    # 1.75e-5 GeV^-1 -> 3.5e-6 fm -> 3.5e-19 cm in the rounded constants
    fm = convert(Fraction("1.75e-5"), "GeV^-1", "fm", APPROX)
    assert fm == Fraction("3.5e-6")
    cm = convert(fm, "fm", "cm", APPROX)
    assert cm == Fraction("3.5e-19")


def test_ev_to_hz():
    hz = convert(1, "eV", "Hz", EXACT)
    assert float(hz) == pytest.approx(2.418e14, rel=1e-3)
    ev = convert(1000, "Hz", "eV", EXACT)
    assert float(ev) == pytest.approx(4.136e-12, rel=1e-3)


def test_roundtrips_are_exact_in_both_modes():
    for constants in (APPROX, EXACT):
        table = unit_table(constants)
        pairs = [(a, b) for a, b in itertools.product(UNITS, UNITS) if table[a][0] == table[b][0]]
        assert len(pairs) == 43
        for a, b in pairs:
            value = Fraction("1.7e-5")
            back = convert(convert(value, a, b, constants), b, a, constants)
            assert back == value, (a, b, constants)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError, match=r"^cannot convert fm \(GeV\^-1\) to GeV \(GeV\^1\)$"):
        convert(1, "fm", "GeV", APPROX)


def test_unknown_unit_raises():
    with pytest.raises(ValueError, match="^unknown unit 'parsec'$"):
        convert(1, "parsec", "fm", APPROX)
    with pytest.raises(ValueError, match="^unknown unit 'parsec'$"):
        convert(1, "fm", "parsec", APPROX)


def test_mode_lookup():
    assert unit_table(PAPER_APPROX) is CONSTANT_SETS[PAPER_APPROX]
    assert unit_table(PRECISE) is CONSTANT_SETS[PRECISE]
    assert set(CONSTANT_SETS) == {PAPER_APPROX, PRECISE}
    with pytest.raises(ValueError, match="^unknown constant-set mode 'rounded'$"):
        unit_table("rounded")


@pytest.mark.parametrize(
    "args, message",
    [
        ((float("nan"), "parsec", "fm", "rounded"), "unknown constant-set mode 'rounded'"),
        ((float("nan"), "parsec", "fm", APPROX), "value must be finite, got nan"),
        ((1, "parsec", "furlong", APPROX), "unknown unit 'parsec'"),
        ((1, "fm", "furlong", APPROX), "unknown unit 'furlong'"),
    ],
)
def test_refusals_come_in_order(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        convert(*args)


def test_as_float_refuses_what_the_float_range_cannot_hold():
    assert as_float(Fraction(0), "x") == 0.0
    assert as_float(Fraction(1, 10 ** 300), "x") == 1e-300
    for tiny in (Fraction(1, 10 ** 400), Fraction(-1, 10 ** 400)):
        with pytest.raises(ValueError, match="^x is too small for the float range$"):
            as_float(tiny, "x")
    with pytest.raises(ValueError, match="^x exceeds the float range$"):
        as_float(Fraction(10 ** 400), "x")
