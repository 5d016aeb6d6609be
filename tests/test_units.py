import itertools
from fractions import Fraction

import pytest

from pcqm.units import (
    ConstantSet,
    DimensionError,
    PAPER_APPROX,
    PRECISE,
    UNITS,
    convert,
    dimension_of,
    quantity,
    unit_exponent,
    unit_factor,
)

APPROX = ConstantSet.paper_approx()
EXACT = ConstantSet.precise()


def test_fm_to_gev_inverse():
    assert convert(quantity(1, "fm"), "GeV^-1", APPROX).magnitude == 5
    assert convert(quantity(1, "fm"), "GeV^-1", EXACT).magnitude == Fraction("5.0677")


def test_second_to_meters():
    assert convert(quantity(1, "sec"), "m", APPROX).magnitude == 3 * 10 ** 8
    assert convert(quantity(1, "sec"), "m", EXACT).magnitude == 299792458


def test_kg_to_gev():
    assert convert(quantity(1, "kg"), "GeV", APPROX).magnitude == 6 * 10 ** 26
    assert convert(quantity(1, "kg"), "GeV", EXACT).magnitude == Fraction("5.6096e26")


def test_bound_rendering_chain():
    # 1.75e-5 GeV^-1 -> 3.5e-6 fm -> 3.5e-19 cm in the rounded constants
    q = quantity(Fraction("1.75e-5"), "GeV^-1")
    fm = convert(q, "fm", APPROX)
    assert fm.magnitude == Fraction("3.5e-6")
    cm = convert(fm, "cm", APPROX)
    assert cm.magnitude == Fraction("3.5e-19")


def test_ev_to_hz():
    hz = convert(quantity(1, "eV"), "Hz", EXACT)
    assert float(hz.magnitude) == pytest.approx(2.418e14, rel=1e-3)
    ev = convert(quantity(1000, "Hz"), "eV", EXACT)
    assert float(ev.magnitude) == pytest.approx(4.136e-12, rel=1e-3)


def test_roundtrips_are_exact_in_both_modes():
    for constants in (APPROX, EXACT):
        for a, b in itertools.product(UNITS, UNITS):
            if unit_exponent(a) != unit_exponent(b):
                continue
            q = quantity(Fraction("1.7e-5"), a)
            back = convert(convert(q, b, constants), a, constants)
            assert back.magnitude == q.magnitude, (a, b, constants.mode)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        convert(quantity(1, "fm"), "GeV", APPROX)


def test_unknown_unit_raises():
    with pytest.raises(ValueError):
        quantity(1, "parsec")
    with pytest.raises(ValueError):
        unit_factor("parsec", APPROX)


def test_dimension_table():
    assert dimension_of("Ly") == 2
    assert dimension_of("LR") == 0
    assert dimension_of("LI") == 1
    assert dimension_of("X") == dimension_of("x") == dimension_of("l") == -1
    assert dimension_of("y") == 0
    assert dimension_of("P") == dimension_of("p") == dimension_of("px") == 1
    assert dimension_of("py") == 2
    assert dimension_of("mu") == 1
    assert dimension_of("e2") == 0
    # l^2 * Ly is dimensionless: exponents add
    assert 2 * dimension_of("l") + dimension_of("Ly") == 0


def test_dimension_unknown_symbol():
    with pytest.raises(ValueError):
        dimension_of("Q")


def test_mode_lookup():
    assert ConstantSet.from_mode(PAPER_APPROX).mode == PAPER_APPROX
    assert ConstantSet.from_mode(PRECISE).mode == PRECISE
    with pytest.raises(ValueError):
        ConstantSet.from_mode("rounded")
