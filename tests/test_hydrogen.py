import math
from fractions import Fraction

import pytest

from pcqm.hydrogen import (
    BORN_INFELD_QUOTED_CM,
    MAX_N_MAX,
    NUMERATOR_LITERAL_E2,
    PhysicalConstants,
    SpectrumConfig,
    born_infeld_length,
    bound_dict,
    bound_text,
    corrected_spectrum,
    energy_level,
    length_bound,
    spectrum_rows,
    spectrum_text,
)
from pcqm.irrep import denominator_eigenvalue
from pcqm.units import ConstantSet

PRECISE = PhysicalConstants()


def bohr_ground_state_ev() -> float:
    # independent oracle: E_1 = -mu c^2 alpha^2 / 2 with CODATA-grade values
    return -510998.95 * (1 / 137.035999) ** 2 / 2


def test_ground_state_matches_bohr_oracle():
    cfg = SpectrumConfig(constants=PRECISE, n_max=1)
    level = energy_level(cfg, 1)
    assert float(level.e0_ev) == pytest.approx(bohr_ground_state_ev(), rel=1e-12)
    assert float(level.e0_ev) == pytest.approx(-13.606, rel=1e-3)
    assert level.shift_ev == 0
    assert level.k == 0 and level.degeneracy == 1


def test_level_scaling_is_exact():
    cfg = SpectrumConfig(constants=PRECISE, n_max=6)
    levels = corrected_spectrum(cfg)
    for level in levels:
        assert level.e0_ev / levels[0].e0_ev == Fraction(1, level.n ** 2)
        assert level.degeneracy == level.n ** 2
        assert level.k == Fraction(level.n - 1, 2)
    assert all(a.e0_ev < b.e0_ev for a, b in zip(levels, levels[1:]))


def test_denominator_comes_from_the_irrep_identity():
    cfg = SpectrumConfig(constants=PRECISE, n_max=5)
    for level in corrected_spectrum(cfg):
        assert denominator_eigenvalue(level.k) == 2 * level.n ** 2


def test_shift_magnitude_reproduces_lamb_scale():
    cfg = SpectrumConfig(constants=PRECISE, l_gevinv=math.sqrt(3e-10), n_max=1)
    level = energy_level(cfg, 1)
    assert float(-level.shift_ev) == pytest.approx(4e-9, rel=0.05)


def test_shift_ratio_is_l_squared_kappa_exactly():
    cfg = SpectrumConfig(constants=PRECISE, l_gevinv=1.7e-5, kappa_gev2=2.0, n_max=4)
    for level in corrected_spectrum(cfg):
        assert level.shift_ev / level.e0_ev == Fraction(1.7e-5) ** 2 * Fraction(2.0)


def test_per_level_kappa_override():
    cfg = SpectrumConfig(constants=PRECISE, l_gevinv=1e-5, n_max=2)
    level = energy_level(cfg, 2, kappa_gev2=3.0)
    assert level.shift_ev / level.e0_ev == Fraction(1e-5) ** 2 * Fraction(3.0)


def test_literal_charge_squared_numerator_gives_kev_scale():
    cfg = SpectrumConfig(constants=PRECISE, n_max=1, numerator=NUMERATOR_LITERAL_E2)
    level = energy_level(cfg, 1)
    assert float(level.e0_ev) == pytest.approx(-1864.6, rel=1e-3)


def test_length_bound_reproduces_reference_numbers():
    bound = length_bound(4e-9, 13, 1.0)
    assert float(bound.l_squared_gevinv2) == pytest.approx(3e-10, rel=0.05)
    assert bound.l_max_gevinv == pytest.approx(1.7e-5, rel=0.05)
    assert bound.l_max_cm == pytest.approx(3.5e-19, rel=0.05)
    assert bound.l_max_fm == pytest.approx(3.5e-6, rel=0.05)


def test_length_bound_quarter_kappa_scaling():
    base = length_bound(4e-9, 13, 1.0)
    quartered = length_bound(4e-9, 13, 4.0)
    assert quartered.l_max_gevinv == pytest.approx(base.l_max_gevinv / 2, rel=1e-12)


def test_bound_consistency_loop():
    delta_e, e_ref = 4e-9, 13.0
    bound = length_bound(delta_e, e_ref, 1.0)
    cfg = SpectrumConfig(constants=PRECISE, l_gevinv=bound.l_max_gevinv, n_max=1)
    level = energy_level(cfg, 1)
    e0 = abs(float(level.e0_ev))
    assert float(-level.shift_ev) == pytest.approx(delta_e * e0 / e_ref, rel=1e-12)
    # equality (up to sqrt rounding) when the reference is the ground state itself
    bound2 = length_bound(delta_e, e0, 1.0)
    cfg2 = SpectrumConfig(constants=PRECISE, l_gevinv=bound2.l_max_gevinv, n_max=1)
    assert float(-energy_level(cfg2, 1).shift_ev) == pytest.approx(delta_e, rel=1e-12)


def test_zero_length_recovers_plain_hydrogen():
    cfg = SpectrumConfig(constants=PRECISE, l_gevinv=0.0, n_max=3)
    assert all(level.shift_ev == 0 for level in corrected_spectrum(cfg))


def test_born_infeld_conversion():
    # oracle: c^2 / A_m = (2.998e8 m/s)^2 / 1e22 m/s^2, rendered in cm
    expected_cm = (2.998e8) ** 2 / 1e22 * 100
    computed = born_infeld_length(1e22, ConstantSet.precise())
    assert computed.unit == "cm"
    assert float(computed) == pytest.approx(expected_cm, rel=1e-3)
    assert float(born_infeld_length(1e22)) == pytest.approx(9e-4, rel=1e-12)
    assert float(born_infeld_length(2e22)) == pytest.approx(4.5e-4, rel=1e-12)


def test_born_infeld_comparison_is_echoed():
    bound = length_bound(4e-9, 13, 1.0)
    assert bound.born_infeld_quoted_cm == BORN_INFELD_QUOTED_CM == 1e-7
    assert bound.born_infeld_computed_cm == pytest.approx(9e-4, rel=1e-12)
    payload = bound_dict(bound)
    assert payload["born_infeld_quoted_cm"] == 1e-7
    assert "Born-Infeld" in bound_text(bound)


def test_serialization_field_names():
    cfg = SpectrumConfig(constants=PRECISE, l_gevinv=1e-5, n_max=2)
    rows = spectrum_rows(corrected_spectrum(cfg))
    assert list(rows[0]) == ["n", "k", "degeneracy", "E0_eV", "shift_eV"]
    assert rows[1]["k"] == "1/2"
    payload = bound_dict(length_bound(4e-9, 13, 1.0))
    for key in ("l_max_GeVinv", "l_max_fm", "l_max_cm"):
        assert key in payload
    table = spectrum_text(corrected_spectrum(cfg))
    assert table.splitlines()[0].split() == ["n", "k", "degeneracy", "E0_eV", "shift_eV"]


def test_input_validation():
    with pytest.raises(ValueError):
        SpectrumConfig(constants=PRECISE, l_gevinv=-1.0)
    with pytest.raises(ValueError):
        SpectrumConfig(constants=PRECISE, kappa_gev2=0.0)
    with pytest.raises(ValueError):
        SpectrumConfig(constants=PRECISE, n_max=0)
    with pytest.raises(ValueError):
        SpectrumConfig(constants=PRECISE, n_max=MAX_N_MAX + 1)
    cfg = SpectrumConfig(constants=PRECISE, n_max=2)
    with pytest.raises(ValueError):
        energy_level(cfg, 3)
    with pytest.raises(ValueError):
        length_bound(-1e-9, 13)
    with pytest.raises(ValueError):
        length_bound(4e-9, 0)
    with pytest.raises(ValueError):
        length_bound(4e-9, 13, -1)
    with pytest.raises(ValueError):
        born_infeld_length(0)
    with pytest.raises(ValueError):
        PhysicalConstants(mu_gev=Fraction(-1), alpha=Fraction(1, 137))
