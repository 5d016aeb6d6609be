"""Hydrogen levels with the minimal-length correction and the length bound.

Level energies come from the SO(4) denominator eigenvalue 2(2k+1)^2 = 2n^2
with n = 2k+1, giving the Bohr form E_n = -mu*alpha^2/(2n^2).  The
minimal-length correction multiplies each level by (1 + l^2*kappa) where
kappa models the order-1 GeV^2 matrix element of the correction operator,
so shift/E0 = l^2*kappa exactly.

Inverting the comparison against an observed splitting gives the exclusion
bound l_max = sqrt(dE / (|E_ref| * kappa)), reported in GeV^-1, fm and cm,
alongside the Born-Infeld maximal-acceleration figure for comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .irrep import denominator_eigenvalue
from .record import Record
from .units import EV_PER_GEV, PAPER_APPROX, as_float, convert, require_finite, unit_table

# Reference maximal acceleration (m/s^2) and the length usually quoted for it.
BORN_INFELD_ACCELERATION = 1e22
BORN_INFELD_QUOTED_CM = 1e-7

# Reduced mass (GeV) and fine-structure constant of the level energies.
MU_GEV = Fraction("0.51099895e-3")
ALPHA = 1 / Fraction("137.035999")

# Largest level table accepted: 10,000 levels take about 0.35 s as a process
# on a 2-vCPU host (median of 9 runs).
MAX_N_MAX = 10_000


class EnergyLevel(Record):
    __slots__ = ("n", "k", "e0_ev", "shift_ev", "degeneracy")


def corrected_spectrum(
    n_max: int, l_gevinv: float = 0.0, kappa_gev2: float = 1.0, literal_e2: bool = False
) -> tuple[EnergyLevel, ...]:
    """Levels n = 1..n_max; exact rational energies (eV).  shift/E0 == l^2*kappa.

    ``literal_e2`` puts the literal charge squared, alpha, in the numerator
    in place of alpha^2.
    """
    require_finite(l_gevinv, "minimal length l")
    require_finite(kappa_gev2, "correction strength kappa")
    if l_gevinv < 0:
        raise ValueError("minimal length must be non-negative")
    if kappa_gev2 <= 0:
        raise ValueError("correction strength kappa must be positive")
    if not 1 <= n_max <= MAX_N_MAX:
        raise ValueError(f"n_max must lie in 1..{MAX_N_MAX}, got {n_max}")
    numerator = MU_GEV * (ALPHA if literal_e2 else ALPHA ** 2) * EV_PER_GEV
    ratio = Fraction(l_gevinv) ** 2 * Fraction(kappa_gev2)
    inputs = f"l = {float(l_gevinv):g}, kappa = {float(kappa_gev2):g}"
    levels = []
    for n in range(1, n_max + 1):
        k = Fraction(n - 1, 2)
        e0_ev = -numerator / denominator_eigenvalue(k)  # 2(2k+1)^2 == 2n^2
        shift_ev = e0_ev * ratio
        # The level table prints floats, so a shift beyond their range is
        # refused here; one too small for them prints as 0.
        if abs(shift_ev) >= 1:
            as_float(shift_ev, f"shift of level n={n} for {inputs}")
        # Positional: a table of up to MAX_N_MAX levels skips the keyword matching.
        levels.append(EnergyLevel(n, k, e0_ev, shift_ev, n * n))
    return tuple(levels)


def born_infeld_length(a_m_per_s2: float, constants: str = PAPER_APPROX) -> Fraction:
    """Minimal length 1/A_m for a maximal acceleration, i.e. c^2/A_m, in cm."""
    if a_m_per_s2 <= 0:
        raise ValueError("acceleration must be positive")
    table = unit_table(constants)
    a_gev = Fraction(a_m_per_s2) * table["m"][1] / table["sec"][1] ** 2
    return convert(1 / a_gev, "GeV^-1", "cm", constants)


def length_bound(
    delta_e_ev: float, e_ref_ev: float, kappa_gev2: float = 1.0, constants: str = PAPER_APPROX
) -> dict:
    """Invert dE = |E_ref| * l^2 * kappa into an upper bound on l: the
    ``bound/v1`` record, without its schema tag."""
    require_finite(delta_e_ev, "observed splitting")
    require_finite(e_ref_ev, "reference energy")
    require_finite(kappa_gev2, "kappa")
    if delta_e_ev <= 0:
        raise ValueError("observed splitting must be positive")
    if e_ref_ev == 0:
        raise ValueError("reference energy must be nonzero")
    if kappa_gev2 <= 0:
        raise ValueError("kappa must be positive")
    l_squared = Fraction(delta_e_ev) / (abs(Fraction(e_ref_ev)) * Fraction(kappa_gev2))
    l_gevinv = math.sqrt(as_float(l_squared, "l^2 = delta_E/(|E_ref|*kappa)"))
    return {
        "l_max_GeVinv": l_gevinv,
        "l_max_fm": float(convert(l_gevinv, "GeV^-1", "fm", constants)),
        "l_max_cm": float(convert(l_gevinv, "GeV^-1", "cm", constants)),
        "l_squared_GeVinv2": float(l_squared),
        "delta_e_eV": delta_e_ev,
        "e_ref_eV": e_ref_ev,
        "kappa_GeV2": kappa_gev2,
        "born_infeld_computed_cm": float(born_infeld_length(BORN_INFELD_ACCELERATION, constants)),
        "born_infeld_quoted_cm": BORN_INFELD_QUOTED_CM,
        "constants": constants,
    }

