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
from dataclasses import dataclass
from fractions import Fraction

from .irrep import denominator_eigenvalue
from .units import ConstantSet, Quantity, convert, quantity, unit_factor

EV_PER_GEV = Fraction(10 ** 9)

# Reference maximal acceleration (m/s^2) and the length usually quoted for it.
BORN_INFELD_ACCELERATION = 1e22
BORN_INFELD_QUOTED_CM = 1e-7

NUMERATOR_BOHR = "bohr"
NUMERATOR_LITERAL_E2 = "literal-e2"


@dataclass(frozen=True)
class PhysicalConstants:
    mu_gev: Fraction = Fraction("0.51099895e-3")
    alpha: Fraction = 1 / Fraction("137.035999")

    def __post_init__(self):
        if self.mu_gev <= 0:
            raise ValueError("reduced mass must be positive")
        if not (0 < self.alpha < 1):
            raise ValueError("fine-structure constant must lie in (0, 1)")


# Largest level table accepted: 10,000 levels take about 1 s as a process.
MAX_N_MAX = 10_000


@dataclass(frozen=True)
class SpectrumConfig:
    constants: PhysicalConstants
    l_gevinv: float = 0.0
    kappa_gev2: float = 1.0
    n_max: int = 10
    numerator: str = NUMERATOR_BOHR

    def __post_init__(self):
        if self.l_gevinv < 0:
            raise ValueError("minimal length must be non-negative")
        if self.kappa_gev2 <= 0:
            raise ValueError("correction strength kappa must be positive")
        if not 1 <= self.n_max <= MAX_N_MAX:
            raise ValueError(f"n_max must lie in 1..{MAX_N_MAX}, got {self.n_max}")
        if self.numerator not in (NUMERATOR_BOHR, NUMERATOR_LITERAL_E2):
            raise ValueError(f"unknown numerator mode {self.numerator!r}")


@dataclass(frozen=True)
class EnergyLevel:
    n: int
    k: Fraction
    e0_ev: Fraction
    shift_ev: Fraction
    degeneracy: int


def energy_level(cfg: SpectrumConfig, n: int, kappa_gev2: float | None = None) -> EnergyLevel:
    """One level; exact rational energies (eV).  shift/E0 == l^2*kappa."""
    if not 1 <= n <= cfg.n_max:
        raise ValueError(f"n must lie in 1..{cfg.n_max}, got {n}")
    k = Fraction(n - 1, 2)
    denominator = denominator_eigenvalue(k)  # 2(2k+1)^2 == 2n^2
    coupling = cfg.constants.alpha if cfg.numerator == NUMERATOR_LITERAL_E2 else cfg.constants.alpha ** 2
    e0_ev = -cfg.constants.mu_gev * coupling * EV_PER_GEV / denominator
    kappa = Fraction(cfg.kappa_gev2 if kappa_gev2 is None else kappa_gev2)
    shift_ev = e0_ev * Fraction(cfg.l_gevinv) ** 2 * kappa
    return EnergyLevel(n=n, k=k, e0_ev=e0_ev, shift_ev=shift_ev, degeneracy=n * n)


def corrected_spectrum(cfg: SpectrumConfig) -> tuple[EnergyLevel, ...]:
    return tuple(energy_level(cfg, n) for n in range(1, cfg.n_max + 1))


@dataclass(frozen=True)
class BoundResult:
    l_max_gevinv: float
    l_max_fm: float
    l_max_cm: float
    l_squared_gevinv2: Fraction
    delta_e_ev: float
    e_ref_ev: float
    kappa_gev2: float
    born_infeld_computed_cm: float
    born_infeld_quoted_cm: float
    constants_mode: str


def born_infeld_length(a_m_per_s2: float, constants: ConstantSet | None = None) -> Quantity:
    """Minimal length 1/A_m for a maximal acceleration, i.e. c^2/A_m, in cm."""
    if a_m_per_s2 <= 0:
        raise ValueError("acceleration must be positive")
    constants = constants or ConstantSet.paper_approx()
    a_gev = Fraction(a_m_per_s2) * unit_factor("m", constants) / unit_factor("sec", constants) ** 2
    l_gevinv = Quantity(magnitude=1 / a_gev, exponent=-1, unit="GeV^-1")
    return convert(l_gevinv, "cm", constants)


def length_bound(
    delta_e_ev: float,
    e_ref_ev: float,
    kappa_gev2: float = 1.0,
    constants: ConstantSet | None = None,
) -> BoundResult:
    """Invert dE = |E_ref| * l^2 * kappa into an upper bound on l."""
    if delta_e_ev <= 0:
        raise ValueError("observed splitting must be positive")
    if e_ref_ev == 0:
        raise ValueError("reference energy must be nonzero")
    if kappa_gev2 <= 0:
        raise ValueError("kappa must be positive")
    constants = constants or ConstantSet.paper_approx()
    l_squared = Fraction(delta_e_ev) / (abs(Fraction(e_ref_ev)) * Fraction(kappa_gev2))
    l_gevinv = quantity(math.sqrt(l_squared), "GeV^-1")
    return BoundResult(
        l_max_gevinv=float(l_gevinv),
        l_max_fm=float(convert(l_gevinv, "fm", constants)),
        l_max_cm=float(convert(l_gevinv, "cm", constants)),
        l_squared_gevinv2=l_squared,
        delta_e_ev=delta_e_ev,
        e_ref_ev=e_ref_ev,
        kappa_gev2=kappa_gev2,
        born_infeld_computed_cm=float(born_infeld_length(BORN_INFELD_ACCELERATION, constants)),
        born_infeld_quoted_cm=BORN_INFELD_QUOTED_CM,
        constants_mode=constants.mode,
    )


def spectrum_rows(levels: tuple[EnergyLevel, ...]) -> list[dict]:
    return [
        {
            "n": lv.n,
            "k": str(lv.k),
            "degeneracy": lv.degeneracy,
            "E0_eV": float(lv.e0_ev),
            "shift_eV": float(lv.shift_ev),
        }
        for lv in levels
    ]


def spectrum_text(levels: tuple[EnergyLevel, ...]) -> str:
    header = f"{'n':>3} {'k':>5} {'degeneracy':>11} {'E0_eV':>14} {'shift_eV':>14}"
    lines = [header]
    for lv in levels:
        lines.append(
            f"{lv.n:>3} {str(lv.k):>5} {lv.degeneracy:>11} "
            f"{float(lv.e0_ev):>14.6g} {float(lv.shift_ev):>14.6g}"
        )
    return "\n".join(lines)


def bound_dict(b: BoundResult) -> dict:
    return {
        "schema": "bound/v1",
        "l_max_GeVinv": b.l_max_gevinv,
        "l_max_fm": b.l_max_fm,
        "l_max_cm": b.l_max_cm,
        "l_squared_GeVinv2": float(b.l_squared_gevinv2),
        "delta_e_eV": b.delta_e_ev,
        "e_ref_eV": b.e_ref_ev,
        "kappa_GeV2": b.kappa_gev2,
        "born_infeld_computed_cm": b.born_infeld_computed_cm,
        "born_infeld_quoted_cm": b.born_infeld_quoted_cm,
        "constants": b.constants_mode,
    }


def bound_text(b: BoundResult) -> str:
    return "\n".join(
        [
            f"inputs: delta_E = {b.delta_e_ev:g} eV, E_ref = {b.e_ref_ev:g} eV, "
            f"kappa = {b.kappa_gev2:g} GeV^2  [{b.constants_mode}]",
            f"l^2   <= {float(b.l_squared_gevinv2):.6g} GeV^-2",
            f"l_max <= {b.l_max_gevinv:.6g} GeV^-1 = {b.l_max_fm:.6g} fm = {b.l_max_cm:.6g} cm",
            f"Born-Infeld comparison: computed {b.born_infeld_computed_cm:.6g} cm "
            f"(quoted {b.born_infeld_quoted_cm:g} cm) for A_m = {BORN_INFELD_ACCELERATION:g} m/sec^2",
        ]
    )
