"""End-to-end acceptance battery.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s``).  Tolerances are pinned here and nowhere else.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import assert_oracle_equal, oracle_normal_order, random_pc_scalar, random_poly, random_terms
from pcqm import so4
from pcqm.expr import parse, render
from pcqm.hydrogen import born_infeld_length, corrected_spectrum, length_bound
from pcqm.irrep import build_irrep, casimir_eigenvalue, denominator_eigenvalue
from pcqm.operators import (
    NcPolynomial,
    commutator,
    render_word,
    verify_canonical_relations,
    verify_induced_relations,
)
from pcqm.scalars import PC_ONE, SIGMA_MINUS, SIGMA_PLUS, pc_l, render_pc
from pcqm.units import PAPER_APPROX, PRECISE, UNITS, convert, unit_table

SEED = 20260810
DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_symbolic_canon():
    with criterion(1, "symbolic canon, literal-zero residuals, < 10 s"):
        start = time.monotonic()
        canonical = verify_canonical_relations()
        induced = verify_induced_relations()
        so4_report = so4.verify_so4_relations()
        recomposition = so4.verify_recomposition()
        elapsed = time.monotonic() - start

        assert canonical.all_passed and canonical.count("same-branch") == 32
        assert canonical.count("cross-branch") == 32
        assert induced.all_passed and induced.count() == 6 * 16
        assert so4_report.all_passed
        assert so4_report.count("pc-level") == 36
        assert so4_report.count("branch+") == so4_report.count("branch-") == 36
        assert so4_report.count("cross-branch") == 36
        assert recomposition.all_passed
        for report in (canonical, induced, so4_report, recomposition):
            assert all(c.residual == "0" for c in report.checks)
        assert elapsed < 10.0, f"symbolic battery took {elapsed:.1f}s"


def test_criterion_2_expansion_order():
    with criterion(2, "expansion order: no l^0/l^2 terms, golden l^4 residual"):
        expansion = so4.casimir_expansion()
        assert expansion.decomposition_residual.is_zero()
        assert expansion.ordering_residual.is_zero()
        assert expansion.difference == expansion.order4_residual.scale(pc_l(4))
        assert not expansion.order4_residual.is_zero()
        lines = [
            f"{render_word(w)} :: {render_pc(c)}"
            for w, c in sorted(
                expansion.order4_residual.terms().items(),
                key=lambda t: (-len(t[0]), t[0]),
            )
        ]
        golden = (DATA / "casimir_order4_residual.txt").read_text().splitlines()
        assert lines == golden


def test_criterion_3_casimir_sweep():
    with criterion(3, "Casimir sweep k = 0 .. 5"):
        k = Fraction(0)
        while k <= 5:
            rep = build_irrep(k)
            value = casimir_eigenvalue(rep)
            assert abs(value - float(2 * k * (k + 1))) < 1e-12
            assert denominator_eigenvalue(k) == 2 * (2 * k + 1) ** 2
            k += Fraction(1, 2)


def test_criterion_4_bound_reproduction():
    with criterion(4, "length bound from the observed splitting"):
        bound = length_bound(4e-9, 13.0, 1.0, PAPER_APPROX)
        assert bound["l_squared_GeVinv2"] == pytest.approx(3e-10, rel=0.05)
        assert bound["l_max_GeVinv"] == pytest.approx(1.7e-5, rel=0.05)
        assert bound["l_max_cm"] == pytest.approx(3.5e-19, rel=0.05)


def test_criterion_5_spectrum_sanity():
    with criterion(5, "spectrum sanity and self-consistency loop"):
        levels = corrected_spectrum(5)
        assert float(levels[0].e0_ev) == pytest.approx(-13.606, rel=1e-3)
        for level in levels:
            assert level.e0_ev / levels[0].e0_ev == Fraction(1, level.n ** 2)
            assert level.shift_ev == 0
        (shifted,) = corrected_spectrum(1, l_gevinv=3e-10 ** 0.5)
        assert float(-shifted.shift_ev) == pytest.approx(4e-9, rel=0.05)


def test_criterion_6_units():
    with criterion(6, "unit conversions verbatim and round-tripping"):
        assert convert(1, "fm", "GeV^-1", PAPER_APPROX) == 5
        assert convert(1, "sec", "m", PAPER_APPROX) == 3 * 10 ** 8
        assert convert(1, "kg", "GeV", PAPER_APPROX) == 6 * 10 ** 26
        for constants in (PAPER_APPROX, PRECISE):
            table = unit_table(constants)
            pairs = [(a, b) for a, b in itertools.product(UNITS, UNITS) if table[a][0] == table[b][0]]
            assert len(pairs) == 43
            value = Fraction("3.5e-19")
            for a, b in pairs:
                assert convert(convert(value, a, b, constants), b, a, constants) == value


def _random_ast(rng: random.Random, depth: int):
    from test_expr import _random_ast as builder

    return builder(rng, depth)


def test_criterion_7_property_suites():
    with criterion(7, "randomized property suites, fixed seed"):
        rng = random.Random(SEED)

        # scalar ring axioms and the zero-divisor basis
        for _ in range(60):
            a, b, c = (random_pc_scalar(rng) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert ((a * b)._plus, (a * b)._minus) == (a._plus * b._plus, a._minus * b._minus)
        assert (SIGMA_PLUS * SIGMA_MINUS).is_zero()
        assert SIGMA_PLUS * SIGMA_PLUS == SIGMA_PLUS
        assert SIGMA_MINUS * SIGMA_MINUS == SIGMA_MINUS
        assert SIGMA_PLUS + SIGMA_MINUS == PC_ONE
        assert pc_l(1) * pc_l(-1) == PC_ONE

        # the engine against the oracle under randomized reduction orders
        for _ in range(30):
            raw = random_terms(rng, max_terms=3, max_len=5)
            reference = NcPolynomial(raw)
            picker = random.Random(rng.randrange(10 ** 9))
            assert_oracle_equal(reference, oracle_normal_order(raw, pick=picker.choice))

        # Jacobi identity on low-degree polynomials
        for _ in range(15):
            a = random_poly(rng, max_terms=2, max_len=2)
            b = random_poly(rng, max_terms=2, max_len=2)
            c = random_poly(rng, max_terms=2, max_len=2)
            jacobi = (
                commutator(commutator(a, b), c)
                + commutator(commutator(b, c), a)
                + commutator(commutator(c, a), b)
            )
            assert jacobi.is_zero()

        # closure spans with the half-strength constant pattern
        half = Fraction(1, 2)
        pairs = tuple(itertools.combinations((1, 2, 3, 4), 2))
        for left, right, out in (("R", "R", "R"), ("R", "I", "I"), ("I", "I", "R")):
            for _ in range(12):
                (i, j), (k, q) = rng.choice(pairs), rng.choice(pairs)
                bracket = commutator(so4.component(i, j, left), so4.component(k, q, right))
                expected = so4._so4_rhs(
                    lambda a, b, _c=out: so4.component(a, b, _c), i, j, k, q
                ).scale(half)
                assert bracket == expected

        # parse/render fixed point
        for _ in range(120):
            ast = _random_ast(rng, rng.randint(0, 3))
            assert parse(render(ast)) == ast


def test_criterion_8_excluded_figures_are_reported_not_asserted():
    with criterion(8, "Born-Infeld figure reported alongside computed value"):
        computed = born_infeld_length(1e22, PAPER_APPROX)
        assert float(computed) == pytest.approx(9e-4, rel=1e-12)
        bound = length_bound(4e-9, 13.0, 1.0)
        assert bound["born_infeld_computed_cm"] == pytest.approx(9e-4, rel=1e-12)
        assert bound["born_infeld_quoted_cm"] == 1e-7
