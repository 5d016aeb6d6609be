import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import oracle_multiply, oracle_poly
from pcqm import so4
from pcqm.operators import commutator, multiply, poly_sum, render_word
from pcqm.scalars import PC_ZERO, pc_imag, pc_l, pc_rational, render_pc

PAIRS = tuple(itertools.combinations((1, 2, 3, 4), 2))
DATA = Path(__file__).parent / "data"


def test_branch_generator_example():
    body = so4.branch_generator(1, 2, "+")
    expected = multiply(
        so4.generator_poly("X", "+", 1), so4.generator_poly("P", "+", 2)
    ) - multiply(so4.generator_poly("X", "+", 2), so4.generator_poly("P", "+", 1))
    assert body == expected
    assert {g.branch for word in body.words() for g in word} == {"+"}


def test_antisymmetry():
    for i, j in PAIRS:
        assert (so4.pc_generator_poly(i, j) + so4.pc_generator_poly(j, i)).is_zero()
        assert (so4.branch_generator(i, j, "-") + so4.branch_generator(j, i, "-")).is_zero()
    assert so4.pc_generator_poly(2, 2).is_zero()


def test_real_part_decomposition_example():
    real, x, y = (so4.component(1, 2, c) for c in ("R", "x", "y"))
    assert (real - (x + y.scale(pc_l(2)))).is_zero()


def test_so4_relations_report():
    report = so4.verify_so4_relations()
    assert report.all_passed
    assert report.count("pc-level") == 36
    assert report.count("branch+") == 36
    assert report.count("branch-") == 36
    assert report.count("cross-branch") == 36


def test_specific_commutators():
    # [L_12, L_23] = i L_31; disjoint pairs commute; cross-branch vanishes
    lhs = commutator(so4.pc_generator_poly(1, 2), so4.pc_generator_poly(2, 3))
    assert lhs == so4.pc_generator_poly(3, 1).scale(pc_imag())
    assert commutator(so4.pc_generator_poly(1, 2), so4.pc_generator_poly(3, 4)).is_zero()
    assert commutator(
        so4.branch_generator(1, 2, "+"), so4.branch_generator(2, 3, "-")
    ).is_zero()


def test_recomposition_report():
    report = so4.verify_recomposition()
    assert report.all_passed
    assert report.count("branch-components") == 12
    assert report.count("real-part") == 6
    assert report.count("pseudo-part") == 6
    assert report.count("pc-recombination") == 6
    assert report.count("zero-divisor-recombination") == 6


def test_component_closure_report():
    report = so4.verify_component_closure()
    assert report.all_passed
    assert report.count() == 180
    half_i = pc_imag(Fraction(1, 2))
    half_i_over_l2 = half_i * pc_l(-2)
    allowed = {
        "[R,R]": {render_pc(half_i), render_pc(-half_i)},
        "[R,I]": {render_pc(half_i), render_pc(-half_i)},
        "[I,I]": {render_pc(half_i), render_pc(-half_i)},
        "[x,x]": {render_pc(half_i), render_pc(-half_i)},
        "[y,y]": {render_pc(half_i_over_l2), render_pc(-half_i_over_l2)},
    }
    for check in report.checks:
        for coeff in check.extra["expansion"].values():
            assert coeff in allowed[check.family], (check.family, coeff)


def test_closure_examples():
    half_i = pc_imag(Fraction(1, 2))
    # [LR_12, LR_23] = (i/2) LR_31 and [LI_12, LI_23] = (i/2) LR_31
    target = so4.component(1, 3, "R").scale(-half_i)
    assert commutator(so4.component(1, 2, "R"), so4.component(2, 3, "R")) == target
    assert commutator(so4.component(1, 2, "I"), so4.component(2, 3, "I")) == target
    # [R, I] lands in the I span with the same half-strength pattern
    assert commutator(so4.component(1, 2, "R"), so4.component(2, 3, "I")) == so4.component(
        1, 3, "I"
    ).scale(-half_i)
    assert commutator(so4.component(1, 2, "R"), so4.component(3, 4, "I")).is_zero()


def test_closure_matches_half_strength_pattern_everywhere():
    for family, left, right, out in (
        ("RR", "R", "R", "R"),
        ("RI", "R", "I", "I"),
        ("II", "I", "I", "R"),
    ):
        for (i, j), (k, q) in itertools.product(PAIRS, PAIRS):
            bracket = commutator(so4.component(i, j, left), so4.component(k, q, right))
            expected = so4._so4_rhs(
                lambda a, b, _c=out: so4.component(a, b, _c), i, j, k, q
            ).scale(pc_rational(Fraction(1, 2)))
            assert bracket == expected, (family, i, j, k, q)


def test_express_in_span_reports_outside_residual():
    basis = {f"R_{i}{j}": so4.component(i, j, "R") for i, j in PAIRS}
    stray = so4.component(1, 2, "I").scale(pc_l(1))
    coeffs, residual = so4.express_in_span(so4.component(1, 2, "R") + stray, so4.span_pivots(basis))
    assert not residual.is_zero()


def test_casimir_central():
    report = so4.verify_casimir_commutes()
    assert report.all_passed
    assert report.count() == 6


def test_casimir_expansion_slices():
    exp = so4.casimir_expansion()
    assert exp.decomposition_residual.is_zero()
    assert exp.ordering_residual.is_zero()
    assert not exp.order4_residual.is_zero()
    assert exp.difference == exp.order4_residual.scale(pc_l(4))
    report = so4.verify_casimir_expansion()
    assert report.all_passed
    assert report.count("casimir-expansion") == 4


def test_casimir_order4_residual_matches_golden():
    exp = so4.casimir_expansion()
    lines = [
        f"{render_word(word)} :: {render_pc(coeff)}"
        for word, coeff in sorted(
            exp.order4_residual.terms().items(), key=lambda t: (-len(t[0]), t[0])
        )
    ]
    golden = (DATA / "casimir_order4_residual.txt").read_text().splitlines()
    assert lines == golden


def test_casimir_order4_residual_matches_oracle():
    # (1/2) sum_a (Ly_a^2 + My_a^2) recomputed with the test-local engine
    ops_y = so4.vector_operators("y")
    total: dict = {}
    for op in ops_y.l_vec + ops_y.m_vec:
        for w, c in oracle_multiply(oracle_poly(op), oracle_poly(op)).items():
            prev = total.get(w, PC_ZERO)
            total[w] = prev + c
    half = pc_rational(Fraction(1, 2))
    total = {w: c * half for w, c in total.items() if not (c * half).is_zero()}
    assert total == so4.casimir_expansion().order4_residual.terms()


def test_vector_operator_squares_are_symmetric_under_label_order():
    ops = so4.vector_operators("R")
    recomputed = poly_sum([multiply(op, op) for op in reversed(ops.l_vec + ops.m_vec)])
    assert recomputed * Fraction(1, 2) == ops.casimir


def test_component_validation():
    with pytest.raises(ValueError):
        so4.component(1, 2, "q")
    with pytest.raises(ValueError):
        so4.component(0, 2, "R")
