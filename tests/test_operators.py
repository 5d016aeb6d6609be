import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    assert_oracle_equal,
    oracle_multiply,
    oracle_normal_order,
    oracle_poly,
    random_poly,
)
from pcqm.limits import limits
from pcqm.operators import (
    INDICES,
    NcPolynomial,
    WordLengthError,
    commutator,
    expand_alias,
    gen,
    generator_poly,
    multiply,
    normal_form,
    pc_coordinate,
    pc_momentum,
    verify_canonical_relations,
    verify_induced_relations,
)
from pcqm.scalars import (
    DegreeWindowError,
    PC_ONE,
    PSEUDO_UNIT,
    pc_imag,
    pc_l,
    pc_rational,
)

SEED = 20260810

XP1 = gen("X", "+", 1)
XP2 = gen("X", "+", 2)
PP1 = gen("P", "+", 1)
XM1 = gen("X", "-", 1)
PM1 = gen("P", "-", 1)


def test_generator_order():
    assert XP1.sort_key < PP1.sort_key < XM1.sort_key < PM1.sort_key
    assert XP1.sort_key < XP2.sort_key


def test_normal_form_single_swap():
    # P+_1 X+_1 -> X+_1 P+_1 - i
    raw = NcPolynomial.from_word((PP1, XP1))
    expected = {(XP1, PP1): PC_ONE, (): pc_imag(-1)}
    assert normal_form(raw).terms() == expected


def test_normal_form_leaves_sorted_words_alone():
    raw = NcPolynomial.from_word((XP1, XP2))
    assert normal_form(raw) == raw


def test_normal_form_double_coordinate():
    # P+_1 X+_1 X+_1 -> X+_1 X+_1 P+_1 - 2i X+_1
    raw = NcPolynomial.from_word((PP1, XP1, XP1))
    result = normal_form(raw)
    expected = {(XP1, XP1, PP1): PC_ONE, (XP1,): pc_imag(-2)}
    assert result.terms() == expected
    assert_oracle_equal(result, oracle_normal_order({(PP1, XP1, XP1): PC_ONE}))


def test_normal_form_matches_oracle_on_random_input():
    rng = random.Random(SEED)
    for _ in range(150):
        raw = random_poly(rng, max_terms=3, max_len=5, normalized=False)
        assert_oracle_equal(normal_form(raw), oracle_normal_order(raw.terms()))


def test_confluence_under_random_reduction_orders():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        raw = random_poly(rng, max_terms=3, max_len=5, normalized=False)
        reference = normal_form(raw)
        for trial in range(3):
            picker = random.Random(SEED + trial)
            assert normal_form(raw, pick=picker.choice) == reference


def test_multiply_identity_and_plain_word():
    one = NcPolynomial.scalar(PC_ONE)
    rng = random.Random(SEED + 2)
    p = random_poly(rng, max_terms=4, max_len=3)
    assert multiply(one, p) == p
    assert multiply(p, one) == p
    prod = multiply(generator_poly("X", "+", 1), generator_poly("P", "+", 1))
    assert prod.terms() == {(XP1, PP1): PC_ONE}


def test_multiply_distributes_over_branch_sums():
    # (X+_1 + X-_1)(P+_1 - P-_1) expands to all four signed words
    lhs = multiply(
        generator_poly("X", "+", 1) + generator_poly("X", "-", 1),
        generator_poly("P", "+", 1) - generator_poly("P", "-", 1),
    )
    expected = normal_form(
        NcPolynomial.from_word((XP1, PP1))
        - NcPolynomial.from_word((XP1, PM1))
        + NcPolynomial.from_word((XM1, PP1))
        - NcPolynomial.from_word((XM1, PM1))
    )
    assert lhs == expected
    # cross-branch words sort with the whole + block first
    assert lhs.coefficient((PP1, XM1)) == PC_ONE


def test_multiply_matches_oracle_and_is_associative():
    rng = random.Random(SEED + 3)
    for _ in range(60):
        p = random_poly(rng, max_terms=2, max_len=2)
        q = random_poly(rng, max_terms=2, max_len=2)
        r = random_poly(rng, max_terms=2, max_len=2)
        assert_oracle_equal(multiply(p, q), oracle_multiply(oracle_poly(p), oracle_poly(q)))
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))


def test_commutator_canonical_examples():
    assert commutator(generator_poly("X", "+", 1), generator_poly("P", "+", 1)) == (
        NcPolynomial.scalar(pc_imag())
    )
    assert commutator(generator_poly("X", "+", 1), generator_poly("P", "-", 1)).is_zero()


def test_commutator_antisymmetry_and_jacobi():
    rng = random.Random(SEED + 4)
    for _ in range(25):
        a = random_poly(rng, max_terms=2, max_len=2)
        b = random_poly(rng, max_terms=2, max_len=2)
        c = random_poly(rng, max_terms=2, max_len=2)
        assert commutator(a, b) == -commutator(b, a)
        jacobi = (
            commutator(commutator(a, b), c)
            + commutator(commutator(b, c), a)
            + commutator(commutator(c, a), b)
        )
        assert jacobi.is_zero()


def test_branch_factorization():
    rng = random.Random(SEED + 5)
    for _ in range(40):
        plus = random_poly(rng, max_terms=3, max_len=3, branch="+")
        minus = random_poly(rng, max_terms=3, max_len=3, branch="-")
        assert commutator(plus, minus).is_zero()


def test_alias_definitions():
    half = pc_rational(Fraction(1, 2))
    assert expand_alias("x", 1) == (
        generator_poly("X", "+", 1) + generator_poly("X", "-", 1)
    ).scale(half)
    assert expand_alias("y", 1) == (
        generator_poly("X", "+", 1) - generator_poly("X", "-", 1)
    ).scale(pc_l(-1, Fraction(1, 2)))


def test_alias_errors():
    with pytest.raises(ValueError):
        expand_alias("z", 1)
    with pytest.raises(ValueError):
        expand_alias("x", 5)


def test_alias_recombination():
    # x_i + I l y_i == X_i and px_i + I l py_i == P_i
    l_pseudo = pc_l(1) * PSEUDO_UNIT
    for i in INDICES:
        assert expand_alias("x", i) + expand_alias("y", i).scale(l_pseudo) == pc_coordinate(i)
        assert expand_alias("px", i) + expand_alias("py", i).scale(l_pseudo) == pc_momentum(i)


def test_alias_commutators():
    half_i = NcPolynomial.scalar(pc_imag(Fraction(1, 2)))
    half_i_over_l2 = NcPolynomial.scalar(pc_imag(Fraction(1, 2)) * pc_l(-2))
    for i, j in itertools.product(INDICES, INDICES):
        delta = i == j
        c = commutator(expand_alias("x", i), expand_alias("px", j))
        assert c == half_i if delta else c.is_zero()
        c = commutator(expand_alias("y", i), expand_alias("py", j))
        assert c == half_i_over_l2 if delta else c.is_zero()
        assert commutator(expand_alias("x", i), expand_alias("py", j)).is_zero()
        assert commutator(expand_alias("y", i), expand_alias("px", j)).is_zero()


def test_pc_quantization():
    for i, j in itertools.product(INDICES, INDICES):
        expected = NcPolynomial.scalar(pc_imag(1 if i == j else 0))
        assert commutator(pc_coordinate(i), pc_momentum(j)) == expected


def test_verify_canonical_relations():
    report = verify_canonical_relations()
    assert report.all_passed
    assert report.count("same-branch") == 32
    assert report.count("cross-branch") == 32


def test_verify_induced_relations():
    report = verify_induced_relations()
    assert report.all_passed
    assert report.count() == 96
    families = {c.family for c in report.checks}
    assert len(families) == 6


def test_word_cap_enforced():
    with limits(word_cap=3):
        p = NcPolynomial.from_word((XP1, XP1))
        with pytest.raises(WordLengthError):
            multiply(p, p)
        with pytest.raises(WordLengthError):
            NcPolynomial.from_word((XP1,) * 4)
        assert multiply(p, generator_poly("P", "+", 1)) is not None


def test_degree_overflow_propagates_through_multiply():
    p = NcPolynomial.from_word((XP1,), pc_l(3))
    with pytest.raises(DegreeWindowError):
        multiply(p, NcPolynomial.from_word((PP1,), pc_l(3)))


def test_power_and_scalar_arithmetic():
    p = generator_poly("X", "+", 1)
    assert p ** 0 == NcPolynomial.scalar(PC_ONE)
    assert p ** 2 == multiply(p, p)
    assert (p * 3) / 3 == p
    assert 2 * p == p + p


def test_render_word_order_longest_first():
    p = multiply(generator_poly("P", "+", 1), generator_poly("X", "+", 1))
    assert p.render() == "X+_1*P+_1 - i"


def test_residual_check_fails_on_nonzero_residual():
    from pcqm.reports import Check

    p = multiply(generator_poly("P", "+", 1), generator_poly("X", "+", 1))
    failing = Check.of("family", "label", p, {"note": 1})
    assert (failing.residual, failing.passed) == ("X+_1*P+_1 - i", False)
    assert failing.to_dict()["note"] == 1
    passing = Check.of("family", "label", p - p)
    assert (passing.residual, passing.passed) == ("0", True)
