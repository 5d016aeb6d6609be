import random
from fractions import Fraction

import pytest
import sympy

from helpers import random_pc_scalar, random_rational
from pcqm.scalars import (
    BaseScalar,
    DegreeWindowError,
    GaussianRational,
    PC_I,
    PC_ONE,
    PC_ZERO,
    PSEUDO_UNIT,
    PcScalar,
    SIGMA_MINUS,
    SIGMA_PLUS,
    pc_gaussian,
    pc_imag,
    pc_l,
    pc_pseudo,
    pc_rational,
    render_pc,
    set_degree_window,
)

SEED = 20260810


def test_pseudo_unit_squares_to_one():
    assert PSEUDO_UNIT * PSEUDO_UNIT == PC_ONE


def test_one_plus_pseudo_times_one_minus_pseudo_vanishes():
    assert ((PC_ONE + PSEUDO_UNIT) * (PC_ONE - PSEUDO_UNIT)).is_zero()


def test_imag_unit_squares_to_minus_one():
    assert PC_I * PC_I == pc_rational(-1)


def test_sigma_idempotents_and_annihilation():
    assert (SIGMA_PLUS * SIGMA_MINUS).is_zero()
    assert SIGMA_PLUS * SIGMA_PLUS == SIGMA_PLUS
    assert SIGMA_MINUS * SIGMA_MINUS == SIGMA_MINUS
    assert SIGMA_PLUS + SIGMA_MINUS == PC_ONE


def test_zero_divisor_of_one_and_pseudo_unit():
    one = PC_ONE.to_zero_divisor()
    assert one.plus == BaseScalar.rational(1) and one.minus == BaseScalar.rational(1)
    pseudo = PSEUDO_UNIT.to_zero_divisor()
    assert pseudo.plus == BaseScalar.rational(1)
    assert pseudo.minus == BaseScalar.rational(-1)


def test_zero_divisor_by_substitution():
    # a + I*b with a=3, b=2 -> (a+b, a-b) = (5, 1)
    x = pc_rational(3) + pc_pseudo(2)
    pair = x.to_zero_divisor()
    assert pair.plus == BaseScalar.rational(5)
    assert pair.minus == BaseScalar.rational(1)
    assert PcScalar.from_zero_divisor(pair) == x


def test_zero_divisor_roundtrip_random():
    rng = random.Random(SEED)
    for _ in range(200):
        x = random_pc_scalar(rng)
        assert PcScalar.from_zero_divisor(x.to_zero_divisor()) == x


def test_multiplication_is_componentwise_in_pair_basis():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        x, y = random_pc_scalar(rng), random_pc_scalar(rng)
        assert (x * y).to_zero_divisor() == x.to_zero_divisor() * y.to_zero_divisor()


def test_zero_divisor_flag():
    assert SIGMA_PLUS.to_zero_divisor().is_zero_divisor()
    assert not PC_ONE.to_zero_divisor().is_zero_divisor()
    assert not PC_ZERO.to_zero_divisor().is_zero_divisor()


def test_conjugate_examples():
    assert (pc_rational(1) + pc_pseudo(1)).conjugate() == pc_rational(1) - pc_pseudo(1)
    assert SIGMA_PLUS.conjugate() == SIGMA_MINUS
    # (2+I)(2-I) = 4 - I^2 = 3
    x = pc_rational(2) + PSEUDO_UNIT
    assert x * x.conjugate() == pc_rational(3)


def test_conjugate_is_involution_and_kills_pseudo_part():
    rng = random.Random(SEED + 2)
    for _ in range(100):
        x = random_pc_scalar(rng)
        assert x.conjugate().conjugate() == x
        assert (x * x.conjugate()).im.is_zero()


def test_ring_axioms_random():
    rng = random.Random(SEED + 3)
    for _ in range(100):
        a, b, c = (random_pc_scalar(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


def test_laurent_inverse():
    assert pc_l(1) * pc_l(-1) == PC_ONE


def test_degree_window_overflow():
    with pytest.raises(DegreeWindowError):
        pc_l(3) * pc_l(2)
    with pytest.raises(DegreeWindowError):
        pc_l(5)


def test_degree_window_configurable():
    set_degree_window(-8, 8)
    assert pc_l(3) * pc_l(2) == pc_l(5)


def test_zero_has_no_stored_coefficients():
    x = pc_gaussian(2, 3) + pc_l(2)
    assert (x - x).re.terms() == ()
    assert (x - x).is_zero()


def test_unit_reciprocal():
    half = pc_rational(Fraction(1, 2))
    assert half.reciprocal() == pc_rational(2)
    assert SIGMA_PLUS.to_zero_divisor().plus.is_unit()
    with pytest.raises(ZeroDivisionError):
        SIGMA_PLUS.reciprocal()  # zero minus-component is not invertible
    x = pc_imag(Fraction(1, 2)) * pc_l(-2)
    assert x * x.reciprocal() == PC_ONE


def test_render_examples():
    x = PcScalar(
        BaseScalar([(0, GaussianRational.of(Fraction(3, 2), Fraction(1, 2)))]),
        BaseScalar.l_power(2, -1),
    )
    assert render_pc(x) == "3/2 + 1/2*i - l^2*I"
    assert render_pc(PC_ZERO) == "0"
    assert render_pc(PC_ONE) == "1"
    assert render_pc(pc_imag(-1)) == "-i"
    assert render_pc(SIGMA_PLUS) == "1/2 + 1/2*I"
    assert render_pc(pc_l(-1, Fraction(1, 2))) == "1/2*l^-1"


def test_window_ignores_terms_that_cancel_to_zero():
    assert (SIGMA_PLUS * pc_l(3)) * (SIGMA_MINUS * pc_l(2)) == PC_ZERO
    with pytest.raises(DegreeWindowError):
        (SIGMA_PLUS * pc_l(3)) * (SIGMA_PLUS * pc_l(2))
    with pytest.raises(DegreeWindowError):
        pc_l(3).shift(2)
    assert (pc_l(3) - pc_l(3)).shift(2).is_zero()


def test_narrowing_the_window_applies_to_the_next_product():
    x = pc_l(3)
    set_degree_window(-2, 2)
    assert x + x == x.scale(2)  # sums and scaling keep their operands' degrees
    with pytest.raises(DegreeWindowError):
        x * PC_ONE
    with pytest.raises(DegreeWindowError):
        pc_l(3)


# Independent oracle: sympy expressions in the symbols l, i, I.  Every
# expression compared below has degree at most 2 in i and in I, so reducing
# i**2 -> -1 and I**2 -> +1 once is enough.
SYM_L, SYM_I, SYM_PSEUDO = sympy.symbols("l i I")


def _reduce(expr):
    return sympy.expand(sympy.expand(expr).subs({SYM_I**2: -1, SYM_PSEUDO**2: 1}))


def _sym_base(x: BaseScalar):
    return sum(
        (sympy.Rational(c.re) + sympy.Rational(c.im) * SYM_I) * SYM_L**d for d, c in x.terms()
    )


def _sym(x: PcScalar):
    return _sym_base(x.re) + SYM_PSEUDO * _sym_base(x.im)


def _random_with_reference(rng: random.Random, max_degree: int = 2):
    """A random scalar built through the public constructor, with its sympy value."""
    parts, values = [], []
    for _ in range(2):
        terms, value = [], 0
        for _ in range(rng.randint(0, 3)):
            deg = rng.randint(-max_degree, max_degree)
            re, im = random_rational(rng), random_rational(rng)
            terms.append((deg, GaussianRational(re, im)))
            value += (sympy.Rational(re) + sympy.Rational(im) * SYM_I) * SYM_L**deg
        parts.append(BaseScalar(terms))
        values.append(value)
    return PcScalar(*parts), values[0] + SYM_PSEUDO * values[1]


def _same(expr, x: PcScalar) -> bool:
    return _reduce(expr - _sym(x)) == 0


def test_arithmetic_against_sympy_oracle():
    rng = random.Random(SEED + 4)
    for _ in range(50):
        (x, sx), (y, sy) = _random_with_reference(rng), _random_with_reference(rng)
        assert _same(sx, x)
        assert _same(sx + sy, x + y)
        assert _same(sx - sy, x - y)
        assert _same(sx * sy, x * y)
        assert _same(sx.subs(SYM_PSEUDO, -SYM_PSEUDO), x.conjugate())
        pair = x.to_zero_divisor()
        assert _reduce(sx.subs(SYM_PSEUDO, 1) - _sym_base(pair.plus)) == 0
        assert _reduce(sx.subs(SYM_PSEUDO, -1) - _sym_base(pair.minus)) == 0


def test_unit_reciprocal_against_sympy_oracle():
    rng = random.Random(SEED + 5)
    units = 0
    while units < 40:
        x, sx = _random_with_reference(rng)
        if not x.is_unit():
            continue
        units += 1
        assert _reduce(sx * _sym(x.reciprocal())) == 1
