import random
from fractions import Fraction

import pytest

from helpers import random_poly
from pcqm import so4
from pcqm.expr import (
    Add,
    AliasSym,
    MAX_EXPONENT,
    MAX_NESTING,
    Bracket,
    CasimirOp,
    ExprSyntaxError,
    GenSym,
    ImagUnit,
    LengthPower,
    Mul,
    NamedOp,
    Neg,
    Num,
    Pow,
    PseudoUnit,
    Sub,
    evaluate_text,
    parse,
    render,
)
from pcqm.operators import commutator, expand_alias
from pcqm.scalars import pc_imag

SEED = 20260810


def test_parse_commutator_of_generators():
    ast = parse("[X+_1, P+_1]")
    assert ast == Bracket(GenSym("X", "+", 1), GenSym("P", "+", 1))


def test_parse_named_operator_with_component():
    assert parse("LR_12") == NamedOp("L", "R", 1, 2)
    assert parse("L+_12") == NamedOp("L", "+", 1, 2)
    assert parse("Lxy_34") == NamedOp("L", "xy", 3, 4)
    assert parse("L_2") == NamedOp("L", None, 1, 3)
    assert parse("M_1") == NamedOp("M", None, 1, 4)
    assert parse("MI_24") == NamedOp("M", "I", 2, 4)
    assert parse("CR") == CasimirOp("R")
    assert parse("C+") == CasimirOp("+")


def test_parse_scalars():
    assert parse("3/2") == Num(Fraction(3, 2))
    assert parse("l^-2") == LengthPower(-2)
    assert parse("l") == LengthPower(1)
    assert parse("i*I") == Mul(ImagUnit(), PseudoUnit())
    assert parse("-i") == Neg(ImagUnit())


def test_parse_precedence_and_associativity():
    ast = parse("1 + 2*3 - 4")
    assert ast == Sub(Add(Num(Fraction(1)), Mul(Num(Fraction(2)), Num(Fraction(3)))), Num(Fraction(4)))
    assert parse("x_1^2") == Pow(AliasSym("x", 1), 2)
    assert parse("(1 + 2)*3") == Mul(Add(Num(Fraction(1)), Num(Fraction(2))), Num(Fraction(3)))


def test_evaluate_examples():
    assert evaluate_text("[x_1, px_1]") == evaluate_text("1/2 * i")
    assert evaluate_text("[X+_1, P+_1]").terms() == {(): pc_imag()}
    assert evaluate_text("[L_12, L_23]") == evaluate_text("i*L_31")
    assert evaluate_text("[L+_12, L-_23]").is_zero()
    assert evaluate_text("Cx") == so4.casimir("x")
    assert evaluate_text("x_1") == expand_alias("x", 1)
    assert evaluate_text("2^3") == evaluate_text("8")


def test_eval_equals_library_bit_for_bit():
    lhs = evaluate_text("[LR_12, LR_23]")
    rhs = commutator(so4.component(1, 2, "R"), so4.component(2, 3, "R"))
    assert lhs == rhs
    assert lhs.render() == rhs.render()


def _random_ast(rng: random.Random, depth: int):
    if depth == 0:
        leaf = rng.randrange(8)
        if leaf == 0:
            return Num(Fraction(rng.randint(0, 5), rng.randint(1, 5)))
        if leaf == 1:
            return ImagUnit()
        if leaf == 2:
            return PseudoUnit()
        if leaf == 3:
            return LengthPower(rng.randint(-2, 2) or 1)
        if leaf == 4:
            return GenSym(rng.choice("XP"), rng.choice("+-"), rng.randint(1, 4))
        if leaf == 5:
            return AliasSym(rng.choice(("x", "y", "px", "py")), rng.randint(1, 4))
        if leaf == 6:
            i = rng.randint(1, 3)
            j = rng.randint(i + 1, 4)
            comp = rng.choice((None, "+", "-", "x", "y", "xy", "yx", "R", "I"))
            letter = "M" if j == 4 and rng.random() < 0.5 else "L"
            return NamedOp(letter, comp, i, j)
        return CasimirOp(rng.choice(("R", "x", "y", "+", "-")))
    kind = rng.randrange(5)
    if kind == 0:
        return Add(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 1:
        return Sub(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 2:
        return Mul(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 3:
        return Bracket(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    return Neg(_random_ast(rng, depth - 1))


def test_render_parse_fixed_point_random_trees():
    rng = random.Random(SEED)
    for _ in range(300):
        ast = _random_ast(rng, rng.randint(0, 3))
        text = render(ast)
        assert parse(text) == ast, text


def test_render_parse_fixed_point_handwritten():
    for text in (
        "[X+_1, P+_1]",
        "(1/2 + 1/2*I)*X+_3*P+_1",
        "-i + X+_1*P+_1",
        "l^-2*[x_1, px_2] - CR",
        "3/2 + 1/2*i - l^2*I",
        "[L_12, [L_23, M_1]]",
        "x_1^2*y_2",
    ):
        ast = parse(text)
        assert parse(render(ast)) == ast


def test_polynomial_render_reparses_to_same_polynomial():
    rng = random.Random(SEED + 1)
    for _ in range(40):
        p = random_poly(rng, max_terms=3, max_len=2)
        assert evaluate_text(p.render()) == p
    for text in ("[L_12, L_23]", "Cx", "CR", "[x_1, py_3]", "LI_14*LI_14"):
        p = evaluate_text(text)
        assert evaluate_text(p.render()) == p


def test_long_result_reparses_to_same_polynomial():
    p = evaluate_text("(x_1+x_2+x_3+x_4+px_1+px_2+px_3+px_4)^4")
    assert len(p.terms()) >= 1500
    assert evaluate_text(p.render()) == p
    long_sum = " - ".join(["x_1*px_1"] * 2000)
    assert render(parse(long_sum)) == long_sum


def test_nesting_is_bounded():
    for open_, close in (("(", ")"), ("-(", ")"), ("[1, ", "]"), ("2*(1 + ", ")^1")):
        deepest = open_ * MAX_NESTING + "x_1" + close * MAX_NESTING
        assert evaluate_text(deepest) == evaluate_text(render(parse(deepest)))
        with pytest.raises(ExprSyntaxError) as err:
            parse(open_ + deepest + close)
        assert f"nesting deeper than {MAX_NESTING}" in str(err.value)


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("[X+_1, ")
    assert "col" in str(err.value)
    for bad in ("", "  ", "X+_5", "x_0", "L_11", "M_12", "Lq_12", "C", "1/0", "foo", "2 +", "(1", "[1, 2", "x_1 ^",
                "x_1 $ 2", "*2", "X*_1", "L_4", "L_123", "x_12"):
        with pytest.raises(ExprSyntaxError):
            parse(bad)


def test_operator_power_must_be_non_negative():
    # '^' on operators only accepts unsigned integers at parse level
    with pytest.raises(ExprSyntaxError):
        parse("x_1^-2")


def test_operator_power_is_bounded():
    assert parse(f"i^{MAX_EXPONENT}") == Pow(ImagUnit(), MAX_EXPONENT)
    assert parse("(i^8)^8") == Pow(Pow(ImagUnit(), 8), 8)
    for bad in (f"i^{MAX_EXPONENT + 1}", "(x_1 + 2)^1000000", "((2^64)^64)^64", "(2^64*2)^64",
                "(i^0)^65", "(x_1^0)^1000000"):
        with pytest.raises(ExprSyntaxError) as err:
            parse(bad)
        assert "exceeds" in str(err.value)


def test_evaluate_rejects_unknown_trailing_input():
    with pytest.raises(ExprSyntaxError):
        parse("x_1 x_2")
