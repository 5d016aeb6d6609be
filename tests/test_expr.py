import itertools
import json
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_poly, reference_tokenize
from pcqm import expr, so4
from pcqm.expr import (
    CASIMIR_TAGS,
    Add,
    AliasSym,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
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
    _tokenize,
    evaluate,
    evaluate_text,
    parse,
    render,
)
from pcqm.cli import config_from_args, run
from pcqm.limits import current_limits, limits
from pcqm.operators import (
    NcPolynomial,
    WordLengthError,
    commutator,
    expand_alias,
    gen,
    generator_poly,
    multiply,
)
from pcqm.scalars import PSEUDO_UNIT, DegreeWindowError, pc_imag, pc_l, pc_rational

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
    assert evaluate_text("Cx") == so4.vector_operators("x").casimir
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
    kind = rng.randrange(6)
    if kind == 5:
        return Pow(_random_ast(rng, depth - 1), rng.randint(0, 3))
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
        "(l)^2*X+_1 - (l^-1)^3",
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


def test_integer_literals_are_bounded():
    longest = "9" * MAX_LITERAL_DIGITS
    assert parse(longest) == Num(Fraction(int(longest)))
    too_long = "7" * (MAX_LITERAL_DIGITS + 1)
    for prefix, suffix in (("", ""), ("x_1 + 1/", ""), ("x_1^", ""), ("l^-", ""), ("(", "*x_1)")):
        # 5000 digits also exceed the interpreter's int-from-str limit
        for digits in (too_long, "9" * 5000):
            with pytest.raises(ExprSyntaxError) as err:
                parse(prefix + digits + suffix)
            assert err.value.pos == len(prefix)
            assert f"col {len(prefix) + 1}: integer longer than {MAX_LITERAL_DIGITS} digits" == str(err.value)
    # A lower interpreter int-from-str limit lowers the bound with it.
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert parse("9" * 640) == Num(Fraction(int("9" * 640)))
        with pytest.raises(ExprSyntaxError) as err:
            parse("x_1 + " + "9" * 641)
        assert str(err.value) == "col 7: integer longer than 640 digits"
    finally:
        sys.set_int_max_str_digits(previous)


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


def test_parenthesised_length_power_takes_an_exponent():
    assert parse("(l)^2") == parse("((l))^2") == Pow(LengthPower(1), 2)
    assert parse("(l^-1)^2") == Pow(LengthPower(-1), 2)
    assert render(Pow(LengthPower(1), 2)) == "(l)^2"
    assert render(Pow(LengthPower(-1), 2)) == "(l^-1)^2"
    for text, expected in (("(l)^2", (0, "l^2")), ("((l))^2", (0, "l^2")), ("(l^-1)^2", (0, "l^-2")),
                           ("(l)^0", (0, "1")), ("(l)^5", (2, "error: l^5 outside degree window -4..4")),
                           ("l^2^2", (2, "error: col 4: trailing input '^'"))):
        assert run(config_from_args(["eval", text])) == expected


def test_evaluate_rejects_unknown_trailing_input():
    with pytest.raises(ExprSyntaxError):
        parse("x_1 x_2")


def test_cached_operator_refuses_a_smaller_word_cap():
    evaluate_text("CR")
    with limits(word_cap=2), pytest.raises(WordLengthError):
        evaluate_text("CR")


def test_cached_operator_refuses_a_narrower_window():
    evaluate_text("Ly_12")
    with limits(window=(0, 4)), pytest.raises(DegreeWindowError):
        evaluate_text("Ly_12")


def test_cached_literal_refuses_a_window_without_its_degree():
    assert evaluate_text("2") == evaluate_text("1 + 1")
    with limits(window=(1, 4)):
        with pytest.raises(DegreeWindowError, match=r"^l\^0 outside degree window 1\.\.4$"):
            evaluate_text("2")
    assert evaluate_text("2").render() == "2"
    # The other literal leaves are keyed on the window too.
    with limits(window=(-1, 1)):
        assert evaluate_text("i*I*l").render() == "i*l*I"
        with pytest.raises(DegreeWindowError, match=r"^l\^2 outside degree window -1\.\.1$"):
            evaluate_text("l^2")
    assert evaluate_text("l^2").render() == "l^2"


def test_window_given_as_a_list_is_stored_as_a_tuple():
    with limits(window=[-8, 8]):
        assert current_limits().window == (-8, 8)
        assert evaluate_text("X+_1*l^6").render() == "l^6*X+_1"


def _outcome(build):
    """A build's polynomial, or the type and message of what it raised."""
    try:
        return build()
    except (ValueError, ArithmeticError) as err:
        return type(err), str(err)


def test_cached_operators_equal_fresh_builds_under_each_limits():
    comps = (None, "+", "-", "x", "y", "xy", "yx", "R", "I")
    leaves = [
        *[(GenSym(k, b, i), lambda k=k, b=b, i=i: generator_poly(k, b, i))
          for k in "XP" for b in "+-" for i in range(1, 5)],
        *[(AliasSym(a, i), lambda a=a, i=i: expand_alias(a, i))
          for a in ("x", "y", "px", "py") for i in range(1, 5)],
        *[(NamedOp(letter, c, i, j), lambda c=c, i=i, j=j: so4.labelled(c, i, j))
          for c in comps for i in range(1, 5) for j in range(1, 5)
          for letter in "LM" if i != j and (letter == "L" or j == 4)],
        *[(CasimirOp(c), lambda c=c: so4.vector_operators(c).casimir) for c in ("R", "x", "y", "+", "-")],
        (Num(Fraction(3, 7)), lambda: NcPolynomial({(): pc_rational(Fraction(3, 7))})),
        (ImagUnit(), lambda: NcPolynomial({(): pc_imag()})),
        (PseudoUnit(), lambda: NcPolynomial({(): PSEUDO_UNIT})),
        *[(LengthPower(d), lambda d=d: NcPolynomial({(): pc_l(d)})) for d in range(-4, 5)],
        *[(node, lambda node=node: multiply(evaluate(node.left), evaluate(node.right)))
          for node in map(parse, ("l*y_1", "i*X+_1", "1/2*CR", "l^2*Ly_12"))],
    ]
    # The default limits come first, so a later, narrower setting would be
    # served a stale value if the limits were not part of the key.
    for changes in ({}, {"word_cap": 2}, {"window": (0, 4)}, {"window": (-1, 1)}):
        with limits(**changes):
            for node, build in leaves:
                assert _outcome(lambda: evaluate(node)) == _outcome(build), (node, changes)


def test_arithmetic_on_a_cached_operator_leaves_it_unchanged():
    cx = evaluate_text("Cx")
    text = cx.render()
    for derived in ("Cx + x_1", "-Cx", "2*Cx", "Cx*I", "Cx - Cx", "[Cx, X+_1]"):
        evaluate_text(derived)
    cx + evaluate_text("x_1")
    cx.scale(pc_imag())
    with limits(word_cap=2), pytest.raises(WordLengthError):
        evaluate_text("Cx")
    again = evaluate_text("Cx")
    assert again.render() == text
    assert again == so4.vector_operators("x").casimir


def test_operand_scans_kept_with_cached_operators_carry_no_limits():
    leaves = {
        AliasSym("y", 1): lambda: expand_alias("y", 1),
        AliasSym("py", 1): lambda: expand_alias("py", 1),
        NamedOp("L", "y", 1, 2): lambda: so4.labelled("y", 1, 2),
        AliasSym("x", 2): lambda: expand_alias("x", 2),
    }
    # The evaluator's cached operators, scanned by brackets under the
    # default limits, then bracketed under narrower ones: each outcome is
    # that of operators built afresh, which carry no scan.
    cached = [evaluate(node) for node in leaves]
    default = [[commutator(a, b) for b in cached] for a in cached]
    assert all(p._scanned is not None for p in cached)
    pairs = [(a, b) for a in cached for b in cached]
    refused = set()
    for changes in ({"window": (-1, 1)}, {"word_cap": 2}):
        for op in (commutator, multiply):
            fresh = [(fa(), fb()) for fa in leaves.values() for fb in leaves.values()]
            with limits(**changes):
                for (a, b), (fa, fb) in zip(pairs, fresh):
                    outcome = _outcome(lambda: op(a, b))
                    assert outcome == _outcome(lambda: op(fa, fb)), (a, b, changes)
                    refused.add(outcome[0] if isinstance(outcome, tuple) else None)
    assert refused == {DegreeWindowError, WordLengthError, None}
    assert [[commutator(a, b) for b in cached] for a in cached] == default

    # An unsorted word is normal-ordered once, when its polynomial is built:
    # its contraction term l^2*(-i) fits -4..4 but not -1..1.  A product
    # under -1..1 then checks only its own coefficients, l^2 * l^-1 = l.
    terms = {(gen("P", "+", 1), gen("X", "+", 1)): pc_l(2)}
    raw = NcPolynomial(terms)
    other = generator_poly("X", "+", 2).scale(pc_l(-1))
    first = multiply(raw, other)
    with limits(window=(-1, 1)):
        assert _outcome(lambda: NcPolynomial(terms)) == (DegreeWindowError, "l^2 outside degree window -1..1")
        assert multiply(raw, other) == first


def test_each_thread_evaluates_under_its_own_limits():
    # More threads than cores and a short switch interval, so threads with
    # different limits interleave their cache lookups and builds.
    texts = ("Ly_12", "CR", "py_3", "Lxy_14", "l*y_1", "X+_1*X+_2*X+_3")
    settings = ({"window": (0, 4)}, {"word_cap": 2}, {}, {})
    expected = []
    for changes in settings:
        with limits(**changes):
            expected.append([_outcome(lambda t=t: evaluate_text(t)) for t in texts])
    assert expected[0][0] == (DegreeWindowError, "l^-1 outside degree window 0..4")
    assert expected[1][1][0] is WordLengthError
    assert expected[1][5][0] is WordLengthError
    results = [[] for _ in settings]

    def worker(changes, out):
        with limits(**changes):
            for _ in range(20):
                out.append([_outcome(lambda t=t: evaluate_text(t)) for t in texts])

    threads = [threading.Thread(target=worker, args=args) for args in zip(settings, results)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(expected, results):
        assert got == [want] * 20


def test_coefficient_too_long_in_the_sigma_minus_component_alone_is_refused():
    # 1 + (1-I)*N has sigma+ component 1 and sigma- component 2N + 1, so the
    # 64th power is too long to render in its sigma- component alone.
    text = "(1 + (1 - I)*" + "9" * 300 + ")^64"
    with pytest.raises(ValueError, match="coefficient too long to render"):
        evaluate_text(text)
    for fmt in ("text", "json"):
        code, output = run(config_from_args(["--format", fmt, "eval", text]))
        assert code == 2
        assert "coefficient too long to render" in output


def test_leaf_products_follow_the_limits_in_force():
    texts = ("l*l", "(l)*(l)", "X+_1*X+_2", "l*y_1", "i*X+_1", "1/2*CR", "l^2*Ly_12")
    # The default limits come first and last, so a narrower setting in between
    # would be served a stale product if the limits were not part of the key.
    for changes in ({}, {"window": (-1, 1)}, {"word_cap": 1}, {}):
        with limits(**changes):
            for text in texts:
                node = parse(text)
                fresh = _outcome(lambda: multiply(evaluate(node.left), evaluate(node.right)))
                assert _outcome(lambda: evaluate(node)) == fresh, (text, changes)
    assert evaluate_text("l*l").render() == "l^2"
    with limits(window=(-1, 1)):
        # A failing build is not cached: it raises again on the next call.
        for _ in range(2):
            with pytest.raises(DegreeWindowError, match=r"^l\^2 outside degree window -1\.\.1$"):
                evaluate_text("l*l")
    with limits(word_cap=1):
        with pytest.raises(WordLengthError, match="^product word length 2 exceeds cap 1$"):
            evaluate_text("X+_1*X+_2")
        assert evaluate_text("l*y_1").render() == "1/2*X+_1 - 1/2*X-_1"
    assert evaluate_text("X+_1*X+_2").render() == "X+_1*X+_2"
    assert evaluate_text("l*y_1") is evaluate_text("l*y_1")


def test_leaf_product_is_checked_against_the_digit_limit_in_force():
    text = "9" * 400 + "*" + "9" * 400
    assert evaluate_text(text).render() == str(int("9" * 400) ** 2)
    old = sys.get_int_max_str_digits()
    cached = evaluate_text(text)
    assert cached._bits == (int("9" * 400) ** 2).bit_length()  # kept from its first check
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError, match=re.escape("coefficient too long to render (more than 640 digits)")):
            evaluate_text(text)
    finally:
        sys.set_int_max_str_digits(old)
    assert evaluate_text(text) is cached
    assert evaluate_text(text).render() == str(int("9" * 400) ** 2)


def _tokens(tokenize, text):
    """The tokens of ``text``, or the message of the syntax error raised."""
    try:
        return tokenize(text)
    except ExprSyntaxError as err:
        return str(err)


# The grammar's characters, whitespace other than a space, junk, and digits
# outside ASCII, which both tokenizers read as digits.
_TOKEN_TEXT = st.text(alphabet="0123456789/+-*^()[],_ iIlXPxyLMCR\t\n$é١٢\u00a0", max_size=40)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_TOKEN_TEXT)
@example("  X+_1 *\t[l^-2 , 3/4]\n")
@example("X+_١")
@example("1" * (MAX_LITERAL_DIGITS + 1))
@example(" " * 3 + "$")
@example("")
def test_tokenizer_matches_the_reference(text):
    assert _tokens(_tokenize, text) == _tokens(reference_tokenize, text)


def test_non_ascii_digits_read_as_digits():
    assert evaluate_text("X+_١").render() == "X+_1"


def _ascii_symbols() -> dict:
    """Every ASCII operator spelling the grammar accepts, with its node."""
    nodes = {}
    for kind, branch, i in itertools.product("XP", "+-", range(1, 5)):
        nodes[f"{kind}{branch}_{i}"] = GenSym(kind, branch, i)
    for name, i in itertools.product(("x", "y", "px", "py"), range(1, 5)):
        nodes[f"{name}_{i}"] = AliasSym(name, i)
    for letter, vectors in (("L", so4.L_VECTOR_PAIRS), ("M", so4.M_VECTOR_PAIRS)):
        pairs = [(i, j) for i, j in itertools.permutations(range(1, 5), 2) if letter == "L" or j == 4]
        for comp in (None, "R", "I", "+", "-", "x", "y", "xy", "yx"):
            tag = comp or ""
            for i, j in pairs:
                nodes[f"{letter}{tag}_{i}{j}"] = NamedOp(letter, comp, i, j)
            for a, (i, j) in vectors.items():
                nodes[f"{letter}{tag}_{a}"] = NamedOp(letter, comp, i, j)
    for comp in CASIMIR_TAGS:
        nodes[f"C{comp}"] = CasimirOp(comp)
    return nodes


def test_symbol_lookup_is_exact_and_bounded():
    expr._SYMBOLS.clear()
    nodes = _ascii_symbols()
    assert len(nodes) == 16 + 16 + 189 + 5
    # Each spelling is read twice in every context: the first read takes the
    # grammar path and fills the table, the second is a lookup.
    for text, node in nodes.items():
        spaced = " ".join(tok[1] for tok in _tokenize(text))
        for spelling in (text, spaced) * 2:
            assert parse(spelling) == node
            assert parse(f"2*{spelling}^2 - {spelling}") == Sub(Mul(Num(Fraction(2)), Pow(node, 2)), node)
            assert parse(f"[{spelling}, i]") == Bracket(node, ImagUnit())
    assert parse("l*l^2") == Mul(LengthPower(1), LengthPower(2))
    # Misspellings of symbols the table holds keep their messages and columns,
    # and a named operator's refusal names it with its component tag.  eval
    # prints each as one line, in text and in JSON.
    for text, message in (
        ("X+_5", "col 1: index 5 out of range 1..4"),
        ("X + _ 5", "col 1: index 5 out of range 1..4"),
        ("Lx_1 2", "col 6: trailing input '2'"),
        ("X+_12", "col 4: expected 1..1 index digits, got '12'"),
        ("L_11", "col 1: indices must differ in L_11"),
        ("M_12", "col 1: M takes indices (a, 4); use M_14, M_24 or M_34"),
        ("L_4", "col 1: vector label L_4 must use 1..3"),
        ("Lxy_22", "col 1: indices must differ in Lxy_22"),
        ("M+_5", "col 1: vector label M+_5 must use 1..3"),
        ("LR_0", "col 1: vector label LR_0 must use 1..3"),
        ("C+_1", "col 3: trailing input '_'"),
        ("CR_1", "col 3: trailing input '_'"),
        ("L+", "col 2: expected '_', got '+'"),
    ):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert str(err.value) == message
        for fmt, expected in (("text", f"error: {message}"),
                              ("json", json.dumps({"schema": "error/v1", "error": message}))):
            assert run(config_from_args(["--format", fmt, "eval", text])) == (2, expected)
    # '\d' reads every script's digits, so the spellings are unbounded; the
    # table stops at its bound, and a spelling past it is still read right.
    digits = [c for c in map(chr, range(0x80, 0x110000)) if c.isdecimal() and 1 <= int(c) <= 4]
    names = [f"{kind}{branch}" for kind in "XP" for branch in "+-"] + ["x", "y", "px", "py"]
    spellings = [f"{name}_{d}" for d in digits for name in names][:2000]
    assert len(set(spellings)) == 2000
    for text in spellings:
        name, d = text.split("_")
        node = GenSym(name[0], name[1], int(d)) if len(name) == 2 and name[1] in "+-" else AliasSym(name, int(d))
        assert parse(text) == parse(text) == node
    assert len(expr._SYMBOLS) == expr._MAX_SYMBOLS
    assert all(parse(text) == node for text, node in nodes.items())
    expr._SYMBOLS.clear()
