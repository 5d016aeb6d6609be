import itertools
import math
import random
import threading
from fractions import Fraction

import pytest

from helpers import (
    ALL_GENERATORS,
    assert_oracle_equal,
    oracle_multiply,
    oracle_normal_order,
    oracle_poly,
    random_pc_scalar,
    random_poly,
    random_terms,
)
from pcqm import operators, so4
from pcqm.expr import evaluate_text
from pcqm.limits import limits
from pcqm.operators import (
    INDICES,
    MAX_TERM_PAIRS,
    NcPolynomial,
    ProductSizeError,
    WordLengthError,
    commutator,
    expand_alias,
    gen,
    generator_poly,
    multiply,
    normal_form,
    pc_coordinate,
    pc_momentum,
    render_poly,
    render_word,
    shared_products,
    verify_canonical_relations,
    verify_induced_relations,
)
from pcqm.scalars import (
    BaseScalar,
    DegreeWindowError,
    PC_ONE,
    PC_ZERO,
    PSEUDO_UNIT,
    SIGMA_MINUS,
    SIGMA_PLUS,
    PcScalar,
    _atom_texts,
    _join_signed,
    pc_gaussian,
    pc_imag,
    pc_l,
    pc_rational,
    render_pc,
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


def test_generator_encoding_follows_documented_algebra():
    # Normal order X+ < P+ < X- < P-, ascending index within each block.
    block = {("X", "+"): 0, ("P", "+"): 1, ("X", "-"): 2, ("P", "-"): 3}
    labelled = [
        (gen(k, b, i), (k, b, i)) for k in ("X", "P") for b in ("+", "-") for i in (1, 2, 3, 4)
    ]
    for g, (k, b, i) in labelled:
        assert (g.kind, g.branch, g.index) == (k, b, i)
        assert gen(g.kind, g.branch, g.index) == g
        assert str(g) == f"{k}{b}_{i}"
        assert repr(g) == f"gen({k!r}, {b!r}, {i})"
    minus_i = pc_imag(-1)
    for (a, (ka, ba, ia)), (b, (kb, bb, ib)) in itertools.product(labelled, repeat=2):
        a_before_b = (block[ka, ba], ia) < (block[kb, bb], ib)
        assert (a < b) == a_before_b
        contracts = ka == "P" and kb == "X" and ba == bb and ia == ib
        sorted_word = (a, b) if a_before_b or (ka, ba, ia) == (kb, bb, ib) else (b, a)
        expected = {sorted_word: PC_ONE, **({(): minus_i} if contracts else {})}
        assert NcPolynomial.from_word((a, b)).terms() == expected


def test_normal_form_single_swap():
    # P+_1 X+_1 -> X+_1 P+_1 - i
    expected = {(XP1, PP1): PC_ONE, (): pc_imag(-1)}
    assert NcPolynomial.from_word((PP1, XP1)).terms() == expected


def test_normal_form_leaves_sorted_words_alone():
    p = NcPolynomial.from_word((XP1, XP2))
    assert p.terms() == {(XP1, XP2): PC_ONE}
    assert normal_form(p) is p


def test_normal_form_double_coordinate():
    # P+_1 X+_1 X+_1 -> X+_1 X+_1 P+_1 - 2i X+_1
    result = NcPolynomial.from_word((PP1, XP1, XP1))
    expected = {(XP1, XP1, PP1): PC_ONE, (XP1,): pc_imag(-2)}
    assert result.terms() == expected
    assert_oracle_equal(result, oracle_normal_order({(PP1, XP1, XP1): PC_ONE}))


def test_normal_form_matches_oracle_on_random_input():
    rng = random.Random(SEED)
    for _ in range(150):
        raw = random_terms(rng, max_terms=3, max_len=5)
        assert_oracle_equal(NcPolynomial(raw), oracle_normal_order(raw))


def test_confluence_under_random_reduction_orders():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        raw = random_terms(rng, max_terms=3, max_len=5)
        reference = NcPolynomial(raw)
        for trial in range(3):
            picker = random.Random(SEED + trial)
            assert_oracle_equal(reference, oracle_normal_order(raw, pick=picker.choice))


def test_a_polynomial_equals_the_one_built_from_its_normal_form():
    # Built from an unsorted word, a polynomial is stored in normal form, so
    # equality, hashing, subtraction and render-then-parse all agree.
    raw = NcPolynomial({(PP1, XP1): PC_ONE})
    ordered = NcPolynomial({(XP1, PP1): PC_ONE, (): pc_imag(-1)})
    assert raw == ordered and hash(raw) == hash(ordered)
    assert (raw - ordered).is_zero()
    assert evaluate_text(raw.render()) == raw
    # Its contracted coefficient is formed under the window in force when
    # it is built: l^2, built under the default window, is refused under
    # -1..1 as the coefficient of the contracted term.
    l_squared = pc_l(2)
    with limits(window=(-1, 1)):
        with pytest.raises(DegreeWindowError, match=r"^l\^2 outside degree window -1\.\.1$"):
            NcPolynomial({(PP1, XP1): l_squared})


# Pools for long random words: all sixteen generators, then narrower pools in
# which same-branch P-X contractions are frequent and nest deeply.
LONG_WORD_POOLS = (ALL_GENERATORS, (XP1, PP1, XM1, PM1, XP2, gen("P", "+", 2)), (XP1, PP1))


def _long_terms(rng: random.Random, pool: tuple, lo: int, hi: int) -> dict:
    return {
        tuple(rng.choice(pool) for _ in range(rng.randint(lo, hi))): random_pc_scalar(rng)
        for _ in range(rng.randint(1, 2))
    }


def test_long_words_match_oracle():
    rng = random.Random(SEED + 6)
    with limits(word_cap=12):
        for pool in LONG_WORD_POOLS:
            for trial in range(25):
                raw = _long_terms(rng, pool, 6, 10)
                result = NcPolynomial(raw)
                assert_oracle_equal(result, oracle_normal_order(raw))
                picker = random.Random(SEED + trial)
                assert_oracle_equal(result, oracle_normal_order(raw, pick=picker.choice))
                p, q = _long_terms(rng, pool, 3, 5), _long_terms(rng, pool, 3, 5)
                assert_oracle_equal(multiply(NcPolynomial(p), NcPolynomial(q)), oracle_multiply(p, q))


# (-i)^k for k mod 4, as (re, im).
MINUS_I_POWERS = ((1, 0), (0, -1), (-1, 0), (0, 1))


def _closed_form(x, p, b: int, c: int) -> dict[tuple, tuple[int, int]]:
    """P^b X^c in normal order, written out from
    sum_k C(b,k) C(c,k) k! (-i)^k X^(c-k) P^(b-k): word -> Gaussian integer."""
    out = {}
    for k in range(min(b, c) + 1):
        n = math.comb(b, k) * math.comb(c, k) * math.factorial(k)
        re, im = MINUS_I_POWERS[k % 4]
        out[(x,) * (c - k) + (p,) * (b - k)] = (n * re, n * im)
    return out


def _as_terms(closed: dict[tuple, tuple[int, int]]) -> dict[tuple, PcScalar]:
    return {w: pc_gaussian(re, im) for w, (re, im) in closed.items()}


def test_normal_form_matches_closed_form():
    # Raw polynomials bypass the word cap, so long words reach the kernel.
    for branch, index in itertools.product(("+", "-"), (1, 3, 4)):
        x, p = gen("X", branch, index), gen("P", branch, index)
        for b, c in itertools.product(range(9), repeat=2):
            raw = NcPolynomial({(p,) * b + (x,) * c: PC_ONE})
            assert raw.terms() == _as_terms(_closed_form(x, p, b, c))
    raw = NcPolynomial({(PP1,) * 20 + (XP1,) * 20: PC_ONE})
    assert raw.terms() == _as_terms(_closed_form(XP1, PP1, 20, 20))
    # Index-1 and index-2 generators commute, so the index-1 and index-2
    # closed forms multiply; the normal-order word is the sorted product word.
    pp2 = gen("P", "+", 2)
    raw = NcPolynomial({(PP1,) * 3 + (pp2,) * 4 + (XP2,) * 3 + (XP1,) * 5: PC_ONE})
    expected = {}
    for (w1, (re1, im1)), (w2, (re2, im2)) in itertools.product(
        _closed_form(XP1, PP1, 3, 5).items(), _closed_form(XP2, pp2, 4, 3).items()
    ):
        expected[tuple(sorted(w1 + w2))] = (re1 * re2 - im1 * im2, re1 * im2 + im1 * re2)
    assert raw.terms() == _as_terms(expected)


def test_normal_form_checks_only_contracted_terms_against_the_window():
    # A sorted word keeps its coefficient unchecked; each contracted term of
    # an unsorted word forms its coefficient under the window in force when
    # the polynomial is built, and the unit coefficients of the kernel's run
    # products meet no window.
    cases = (
        ((1, 3), PC_ONE, [(XP1, PP1), (XM1, XP1)], [(PP1, XP1), (PP1, PP1, XP1, XP1)], "l^0"),
        ((1, 3), pc_l(1), [(PP1, XP1), (PP1, PP1, XP1, XP1)], [], None),
        ((-1, 1), pc_l(2), [(XP1, PP1)], [(PP1, XP1)], "l^2"),
    )
    for window, coeff, passing, refused, power in cases:
        with limits(window=window):
            for word in passing:
                NcPolynomial({word: coeff})
            for word in refused:
                with pytest.raises(DegreeWindowError) as err:
                    NcPolynomial({word: coeff})
                assert str(err.value) == f"{power} outside degree window {window[0]}..{window[1]}"


def test_construction_forms_each_unsorted_word_run_product_once(monkeypatch):
    # Each polynomial has one unsorted word and a pseudo-imaginary
    # coefficient, so two component maps, which read one run product per
    # word; a product of the two reads their sorted words and forms none.
    coeff = PC_ONE + PSEUDO_UNIT * pc_rational(2)
    p_terms = {(PP1, XP1): coeff}
    q_terms = {(gen("P", "-", 2), gen("X", "-", 2)): coeff}
    calls = []
    run_product = operators._run_product
    monkeypatch.setattr(operators, "_run_product", lambda word: calls.append(word) or run_product(word))
    p, q = NcPolynomial(p_terms), NcPolynomial(q_terms)
    assert p._minus is not p._plus and q._minus is not q._plus
    assert calls == [*p_terms, *q_terms]
    product = multiply(p, q)
    assert calls == [*p_terms, *q_terms]
    assert_oracle_equal(product, oracle_multiply(p_terms, q_terms))


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
    expected = (
        NcPolynomial.from_word((XP1, PP1))
        - NcPolynomial.from_word((XP1, PM1))
        + NcPolynomial.from_word((XM1, PP1))
        - NcPolynomial.from_word((XM1, PM1))
    )
    assert lhs == expected
    # cross-branch words sort with the whole + block first
    assert lhs.coefficient((PP1, XM1)) == PC_ONE


# Raw operand terms that decide the kernel's path: a word with an X after its
# own P (left or right, against a partner without P, without X, or the empty
# word), a pair that contracts only across the two words, and words that mix
# both branches under coefficients with a pseudo-imaginary part.
PM2 = gen("P", "-", 2)
XM2 = gen("X", "-", 2)
PC_COEFF = PSEUDO_UNIT + pc_l(1) * pc_imag(2)
KERNEL_OPERANDS = (
    ({(PP1, XP1): PC_ONE}, {(PP1,): PC_ONE}),
    ({(XP2,): PC_ONE}, {(PM1, XM1, XM1): PC_ONE}),
    ({(PP1, XP1): PC_COEFF}, {(): PSEUDO_UNIT}),
    ({(): PC_COEFF}, {(PM1, XM1): PC_ONE}),
    ({(XP1, PP1, PM2): PC_COEFF}, {(XP1, XM2): PSEUDO_UNIT}),
    (
        {(PP1, XM1, PM1): PC_COEFF, (XP2, XM1): PC_ONE},
        {(XM1, XP1): PSEUDO_UNIT, (PM1, XM1, PP1): PC_COEFF},
    ),
)


def test_multiply_matches_oracle_and_is_associative():
    rng = random.Random(SEED + 3)
    for _ in range(60):
        p = random_poly(rng, max_terms=2, max_len=2)
        q = random_poly(rng, max_terms=2, max_len=2)
        r = random_poly(rng, max_terms=2, max_len=2)
        assert_oracle_equal(multiply(p, q), oracle_multiply(oracle_poly(p), oracle_poly(q)))
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))
        raw_p = random_terms(rng, max_terms=2, max_len=3)
        raw_q = random_terms(rng, max_terms=2, max_len=3)
        for a, b in ((raw_p, raw_q), (raw_p, oracle_poly(q)), (oracle_poly(p), raw_q)):
            assert_oracle_equal(multiply(NcPolynomial(a), NcPolynomial(b)), oracle_multiply(a, b))
    for a, b in KERNEL_OPERANDS:
        for x, y in ((a, b), (b, a)):
            assert_oracle_equal(multiply(NcPolynomial(x), NcPolynomial(y)), oracle_multiply(x, y))


def test_unsorted_operand_multiplies_as_its_normal_form():
    # A polynomial built from unsorted words is stored exactly as the one
    # built from the oracle's normal form of its terms, so their products
    # are stored alike, and a narrow window refuses both alike.
    rng = random.Random(SEED + 11)
    refused = 0
    for window in ((-4, 4), (-1, 1)):
        for _ in range(40):
            terms = random_terms(rng, max_terms=3, max_len=3)
            other = random_poly(rng, max_terms=2, max_len=2)
            raw, ordered = NcPolynomial(terms), NcPolynomial(oracle_normal_order(terms))
            assert (raw._plus, raw._minus) == (ordered._plus, ordered._minus)
            with limits(window=window):
                for a, b, sorted_a, sorted_b in (
                    (raw, other, ordered, other),
                    (other, raw, other, ordered),
                    (raw, raw, ordered, ordered),
                ):
                    try:
                        expected = multiply(sorted_a, sorted_b)
                    except DegreeWindowError:
                        refused += 1
                        with pytest.raises(DegreeWindowError):
                            multiply(a, b)
                        continue
                    got = multiply(a, b)
                    assert (got._plus, got._minus) == (expected._plus, expected._minus)
    assert refused


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
    with pytest.raises(DegreeWindowError, match=r"^l\^5 outside degree window -4\.\.4$"):
        multiply(p, NcPolynomial.from_word((PP1,), pc_l(2)))


def test_power_and_scalar_arithmetic():
    p = generator_poly("X", "+", 1)
    assert p ** 0 == NcPolynomial.scalar(PC_ONE)
    assert p ** 2 == multiply(p, p)
    assert (p * 3) / 3 == p
    assert 2 * p == p + p


# Operator storage keeps one map per zero-divisor component, shared when the
# polynomial is real.  ``random_pc_scalar`` nearly always draws a
# pseudo-imaginary part, so these kinds make sure the shared map, a missing
# component and a product of the two are each checked against the oracle.
def _real_scalar(rng: random.Random) -> PcScalar:
    while True:
        c = random_pc_scalar(rng)
        if not c.re.is_zero():
            return PcScalar(c.re, BaseScalar.zero())


def _coefficient(rng: random.Random, kind: str) -> PcScalar:
    if kind == "real":
        return _real_scalar(rng)
    if kind == "sigma":
        return _real_scalar(rng) * rng.choice((SIGMA_PLUS, SIGMA_MINUS))
    return random_pc_scalar(rng)


def _terms_of_kind(rng: random.Random, kind: str, max_len: int = 2) -> dict:
    """Raw terms: words in any order, with coefficients of ``kind``."""
    return {
        tuple(rng.choice(ALL_GENERATORS) for _ in range(rng.randint(0, max_len))):
            _coefficient(rng, kind)
        for _ in range(rng.randint(1, 3))
    }


def _is_real(p: NcPolynomial) -> bool:
    return all(c.im.is_zero() for c in p.terms().values())


def _oracle_commutator(p: dict, q: dict) -> dict:
    """The oracle's ``pq - qp`` of two term maps."""
    out = oracle_multiply(p, q)
    for word, coeff in oracle_multiply(q, p).items():
        out[word] = out.get(word, PC_ZERO) - coeff
    return out


STORAGE_KINDS = [("real", "real"), ("sigma", "sigma"), ("real", "general"), ("general", "real")]


@pytest.mark.parametrize("kinds", STORAGE_KINDS, ids="x".join)
def test_component_storage_matches_oracle(kinds):
    rng = random.Random(f"{SEED}-{kinds}")
    for trial in range(40):
        pt, qt = (_terms_of_kind(rng, kind) for kind in kinds)
        p, q = NcPolynomial(pt), NcPolynomial(qt)
        for poly in (p, q):
            # A real polynomial keeps one map for both components.
            assert (poly._minus is poly._plus) == _is_real(poly)
        product = multiply(p, q)
        assert_oracle_equal(product, oracle_multiply(pt, qt))
        assert (product._minus is product._plus) == _is_real(product)
        assert_oracle_equal(commutator(p, q), _oracle_commutator(pt, qt))
        raw = _terms_of_kind(rng, kinds[0], max_len=5)
        picker = random.Random(SEED + trial)
        assert_oracle_equal(NcPolynomial(raw), oracle_normal_order(raw, pick=picker.choice))


def _w(text: str) -> tuple:
    """``"P+2*X+2"`` -> the raw word, in the order written."""
    return tuple(gen(name[0], name[1], int(name[2])) for name in text.split("*"))


# Operand word lists for the commutator, labelled by how many terms commute
# with the whole other operand.  ``P+2*X+2`` and ``P-3*X-3`` are raw words
# with an X after its own momentum.
COMMUTING_CASES = {
    "none-same-branch": (["X+1", "P+2*X+2"], ["P+1*P+2", "X+2"]),
    "some-same-branch": (["X+1", "X+2*X+3", "P+4"], ["P+1", "X+4", "P-1"]),
    "some-cross-branch": (["X+1*X-1", "P-2", "X-3"], ["P+1", "P-3*X-3", "X+2"]),
    "all": (["X+1*P+2", "X-1", "P+4*X+4"], ["X+3*X-2", "P-2", "P+3"]),
}


def _commutes_with(word: tuple, others: list) -> bool:
    return all(c.is_zero() for w in others for c in _oracle_commutator({word: PC_ONE}, {w: PC_ONE}).values())


@pytest.mark.parametrize("kind", ["real", "sigma", "general"])
@pytest.mark.parametrize("case", COMMUTING_CASES)
def test_commutator_dropping_commuting_terms_matches_oracle(case, kind):
    p_words, q_words = ([_w(t) for t in texts] for texts in COMMUTING_CASES[case])
    # The label, checked with the oracle one word pair at a time.
    dropped = [_commutes_with(w, q_words) for w in p_words]
    dropped += [_commutes_with(w, p_words) for w in q_words]
    expected = {"none": not any(dropped), "some": 0 < sum(dropped) < len(dropped), "all": all(dropped)}
    assert expected[case.split("-")[0]]
    rng = random.Random(f"{SEED}-{case}-{kind}")
    for _ in range(8):
        pt = {w: _coefficient(rng, kind) for w in p_words}
        qt = {w: _coefficient(rng, kind) for w in q_words}
        p, q = NcPolynomial(pt), NcPolynomial(qt)
        for (a, at), (b, bt) in (((p, pt), (q, qt)), ((q, qt), (p, pt))):
            assert_oracle_equal(commutator(a, b), _oracle_commutator(at, bt))
        assert commutator(p, NcPolynomial.zero()).is_zero()


# Operand word lists whose pairs contract.  The sorted words of the first
# three take the closed form, with up to three copies of a P against up to
# three of its X, at two ranks of one pair at once; the last two hold a word
# with an X after its own P, on the left or on the right, and are folded.
CONTRACTION_CASES = {
    "two-ranks-plus": (["P+1*P+1*P+1*P+2*P+2", "X+1*P+1*P+1*P+2"], ["X+1*X+1*X+2*X+2*X+2", "X+1*X+1*X+2*P+1"]),
    "two-ranks-minus": (["P-1*P-1*P-2*P-2*P-2", "X-2"], ["X-1*X-1*X-1*X-2*X-2", "P-1*P-2"]),
    "both-branches": (["P+3*P+3*P-4*P-4*P-4", "X+3"], ["X+3*X+3*X+3*X-4*X-4", "P+3*X-4"]),
    "self-left": (["P+1*X+1*P+1*X+1", "P-2"], ["X+1*X+1*X-2", "P+1"]),
    "self-right": (["P+2*P+2*X-1", "X+2"], ["P+2*X+2*X+2", "P-1*X-1*P-1"]),
}


@pytest.mark.parametrize("kind", ["real", "sigma", "general"])
@pytest.mark.parametrize("case", CONTRACTION_CASES)
def test_contracting_products_and_brackets_match_oracle(case, kind):
    p_words, q_words = ([_w(t) for t in texts] for texts in CONTRACTION_CASES[case])
    rng = random.Random(f"{SEED}-{case}-{kind}")
    with limits(word_cap=10):
        for _ in range(3):
            pt = {w: _coefficient(rng, kind) for w in p_words}
            qt = {w: _coefficient(rng, kind) for w in q_words}
            p, q = NcPolynomial(pt), NcPolynomial(qt)
            for (a, at), (b, bt) in (((p, pt), (q, qt)), ((q, qt), (p, pt))):
                assert_oracle_equal(multiply(a, b), oracle_multiply(at, bt))
                assert_oracle_equal(commutator(a, b), _oracle_commutator(at, bt))


# Operand words that contract and commute in every mix; the first left word
# against the first right word contracts at two ranks, reaching one
# contraction at the integer factors 2 and 1.  Each operand cycles through a
# pool of two or three coefficients, so every pair of distinct coefficients
# meets at several term pairs.
REPEATED_WORDS = (
    ["P+1*P+1*P+2", "X+1*P+1", "P+1", "X-2*P-2", "P+2*P-1", "X-3"],
    ["X+1*X+2", "X+1", "P+1*X-1", "X+2*X+2", "X-1*P-1", "X+1*X-2"],
)


def _cycled(words: list, pool: list) -> dict:
    return {w: pool[t % len(pool)] for t, w in enumerate(words)}


@pytest.mark.parametrize("kind", ["real", "sigma", "general"])
def test_operands_with_repeated_coefficients_match_oracle(kind):
    p_words, q_words = ([_w(t) for t in texts] for texts in REPEATED_WORDS)
    rng = random.Random(f"{SEED}-repeated-{kind}")
    for size in (2, 3, 2, 3):
        pt = _cycled(p_words, [_coefficient(rng, kind) for _ in range(size)])
        qt = _cycled(q_words, [_coefficient(rng, kind) for _ in range(size)])
        for at, bt in ((pt, qt), (qt, pt)):
            a, b = NcPolynomial(at), NcPolynomial(bt)
            assert_oracle_equal(multiply(a, b), oracle_multiply(at, bt))
            assert_oracle_equal(commutator(a, b), _oracle_commutator(at, bt))


# Left and right operand words whose pairs contract one-to-one (a lone P
# against a lone X, also where the left word holds that X as well, as in
# X+1*P+1 times X+1), at two ranks, and as P^2 X and P X^2 pairs.  Each pool
# also holds words that contract in no pair, and a raw word with an X after
# its own P.
LONE_CONTRACTION_POOLS = (
    ["P+1", "X+1*P+1", "P+1*P+1", "P+1*P+2", "X-3*P-3", "P-3*X+2", "X+2"],
    ["X+1", "X+1*X+1", "X+1*X+2", "X-3", "X-3*P-3", "P+2*X+2", "X-1*P+1"],
)


def _contraction_kinds(w1: tuple, w2: tuple) -> set[str]:
    """How the sorted words ``w1`` and ``w2`` contract in ``w1*w2``, read
    from the generators' kinds, branches and indices."""
    counts = []  # per X of w2 whose own P is in w1: (copies of the P, of the X, X in w1)
    for x in set(w2):
        p = gen("P", x.branch, x.index) if x.kind == "X" else None
        if p in w1:
            counts.append((w1.count(p), w2.count(x), x in w1))
    if len(counts) > 1:
        return {"two-rank"}
    kinds = set()
    for m, n, own in counts:
        kinds.add({(1, 1): "one-to-one", (2, 1): "P^2 X", (1, 2): "P X^2"}.get((m, n), "other"))
        if (m, n, own) == (1, 1, True):
            kinds.add("self-left")
    return kinds


def _sorted_pairs(p: dict, q: dict) -> dict:
    """The uncontracted terms of ``p*q``: each concatenated pair of words, sorted."""
    out: dict = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            word = tuple(sorted(w1 + w2, key=lambda g: g.sort_key))
            out[word] = out.get(word, PC_ZERO) + c1 * c2
    return out


@pytest.mark.parametrize("kind", ["real", "sigma", "general"])
def test_lone_contractions_match_the_oracle(kind):
    pools = [[_w(t) for t in texts] for texts in LONE_CONTRACTION_POOLS]
    rng = random.Random(f"{SEED}-lone-{kind}")
    seen = set()
    for _ in range(30):
        p, q = (NcPolynomial({w: _coefficient(rng, kind) for w in rng.sample(pool, rng.randint(1, 4))})
                for pool in pools)
        for a, b in ((p, q), (q, p)):
            at, bt = oracle_poly(a), oracle_poly(b)
            full = oracle_multiply(at, bt)
            contracted = dict(full)
            for word, coeff in _sorted_pairs(at, bt).items():
                contracted[word] = contracted.get(word, PC_ZERO) - coeff
            assert_oracle_equal(multiply(a, b), full)
            assert_oracle_equal(multiply(a, b, contracted=True), contracted)
            assert_oracle_equal(commutator(a, b), _oracle_commutator(at, bt))
            seen |= {k for w1 in at for w2 in bt for k in _contraction_kinds(w1, w2)}
    assert {"one-to-one", "self-left", "two-rank", "P^2 X", "P X^2"} <= seen


def _first_failing_pair(p: NcPolynomial, q: NcPolynomial) -> str | None:
    """The message of the first term pair of ``p*q`` whose coefficient
    product leaves the window in force, in the documented order: every
    sigma_plus pair before any sigma_minus pair, each left term in storage
    order against every right term."""
    for left, right in ((p._plus, q._plus), (p._minus, q._minus)):
        for x in left.values():
            for y in right.values():
                try:
                    x * y
                except DegreeWindowError as err:
                    return str(err)
    return None


@pytest.mark.parametrize("kind", ["real", "sigma", "general"])
def test_narrow_window_raises_at_the_first_failing_pair(kind):
    p_words, q_words = ([_w(t) for t in texts] for texts in REPEATED_WORDS)
    rng = random.Random(f"{SEED}-first-failure-{kind}")
    failures = set()
    for _ in range(12):
        pt = _cycled(p_words, [_coefficient(rng, kind) for _ in range(rng.choice((2, 3)))])
        qt = _cycled(q_words, [_coefficient(rng, kind) for _ in range(rng.choice((2, 3)))])
        p, q = NcPolynomial(pt), NcPolynomial(qt)
        with limits(window=(-1, 1)):
            for (a, at), (b, bt) in (((p, pt), (q, qt)), ((q, qt), (p, pt))):
                expected = _first_failing_pair(a, b)
                if expected is None:
                    assert_oracle_equal(multiply(a, b), oracle_multiply(at, bt))
                    continue
                failures.add(expected)
                with pytest.raises(DegreeWindowError) as raised:
                    multiply(a, b)
                assert str(raised.value) == expected
    assert {"l^-2 outside degree window -1..1", "l^2 outside degree window -1..1"} <= failures


def test_commuting_operands_past_the_degree_window_raise_as_the_products_do():
    p = NcPolynomial.from_word((XP1,), pc_l(3))
    q = NcPolynomial.from_word((XM1,), pc_l(2))
    with pytest.raises(DegreeWindowError, match=r"^l\^5 outside degree window -4\.\.4$"):
        commutator(p, q)
    # Degrees that add past the window in opposite components never meet.
    p, q = p.scale(SIGMA_PLUS), q.scale(SIGMA_MINUS)
    assert_oracle_equal(commutator(p, q), _oracle_commutator(oracle_poly(p), oracle_poly(q)))
    assert commutator(p, q).is_zero()
    # X+_2 against P+_2 contracts inside the window, and the commuting pair
    # l^3*X+_1, l^2*X-_1 leaves it: the bracket raises as its products do.
    p = NcPolynomial({(XP1,): pc_l(3), (XP2,): PC_ONE})
    q = NcPolynomial({(XM1,): pc_l(2), (gen("P", "+", 2),): PC_ONE})
    for a, b in ((p, q), (q, p)):
        with pytest.raises(DegreeWindowError, match=r"^l\^5 outside degree window -4\.\.4$"):
            commutator(a, b)


def test_commuting_operands_past_the_word_cap_raise_as_the_products_do():
    with limits(word_cap=4):
        p = NcPolynomial.from_word(_w("X+1*X+2*X+3"))
        q = NcPolynomial.from_word(_w("X-1*X-2"))
        with pytest.raises(WordLengthError, match=r"^product word length 5 exceeds cap 4$"):
            commutator(p, q)


def test_commuting_operands_past_the_pair_limit_raise_as_the_products_do():
    # Coordinates commute with each other: sorted words over the 8 of them.
    xs = [gen("X", b, i) for b in ("+", "-") for i in INDICES]
    words = [w for n in range(5) for w in itertools.combinations_with_replacement(xs, n)]
    p = NcPolynomial({w: PC_ONE for w in words[:110]})
    q = NcPolynomial({w: pc_l(1) for w in words[:455]})
    assert len(p.words()) * len(q.words()) == 50050 > MAX_TERM_PAIRS
    with pytest.raises(ProductSizeError, match=r"^product of 50050 term pairs exceeds 50000$"):
        commutator(p, q)


def _shifted_terms(rng: random.Random, kind: str, shift: int) -> dict:
    """The normal-ordered ``_terms_of_kind``, each scaled by a power of l up
    to ``shift``."""
    terms = NcPolynomial(_terms_of_kind(rng, kind)).terms().items()
    return {w: c * pc_l(rng.randint(-shift, shift)) for w, c in terms}


@pytest.mark.parametrize("window", [(-1, 1), (-2, 2), (-4, 4)], ids=lambda w: f"{w[0]}..{w[1]}")
def test_brackets_equal_the_oracle_or_raise_as_the_products_do(window):
    # A bracket forms only the terms of its pairs that contract, unless the
    # operands' degrees may add past the window; each outcome is that of the
    # two full products.  Operand degrees reach past half the window, so the
    # products raise in some trials and keep to it in others.
    rng = random.Random(f"{SEED}-bracket-window-{window}")
    outcomes = set()
    for trial in range(90):
        pt, qt = (_shifted_terms(rng, ("real", "sigma", "general")[trial % 3], window[1] // 2) for _ in "pq")
        p, q = NcPolynomial(pt), NcPolynomial(qt)
        with limits(window=(-8, 8)):
            expected = _oracle_commutator(pt, qt)
        with limits(window=window):
            try:
                products = multiply(p, q) - multiply(q, p)
            except DegreeWindowError as err:
                with pytest.raises(DegreeWindowError) as raised:
                    commutator(p, q)
                assert str(raised.value) == str(err)
                outcomes.add("raised")
                continue
            bracket = commutator(p, q)
        assert bracket == products
        assert_oracle_equal(bracket, expected)
        outcomes.add("zero" if bracket.is_zero() else "nonzero")
    assert outcomes == {"raised", "zero", "nonzero"}


def test_a_repeated_bracket_scans_nothing(monkeypatch):
    # Both operands keep their scans, and a bracket builds no operand of
    # its own, so a second bracket of the same operands scans no map.
    cx, x = evaluate_text("Cx"), evaluate_text("X+_1")
    first = commutator(cx, x)
    scans = []
    real_scan_map = operators._scan_map
    monkeypatch.setattr(operators, "_scan_map", lambda *args: scans.append(args) or real_scan_map(*args))
    assert commutator(cx, x) == first
    assert len(scans) == 0


def test_sigma_parts_sum_back_to_the_polynomial():
    rng = random.Random(SEED + 7)
    for kind in ("real", "sigma", "general"):
        for _ in range(20):
            p = NcPolynomial(_terms_of_kind(rng, kind))
            total = p.scale(SIGMA_PLUS) + p.scale(SIGMA_MINUS)
            assert total == p
            assert hash(total) == hash(p)
            assert total.terms() == p.terms()
            minus_free = all(c._minus.is_zero() for c in p.terms().values())
            assert (p.scale(SIGMA_PLUS) == p) == minus_free


def test_degree_overflow_in_minus_component_alone_raises():
    # The sigma_plus product l*l stays inside the window; the sigma_minus
    # product l^3*l^2 does not.
    p = NcPolynomial.from_word((XP1,), SIGMA_PLUS * pc_l(1) + SIGMA_MINUS * pc_l(3))
    q = NcPolynomial.from_word((PP1,), SIGMA_PLUS * pc_l(1) + SIGMA_MINUS * pc_l(2))
    with pytest.raises(DegreeWindowError):
        multiply(p, q)


def test_product_of_opposite_sigma_components_is_zero():
    p = NcPolynomial.from_word((XP1,), SIGMA_PLUS * pc_l(3))
    q = NcPolynomial.from_word((PP1,), SIGMA_MINUS * pc_l(2))
    assert multiply(p, q).is_zero()
    assert multiply(p, q) == NcPolynomial.zero()


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


def _render_per_coefficient(p: NcPolynomial) -> str:
    """The polynomial's text built from a ``PcScalar`` per word of
    ``p.terms()``: the reference for ``render_poly``, which reads the two
    component maps instead."""

    def signed_term(word, coeff):
        atoms = list(_atom_texts(coeff._plus, coeff._minus))
        if len(atoms) == 1:
            (body, negative), = atoms
        else:
            body, negative = f"({render_pc(coeff)})", False
        if word:
            body = render_word(word) if body == "1" else f"{body}*{render_word(word)}"
        return body, negative

    order = sorted(p.terms().items(), key=lambda t: (-len(t[0]), t[0]))
    return _join_signed(signed_term(word, coeff) for word, coeff in order)


def test_render_matches_the_per_coefficient_rendering():
    rng = random.Random(SEED)
    zero = BaseScalar.zero()
    polys = [NcPolynomial.zero(), NcPolynomial.scalar(PC_ONE)]
    for _ in range(150):
        p, q = random_poly(rng, max_terms=4), random_poly(rng, max_terms=4)
        real = NcPolynomial({w: PcScalar(c.re, zero) for w, c in p.terms().items()})
        assert real._minus is real._plus
        # Sigma components that differ, with equal coefficients in both maps
        # on some words.
        split = real + p.scale(SIGMA_PLUS) + q.scale(SIGMA_MINUS)
        polys += [p, real, split]
        if len(polys) < 100:
            polys.append(multiply(split, p))
    # Products share one coefficient object among many words; equal values
    # built apart are distinct objects.
    shared = evaluate_text("(1+I)*(X+_1+X+_2)*(P+_1+P+_2)")
    assert len({id(c) for c in shared._plus.values()}) < len(shared._plus) == 4 and not shared._minus
    apart = NcPolynomial({(XP1,): pc_gaussian(1, 1), (XP2,): pc_gaussian(1, 1), (PP1,): PSEUDO_UNIT,
                          (XP1, PP1): PSEUDO_UNIT + pc_l(0), (): pc_gaussian(-1, 0)})
    assert apart._plus[XP1,] == apart._plus[XP2,] and apart._plus[XP1,] is not apart._plus[XP2,]
    # One component object shared by words whose other components differ.
    one, two = BaseScalar.rational(1), BaseScalar.rational(2)
    mixed = operators._poly({(XP1,): one, (XP2,): one, (PP1,): two}, {(XP1,): one, (XP2,): two, (PP1,): one})
    polys += [shared, apart, multiply(apart, shared), mixed]
    assert any(len(list(_atom_texts(c._plus, c._minus))) > 1 for p in polys for c in p.terms().values())
    for p in polys:
        assert render_poly(p) == _render_per_coefficient(p)
    assert render_poly(NcPolynomial.zero()) == "0"
    several = NcPolynomial({(XP1,): pc_gaussian(1, 1), (): PSEUDO_UNIT + pc_l(-1)})
    assert render_poly(several) == "(1 + i)*X+_1 + (l^-1 + I)"


# ``shared_products`` forms each product of two operand objects once per
# degree window.  A served product must equal the oracle's and the one formed
# outside any scope, and no limit may be bypassed by a product formed earlier.
@pytest.mark.parametrize("kind", ["real", "sigma", "general"])
def test_shared_products_match_the_oracle_and_the_unscoped_products(kind):
    rng = random.Random(f"{SEED}-shared-{kind}")
    for _ in range(15):
        pt, qt = _terms_of_kind(rng, kind), _terms_of_kind(rng, kind)
        p, q = NcPolynomial(pt), NcPolynomial(qt)
        pairs = ((p, q), (p, q), (q, p), (p, p))
        unscoped = [multiply(a, b) for a, b in pairs] + [commutator(p, p)]
        with shared_products():
            scoped = [multiply(a, b) for a, b in pairs] + [commutator(p, p)]
            assert scoped[1] is scoped[0]
        expected = [oracle_multiply(a, b) for a, b in ((pt, qt), (pt, qt), (qt, pt), (pt, pt))]
        for got, alone, terms in zip(scoped, unscoped, expected + [_oracle_commutator(pt, pt)]):
            assert_oracle_equal(got, terms)
            assert got == alone


def test_shared_products_refuse_under_narrower_limits():
    p = NcPolynomial.from_word((XP1,), pc_l(-1) + pc_l(1))
    q = NcPolynomial.from_word((PP1, XP2), pc_l(-1))
    with shared_products():
        formed = multiply(p, q)
        with limits(window=(-1, 1)):
            with pytest.raises(DegreeWindowError, match=r"^l\^-2 outside degree window -1\.\.1$"):
                multiply(p, q)
        with limits(word_cap=2):
            with pytest.raises(WordLengthError, match=r"^product word length 3 exceeds cap 2$"):
                multiply(p, q)
        assert multiply(p, q) is formed


def _outcome(build) -> str:
    try:
        return build().render()
    except (ValueError, DegreeWindowError) as err:
        return f"{type(err).__name__}: {err}"


def test_shared_leaves_are_built_per_degree_window():
    assert generator_poly("X", "+", 1) is generator_poly("X", "+", 1)
    y1, x1 = expand_alias("y", 1), pc_coordinate(1)
    assert expand_alias("y", 1) is y1 and pc_coordinate(1) is x1
    x_plus, x_minus = generator_poly("X", "+", 1), generator_poly("X", "-", 1)
    half_over_l = pc_l(-1, Fraction(1, 2))
    for window in ((0, 4), (1, 4)):
        with limits(window=window):
            assert _outcome(lambda: expand_alias("y", 1)) == _outcome(
                lambda: (x_plus - x_minus).scale(half_over_l))
            assert _outcome(lambda: pc_coordinate(1)) == _outcome(
                lambda: x_plus.scale(SIGMA_PLUS) + x_minus.scale(SIGMA_MINUS))
    with limits(window=(1, 4)):
        with pytest.raises(DegreeWindowError, match=r"^l\^-1 outside degree window 1\.\.4$"):
            expand_alias("y", 1)
        with pytest.raises(DegreeWindowError, match=r"^l\^0 outside degree window 1\.\.4$"):
            pc_coordinate(1)
    assert expand_alias("y", 1) is y1 and pc_coordinate(1) is x1


def test_shared_leaves_check_their_arguments_first():
    with pytest.raises(ValueError, match=r"^alias index must be 1\.\.4, got \[1\]$"):
        expand_alias("x", [1])
    with pytest.raises(ValueError, match=r"^generator index must be 1\.\.4, got 5$"):
        generator_poly("X", "+", 5)
    with pytest.raises(ValueError, match=r"^generator index must be 1\.\.4, got 5$"):
        pc_momentum(5)


VERIFY_SUITES = (
    verify_canonical_relations, verify_induced_relations, so4.verify_so4_relations,
    so4.verify_recomposition, so4.verify_component_closure, so4.verify_casimir_commutes,
    so4.casimir_expansion, so4.verify_casimir_expansion,
)


def _memoised(p: NcPolynomial, q: NcPolynomial) -> bool:
    return multiply(p, q) is multiply(p, q)


def test_each_verify_suite_shares_products_and_leaves_no_scope(monkeypatch):
    p, q = generator_poly("P", "+", 1), generator_poly("X", "+", 1)
    assert not _memoised(p, q)
    for suite in VERIFY_SUITES:
        scoped = []
        check_size = operators._check_size
        monkeypatch.setattr(operators, "_check_size",
                            lambda *args: scoped.append(operators._products.get() is not None) or check_size(*args))
        suite()
        monkeypatch.undo()
        assert scoped and all(scoped), suite.__name__
        assert not _memoised(p, q), suite.__name__
    with limits(window=(-1, 1)):
        with pytest.raises(DegreeWindowError):
            verify_induced_relations()
    assert not _memoised(p, q)


def test_a_thread_started_in_a_scope_shares_no_products():
    p, q = generator_poly("P", "+", 1), generator_poly("X", "+", 1)
    seen = []
    with shared_products():
        thread = threading.Thread(target=lambda: seen.append(_memoised(p, q)))
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert _memoised(p, q)
    assert seen == [False]
