"""Shared test utilities: an independent rewriting oracle, random builders
and a reference tokenizer.

The oracle normal-orders words by recursive swap-at-a-time reduction
(rightmost out-of-order pair first, unless told otherwise) and multiplies by
right-folded concatenation, deliberately a different code path from the
engine's closed-form products of sorted words.
"""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

from pcqm.expr import MAX_LITERAL_DIGITS, ExprSyntaxError
from pcqm.operators import NcPolynomial, gen
from pcqm.scalars import (
    BaseScalar,
    GaussianRational,
    PC_ZERO,
    PcScalar,
    pc_imag,
)

MINUS_I = pc_imag(-1)


def oracle_normal_order(terms: dict[tuple, PcScalar], pick=None) -> dict[tuple, PcScalar]:
    """Normal-order ``terms`` one adjacent swap at a time.

    ``pick`` receives the positions of the out-of-order adjacent pairs of a
    word and returns the one to reduce; the default is the rightmost.  The
    rewrite system is confluent, so every choice gives the same result.
    """
    out: dict[tuple, PcScalar] = {}

    def reduce(word: tuple, coeff: PcScalar) -> None:
        positions = [t for t in range(len(word) - 1) if word[t].sort_key > word[t + 1].sort_key]
        if positions:
            t = positions[-1] if pick is None else pick(positions)
            a, b = word[t], word[t + 1]
            reduce(word[:t] + (b, a) + word[t + 2 :], coeff)
            if (
                a.kind == "P"
                and b.kind == "X"
                and a.branch == b.branch
                and a.index == b.index
            ):
                reduce(word[:t] + word[t + 2 :], coeff * MINUS_I)
            return
        total = out.get(word, PC_ZERO) + coeff
        if total.is_zero():
            out.pop(word, None)
        else:
            out[word] = total

    for word, coeff in terms.items():
        reduce(word, coeff)
    return out


def oracle_multiply(p: dict[tuple, PcScalar], q: dict[tuple, PcScalar]) -> dict[tuple, PcScalar]:
    raw: dict[tuple, PcScalar] = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            word = w1 + w2
            prev = raw.get(word, PC_ZERO)
            raw[word] = prev + c1 * c2
    return oracle_normal_order(raw)


def oracle_poly(p: NcPolynomial) -> dict[tuple, PcScalar]:
    return {w: c for w, c in p.terms().items() if not c.is_zero()}


def assert_oracle_equal(p: NcPolynomial, terms: dict[tuple, PcScalar]) -> None:
    cleaned = {w: c for w, c in terms.items() if not c.is_zero()}
    assert p.terms() == cleaned


ALL_GENERATORS = tuple(
    gen(kind, branch, index)
    for kind in ("X", "P")
    for branch in ("+", "-")
    for index in (1, 2, 3, 4)
)


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def random_pc_scalar(rng: random.Random, max_degree: int = 1) -> PcScalar:
    def part() -> BaseScalar:
        terms = {}
        for _ in range(rng.randint(0, 2)):
            deg = rng.randint(-max_degree, max_degree)
            terms[deg] = GaussianRational(random_rational(rng), random_rational(rng))
        return BaseScalar(terms)

    return PcScalar(part(), part())


def random_word(rng: random.Random, max_len: int = 2, branch: str | None = None) -> tuple:
    pool = (
        ALL_GENERATORS
        if branch is None
        else tuple(g for g in ALL_GENERATORS if g.branch == branch)
    )
    return tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len)))


def random_terms(
    rng: random.Random, max_terms: int = 3, max_len: int = 2, branch: str | None = None
) -> dict[tuple, PcScalar]:
    """Random raw terms: words in any order, as the oracle reads them."""
    terms: dict[tuple, PcScalar] = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[random_word(rng, max_len, branch)] = random_pc_scalar(rng)
    return terms


def random_poly(
    rng: random.Random, max_terms: int = 3, max_len: int = 2, branch: str | None = None
) -> NcPolynomial:
    return NcPolynomial(random_terms(rng, max_terms, max_len, branch))


_REFERENCE_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([+\-*/^()\[\],_]))")


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The expression tokenizer as one anchored match per token, the
    reference for ``pcqm.expr._tokenize``'s single scan."""
    tokens: list[tuple[str, str, int]] = []
    limit = sys.get_int_max_str_digits()  # 0: no interpreter limit
    max_digits = min(MAX_LITERAL_DIGITS, limit) if limit else MAX_LITERAL_DIGITS
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        if m.group(1):
            if len(m.group(1)) > max_digits:
                raise ExprSyntaxError(f"integer longer than {max_digits} digits", m.start(1))
            tokens.append(("INT", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("NAME", m.group(2), m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    return tokens
