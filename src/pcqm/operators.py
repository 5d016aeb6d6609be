"""Noncommutative polynomial algebra over the canonical branch generators.

Sixteen generators: coordinates and momenta ``X<b>_i``, ``P<b>_i`` for
branch ``b`` in ``{+,-}`` and index ``i`` in 1..4.  Same-branch pairs obey
``[X_i, P_j] = i*delta_ij``; cross-branch and same-kind generators commute.
Words rewrite to a unique normal form under the generator order
``X+ < P+ < X- < P-`` (ascending index within each block), so polynomial
equality is map equality.

The physical single-branch operators ``x_i``, ``y_i``, ``px_i``, ``py_i``
are aliases over the branch generators; ``y`` and ``py`` carry an explicit
``1/(2l)`` so the recombination ``X_i = x_i + I*l*y_i`` holds identically.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .limits import current_limits
from .reports import Check, IdentityReport
from .scalars import (
    PC_ONE,
    PC_ZERO,
    PcScalar,
    SIGMA_MINUS,
    SIGMA_PLUS,
    _atom_str,
    _atoms,
    _join_signed,
    pc_imag,
    pc_l,
    pc_rational,
    render_pc,
)

INDICES = (1, 2, 3, 4)
BRANCHES = ("+", "-")

_BLOCK = {("X", "+"): 0, ("P", "+"): 1, ("X", "-"): 2, ("P", "-"): 3}


class WordLengthError(ValueError):
    """A product would exceed the configured word-length cap."""


class ProductSizeError(ValueError):
    """A product would pair more terms than ``MAX_TERM_PAIRS``."""


# Largest term-pair count of one product.  verify and the tests peak at 272
# pairs and the eval-warm benchmark stream at 1,060.  The largest Casimir
# product, Cx*Cx (48,400 pairs, 6 s as a process), stays allowed, while
# (x_1+...+px_4)^5 (64,208 pairs in its last product) is refused.
MAX_TERM_PAIRS = 50_000


class Generator(NamedTuple):
    kind: str
    branch: str
    index: int

    @property
    def sort_key(self) -> tuple[int, int]:
        return (_BLOCK[(self.kind, self.branch)], self.index)

    def __str__(self) -> str:
        return f"{self.kind}{self.branch}_{self.index}"


def gen(kind: str, branch: str, index: int) -> Generator:
    if kind not in ("X", "P"):
        raise ValueError(f"generator kind must be X or P, got {kind!r}")
    if branch not in BRANCHES:
        raise ValueError(f"generator branch must be + or -, got {branch!r}")
    if index not in INDICES:
        raise ValueError(f"generator index must be 1..4, got {index!r}")
    return Generator(kind, branch, index)


Word = tuple[Generator, ...]


def _word_key(word: Word) -> tuple:
    return tuple(g.sort_key for g in word)


def render_word(word: Word) -> str:
    return "*".join(str(g) for g in word) if word else "1"


def _accumulate(
    out: dict[Word, PcScalar], items: Iterable[tuple[Word, PcScalar]]
) -> dict[Word, PcScalar]:
    """Add ``(word, coeff)`` pairs into ``out``, dropping words that cancel."""
    for word, coeff in items:
        prev = out.get(word)
        total = coeff if prev is None else prev + coeff
        if total.is_zero():
            out.pop(word, None)
        else:
            out[word] = total
    return out


class NcPolynomial:
    """Finite map word -> PcScalar; zero coefficients are never stored."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, PcScalar] | Iterable[tuple[Word, PcScalar]] = ()):
        items = terms.items() if isinstance(terms, dict) or hasattr(terms, "items") else terms
        self._terms = _accumulate({}, items)

    @classmethod
    def zero(cls) -> "NcPolynomial":
        return cls()

    @classmethod
    def scalar(cls, c: PcScalar | Fraction | int) -> "NcPolynomial":
        if not isinstance(c, PcScalar):
            c = pc_rational(c)
        return cls({(): c})

    @classmethod
    def from_word(cls, word: Sequence[Generator], coeff: PcScalar = PC_ONE) -> "NcPolynomial":
        word, cap = tuple(word), current_limits().word_cap
        if len(word) > cap:
            raise WordLengthError(f"word length {len(word)} exceeds cap {cap}")
        return cls({word: coeff})

    def terms(self) -> dict[Word, PcScalar]:
        return dict(self._terms)

    def coefficient(self, word: Sequence[Generator]) -> PcScalar:
        return self._terms.get(tuple(word), PC_ZERO)

    def words(self) -> tuple[Word, ...]:
        return tuple(sorted(self._terms, key=_word_key))

    def is_zero(self) -> bool:
        return not self._terms

    def branches(self) -> set[str]:
        return {g.branch for word in self._terms for g in word}

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        result = NcPolynomial.__new__(NcPolynomial)
        result._terms = _accumulate(dict(self._terms), other._terms.items())
        return result

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-other)

    def __neg__(self) -> "NcPolynomial":
        result = NcPolynomial.__new__(NcPolynomial)
        result._terms = {w: -c for w, c in self._terms.items()}
        return result

    def __mul__(self, other):
        if isinstance(other, NcPolynomial):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # Scalar coefficients commute with everything.
        return self.scale(other)

    def __pow__(self, n: int) -> "NcPolynomial":
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        out = NcPolynomial.scalar(PC_ONE)
        for _ in range(n):
            out = multiply(out, self)
        return out

    def scale(self, c) -> "NcPolynomial":
        if not isinstance(c, PcScalar):
            c = pc_rational(c)
        return NcPolynomial({w: coeff * c for w, coeff in self._terms.items()})

    def __truediv__(self, q: Fraction | int) -> "NcPolynomial":
        return self.scale(Fraction(1, 1) / Fraction(q))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NcPolynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(((w, c) for w, c in self._terms.items()), key=lambda t: _word_key(t[0]))))

    def render(self) -> str:
        return render_poly(self)

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"NcPolynomial({render_poly(self)!r})"


def render_poly(p: NcPolynomial) -> str:
    """Canonical text form; longest words first, CLI-parseable."""
    order = sorted(p.terms().items(), key=lambda t: (-len(t[0]), _word_key(t[0])))
    return _join_signed(_signed_term(word, coeff) for word, coeff in order)


def _signed_term(word: Word, coeff: PcScalar) -> tuple[str, bool]:
    """One rendered term and whether it carries a leading minus sign."""
    atoms = _atoms(coeff)
    if len(atoms) == 1:
        body, negative = _atom_str(*atoms[0]), atoms[0][0] < 0
    else:
        body, negative = f"({render_pc(coeff)})", False
    if word:
        body = render_word(word) if body == "1" else f"{body}*{render_word(word)}"
    return body, negative


_MINUS_I = pc_imag(-1)


def normal_form(
    p: NcPolynomial,
    pick: Callable[[Sequence[int]], int] | None = None,
) -> NcPolynomial:
    """Rewrite every word into the unique sorted normal form.

    Each swap of an adjacent out-of-order pair commutes freely except for a
    same-branch ``P_j X_i`` pair, which also emits ``-i*delta_ij`` times the
    shortened word.  ``pick`` selects which out-of-order position to rewrite
    next (defaults to the leftmost); any choice yields the same result.
    """
    out: dict[Word, PcScalar] = {}
    stack: list[tuple[Word, PcScalar]] = list(p.terms().items())
    while stack:
        word, coeff = stack.pop()
        positions = [
            t for t in range(len(word) - 1) if word[t].sort_key > word[t + 1].sort_key
        ]
        if not positions:
            _accumulate(out, ((word, coeff),))
            continue
        t = positions[0] if pick is None else pick(positions)
        a, b = word[t], word[t + 1]
        stack.append((word[:t] + (b, a) + word[t + 2 :], coeff))
        if a.kind == "P" and b.kind == "X" and a.branch == b.branch and a.index == b.index:
            stack.append((word[:t] + word[t + 2 :], coeff * _MINUS_I))
    return NcPolynomial(out)


def multiply(p: NcPolynomial, q: NcPolynomial) -> NcPolynomial:
    """Concatenate words, then normal-order.  Bilinear and associative."""
    pairs = len(p._terms) * len(q._terms)
    if pairs > MAX_TERM_PAIRS:
        raise ProductSizeError(f"product of {pairs} term pairs exceeds {MAX_TERM_PAIRS}")
    raw: dict[Word, PcScalar] = {}
    cap = current_limits().word_cap
    for w1, c1 in p.terms().items():
        for w2, c2 in q.terms().items():
            if len(w1) + len(w2) > cap:
                raise WordLengthError(
                    f"product word length {len(w1) + len(w2)} exceeds cap {cap}"
                )
            word = w1 + w2
            prev = raw.get(word)
            c = c1 * c2
            raw[word] = c if prev is None else prev + c
    return normal_form(NcPolynomial(raw))


def commutator(p: NcPolynomial, q: NcPolynomial) -> NcPolynomial:
    return multiply(p, q) - multiply(q, p)


def generator_poly(kind: str, branch: str, index: int) -> NcPolynomial:
    return NcPolynomial.from_word((gen(kind, branch, index),))


def pc_coordinate(index: int) -> NcPolynomial:
    """X_i = X+_i*sigma_plus + X-_i*sigma_minus."""
    return generator_poly("X", "+", index).scale(SIGMA_PLUS) + generator_poly(
        "X", "-", index
    ).scale(SIGMA_MINUS)


def pc_momentum(index: int) -> NcPolynomial:
    return generator_poly("P", "+", index).scale(SIGMA_PLUS) + generator_poly(
        "P", "-", index
    ).scale(SIGMA_MINUS)


_HALF = pc_rational(Fraction(1, 2))
_HALF_OVER_L = pc_l(-1, Fraction(1, 2))


def expand_alias(name: str, index: int) -> NcPolynomial:
    """x, y, px, py in terms of the branch generators.

    x_i = (X+_i + X-_i)/2      y_i  = (X+_i - X-_i)/(2l)
    px_i = (P+_i + P-_i)/2     py_i = (P+_i - P-_i)/(2l)
    """
    if index not in INDICES:
        raise ValueError(f"alias index must be 1..4, got {index!r}")
    kind = "X" if name in ("x", "y") else "P" if name in ("px", "py") else None
    if kind is None:
        raise ValueError(f"unknown alias symbol {name!r}")
    plus = generator_poly(kind, "+", index)
    minus = generator_poly(kind, "-", index)
    if name in ("x", "px"):
        return (plus + minus).scale(_HALF)
    return (plus - minus).scale(_HALF_OVER_L)


def _delta(i: int, j: int) -> int:
    return 1 if i == j else 0


def verify_canonical_relations() -> IdentityReport:
    """Check the canonical branch quantization for every branch/index pair.

    Same branch: [X_i, P_j] = i*delta_ij (32 relations); cross branch:
    [X_i, P_j] = 0 (32 relations).
    """
    checks: list[Check] = []
    for b in BRANCHES:
        for i, j in itertools.product(INDICES, INDICES):
            residual = commutator(
                generator_poly("X", b, i), generator_poly("P", b, j)
            ) - NcPolynomial.scalar(pc_imag(_delta(i, j)))
            checks.append(Check.of("same-branch", f"[X{b}_{i}, P{b}_{j}]", residual))
    for b, other in (("+", "-"), ("-", "+")):
        for i, j in itertools.product(INDICES, INDICES):
            residual = commutator(generator_poly("X", b, i), generator_poly("P", other, j))
            checks.append(Check.of("cross-branch", f"[X{b}_{i}, P{other}_{j}]", residual))
    return IdentityReport(name="canonical-quantization", checks=tuple(checks))


_L_SQUARED = pc_l(2)


def verify_induced_relations() -> IdentityReport:
    """Check the induced relations among x, y, px, py for all index pairs.

    Six families:
      [x_i, x_j]  = -l^2 [y_i, y_j]        [x_i, y_j]  = -[y_i, x_j]
      [px_i, px_j] = -l^2 [py_i, py_j]     [px_i, py_j] = -[py_i, px_j]
      [x_i, px_j] = i*delta_ij - l^2 [y_i, py_j]
      [x_i, py_j] = -[y_i, px_j]
    """
    x = {i: expand_alias("x", i) for i in INDICES}
    y = {i: expand_alias("y", i) for i in INDICES}
    px = {i: expand_alias("px", i) for i in INDICES}
    py = {i: expand_alias("py", i) for i in INDICES}

    def residuals(i: int, j: int) -> list[tuple[str, NcPolynomial]]:
        delta = NcPolynomial.scalar(pc_imag(_delta(i, j)))
        return [
            ("coordinate-coordinate", commutator(x[i], x[j]) + commutator(y[i], y[j]).scale(_L_SQUARED)),
            ("coordinate-mixed", commutator(x[i], y[j]) + commutator(y[i], x[j])),
            ("momentum-momentum", commutator(px[i], px[j]) + commutator(py[i], py[j]).scale(_L_SQUARED)),
            ("momentum-mixed", commutator(px[i], py[j]) + commutator(py[i], px[j])),
            ("coordinate-momentum", commutator(x[i], px[j]) - delta + commutator(y[i], py[j]).scale(_L_SQUARED)),
            ("coordinate-momentum-mixed", commutator(x[i], py[j]) + commutator(y[i], px[j])),
        ]

    checks = [
        Check.of(family, f"i={i} j={j}", r)
        for i, j in itertools.product(INDICES, INDICES)
        for family, r in residuals(i, j)
    ]
    return IdentityReport(name="induced-relations", checks=tuple(checks))
