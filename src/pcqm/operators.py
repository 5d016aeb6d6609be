"""Noncommutative polynomial algebra over the canonical branch generators.

Sixteen generators: coordinates and momenta ``X<b>_i``, ``P<b>_i`` for
branch ``b`` in ``{+,-}`` and index ``i`` in 1..4.  Same-branch pairs obey
``[X_i, P_j] = i*delta_ij``; cross-branch and same-kind generators commute.
Words rewrite to a unique normal form under the generator order
``X+ < P+ < X- < P-`` (ascending index within each block).  Every
polynomial is stored in that form, normal-ordered once when it is built,
so polynomial equality is map equality and products read sorted words only.

The physical single-branch operators ``x_i``, ``y_i``, ``px_i``, ``py_i``
are aliases over the branch generators; ``y`` and ``py`` carry an explicit
``1/(2l)`` so the recombination ``X_i = x_i + I*l*y_i`` holds identically.
"""

from __future__ import annotations

import contextlib
import itertools
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache, wraps
from math import comb, factorial
from typing import Callable, Iterable, Mapping, Sequence

from .limits import current_limits, default_limits
from .reports import Check, IdentityReport
from .scalars import (
    PC_ONE,
    BaseScalar,
    PcScalar,
    SIGMA_MINUS,
    SIGMA_PLUS,
    _atom_texts,
    _join_signed,
    _mul,
    _pc,
    bits_renderable,
    pc_imag,
    pc_l,
    pc_rational,
    stored_bits,
)

INDICES = (1, 2, 3, 4)
BRANCHES = ("+", "-")
# The alias symbols, each with the kind of the generators it is built from.
ALIASES = {"x": "X", "y": "X", "px": "P", "py": "P"}


class WordLengthError(ValueError):
    """A product would exceed the configured word-length cap."""


class ProductSizeError(ValueError):
    """A product would pair more terms than ``MAX_TERM_PAIRS``."""


# Largest term-pair count of one product.  verify and the tests peak at 272
# pairs and the eval-warm benchmark stream at 1,060.  The largest Casimir
# product, Cx*Cx (48,400 pairs, 0.76 s as a process on a 2-vCPU VM where
# start-up, `pcqm eval 1`, takes 0.21 s; medians of 7), stays allowed, while
# (x_1+...+px_4)^5 (64,208 pairs in its last product) is refused.
MAX_TERM_PAIRS = 50_000


class Generator(int):
    """A generator stored as its normal-order rank: block ``rank // 4``
    (X+, P+, X-, P-) and index ``rank % 4 + 1``.  Words, tuples of
    generators, therefore sort in normal order as plain tuples."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return "XP"[self // 4 % 2]

    @property
    def branch(self) -> str:
        return BRANCHES[self // 8]

    @property
    def index(self) -> int:
        return self % 4 + 1

    @property
    def sort_key(self) -> int:
        return int(self)

    def __str__(self) -> str:
        return f"{self.kind}{self.branch}_{self.index}"

    def __repr__(self) -> str:
        return f"gen({self.kind!r}, {self.branch!r}, {self.index})"


_GENERATORS = {(g.kind, g.branch, g.index): g for g in map(Generator, range(16))}


def gen(kind: str, branch: str, index: int) -> Generator:
    if kind not in ("X", "P"):
        raise ValueError(f"generator kind must be X or P, got {kind!r}")
    if branch not in BRANCHES:
        raise ValueError(f"generator branch must be + or -, got {branch!r}")
    if index not in INDICES:
        raise ValueError(f"generator index must be 1..4, got {index!r}")
    return _GENERATORS[kind, branch, index]


Word = tuple[Generator, ...]


_NAMES = tuple(str(g) for g in map(Generator, range(16)))


def render_word(word: Word) -> str:
    return "*".join([_NAMES[g] for g in word]) if word else "1"


Terms = dict[Word, BaseScalar]


def _accumulate(out: Terms, items: Iterable[tuple[Word, BaseScalar]]) -> Terms:
    """Add ``(word, coeff)`` pairs into ``out``, dropping words that cancel."""
    for word, coeff in items:
        prev = out.get(word)
        total = coeff if prev is None else prev + coeff
        if total.is_zero():
            out.pop(word, None)
        else:
            out[word] = total
    return out


def _difference(a: Terms, b: Terms) -> Terms:
    """``a - b`` without a negated copy of ``b``.

    Equal values have equal storage (see ``BaseScalar``), so a word whose
    coefficients are stored alike cancels without arithmetic, and any other
    difference is nonzero.
    """
    out = dict(a)
    for word, coeff in b.items():
        prev = out.get(word)
        if prev is None:
            out[word] = -coeff
        elif prev._den == coeff._den and prev._num == coeff._num:
            del out[word]
        else:
            out[word] = prev - coeff
    return out


def _share(plus: Terms, minus: Terms) -> tuple[Terms, Terms]:
    """The component maps to store: one map for both when they are equal."""
    return plus, plus if minus is plus or minus == plus else minus


def _poly(plus: Terms, minus: Terms) -> "NcPolynomial":
    out = object.__new__(NcPolynomial)
    out._plus, out._minus = _share(plus, minus)
    out._scanned = out._bits = None
    return out


def _by_component(f: Callable[..., Terms], *operands) -> "NcPolynomial":
    """Apply ``f`` to the sigma_plus maps of ``operands``, then to their
    sigma_minus maps; when every operand is real, the first result serves
    both.  Operands are polynomials or ``PcScalar``s, which both store
    ``_plus`` and ``_minus``."""
    plus = f(*[o._plus for o in operands])
    for o in operands:
        if o._minus is not o._plus:
            return _poly(plus, f(*[o._minus for o in operands]))
    return _poly(plus, plus)


def _words(p: "NcPolynomial") -> Iterable[Word]:
    """Every word with a nonzero coefficient, in no particular order."""
    return p._plus.keys() if p._minus is p._plus else p._plus.keys() | p._minus.keys()


with default_limits():
    _ZERO = BaseScalar.zero()
    _UNIT = BaseScalar.gaussian(1, 0)
    # (-i)^k for k = 0..3.
    _MINUS_I_POWERS = tuple(
        BaseScalar.gaussian(re, im) for re, im in ((1, 0), (0, -1), (-1, 0), (0, 1))
    )


class NcPolynomial:
    """Finite map word -> PcScalar; zero coefficients are never stored.

    Stored as the coefficients' sigma_plus and sigma_minus components, two
    maps sorted word -> nonzero BaseScalar, so products and normal ordering
    work on each component alone.  A polynomial without pseudo-imaginary part
    keeps one map for both.  The maps are never mutated after construction,
    so the operand scan of products (``_scan``) and the largest stored bit
    length (``renderable``) are kept in ``_scanned`` and ``_bits`` from
    first use.

    The constructor normal-orders ``terms`` under the window in force: each
    word's run product (``_run_product``) serves both component maps, and a
    contracted term's coefficient is checked against the window.
    """

    __slots__ = ("_plus", "_minus", "_scanned", "_bits")

    def __init__(self, terms: Mapping[Word, PcScalar] | Iterable[tuple[Word, PcScalar]] = ()):
        items = list(terms.items() if hasattr(terms, "items") else terms)
        runs: dict[Word, Terms] = {}
        window = current_limits().window

        def ordered(component: Terms) -> Terms:
            out: Terms = {}
            for word, c in component.items():
                n, run = len(word), runs.get(word)
                if run is None:
                    run = runs[word] = _run_product(word)
                _accumulate(out, ((w, c if len(w) == n else _mul(c, s, window)) for w, s in run.items()))
            return out

        self._plus, self._minus = _share(
            ordered(_accumulate({}, ((w, c._plus) for w, c in items))),
            ordered(_accumulate({}, ((w, c._minus) for w, c in items))),
        )
        self._scanned = self._bits = None

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
        plus, minus = self._plus, self._minus
        if minus is plus:
            return {w: _pc(c, c) for w, c in plus.items()}
        return {w: _pc(plus.get(w, _ZERO), minus.get(w, _ZERO)) for w in _words(self)}

    def coefficient(self, word: Sequence[Generator]) -> PcScalar:
        word = tuple(word)
        return _pc(self._plus.get(word, _ZERO), self._minus.get(word, _ZERO))

    def __contains__(self, word: Word) -> bool:
        return word in self._plus or word in self._minus

    def words(self) -> tuple[Word, ...]:
        return tuple(sorted(_words(self)))

    def is_zero(self) -> bool:
        return not self._plus and not self._minus

    def branches(self) -> set[str]:
        return {g.branch for word in _words(self) for g in word}

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        return _by_component(lambda a, b: _accumulate(dict(a), b.items()), self, other)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return _by_component(_difference, self, other)

    def __neg__(self) -> "NcPolynomial":
        return _by_component(lambda a: {w: -c for w, c in a.items()}, self)

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
        """Each coefficient times ``c``, component by component.  Laurent
        polynomials over Q(i) have no zero divisors, so nothing cancels: a
        nonzero component scales every word, and a zero one gives no words."""
        if not isinstance(c, PcScalar):
            c = pc_rational(c)
        window = current_limits().window
        return _by_component(lambda a, s: {w: _mul(v, s, window) for w, v in a.items()} if s._num else {}, self, c)

    def __truediv__(self, q: Fraction | int) -> "NcPolynomial":
        return self.scale(Fraction(1, 1) / Fraction(q))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NcPolynomial)
            and self._plus == other._plus
            and self._minus == other._minus
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.terms().items()))

    def render(self) -> str:
        return render_poly(self)

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"NcPolynomial({render_poly(self)!r})"


def poly_sum(polys: Sequence[NcPolynomial]) -> NcPolynomial:
    """The sum of ``polys`` in one accumulation, so a long sum stays linear."""
    return _by_component(lambda *maps: _accumulate({}, (t for m in maps for t in m.items())), *polys)


def render_poly(p: NcPolynomial) -> str:
    """Canonical text form; longest words first, CLI-parseable.  Each
    coefficient is read from the two component maps, with no ``PcScalar``
    built for it, and rendered once per pair of component objects: products
    share one object among many words."""
    plus, minus = p._plus, p._minus
    words = sorted(_words(p))
    words.sort(key=len, reverse=True)  # stable: equal lengths stay sorted
    # Keyed on object ids, which stay unique while ``p`` holds the objects.
    coeffs: dict[tuple[int, int], tuple[str, bool]] = {}
    terms = []
    for word in words:
        x, y = plus.get(word, _ZERO), minus.get(word, _ZERO)
        key = id(x), id(y)
        coeff = coeffs.get(key)
        if coeff is None:
            atoms = list(_atom_texts(x, y))
            coeff = coeffs[key] = atoms[0] if len(atoms) == 1 else (f"({_join_signed(atoms)})", False)
        body, negative = coeff
        if word:
            body = render_word(word) if body == "1" else f"{body}*{render_word(word)}"
        terms.append((body, negative))
    return _join_signed(terms)


def renderable(p: NcPolynomial) -> NcPolynomial:
    """``p``, unless a coefficient is already too long to render; refusing it
    here stops a chain of products from growing it further, even where a
    later ``* 0`` would cancel it.  Only a polynomial with a large stored
    integer is rendered, and the renderer raises its digit-limit error.  The
    largest stored bit length is computed on first use and kept with ``p``;
    the digit limit is read on each call."""
    if p._bits is None:
        p._bits = stored_bits(p._plus.values(), () if p._minus is p._plus else p._minus.values())
    if not bits_renderable(p._bits):
        render_poly(p)
    return p


def normal_form(p: NcPolynomial) -> NcPolynomial:
    """``p`` itself: every polynomial is normal-ordered when it is built
    (see ``NcPolynomial``)."""
    return p


@lru_cache(maxsize=1024)
def _factors(m: int, n: int) -> tuple[int, ...]:
    """``C(m,k) C(n,k) k!`` for ``k = 0..min(m, n)``."""
    return tuple(comb(m, k) * comb(n, k) * factorial(k) for k in range(min(m, n) + 1))


def _contract(word: Word, w1: Word, w2: Word, ranks: int) -> list[tuple[Word, int]]:
    """The normal form of ``w1*w2`` as ``(word, factor)`` pairs, for words
    in which no ``X`` follows its own ``P``.  ``word`` is ``w1 + w2``
    sorted, and bit ``r`` of ``ranks`` is set where ``w1`` has the ``P`` of
    rank ``r + 4`` and ``w2`` the ``X`` of rank ``r``.

    Only an ``X`` and its own ``P`` fail to commute, so one contracting rank
    at a time, ``P^m X^n = sum_k C(m,k) C(n,k) k! (-i)^k X^(n-k) P^(m-k)``
    (Blasiak, Penson and Solomon, arXiv:quant-ph/0402027): the ``k``-th
    term drops ``k`` copies of the ``X`` and the ``P`` from the sorted word.
    The power of ``-i`` is left to the caller, which reads the number of
    contractions from the length lost.
    """
    terms = [(word, 1)]
    while ranks:
        r = (ranks & -ranks).bit_length() - 1
        ranks &= ranks - 1
        factors = _factors(w1.count(r + 4), w2.count(r))
        step = []
        for w, f in terms:
            x, p = w.index(r), w.index(r + 4)
            step += [(w[:x] + w[x + k : p] + w[p + k :], f * c) for k, c in enumerate(factors)]
        terms = step
    return terms


def _run_product(word: Word) -> Terms:
    """The normal form of any word as a map word -> ``(-i)^k f``, ``k`` the
    number of contractions and ``f`` a positive integer.

    A word in which no ``X`` follows its own ``P`` sorts.  Any other word is
    the product of its sorted runs, taken left to right by ``_product`` with
    unit coefficients under the degree-0 window, so each run junction takes
    the closed form in one step.
    """
    ps = 0
    for g in word:
        if g & 4:
            ps |= 1 << g
        elif ps >> (g + 4) & 1:
            break
    else:
        return {tuple(sorted(word)): _UNIT}
    cuts = [t for t in range(1, len(word)) if word[t - 1] > word[t]]
    runs = [word[a:b] for a, b in zip([0, *cuts], [*cuts, len(word)])]
    terms = {runs[0]: _UNIT}
    for run in runs[1:]:
        terms = _product(_scan_map(terms), _scan_map({run: _UNIT}), (0, 0))
    return terms


def _add_scaled(
    out: Terms, terms: Iterable[tuple[Word, int]], c: BaseScalar, length: int,
    window: tuple[int, int], scaled: dict, key: object,
) -> None:
    """Add ``c * f * (-i)^k * word`` to ``out`` for each ``(word, f)`` of
    ``terms`` of a word of ``length`` generators: ``k``, the number of
    contractions, is half the length lost.  A contracted term's coefficient
    is checked against the degree window, as a product's would be, and is
    formed once per ``(key, k, f)`` in ``scaled``, where ``key`` names ``c``."""
    items = []
    for w, f in terms:
        k = (length - len(w)) // 2
        s = c
        if k:
            s = scaled.get((key, k, f))
            if s is None:
                s = scaled[key, k, f] = _mul(c, _MINUS_I_POWERS[k % 4], window).scale(f)
        items.append((w, s))
    _accumulate(out, items)


def _scan_map(terms: Terms) -> tuple[list, list[BaseScalar]]:
    """``(entries, coeffs)`` of one component map of sorted words:
    ``(word, group, xs, ps)`` per term, and the distinct coefficients, which
    ``group`` indexes.  Bit ``r`` of ``xs`` is set for an ``X`` of rank ``r``
    and bit ``r`` of ``ps`` for its momentum, rank ``r + 4``, so two sorted
    words ``w1``, ``w2`` contract in ``w1 + w2`` exactly where ``ps`` of
    ``w1`` meets ``xs`` of ``w2``."""
    entries, groups = [], {}
    for w, c in terms.items():
        xs = ps = 0
        for g in w:
            if g & 4:
                ps |= 1 << (g - 4)
            else:
                xs |= 1 << g
        entries.append((w, groups.setdefault(c, len(groups)), xs, ps))
    return entries, list(groups)


def _scan(p: NcPolynomial) -> tuple[tuple, tuple, int, int, int, int]:
    """``(plus, minus, words, longest, lo, hi)``, computed on first use and
    kept with ``p``: the scan of each component map (one for a shared map),
    the number of words, the length of the longest word and the lowest and
    highest l-degree in either component (0 when ``p`` is zero).  None of
    it depends on the limits in force."""
    scan = p._scanned
    if scan is None:
        plus = _scan_map(p._plus)
        minus = plus if p._minus is p._plus else _scan_map(p._minus)
        words = _words(p)
        degrees = [d for c in plus[1] + minus[1] for d, _ in c._num] or [0]
        scan = p._scanned = (plus, minus, len(words), max(map(len, words), default=0), min(degrees), max(degrees))
    return scan


def _product(sa: tuple, sb: tuple, window: tuple[int, int], contracted: bool = False) -> Terms:
    """Every term pair of the two component maps scanned as ``sa`` and
    ``sb``, multiplied and added to the result in normal order.

    Each pair of sorted words takes the closed form: their concatenation,
    sorted, plus ``_contract``'s terms when the pair contracts.  A pair
    whose one contraction is a lone ``P_r`` of ``w1`` meeting a lone ``X_r``
    of ``w2`` is formed here: the sorted word, then ``-i`` times the word
    less its first ``X_r`` and ``P_r``.  The coefficients of each pair of
    groups ``(i, j)`` are multiplied once, at the first term pair that
    carries them, into the row table ``rows[i][j]``, so the first pair to
    leave the window raises as it would alone.  With ``contracted``, a pair
    that does not contract is skipped, and so is its uncontracted term.
    """
    (left, lc), (right, rc) = sa, sb
    rows: list[list] = [[None] * len(rc) for _ in lc]
    scaled: dict = {}
    out: Terms = {}
    get = out.get
    for w1, i, _, ps in left:
        row, c1 = rows[i], lc[i]
        last = w1[-1] if w1 else -1
        for w2, j, xs, _ in right:
            hit = ps & xs
            if contracted and not hit:
                continue
            c = row[j]
            if c is None:
                c = row[j] = _mul(c1, rc[j], window)
            word = w1 + w2 if not w2 or last <= w2[0] else tuple(sorted(w1 + w2))
            if hit:
                r = hit.bit_length() - 1
                if hit != 1 << r or w1.count(r + 4) > 1 or w2.count(r) > 1:
                    terms = _contract(word, w1, w2, hit)
                    _add_scaled(out, terms[1:] if contracted else terms, c, len(word), window, scaled, (i, j))
                    continue
                if not contracted:
                    _accumulate(out, ((word, c),))
                s = scaled.get(((i, j), 1, 1))
                if s is None:
                    s = scaled[(i, j), 1, 1] = _mul(c, _MINUS_I_POWERS[1], window)
                x, p = word.index(r), word.index(r + 4)
                word, c = word[:x] + word[x + 1 : p] + word[p + 1 :], s
            prev = get(word)
            if prev is None:
                out[word] = c
            else:
                total = prev + c
                if total.is_zero():
                    del out[word]
                else:
                    out[word] = total
    return out


def _check_size(pairs: int, longest: int, word_cap: int) -> None:
    """Refuse a product of ``pairs`` term pairs that pairs more than
    ``MAX_TERM_PAIRS``, or whose longest word pair, of ``longest``
    generators, exceeds ``word_cap``."""
    if pairs > MAX_TERM_PAIRS:
        raise ProductSizeError(f"product of {pairs} term pairs exceeds {MAX_TERM_PAIRS}")
    if pairs and longest > word_cap:
        raise WordLengthError(f"product word length {longest} exceeds cap {word_cap}")


# Products of the innermost ``shared_products`` scope (None outside, as in a new
# thread), keyed on operand ids, window and ``contracted``; each holds its operands.
_products: ContextVar[dict | None] = ContextVar("pcqm_products", default=None)


@contextlib.contextmanager
def shared_products():
    """Inside this ``with`` block or decorated function, ``multiply`` forms the
    product of two operand objects once per degree window, after its size check."""
    token = _products.set({})
    try:
        yield
    finally:
        _products.reset(token)


def suite(name: str, schema: str = "identity-report/v1"):
    """Make a generator of claims a verify suite: the decorated function runs it
    in one ``shared_products`` scope and returns the ``IdentityReport`` ``name``
    of its checks, in order.  A claim is a ready ``Check``, or the arguments of
    ``Check.of``: ``(family, label, residual)`` or ``(..., extra)``."""

    def decorate(claims: Callable[[], Iterable]) -> Callable[[], IdentityReport]:
        @wraps(claims)
        def run() -> IdentityReport:
            with shared_products():
                checks = tuple(c if isinstance(c, Check) else Check.of(*c) for c in claims())
            return IdentityReport(name, checks, schema)

        return run

    return decorate


def multiply(p: NcPolynomial, q: NcPolynomial, *, contracted: bool = False) -> NcPolynomial:
    """Normal-order the concatenation of every term pair.  Bilinear and
    associative.  ``contracted`` keeps only the terms with a contraction,
    unless a term could leave the degree window (see ``commutator``).

    Each component of the result is the product of the operands' components
    alone, so all sigma_plus pairs are multiplied before any sigma_minus pair.
    """
    lim = current_limits()
    window = lim.window
    p_plus, p_minus, p_words, p_longest, p_lo, p_hi = _scan(p)
    q_plus, q_minus, q_words, q_longest, q_lo, q_hi = _scan(q)
    _check_size(p_words * q_words, p_longest + q_longest, lim.word_cap)
    # Skipped products may raise too: where the operands' degrees may add past the window, form all.
    contracted = contracted and window[0] <= p_lo + q_lo and p_hi + q_hi <= window[1]
    memo = _products.get()
    if memo is not None and (key := (id(p), id(q), window, contracted)) in memo:
        return memo[key][2]
    plus = _product(p_plus, q_plus, window, contracted)
    real = p._minus is p._plus and q._minus is q._plus
    out = _poly(plus, plus if real else _product(p_minus, q_minus, window, contracted))
    if memo is not None:
        memo[key] = p, q, out
    return out


def commutator(p: NcPolynomial, q: NcPolynomial) -> NcPolynomial:
    """``pq - qp``.  For sorted words ``u`` and ``v``, ``uv`` and ``vu`` share their
    uncontracted term, so the bracket is the difference of the contracted terms alone."""
    return multiply(p, q, contracted=True) - multiply(q, p, contracted=True)


with default_limits():
    # Shared by every caller: no word cap or degree window refuses one generator.
    _GENERATOR_POLYS = tuple(NcPolynomial({(g,): PC_ONE}) for g in map(Generator, range(16)))
    _HALF = pc_rational(Fraction(1, 2))
    _HALF_OVER_L = pc_l(-1, Fraction(1, 2))
    # i*delta_ij for delta_ij = 0 and 1.
    _DELTAS = (NcPolynomial.scalar(pc_imag(0)), NcPolynomial.scalar(pc_imag(1)))
    _L2 = pc_l(2)


def generator_poly(kind: str, branch: str, index: int) -> NcPolynomial:
    return _GENERATOR_POLYS[gen(kind, branch, index)]


def pc_coordinate(index: int) -> NcPolynomial:
    """X_i = X+_i*sigma_plus + X-_i*sigma_minus."""
    return _leaf(None, gen("X", "+", index), current_limits().window)


def pc_momentum(index: int) -> NcPolynomial:
    return _leaf(None, gen("P", "+", index), current_limits().window)


def expand_alias(name: str, index: int) -> NcPolynomial:
    """x, y, px, py in terms of the branch generators.

    x_i = (X+_i + X-_i)/2      y_i  = (X+_i - X-_i)/(2l)
    px_i = (P+_i + P-_i)/2     py_i = (P+_i - P-_i)/(2l)
    """
    if index not in INDICES:
        raise ValueError(f"alias index must be 1..4, got {index!r}")
    kind = ALIASES.get(name) if isinstance(name, str) else None
    if kind is None:
        raise ValueError(f"unknown alias symbol {name!r}")
    return _leaf(name, gen(kind, "+", index), current_limits().window)


@lru_cache(maxsize=384)  # the 24 leaves under 16 degree windows
def _leaf(name: str | None, g: Generator, window: tuple[int, int]) -> NcPolynomial:
    """The alias ``name``, or the pc operator for None, over the branch +
    generator ``g`` and its branch - twin, eight ranks up: shared, and built once
    per degree window (the one in force), which its scaling checks."""
    plus, minus = _GENERATOR_POLYS[g], _GENERATOR_POLYS[g + 8]
    if name is None:
        return plus.scale(SIGMA_PLUS) + minus.scale(SIGMA_MINUS)
    if name in ("x", "px"):
        return (plus + minus).scale(_HALF)
    return (plus - minus).scale(_HALF_OVER_L)


@suite("canonical-quantization")
def verify_canonical_relations():
    """Check the canonical branch quantization for every branch/index pair.

    Same branch: [X_i, P_j] = i*delta_ij (32 relations); cross branch:
    [X_i, P_j] = 0 (32 relations).
    """
    for b, other in (("+", "+"), ("-", "-"), ("+", "-"), ("-", "+")):
        family = "same-branch" if b == other else "cross-branch"
        for i, j in itertools.product(INDICES, INDICES):
            delta = _DELTAS[b == other and i == j]
            residual = commutator(generator_poly("X", b, i), generator_poly("P", other, j)) - delta
            yield family, f"[X{b}_{i}, P{other}_{j}]", residual


@suite("induced-relations")
def verify_induced_relations():
    """Check the induced relations among x, y, px, py for all index pairs.

    Six families:
      [x_i, x_j]  = -l^2 [y_i, y_j]        [x_i, y_j]  = -[y_i, x_j]
      [px_i, px_j] = -l^2 [py_i, py_j]     [px_i, py_j] = -[py_i, px_j]
      [x_i, px_j] = i*delta_ij - l^2 [y_i, py_j]
      [x_i, py_j] = -[y_i, px_j]
    """
    x, y, px, py = ({i: expand_alias(name, i) for i in INDICES} for name in ALIASES)
    for i, j in itertools.product(INDICES, INDICES):
        delta, label = _DELTAS[i == j], f"i={i} j={j}"
        yield "coordinate-coordinate", label, commutator(x[i], x[j]) + commutator(y[i], y[j]).scale(_L2)
        yield "coordinate-mixed", label, commutator(x[i], y[j]) + commutator(y[i], x[j])
        yield "momentum-momentum", label, commutator(px[i], px[j]) + commutator(py[i], py[j]).scale(_L2)
        yield "momentum-mixed", label, commutator(px[i], py[j]) + commutator(py[i], px[j])
        yield "coordinate-momentum", label, commutator(x[i], px[j]) - delta + commutator(y[i], py[j]).scale(_L2)
        yield "coordinate-momentum-mixed", label, commutator(x[i], py[j]) + commutator(y[i], px[j])
