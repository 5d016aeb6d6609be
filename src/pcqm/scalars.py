"""Exact pseudo-complex scalar arithmetic.

The coefficient domain of the whole symbolic layer: Laurent polynomials in
the formal length parameter ``l`` over Gaussian rationals, extended by the
pseudo-imaginary unit ``I`` with ``I*I == 1``.  The zero-divisor basis
``sigma_plus = (1+I)/2``, ``sigma_minus = (1-I)/2`` splits every scalar into
two independent components in which multiplication is componentwise.

Storage follows that split.  A ``BaseScalar`` is one flat dict
``(l_degree, has_i) -> nonzero Fraction``, where ``has_i`` marks the ordinary
imaginary unit ``i``.  A ``PcScalar`` stores its ``sigma_plus`` and
``sigma_minus`` components, so a product is two component products,
pseudo-conjugation is a swap, and the ``re + I*im`` parts are derived on
demand.

Everything here is exact rational arithmetic; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

Rational = Union[int, Fraction]
Terms = dict[tuple[int, bool], Fraction]


class DegreeWindowError(ArithmeticError):
    """A Laurent term in l fell outside the configured degree window."""


_degree_window = (-4, 4)


def set_degree_window(lo: int, hi: int) -> None:
    """Set the allowed range of l-exponents (inclusive bounds).

    The window is enforced on every term that ends up stored: the
    ``BaseScalar`` constructor and the result of a product, a ``shift`` or a
    ``reciprocal`` raise ``DegreeWindowError`` when a nonzero term falls
    outside it.  A term that cancels to zero is never stored and never
    raises, so ``(SIGMA_PLUS*pc_l(3)) * (SIGMA_MINUS*pc_l(2)) == 0`` under
    the default ``-4..4``.  Sums, negation and scaling by a constant keep the
    degrees of their operands and are not re-checked; narrowing the window
    therefore takes effect at the next product.
    """
    global _degree_window
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(f"empty degree window {lo}..{hi}")
    _degree_window = (lo, hi)


def get_degree_window() -> tuple[int, int]:
    return _degree_window


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex rational ``re + i*im`` (ordinary imaginary unit)."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re: Rational = 0, im: Rational = 0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def reciprocal(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("zero Gaussian rational has no reciprocal")
        return GaussianRational(self.re / n, -self.im / n)


_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def _gaussian_terms(degree: int, re: Rational, im: Rational) -> Terms:
    out = {}
    if re:
        out[(degree, False)] = Fraction(re)
    if im:
        out[(degree, True)] = Fraction(im)
    return out


def _sum(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for key, q in b.items():
        prev = out.get(key)
        if prev is None:
            out[key] = q
            continue
        total = prev + q
        if total:
            out[key] = total
        else:
            del out[key]
    return out


def _product(a: Terms, b: Terms) -> Terms:
    """Term-map product: degrees add, ``i*i`` flips the sign, zero sums drop."""
    out: Terms = {}
    get = out.get
    b_items = b.items()
    for (d1, i1), q1 in a.items():
        for (d2, i2), q2 in b_items:
            key = (d1 + d2, i1 ^ i2)
            p = q1 * q2
            prev = get(key)
            if i1 and i2:
                out[key] = -p if prev is None else prev - p
            else:
                out[key] = p if prev is None else prev + p
    return {key: q for key, q in out.items() if q}


def _in_window(terms: Terms) -> Terms:
    lo, hi = _degree_window
    for d, _ in terms:
        if d < lo or d > hi:
            raise DegreeWindowError(f"l^{d} outside degree window {lo}..{hi}")
    return terms


def _base(terms: Terms) -> "BaseScalar":
    """Wrap an already clean term map without re-validating it."""
    out = object.__new__(BaseScalar)
    out._terms = terms
    return out


class BaseScalar:
    """Laurent polynomial in l with Gaussian-rational coefficients.

    Stored as a flat map ``(l_degree, has_i) -> nonzero Fraction``; equality
    is term-map equality.  Construction and multiplication reject exponents
    outside the configured degree window (see ``set_degree_window``).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, GaussianRational] | Iterable[tuple[int, GaussianRational]] = ()):
        items = terms.items() if isinstance(terms, dict) or hasattr(terms, "items") else terms
        clean: Terms = {}
        for deg, coeff in items:
            clean = _sum(clean, _gaussian_terms(deg, coeff.re, coeff.im))
        self._terms = _in_window(clean)

    @classmethod
    def zero(cls) -> "BaseScalar":
        return cls()

    @classmethod
    def rational(cls, q: Rational) -> "BaseScalar":
        return cls([(0, GaussianRational.of(q))])

    @classmethod
    def gaussian(cls, re: Rational = 0, im: Rational = 0) -> "BaseScalar":
        return cls([(0, GaussianRational.of(re, im))])

    @classmethod
    def l_power(cls, degree: int, coeff: Rational = 1) -> "BaseScalar":
        return cls([(degree, GaussianRational.of(coeff))])

    def terms(self) -> tuple[tuple[int, GaussianRational], ...]:
        """``(degree, coefficient)`` pairs in ascending degree."""
        return tuple((d, self.coefficient(d)) for d in self.degrees())

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, degree: int) -> GaussianRational:
        t = self._terms
        return GaussianRational(t.get((degree, False), _ZERO), t.get((degree, True), _ZERO))

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({d for d, _ in self._terms}))

    def __add__(self, other: "BaseScalar") -> "BaseScalar":
        return _base(_sum(self._terms, other._terms))

    def __sub__(self, other: "BaseScalar") -> "BaseScalar":
        return self + (-other)

    def __neg__(self) -> "BaseScalar":
        return _base({key: -q for key, q in self._terms.items()})

    def __mul__(self, other: "BaseScalar") -> "BaseScalar":
        return _base(_in_window(_product(self._terms, other._terms)))

    def scale(self, q: Rational) -> "BaseScalar":
        return _base(_product(self._terms, _gaussian_terms(0, q, 0)))

    def shift(self, degree: int) -> "BaseScalar":
        """Multiply by l**degree."""
        return _base(_in_window({(d + degree, i): q for (d, i), q in self._terms.items()}))

    def is_unit(self) -> bool:
        return len(self.degrees()) == 1

    def reciprocal(self) -> "BaseScalar":
        if not self.is_unit():
            raise ZeroDivisionError("only single-term Laurent scalars are invertible")
        (d,) = self.degrees()
        c = self.coefficient(d).reciprocal()
        return _base(_in_window(_gaussian_terms(-d, c.re, c.im)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BaseScalar) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"BaseScalar({self.terms()!r})"


@dataclass(frozen=True)
class ZeroDivisorPair:
    """Components of a pseudo-complex scalar along sigma_plus and sigma_minus."""

    plus: BaseScalar
    minus: BaseScalar

    def __mul__(self, other: "ZeroDivisorPair") -> "ZeroDivisorPair":
        return ZeroDivisorPair(self.plus * other.plus, self.minus * other.minus)

    def is_zero_divisor(self) -> bool:
        return self.plus.is_zero() != self.minus.is_zero()


def _pc(plus: BaseScalar, minus: BaseScalar) -> "PcScalar":
    """Build from zero-divisor components without converting from re/im."""
    out = object.__new__(PcScalar)
    out._plus = plus
    out._minus = minus
    return out


class PcScalar:
    """Pseudo-complex scalar ``re + I*im`` with BaseScalar parts and I*I = 1.

    Stored as its components ``plus = re + im`` and ``minus = re - im`` along
    ``sigma_plus`` and ``sigma_minus``; ``re`` and ``im`` are derived.
    """

    __slots__ = ("_plus", "_minus")

    def __init__(self, re: BaseScalar, im: BaseScalar):
        self._plus = re + im
        self._minus = re - im

    @property
    def re(self) -> BaseScalar:
        return (self._plus + self._minus).scale(_HALF)

    @property
    def im(self) -> BaseScalar:
        return (self._plus - self._minus).scale(_HALF)

    def is_zero(self) -> bool:
        return not self._plus._terms and not self._minus._terms

    def __add__(self, other: "PcScalar") -> "PcScalar":
        return _pc(self._plus + other._plus, self._minus + other._minus)

    def __sub__(self, other: "PcScalar") -> "PcScalar":
        return _pc(self._plus - other._plus, self._minus - other._minus)

    def __neg__(self) -> "PcScalar":
        return _pc(-self._plus, -self._minus)

    def __mul__(self, other: "PcScalar") -> "PcScalar":
        return _pc(self._plus * other._plus, self._minus * other._minus)

    def scale(self, q: Rational) -> "PcScalar":
        return _pc(self._plus.scale(q), self._minus.scale(q))

    def shift(self, degree: int) -> "PcScalar":
        return _pc(self._plus.shift(degree), self._minus.shift(degree))

    def conjugate(self) -> "PcScalar":
        """Pseudo-conjugation I -> -I; swaps the zero-divisor components."""
        return _pc(self._minus, self._plus)

    def to_zero_divisor(self) -> ZeroDivisorPair:
        return ZeroDivisorPair(self._plus, self._minus)

    @staticmethod
    def from_zero_divisor(pair: ZeroDivisorPair) -> "PcScalar":
        return _pc(pair.plus, pair.minus)

    def is_unit(self) -> bool:
        return self._plus.is_unit() and self._minus.is_unit()

    def reciprocal(self) -> "PcScalar":
        return _pc(self._plus.reciprocal(), self._minus.reciprocal())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PcScalar)
            and self._plus._terms == other._plus._terms
            and self._minus._terms == other._minus._terms
        )

    def __hash__(self) -> int:
        return hash((self._plus, self._minus))

    def __str__(self) -> str:
        return render_pc(self)

    def __repr__(self) -> str:
        return f"PcScalar({render_pc(self)!r})"


def _real(base: BaseScalar) -> PcScalar:
    """A scalar without I: equal sigma_plus and sigma_minus components."""
    return _pc(base, base)


def pc_rational(q: Rational) -> PcScalar:
    return _real(BaseScalar.rational(q))


def pc_gaussian(re: Rational = 0, im: Rational = 0) -> PcScalar:
    """re + i*im with the ordinary imaginary unit."""
    return _real(BaseScalar.gaussian(re, im))


def pc_imag(q: Rational = 1) -> PcScalar:
    """q*i."""
    return _real(BaseScalar.gaussian(0, q))


def pc_l(degree: int = 1, coeff: Rational = 1) -> PcScalar:
    """coeff * l**degree."""
    return _real(BaseScalar.l_power(degree, coeff))


def pc_pseudo(q: Rational = 1) -> PcScalar:
    """q*I."""
    return _pc(BaseScalar.rational(q), BaseScalar.rational(-Fraction(q)))


PC_ZERO = pc_rational(0)
PC_ONE = pc_rational(1)
PC_I = pc_imag()
PSEUDO_UNIT = pc_pseudo()
SIGMA_PLUS = _pc(BaseScalar.rational(1), BaseScalar.zero())
SIGMA_MINUS = _pc(BaseScalar.zero(), BaseScalar.rational(1))


def _atoms(x: PcScalar) -> list[tuple[Fraction, bool, int, bool]]:
    """Flatten to (rational, has_i, l_degree, has_I) atoms in canonical order."""
    plus, minus = x._plus._terms, x._minus._terms
    real: list[tuple[Fraction, bool, int, bool]] = []
    pseudo: list[tuple[Fraction, bool, int, bool]] = []
    for key in sorted(plus.keys() | minus.keys()):
        p, m = plus.get(key, _ZERO), minus.get(key, _ZERO)
        # re = (p + m)/2 and im = (p - m)/2 over one common denominator.
        pd, md = p.numerator * m.denominator, m.numerator * p.denominator
        den = 2 * p.denominator * m.denominator
        if pd != -md:
            real.append((Fraction(pd + md, den), key[1], key[0], False))
        if pd != md:
            pseudo.append((Fraction(pd - md, den), key[1], key[0], True))
    return real + pseudo


def _atom_str(q: Fraction, has_i: bool, deg: int, has_pseudo: bool) -> str:
    pieces: list[str] = []
    if abs(q) != 1 or (not has_i and deg == 0 and not has_pseudo):
        pieces.append(str(abs(q)))
    if has_i:
        pieces.append("i")
    if deg:
        pieces.append("l" if deg == 1 else f"l^{deg}")
    if has_pseudo:
        pieces.append("I")
    return "*".join(pieces)


def _join_signed(terms: Iterable[tuple[str, bool]]) -> str:
    """Join ``(body, negative)`` pairs as ``a - b + c``; ``0`` when empty."""
    text = " ".join(("- " if negative else "+ ") + body for body, negative in terms)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def render_pc(x: PcScalar) -> str:
    """Plain-text rendering, e.g. ``3/2 + 1/2*i - l^2*I``; parseable by the CLI."""
    return _join_signed((_atom_str(*atom), atom[0] < 0) for atom in _atoms(x))
