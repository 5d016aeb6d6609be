"""Exact pseudo-complex scalar arithmetic.

The coefficient domain of the whole symbolic layer: Laurent polynomials in
the formal length parameter ``l`` over Gaussian rationals, extended by the
pseudo-imaginary unit ``I`` with ``I*I == 1``.  The zero-divisor basis
``sigma_plus = (1+I)/2``, ``sigma_minus = (1-I)/2`` splits every scalar into
two independent components in which multiplication is componentwise.

Storage follows that split.  A ``BaseScalar`` holds integer numerators
keyed by ``(l_degree, has_i)`` over one common denominator, the layout of
FLINT's ``fmpq_poly``; ``has_i`` marks the ordinary imaginary unit ``i``.  A
``PcScalar`` stores its ``sigma_plus`` and ``sigma_minus`` components, so a
product is two component products, pseudo-conjugation is a swap, and the
``re + I*im`` parts are derived on demand.

Everything here is exact rational arithmetic; no floating point.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Union

from .limits import current_limits, default_limits
from .record import Record

Rational = Union[int, Fraction]
Numerators = dict[tuple[int, bool], int]


class DegreeWindowError(ArithmeticError):
    """A Laurent term in l fell outside the configured degree window."""


class GaussianRational(Record):
    """Exact complex rational ``re + i*im`` (ordinary imaginary unit)."""

    __slots__ = ("re", "im")
    _defaults = {"re": Fraction(0), "im": Fraction(0)}

    @staticmethod
    def of(re: Rational = 0, im: Rational = 0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))


def _outside(d: int, window: tuple[int, int]) -> DegreeWindowError:
    return DegreeWindowError(f"l^{d} outside degree window {window[0]}..{window[1]}")


def _in_window(num: Numerators, window: tuple[int, int]) -> Numerators:
    lo, hi = window
    for d, _ in num:
        if d < lo or d > hi:
            raise _outside(d, window)
    return num


def _base(num: Numerators, den: int) -> "BaseScalar":
    """Wrap numerators already in canonical form without re-validating them."""
    out = object.__new__(BaseScalar)
    out._num = num
    out._den = den
    return out


def _reduced(num: Numerators, den: int) -> "BaseScalar":
    """Canonical form of nonzero numerators over ``den > 0``: the gcd divided out."""
    g = 1 if den == 1 else reduce(gcd, num.values(), den)
    if g == 1:
        return _base(num, den)
    return _base({key: n // g for key, n in num.items()}, den // g)


class BaseScalar:
    """Laurent polynomial in l with Gaussian-rational coefficients.

    Stored as numerators ``(l_degree, has_i) -> nonzero int`` over one
    denominator ``den > 0`` with ``gcd(den, *numerators) == 1`` (zero is
    ``({}, 1)``), so equal values have equal storage.  Construction and
    multiplication reject exponents outside the active degree window (see
    ``pcqm.limits.Limits``).
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[int, GaussianRational] | Iterable[tuple[int, GaussianRational]] = ()):
        items = terms.items() if isinstance(terms, dict) or hasattr(terms, "items") else terms
        acc: dict[tuple[int, bool], Fraction] = {}
        for deg, coeff in items:
            for key, q in (((deg, False), coeff.re), ((deg, True), coeff.im)):
                acc[key] = acc.get(key, 0) + Fraction(q)
        # Over the lcm of reduced denominators, gcd(den, *numerators) is already 1.
        self._den = den = lcm(*(q.denominator for q in acc.values() if q))
        num = {key: q.numerator * (den // q.denominator) for key, q in acc.items() if q}
        self._num = _in_window(num, current_limits().window)

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
        return not self._num

    def coefficient(self, degree: int) -> GaussianRational:
        num, den = self._num, self._den
        return GaussianRational(Fraction(num.get((degree, False), 0), den), Fraction(num.get((degree, True), 0), den))

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({d for d, _ in self._num}))

    def __add__(self, other: "BaseScalar", sign: int = 1) -> "BaseScalar":
        """``self + sign*other`` on the numerators, over the lcm of the denominators."""
        a, b = self._num, other._num
        if not b:
            return self
        if not a:
            return other if sign == 1 else -other
        g = gcd(self._den, other._den)
        sa, sb = other._den // g, sign * self._den // g
        out = dict(a) if sa == 1 else {key: n * sa for key, n in a.items()}
        for key, n in b.items():
            n = out.pop(key, 0) + n * sb
            if n:
                out[key] = n
        return _reduced(out, self._den * sa)

    def __sub__(self, other: "BaseScalar") -> "BaseScalar":
        return self.__add__(other, -1)

    def __neg__(self) -> "BaseScalar":
        return _base({key: -n for key, n in self._num.items()}, self._den)

    def __mul__(self, other: "BaseScalar") -> "BaseScalar":
        return _mul(self, other, current_limits().window)

    def scale(self, q: Rational) -> "BaseScalar":
        num = {key: n * q.numerator for key, n in self._num.items()} if q else {}
        return _reduced(num, self._den * q.denominator)

    def is_unit(self) -> bool:
        return len(self.degrees()) == 1

    def reciprocal(self) -> "BaseScalar":
        if not self.is_unit():
            raise ZeroDivisionError("only single-term Laurent scalars are invertible")
        # den / (a + b*i) = den * (a - b*i) / (a^2 + b^2)
        (d,) = self.degrees()
        a, b = self._num.get((d, False), 0), self._num.get((d, True), 0)
        num = {(-d, False): a * self._den, (-d, True): -b * self._den}
        num = _in_window({key: n for key, n in num.items() if n}, current_limits().window)
        return _reduced(num, a * a + b * b)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BaseScalar) and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((frozenset(self._num.items()), self._den))

    def __repr__(self) -> str:
        return f"BaseScalar({self.terms()!r})"


def _mul(x: BaseScalar, y: BaseScalar, window: tuple[int, int]) -> BaseScalar:
    """Integer polynomial product over ``den1*den2``, reduced by one gcd.

    ``window`` is the degree window in force, read once by a caller that
    forms many products; a nonzero term outside it raises.
    """
    a, b, den = x._num, y._num, x._den * y._den
    if len(a) == 1 and len(b) == 1:
        (((d1, i1), n1),), (((d2, i2), n2),) = a.items(), b.items()
        d = d1 + d2
        if d < window[0] or d > window[1]:
            raise _outside(d, window)
        n = -n1 * n2 if i1 and i2 else n1 * n2
        g = gcd(n, den)
        return _base({(d, i1 ^ i2): n // g}, den // g)
    out: Numerators = {}
    get = out.get
    for (d1, i1), n1 in a.items():
        for (d2, i2), n2 in b.items():
            key = (d1 + d2, i1 ^ i2)
            out[key] = get(key, 0) + (-n1 * n2 if i1 and i2 else n1 * n2)
    return _reduced(_in_window({key: n for key, n in out.items() if n}, window), den)


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
        return (self._plus + self._minus).scale(Fraction(1, 2))

    @property
    def im(self) -> BaseScalar:
        return (self._plus - self._minus).scale(Fraction(1, 2))

    def is_zero(self) -> bool:
        return not self._plus._num and not self._minus._num

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

    def conjugate(self) -> "PcScalar":
        """Pseudo-conjugation I -> -I; swaps the zero-divisor components."""
        return _pc(self._minus, self._plus)

    def is_unit(self) -> bool:
        return self._plus.is_unit() and self._minus.is_unit()

    def reciprocal(self) -> "PcScalar":
        return _pc(self._plus.reciprocal(), self._minus.reciprocal())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PcScalar) and self._plus == other._plus and self._minus == other._minus

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


with default_limits():
    PC_ZERO = pc_rational(0)
    PC_ONE = pc_rational(1)
    PC_I = pc_imag()
    PSEUDO_UNIT = pc_pseudo()
    SIGMA_PLUS = _pc(BaseScalar.rational(1), BaseScalar.zero())
    SIGMA_MINUS = _pc(BaseScalar.zero(), BaseScalar.rational(1))


def stored_bits(*groups: Iterable[BaseScalar]) -> int:
    """The largest bit length of an integer stored in the scalars of ``groups``,
    read as that of the bitwise or of their magnitudes."""
    top = 0
    for scalars in groups:
        for c in scalars:
            top |= c._den
            for n in c._num.values():
                top |= abs(n)
    return top.bit_length()


def bits_renderable(bits: int) -> bool:
    """True when all atoms built from stored integers of ``bits`` bits render
    under the digit limit in force.  A cheap bound: False only means that the
    renderer, which alone holds the exact digit test, must decide."""
    limit = sys.get_int_max_str_digits()
    # With every stored integer below 2^b, every atom is below 2^(2b + 1);
    # 3*limit bits hold fewer than limit digits.
    return not limit or bits <= (3 * limit - 1) // 2


def _atom_texts(plus: BaseScalar, minus: BaseScalar) -> Iterator[tuple[str, bool]]:
    """``(text, negative)`` for each atom of the scalar with components ``plus``
    and ``minus``, in canonical order: the atoms of ``re``, then those of
    ``im`` with ``I``, each by ascending ``(l_degree, has_i)``.  Read straight
    from the stored numerators; an atom's integers are reduced by one gcd."""
    (pn, pd), (mn, md) = (plus._num, plus._den), (minus._num, minus._den)
    if plus is minus:  # a real scalar: re is its one component, and im is zero
        atoms = ((pn[key], pd, key, "") for key in sorted(pn))
    else:
        den = lcm(pd, md)
        sp, sm, keys = den // pd, den // md, sorted(pn.keys() | mn.keys())
        # re = (p + m)/2 and im = (p - m)/2 over twice the lcm of the denominators.
        atoms = ((pn.get(key, 0) * sp + sign * mn.get(key, 0) * sm, 2 * den, key, unit)
                 for sign, unit in ((1, ""), (-1, "*I")) for key in keys)
    for n, d, (deg, has_i), unit in atoms:
        if not n:
            continue
        g = gcd(n, d)
        n, d = n // g, d // g
        # Every unit in the tail starts with "*"; a bare 1 shows only without one.
        tail = ("*i" if has_i else "") + ("" if not deg else "*l" if deg == 1 else f"*l^{deg}") + unit
        if n in (1, -1) and d == 1 and tail:
            text = tail[1:]
        else:
            try:
                text = (str(abs(n)) if d == 1 else f"{abs(n)}/{d}") + tail
            except ValueError:  # past the interpreter's int-to-str digit limit
                limit = sys.get_int_max_str_digits()
                raise ValueError(f"coefficient too long to render (more than {limit} digits)") from None
        yield text, n < 0


def _join_signed(terms: Iterable[tuple[str, bool]]) -> str:
    """Join ``(body, negative)`` pairs as ``a - b + c``; ``0`` when empty."""
    text = " ".join(("- " if negative else "+ ") + body for body, negative in terms)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def render_pc(x: PcScalar) -> str:
    """Plain-text rendering, e.g. ``3/2 + 1/2*i - l^2*I``; parseable by the CLI."""
    return _join_signed(_atom_texts(x._plus, x._minus))
