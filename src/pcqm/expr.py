"""Surface syntax for the operator algebra: parser, renderer, evaluator.

Grammar (whitespace-insensitive, left-associative, LL(1) after lexing):

    expr    := ['-'] term { ('+'|'-') term }
    term    := factor { '*' factor }
    factor  := base [ '^' uint ]
    base    := rational | 'i' | 'I' | 'l' ['^' int]
             | ('X'|'P')('+'|'-')'_'idx
             | ('x'|'y'|'px'|'py')'_'idx
             | ('L'|'M')[comp]'_'idx[idx]
             | 'C'comp
             | '(' expr ')' | '[' expr ',' expr ']'
    comp    := '+' | '-' | 'x' | 'y' | 'xy' | 'yx' | 'R' | 'I'

Vector labels use one index (L_1 = L_23, L_2 = L_13, L_3 = L_12,
M_a = L_a4); two-index forms take any pair, with M requiring the second
index to be 4.  Rendering any tree and reparsing yields the same tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import so4
from .operators import BRANCHES, NcPolynomial, commutator, expand_alias, generator_poly
from .scalars import PSEUDO_UNIT, pc_imag, pc_l, pc_rational

CASIMIR_TAGS = ("R", "x", "y", "+", "-")
# Largest operator exponent '^n' accepted, also as the product of nested
# exponents such as (a^8)^8; powers multiply once per unit.
MAX_EXPONENT = 64
# Deepest nesting of parentheses and brackets accepted; a unary minus opens
# no level of its own, since '--x' is not in the grammar.  Each level costs
# a few stack frames in the parser, the evaluator and the renderer, which
# walk '+', '-' and '*' chains in a loop.
MAX_NESTING = 100


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"col {pos + 1}: {message}")
        self.pos = pos


Node = Union[
    "Num", "ImagUnit", "PseudoUnit", "LengthPower", "GenSym", "AliasSym",
    "NamedOp", "CasimirOp", "Neg", "Add", "Sub", "Mul", "Pow", "Bracket",
]


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class ImagUnit:
    pass


@dataclass(frozen=True)
class PseudoUnit:
    pass


@dataclass(frozen=True)
class LengthPower:
    power: int = 1


@dataclass(frozen=True)
class GenSym:
    kind: str
    branch: str
    index: int


@dataclass(frozen=True)
class AliasSym:
    name: str
    index: int


@dataclass(frozen=True)
class NamedOp:
    letter: str
    comp: str | None
    i: int
    j: int


@dataclass(frozen=True)
class CasimirOp:
    comp: str


@dataclass(frozen=True)
class Neg:
    operand: Node


@dataclass(frozen=True)
class Add:
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub:
    left: Node
    right: Node


@dataclass(frozen=True)
class Mul:
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow:
    base: Node
    exponent: int


@dataclass(frozen=True)
class Bracket:
    left: Node
    right: Node


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([+\-*/^()\[\],_]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        if m.group(1):
            tokens.append(("INT", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("NAME", m.group(2), m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.n = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> tuple[str, str, int] | None:
        idx = self.n + ahead
        return self.tokens[idx] if idx < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        self.n += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None or tok[0] != kind:
            pos = tok[2] if tok else len(self.text)
            got = f"{tok[1]!r}" if tok else "end of input"
            raise ExprSyntaxError(f"expected {kind!r}, got {got}", pos)
        return self.next()

    def at(self, kind: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok is not None and tok[0] == kind

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        if self.at("-"):
            self.next()
            node: Node = Neg(self.term())
        else:
            node = self.term()
        while self.at("+") or self.at("-"):
            op = self.next()[0]
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.at("*"):
            self.next()
            node = Mul(node, self.factor())
        return node

    def factor(self) -> Node:
        node = self.base()
        if self.at("^") and not isinstance(node, LengthPower):
            self.next()
            tok = self.expect("INT")
            nested = _exponent_product(node)
            if int(tok[1]) * nested > MAX_EXPONENT:
                inside = f" times {nested} inside its base" if nested > 1 else ""
                raise ExprSyntaxError(f"exponent {tok[1]}{inside} exceeds {MAX_EXPONENT}", tok[2])
            node = Pow(node, int(tok[1]))
        return node

    def base(self) -> Node:
        tok = self.next()
        kind, text, pos = tok
        if kind == "INT":
            if self.at("/"):
                self.next()
                denom = self.expect("INT")
                if int(denom[1]) == 0:
                    raise ExprSyntaxError("zero denominator", denom[2])
                return Num(Fraction(int(text), int(denom[1])))
            return Num(Fraction(int(text)))
        if kind in ("(", "["):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING}", pos)
            node = self.expr()
            if kind == "[":
                self.expect(",")
                node = Bracket(node, self.expr())
            self.expect(")" if kind == "(" else "]")
            self.depth -= 1
            return node
        if kind == "NAME":
            return self.symbol(text, pos)
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)

    def symbol(self, name: str, pos: int) -> Node:
        if name == "i":
            return ImagUnit()
        if name == "I":
            return PseudoUnit()
        if name == "l":
            if self.at("^"):
                self.next()
                sign = 1
                if self.at("-"):
                    self.next()
                    sign = -1
                tok = self.expect("INT")
                return LengthPower(sign * int(tok[1]))
            return LengthPower(1)
        if name in ("X", "P"):
            branch_tok = self.next()
            if branch_tok[0] not in ("+", "-"):
                raise ExprSyntaxError(f"expected branch sign after {name!r}", branch_tok[2])
            idx = self._indices(1, 1)[0]
            return GenSym(name, branch_tok[0], self._check_index(idx, pos))
        if name in ("x", "y", "px", "py"):
            idx = self._indices(1, 1)[0]
            return AliasSym(name, self._check_index(idx, pos))
        if name[0] in ("L", "M"):
            return self.named_operator(name, pos)
        if name[0] == "C":
            return self.casimir_symbol(name, pos)
        raise ExprSyntaxError(f"unknown symbol {name!r}", pos)

    def named_operator(self, name: str, pos: int) -> Node:
        letter, comp = name[0], name[1:] or None
        if comp is None and (self.at("+") or self.at("-")) and self.at("_", 1):
            comp = self.next()[0]
        if comp not in (None, "R", "I", *BRANCHES, *so4.COMPONENT_FACTORS):
            raise ExprSyntaxError(f"unknown component tag {comp!r} on {letter}", pos)
        digits = self._indices(1, 2)
        if len(digits) == 1:
            a = digits[0]
            table = so4.L_VECTOR_PAIRS if letter == "L" else so4.M_VECTOR_PAIRS
            if a not in table:
                raise ExprSyntaxError(f"vector label {letter}_{a} must use 1..3", pos)
            i, j = table[a]
        else:
            i, j = digits
            self._check_index(i, pos)
            self._check_index(j, pos)
            if i == j:
                raise ExprSyntaxError(f"indices must differ in {letter}_{i}{j}", pos)
            if letter == "M" and j != 4:
                raise ExprSyntaxError("M takes indices (a, 4); use M_14, M_24 or M_34", pos)
        return NamedOp(letter, comp, i, j)

    def casimir_symbol(self, name: str, pos: int) -> Node:
        comp = name[1:] or None
        if comp is None and (self.at("+") or self.at("-")):
            comp = self.next()[0]
        if comp not in CASIMIR_TAGS:
            raise ExprSyntaxError(
                f"Casimir needs a component tag from {'/'.join(CASIMIR_TAGS)}", pos
            )
        return CasimirOp(comp)

    def _indices(self, lo: int, hi: int) -> tuple[int, ...]:
        self.expect("_")
        tok = self.expect("INT")
        if not lo <= len(tok[1]) <= hi:
            raise ExprSyntaxError(
                f"expected {lo}..{hi} index digits, got {tok[1]!r}", tok[2]
            )
        return tuple(int(ch) for ch in tok[1])

    @staticmethod
    def _check_index(idx: int, pos: int) -> int:
        if not 1 <= idx <= 4:
            raise ExprSyntaxError(f"index {idx} out of range 1..4", pos)
        return idx


def _chain(node: Node, kinds: tuple[type, ...]) -> tuple[Node, list[Node]]:
    """The first operand of a left-deep chain of ``kinds`` nodes, and the
    chain's nodes in source order; walking them needs no recursion."""
    links = []
    while isinstance(node, kinds):
        links.append(node)
        node = node.left
    return node, links[::-1]


def _exponent_product(node: Node) -> int:
    """Largest product of the '^n' exponents on any path down from ``node``.

    A '^0' counts as 1, so it cannot hide the exponents above it.
    """
    node, links = _chain(node, (Add, Sub, Mul))
    best = max(map(_exponent_product, [link.right for link in links]), default=1)
    if isinstance(node, Pow):
        return max(best, max(node.exponent, 1) * _exponent_product(node.base))
    children = [getattr(node, name) for name in ("operand", "left", "right") if hasattr(node, name)]
    return max([best, *map(_exponent_product, children)])


def parse(text: str) -> Node:
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


_PREC_SUM, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _prec(node: Node) -> int:
    if isinstance(node, (Add, Sub, Neg)):
        return _PREC_SUM
    if isinstance(node, Mul):
        return _PREC_MUL
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


_INFIX = {Add: " + ", Sub: " - ", Mul: "*"}


def render(node: Node, min_prec: int = _PREC_SUM) -> str:
    text = _render(node)
    return f"({text})" if _prec(node) < min_prec else text


def _render(node: Node) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, ImagUnit):
        return "i"
    if isinstance(node, PseudoUnit):
        return "I"
    if isinstance(node, LengthPower):
        return "l" if node.power == 1 else f"l^{node.power}"
    if isinstance(node, GenSym):
        return f"{node.kind}{node.branch}_{node.index}"
    if isinstance(node, AliasSym):
        return f"{node.name}_{node.index}"
    if isinstance(node, NamedOp):
        return f"{node.letter}{node.comp or ''}_{node.i}{node.j}"
    if isinstance(node, CasimirOp):
        return f"C{node.comp}"
    if isinstance(node, Neg):
        return f"-{render(node.operand, _PREC_MUL)}"
    if isinstance(node, (Add, Sub, Mul)):
        # A left operand binds like the chain itself; a right one one level tighter.
        prec = _prec(node)
        first, links = _chain(node, (Mul,) if prec == _PREC_MUL else (Add, Sub))
        parts = [render(first, prec)]
        for link in links:
            parts += (_INFIX[type(link)], render(link.right, prec + 1))
        return "".join(parts)
    if isinstance(node, Pow):
        return f"{render(node.base, _PREC_ATOM)}^{node.exponent}"
    if isinstance(node, Bracket):
        return f"[{render(node.left)}, {render(node.right)}]"
    raise TypeError(f"unknown node {node!r}")


def evaluate(node: Node) -> NcPolynomial:
    """Reduce a tree to its normal-form polynomial."""
    if isinstance(node, Num):
        return NcPolynomial.scalar(pc_rational(node.value))
    if isinstance(node, ImagUnit):
        return NcPolynomial.scalar(pc_imag())
    if isinstance(node, PseudoUnit):
        return NcPolynomial.scalar(PSEUDO_UNIT)
    if isinstance(node, LengthPower):
        return NcPolynomial.scalar(pc_l(node.power))
    if isinstance(node, GenSym):
        return generator_poly(node.kind, node.branch, node.index)
    if isinstance(node, AliasSym):
        return expand_alias(node.name, node.index)
    if isinstance(node, NamedOp):
        return so4.labelled(node.comp, node.i, node.j)
    if isinstance(node, CasimirOp):
        return so4.casimir(node.comp)
    if isinstance(node, Neg):
        return -evaluate(node.operand)
    if isinstance(node, (Add, Sub)):
        # One accumulation over all summands keeps a long sum linear.
        first, links = _chain(node, (Add, Sub))
        summands = [evaluate(first)]
        for link in links:
            value = evaluate(link.right)
            summands.append(value if isinstance(link, Add) else -value)
        return NcPolynomial(pair for p in summands for pair in p.terms().items())
    if isinstance(node, Mul):
        first, links = _chain(node, (Mul,))
        product = evaluate(first)
        for link in links:
            product = product * evaluate(link.right)
        return product
    if isinstance(node, Pow):
        return evaluate(node.base) ** node.exponent
    if isinstance(node, Bracket):
        return commutator(evaluate(node.left), evaluate(node.right))
    raise TypeError(f"unknown node {node!r}")


def evaluate_text(text: str) -> NcPolynomial:
    return evaluate(parse(text))
