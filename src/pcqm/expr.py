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
index to be 4.  A bare 'l' reads its own exponent, so 'l^2^2' is refused,
while '(l)^2' and '(l^-1)^2' are powers.  Rendering any tree and reparsing
yields the same tree.
"""

from __future__ import annotations

import re
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Union

from . import so4
from .limits import Limits, current_limits
from .operators import ALIASES, NcPolynomial, commutator, expand_alias, generator_poly, poly_sum, renderable
from .record import Record
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
# Most digits accepted in one integer (a literal, an exponent or an index
# run), well inside the interpreter's default int-from-str limit, so a longer
# one is a syntax error with its column.  A lower interpreter limit (set with
# ``-X int_max_str_digits``) lowers the bound with it.
MAX_LITERAL_DIGITS = 1000
# Symbol key -> parse-tree node, filled by the parser as it reads symbols
# (see ``_Parser.base``).  Every ASCII spelling fits (16 generators, 16
# aliases, 189 'L'/'M' spellings, 5 Casimirs, 'i' and 'I'); the table stops
# growing at the bound, since '\d' also reads other scripts' digits
# ('X+_١') and the spellings are otherwise unbounded.
_MAX_SYMBOLS = 512
_SYMBOLS: dict[tuple, Node] = {}
_SYMBOLS_LOCK = threading.Lock()


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"col {pos + 1}: {message}")
        self.pos = pos


Node = Union[
    "Num", "ImagUnit", "PseudoUnit", "LengthPower", "GenSym", "AliasSym",
    "NamedOp", "CasimirOp", "Neg", "Add", "Sub", "Mul", "Pow", "Bracket",
]


class Num(Record):
    __slots__ = ("value",)


class ImagUnit(Record):
    __slots__ = ()


class PseudoUnit(Record):
    __slots__ = ()


class LengthPower(Record):
    __slots__ = ("power",)
    _defaults = {"power": 1}


class GenSym(Record):
    __slots__ = ("kind", "branch", "index")


class AliasSym(Record):
    __slots__ = ("name", "index")


class NamedOp(Record):
    __slots__ = ("letter", "comp", "i", "j")


class CasimirOp(Record):
    __slots__ = ("comp",)


class Neg(Record):
    __slots__ = ("operand",)


class Add(Record):
    __slots__ = ("left", "right")


class Sub(Record):
    __slots__ = ("left", "right")


class Mul(Record):
    __slots__ = ("left", "right")


class Pow(Record):
    __slots__ = ("base", "exponent")


class Bracket(Record):
    __slots__ = ("left", "right")


# Every character but whitespace, which the scan skips, falls in one group,
# so one scan reads the whole text: an integer, a name, an operator, or any
# other character.
_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z]+)|([+\-*/^()\[\],_])|(\S)")
_SIGNS = ("+", "-")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    limit = sys.get_int_max_str_digits()  # 0: no interpreter limit
    max_digits = min(MAX_LITERAL_DIGITS, limit) if limit else MAX_LITERAL_DIGITS
    for m in _TOKEN_RE.finditer(text):
        group, tok, pos = m.lastindex, m.group(), m.start()
        if group == 1:
            if len(tok) > max_digits:
                raise ExprSyntaxError(f"integer longer than {max_digits} digits", pos)
            tokens.append(("INT", tok, pos))
        elif group == 2:
            tokens.append(("NAME", tok, pos))
        elif group == 3:
            tokens.append((tok, tok, pos))
        else:
            raise ExprSyntaxError(f"unexpected character {tok!r}", pos)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        # Token kinds with an end sentinel: lookahead is one index, and the
        # sentinel matches no kind.
        self.kinds = [tok[0] for tok in self.tokens] + [None]
        self.n = 0
        self.depth = 0

    def next(self) -> tuple[str, str, int]:
        if self.n == len(self.tokens):
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        self.n += 1
        return self.tokens[self.n - 1]

    def expect(self, kind: str) -> tuple[str, str, int]:
        if self.kinds[self.n] != kind:
            if self.n == len(self.tokens):
                raise ExprSyntaxError(f"expected {kind!r}, got end of input", len(self.text))
            _, text, pos = self.tokens[self.n]
            raise ExprSyntaxError(f"expected {kind!r}, got {text!r}", pos)
        return self.next()

    def parse(self) -> Node:
        node = self.expr()
        if self.n < len(self.tokens):
            _, text, pos = self.tokens[self.n]
            raise ExprSyntaxError(f"trailing input {text!r}", pos)
        return node

    def expr(self) -> Node:
        kinds = self.kinds
        if kinds[self.n] == "-":
            self.n += 1
            node: Node = Neg(self.term())
        else:
            node = self.term()
        while kinds[self.n] in _SIGNS:
            op = kinds[self.n]
            self.n += 1
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.kinds[self.n] == "*":
            self.n += 1
            node = Mul(node, self.factor())
        return node

    def factor(self) -> Node:
        start = self.n
        node = self.base()
        # A bare 'l' has read its own exponent, so a second '^' is trailing.
        if self.kinds[self.n] == "^" and self.tokens[start][1] != "l":
            self.n += 1
            tok = self.expect("INT")
            nested = _exponent_product(node)
            if int(tok[1]) * nested > MAX_EXPONENT:
                inside = f" times {nested} inside its base" if nested > 1 else ""
                raise ExprSyntaxError(f"exponent {tok[1]}{inside} exceeds {MAX_EXPONENT}", tok[2])
            node = Pow(node, int(tok[1]))
        return node

    def base(self) -> Node:
        kind, text, pos = self.next()
        if kind == "NAME":
            # One lookup per symbol, keyed on its tokens: the name, the sign
            # after a one-letter name (X+, L-, C+) and the digits after an
            # '_'; ``end`` is the index past them.
            n, kinds = self.n, self.kinds
            sign = kinds[n] if len(text) == 1 and kinds[n] in _SIGNS else None
            end = n + 1 if sign else n
            digits = None
            if kinds[end] == "_" and kinds[end + 1] == "INT":
                digits = self.tokens[end + 1][1]
                end += 2
            key = (text, sign, digits)
            node = _SYMBOLS.get(key)
            if node is not None:
                self.n = end
                return node
            node = self.symbol(text, pos)
            # Kept only when the grammar read exactly the key's tokens, so a
            # hit gives the node it builds; not 'l', whose exponent is read
            # past them.
            if self.n == end and text != "l":
                with _SYMBOLS_LOCK:
                    if len(_SYMBOLS) < _MAX_SYMBOLS:
                        _SYMBOLS[key] = node
            return node
        if kind == "INT":
            if self.kinds[self.n] == "/":
                self.n += 1
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
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)

    def symbol(self, name: str, pos: int) -> Node:
        if name == "i":
            return ImagUnit()
        if name == "I":
            return PseudoUnit()
        if name == "l":
            if self.kinds[self.n] == "^":
                self.n += 1
                sign = 1
                if self.kinds[self.n] == "-":
                    self.n += 1
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
        if name in ALIASES:
            idx = self._indices(1, 1)[0]
            return AliasSym(name, self._check_index(idx, pos))
        if name[0] in ("L", "M"):
            return self.named_operator(name, pos)
        if name[0] == "C":
            return self.casimir_symbol(name, pos)
        raise ExprSyntaxError(f"unknown symbol {name!r}", pos)

    def named_operator(self, name: str, pos: int) -> Node:
        letter, comp = name[0], name[1:] or None
        if comp is None and self.kinds[self.n] in _SIGNS and self.kinds[self.n + 1] == "_":
            comp = self.next()[0]
        if comp not in so4.COMPONENTS:
            raise ExprSyntaxError(f"unknown component tag {comp!r} on {letter}", pos)
        symbol = letter + (comp or "")
        digits = self._indices(1, 2)
        if len(digits) == 1:
            a = digits[0]
            table = so4.L_VECTOR_PAIRS if letter == "L" else so4.M_VECTOR_PAIRS
            if a not in table:
                raise ExprSyntaxError(f"vector label {symbol}_{a} must use 1..3", pos)
            i, j = table[a]
        else:
            i, j = digits
            self._check_index(i, pos)
            self._check_index(j, pos)
            if i == j:
                raise ExprSyntaxError(f"indices must differ in {symbol}_{i}{j}", pos)
            if letter == "M" and j != 4:
                raise ExprSyntaxError("M takes indices (a, 4); use M_14, M_24 or M_34", pos)
        return NamedOp(letter, comp, i, j)

    def casimir_symbol(self, name: str, pos: int) -> Node:
        comp = name[1:] or None
        if comp is None and self.kinds[self.n] in _SIGNS:
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
    if isinstance(node, (Pow, LengthPower)):
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
    if isinstance(node, _LEAVES):
        return _leaf_value(node, current_limits())
    if isinstance(node, Neg):
        return -evaluate(node.operand)
    if isinstance(node, (Add, Sub)):
        # One accumulation over all summands keeps a long sum linear.
        first, links = _chain(node, (Add, Sub))
        summands = [evaluate(first)]
        for link in links:
            value = evaluate(link.right)
            summands.append(value if isinstance(link, Add) else -value)
        return poly_sum(summands)
    if isinstance(node, Mul):
        first, links = _chain(node, (Mul,))
        if isinstance(first, _LEAVES) and isinstance(links[0].right, _LEAVES):
            product, links = renderable(_leaf_value(links[0], current_limits())), links[1:]
        else:
            product = evaluate(first)
        for link in links:
            product = renderable(product * evaluate(link.right))
        return product
    if isinstance(node, Pow):
        return renderable(evaluate(node.base) ** node.exponent)
    if isinstance(node, Bracket):
        return renderable(commutator(evaluate(node.left), evaluate(node.right)))
    raise TypeError(f"unknown node {node!r}")


_LEAVES = (Num, ImagUnit, PseudoUnit, LengthPower, GenSym, AliasSym, NamedOp, CasimirOp)


# Room for the leaves and leaf products of a long session: the eval-warm
# benchmark streams of seeds 5, 2601, 2605 and 2610 meet 739 distinct keys in
# 40,000 requests.
@lru_cache(maxsize=1792)
def _leaf_value(node: Node, limits: Limits) -> NcPolynomial:
    """The polynomial of a leaf (a literal or an operator symbol) or of a
    product of two leaves (``l*y_1``, ``i*X+_1``, ``1/2*CR``), built once per
    ``limits`` and shared by every caller, which is safe because polynomials
    are immutable.  The limits in force bound the build, so they are part of
    the key; a build that raises is not cached and raises again on the next
    call.  The digit limit is not: ``evaluate`` checks a product on each use."""
    if isinstance(node, Mul):
        return evaluate(node.left) * evaluate(node.right)
    if isinstance(node, Num):
        return NcPolynomial({(): pc_rational(node.value)})
    if isinstance(node, ImagUnit):
        return NcPolynomial({(): pc_imag()})
    if isinstance(node, PseudoUnit):
        return NcPolynomial({(): PSEUDO_UNIT})
    if isinstance(node, LengthPower):
        return NcPolynomial({(): pc_l(node.power)})
    if isinstance(node, GenSym):
        return generator_poly(node.kind, node.branch, node.index)
    if isinstance(node, AliasSym):
        return expand_alias(node.name, node.index)
    if isinstance(node, NamedOp):
        return so4.labelled(node.comp, node.i, node.j)
    return so4.vector_operators(node.comp).casimir


def evaluate_text(text: str) -> NcPolynomial:
    return evaluate(parse(text))
