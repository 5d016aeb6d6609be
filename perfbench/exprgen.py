"""Seeded stream of `pcqm eval` expressions and their independent references.

Every expression is built from a small tree whose word length and l-degree
range are tracked while it is built.  A candidate whose raw products could
exceed the engine's word cap or degree window is redrawn, so every emitted
input is valid by construction.  The reference value of each tree is computed
with the rewriting oracle in ``tests/helpers.py`` over operator definitions
written out here from the README formulas, never with the engine's own
builders.

Only ``Reference`` imports pcqm; the generator
itself is stdlib-only so the benchmark process can emit inputs before the
program is loaded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORD_CAP = 8
DEGREE_WINDOW = (-4, 4)

# name -> (l-degree) of each coefficient the stream uses.
COEFFICIENTS = {"1": 0, "i": 0, "I": 0, "l": 1, "l^2": 2, "1/2": 0, "(1+I)": 0}

# Share of each family in every block of BLOCK requests (fixed proportions).
FAMILY_BLOCK = (
    ("commutator", 5),
    ("casimir", 1),
    ("jacobi", 4),
    ("antisymmetry", 2),
    ("triple", 4),
    ("power", 4),
)
BLOCK = sum(n for _, n in FAMILY_BLOCK)
ZERO_FAMILIES = ("jacobi", "antisymmetry")


@dataclass(frozen=True)
class Node:
    """One subexpression: its tree, text and conservative size bounds.

    ``length`` bounds the longest word of the value; ``lo``/``hi`` bound the
    l-degrees of its coefficients.
    """

    op: str
    args: tuple
    text: str
    length: int
    lo: int
    hi: int


def _atom(name: str, length: int, deg: int) -> Node:
    return Node("atom", (name,), name, length, deg, deg)


def _atom_catalogue() -> dict[str, list[Node]]:
    gens = [_atom(f"{k}{b}_{i}", 1, 0) for k in "XP" for b in "+-" for i in range(1, 5)]
    aliases = [_atom(f"{a}_{i}", 1, -1 if a in ("y", "py") else 0)
               for a in ("x", "y", "px", "py") for i in range(1, 5)]
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    comp_degree = {"": 0, "+": 0, "-": 0, "R": 0, "I": 0, "x": 0, "y": -2, "xy": -1, "yx": -1}
    named = [_atom(f"L{c}_{i}{j}", 2, d) for c, d in comp_degree.items() for i, j in pairs]
    named += [_atom(f"{v}{c}_{a}", 2, d) for v in "LM" for c, d in comp_degree.items()
              for a in (1, 2, 3)]
    # Cx is left out: one commutator with it costs ~0.3 s, which would let a
    # handful of draws decide a run's throughput.
    casimirs = [_atom(f"C{c}", 4, 0) for c in ("R", "+", "-")]
    return {"gen": gens, "alias": aliases, "named": named, "casimir": casimirs}


ATOMS = _atom_catalogue()


def _scaled(coef: str, node: Node) -> Node:
    d = COEFFICIENTS[coef]
    text = node.text if coef == "1" else f"{coef}*{node.text}"
    return Node("scale", (coef, node), text, node.length, node.lo + d, node.hi + d)


def summed(terms: list[Node]) -> Node:
    if len(terms) == 1:
        return terms[0]
    return Node("sum", tuple(terms), " + ".join(t.text for t in terms),
                max(t.length for t in terms), min(t.lo for t in terms), max(t.hi for t in terms))


def _paren(node: Node) -> str:
    # A factor is parenthesized unless it is a bare atom, so that the parser's
    # left-associative grouping never forms a partial product (say A*l^2)
    # whose bounds the tree does not track.
    return node.text if node.op == "atom" else f"({node.text})"


def _product_bounds(nodes) -> tuple[int, int, int]:
    return (sum(n.length for n in nodes), sum(n.lo for n in nodes), sum(n.hi for n in nodes))


def commutator(a: Node, b: Node) -> Node:
    length, lo, hi = _product_bounds((a, b))
    return Node("comm", (a, b), f"[{a.text}, {b.text}]", length, lo, hi)


def product(nodes: list[Node]) -> Node:
    length, lo, hi = _product_bounds(nodes)
    return Node("prod", tuple(nodes), "*".join(_paren(n) for n in nodes), length, lo, hi)


def power(base: Node, n: int) -> Node:
    return Node("pow", (base, n), f"{_paren(base)}^{n}", base.length * n,
                min(0, base.lo * n), max(0, base.hi * n))


def within_limits(node: Node) -> bool:
    """True iff every raw product in the tree stays within cap and window."""
    lo, hi = DEGREE_WINDOW
    if node.length > WORD_CAP or node.lo < lo or node.hi > hi:
        return False
    if node.op == "atom":
        return True
    if node.op == "scale":
        return within_limits(node.args[1])
    if node.op == "pow":
        return within_limits(node.args[0])
    return all(within_limits(a) for a in node.args)


class ExpressionStream:
    """Deterministic expression stream for one seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.count = 0

    def _coef(self) -> str:
        return self.rng.choice(tuple(COEFFICIENTS))

    def _sum_of(self, pools: tuple[str, ...], max_terms: int) -> Node:
        terms = []
        for _ in range(self.rng.randint(1, max_terms)):
            atom = self.rng.choice(ATOMS[self.rng.choice(pools)])
            terms.append(_scaled(self._coef(), atom))
        return summed(terms)

    def _draw(self, family: str) -> Node:
        r = self.rng
        if family == "commutator":
            return commutator(self._sum_of(("gen", "alias", "named"), 2),
                              self._sum_of(("gen", "alias", "named"), 2))
        if family == "casimir":
            return commutator(self._sum_of(("casimir",), 1), self._sum_of(("gen", "named"), 1))
        if family == "jacobi":
            a, b, c = (self._sum_of(("gen", "alias", "named"), 2) for _ in range(3))
            return summed([commutator(a, commutator(b, c)), commutator(b, commutator(c, a)),
                          commutator(c, commutator(a, b))])
        if family == "antisymmetry":
            a = self._sum_of(("gen", "alias", "named"), 2)
            b = self._sum_of(("gen", "alias", "named"), 2)
            return summed([commutator(a, b), commutator(b, a)])
        if family == "triple":
            return product([self._sum_of(("gen", "alias", "named"), 2) for _ in range(3)])
        if family == "power":
            return power(self._sum_of(("gen", "alias"), 3), r.randint(2, 4))
        raise ValueError(family)

    def next(self) -> tuple[str, Node]:
        """Return (family, tree) of the next request."""
        slot = self.count % BLOCK
        self.count += 1
        for family, n in FAMILY_BLOCK:
            if slot < n:
                break
            slot -= n
        while True:
            node = self._draw(family)
            if within_limits(node):
                return family, node


def stream(seed: int, n: int) -> list[tuple[str, Node]]:
    s = ExpressionStream(seed)
    return [s.next() for _ in range(n)]


# ---------------------------------------------------------------------------
# Reference values through the rewriting oracle of tests/helpers.py.


class Reference:
    """Evaluates trees to normal-ordered term maps with the oracle.

    Operator definitions follow the README: X_i = sigma+ X+_i + sigma- X-_i,
    x = (X+ + X-)/2, y = (X+ - X-)/(2l), L_ij = X_i P_j - X_j P_i per level,
    LR/LI as half sum/difference of the branches, and C = (L^2 + M^2)/2 over
    the vector labels L_1 = L_23, L_2 = L_13, L_3 = L_12, M_a = L_a4.
    """

    def __init__(self):
        import helpers  # tests/helpers.py, on sys.path via the caller
        from pcqm.operators import gen
        from pcqm import scalars as s

        self.h = helpers
        self.gen = gen
        half = s.pc_rational(Fraction(1, 2))
        self.half = half
        self.coef = {
            "1": s.pc_rational(1), "i": s.pc_imag(1), "I": s.pc_pseudo(1),
            "l": s.pc_l(1), "l^2": s.pc_l(2), "1/2": half,
            "(1+I)": s.pc_rational(1) + s.pc_pseudo(1),
        }
        self.sigma = {"+": half + s.pc_pseudo(Fraction(1, 2)),
                      "-": half + s.pc_pseudo(Fraction(-1, 2))}
        self.half_over_l = s.pc_l(-1, Fraction(1, 2))
        self.minus_one = s.pc_rational(-1)
        self.zero = s.PC_ZERO
        self.memo: dict[str, dict] = {}

    # term-map arithmetic -------------------------------------------------
    def add(self, *maps: dict) -> dict:
        out: dict = {}
        for m in maps:
            for w, c in m.items():
                t = out.get(w, self.zero) + c
                if t.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = t
        return out

    def scale(self, m: dict, c) -> dict:
        return {w: v for w, v in ((w, v * c) for w, v in m.items()) if not v.is_zero()}

    def mul(self, a: dict, b: dict) -> dict:
        return self.h.oracle_multiply(a, b)

    def comm(self, a: dict, b: dict) -> dict:
        return self.add(self.mul(a, b), self.scale(self.mul(b, a), self.minus_one))

    # operator definitions --------------------------------------------------
    def generator(self, kind: str, branch: str, index: int) -> dict:
        return {(self.gen(kind, branch, index),): self.coef["1"]}

    def alias(self, name: str, index: int) -> dict:
        kind = "X" if name in ("x", "y") else "P"
        plus, minus = self.generator(kind, "+", index), self.generator(kind, "-", index)
        if name in ("x", "px"):
            return self.scale(self.add(plus, minus), self.half)
        return self.scale(self.add(plus, self.scale(minus, self.minus_one)), self.half_over_l)

    def pc(self, kind: str, index: int) -> dict:
        return self.add(*(self.scale(self.generator(kind, b, index), self.sigma[b]) for b in "+-"))

    def rotation(self, comp: str, i: int, j: int) -> dict:
        def antisym(first, second):
            return self.add(self.mul(first(i), second(j)),
                            self.scale(self.mul(first(j), second(i)), self.minus_one))

        if comp == "":
            return antisym(lambda n: self.pc("X", n), lambda n: self.pc("P", n))
        if comp in ("+", "-"):
            return antisym(lambda n: self.generator("X", comp, n),
                           lambda n: self.generator("P", comp, n))
        if comp in ("R", "I"):
            sign = self.coef["1"] if comp == "R" else self.minus_one
            return self.scale(self.add(self.rotation("+", i, j),
                                       self.scale(self.rotation("-", i, j), sign)), self.half)
        first, second = {"x": ("x", "px"), "y": ("y", "py"),
                         "xy": ("x", "py"), "yx": ("y", "px")}[comp]
        return antisym(lambda n: self.alias(first, n), lambda n: self.alias(second, n))

    def casimir(self, comp: str) -> dict:
        vectors = [(2, 3), (1, 3), (1, 2), (1, 4), (2, 4), (3, 4)]
        squares = [self.mul(op, op) for op in (self.rotation(comp, *p) for p in vectors)]
        return self.scale(self.add(*squares), self.half)

    def atom(self, name: str) -> dict:
        if name[0] == "C":
            return self.casimir(name[1:])
        head, _, idx = name.partition("_")
        if head[0] in "XP" and len(head) == 2:
            return self.generator(head[0], head[1], int(idx))
        if head in ("x", "y", "px", "py"):
            return self.alias(head, int(idx))
        letter, comp = head[0], head[1:]
        if len(idx) == 1:
            a = int(idx)
            i, j = {1: (2, 3), 2: (1, 3), 3: (1, 2)}[a] if letter == "L" else (a, 4)
        else:
            i, j = int(idx[0]), int(idx[1])
        return self.rotation(comp, i, j)

    def value(self, node: Node) -> dict:
        hit = self.memo.get(node.text)
        if hit is not None:
            return hit
        if node.op == "atom":
            out = self.atom(node.args[0])
        elif node.op == "scale":
            out = self.scale(self.value(node.args[1]), self.coef[node.args[0]])
        elif node.op == "sum":
            out = self.add(*(self.value(a) for a in node.args))
        elif node.op == "comm":
            out = self.comm(self.value(node.args[0]), self.value(node.args[1]))
        elif node.op == "prod":
            out = self.value(node.args[0])
            for a in node.args[1:]:
                out = self.mul(out, self.value(a))
        elif node.op == "pow":
            base = self.value(node.args[0])
            out = {(): self.coef["1"]}
            for _ in range(node.args[1]):
                out = self.mul(out, base)
        else:
            raise ValueError(node.op)
        self.memo[node.text] = out
        return out

    def render(self, node: Node) -> str:
        """Canonical text of the oracle's value, for comparison with `eval`."""
        from pcqm.operators import NcPolynomial, render_poly

        return render_poly(NcPolynomial(self.value(node)))
