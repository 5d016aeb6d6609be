"""Pseudo-complex SO(4) generators, their components, and symbolic checks.

Generators ``L_ij = X_i P_j - X_j P_i`` live at three levels: the pc level
(zero-divisor weighted), the two branches, and the component decomposition
over the physical x/y operators,

    L<b>_ij = (Lx_ij + l^2 Ly_ij) +/- l (Lxy_ij + Lyx_ij)
    LR_ij   = (L+_ij + L-_ij)/2 = Lx_ij + l^2 Ly_ij
    LI_ij   = (L+_ij - L-_ij)/2 = l (Lxy_ij + Lyx_ij)

Vector labels follow L_1 = L_23, L_2 = L_13, L_3 = L_12 and M_a = L_a4.
The quadratic Casimir per component c is C^c = (L_c^2 + M_c^2)/2.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Mapping, Sequence

from . import operators
from .operators import (
    INDICES,
    BRANCHES,
    _HALF,
    _L2,
    NcPolynomial,
    Word,
    commutator,
    expand_alias,
    generator_poly,
    multiply,
    pc_coordinate,
    pc_momentum,
    shared_products,
    suite,
)
from .record import Record
from .reports import Check, IdentityReport
from .scalars import (
    PC_I,
    PSEUDO_UNIT,
    PcScalar,
    SIGMA_MINUS,
    SIGMA_PLUS,
    pc_l,
)

# Vector operator labels: L_a and M_a in terms of index pairs.
L_VECTOR_PAIRS = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
M_VECTOR_PAIRS = {1: (1, 4), 2: (2, 4), 3: (3, 4)}

# Alias factors (a, b) of the x/y components: Lc_ij = a_i b_j - a_j b_i.
COMPONENT_FACTORS = {"x": ("x", "px"), "y": ("y", "py"), "xy": ("x", "py"), "yx": ("y", "px")}
# Every component tag of L_ij: the pc operator (None), a branch, the real and
# pseudo-imaginary parts, and the alias components.
COMPONENTS = (None, *BRANCHES, "R", "I", *COMPONENT_FACTORS)


def _check_pair(i: int, j: int) -> None:
    if i not in INDICES or j not in INDICES:
        raise ValueError(f"generator indices must be 1..4, got ({i}, {j})")


def _antisymmetrized(
    a: Callable[[int], NcPolynomial], b: Callable[[int], NcPolynomial], i: int, j: int
) -> NcPolynomial:
    """a_i b_j - a_j b_i."""
    return multiply(a(i), b(j)) - multiply(a(j), b(i))


def branch_generator(i: int, j: int, branch: str) -> NcPolynomial:
    """L<branch>_ij = X<b>_i P<b>_j - X<b>_j P<b>_i (zero when i == j)."""
    _check_pair(i, j)
    return _antisymmetrized(
        partial(generator_poly, "X", branch), partial(generator_poly, "P", branch), i, j
    )


def pc_generator_poly(i: int, j: int) -> NcPolynomial:
    """Pseudo-complex L_ij = X_i P_j - X_j P_i with sigma-weighted coefficients."""
    _check_pair(i, j)
    return _antisymmetrized(pc_coordinate, pc_momentum, i, j)


def component(i: int, j: int, comp: str) -> NcPolynomial:
    """One of the six derived operators per index pair.

    x, y, xy, yx come from the alias operators; R and I are the half sum
    and half difference of the branch generators.
    """
    _check_pair(i, j)
    if comp == "R":
        return (branch_generator(i, j, "+") + branch_generator(i, j, "-")).scale(_HALF)
    if comp == "I":
        return (branch_generator(i, j, "+") - branch_generator(i, j, "-")).scale(_HALF)
    if comp not in COMPONENT_FACTORS:
        raise ValueError(f"unknown component {comp!r}")
    first, second = COMPONENT_FACTORS[comp]
    return _antisymmetrized(partial(expand_alias, first), partial(expand_alias, second), i, j)


def labelled(comp: str | None, i: int, j: int) -> NcPolynomial:
    """L_ij at one level: pc (None), a branch ('+'/'-') or a component tag."""
    if comp is None:
        return pc_generator_poly(i, j)
    if comp in BRANCHES:
        return branch_generator(i, j, comp)
    return component(i, j, comp)


class VectorOperators(Record):
    """L_a, M_a vectors with their squares and Casimir for one component level."""

    __slots__ = ("comp", "l_vec", "m_vec", "l_squared", "m_squared", "casimir")


def vector_operators(comp: str | None = None) -> VectorOperators:
    l_vec = tuple(labelled(comp, *L_VECTOR_PAIRS[a]) for a in (1, 2, 3))
    m_vec = tuple(labelled(comp, *M_VECTOR_PAIRS[a]) for a in (1, 2, 3))
    l_squared = sum((multiply(op, op) for op in l_vec), NcPolynomial.zero())
    m_squared = sum((multiply(op, op) for op in m_vec), NcPolynomial.zero())
    return VectorOperators(
        comp=comp,
        l_vec=l_vec,
        m_vec=m_vec,
        l_squared=l_squared,
        m_squared=m_squared,
        casimir=(l_squared + m_squared).scale(_HALF),
    )


def casimir(comp: str | None = None) -> NcPolynomial:
    return vector_operators(comp).casimir


_PAIRS = tuple(itertools.combinations(INDICES, 2))


def _so4_rhs(build, i: int, j: int, k: int, q: int) -> NcPolynomial:
    """i*(d_jk L_qi + d_qj L_ik + d_ik L_jq + d_iq L_kj) for a given builder."""
    out = NcPolynomial.zero()
    for (a, b), present in (
        ((q, i), j == k),
        ((i, k), q == j),
        ((j, q), i == k),
        ((k, j), i == q),
    ):
        if present:
            out = out + build(a, b)
    return out.scale(PC_I)


@suite("so4-commutators")
def verify_so4_relations():
    """Check the generator commutation relations for all 36 pair tuples.

    Covers the pc level, each branch separately, and vanishing cross-branch
    commutators.
    """
    pc_cache = {(i, j): pc_generator_poly(i, j) for i, j in _PAIRS}
    br_cache = {
        (i, j, b): branch_generator(i, j, b) for i, j in _PAIRS for b in BRANCHES
    }
    for (i, j), (k, q) in itertools.product(_PAIRS, _PAIRS):
        label = f"({i}{j}),({k}{q})"
        bracket = commutator(pc_cache[(i, j)], pc_cache[(k, q)])
        yield "pc-level", label, bracket - _so4_rhs(pc_generator_poly, i, j, k, q)
        for b in BRANCHES:
            bracket = commutator(br_cache[(i, j, b)], br_cache[(k, q, b)])
            yield f"branch{b}", label, bracket - _so4_rhs(partial(branch_generator, branch=b), i, j, k, q)
        yield "cross-branch", label, commutator(br_cache[(i, j, "+")], br_cache[(k, q, "-")])


@suite("component-recomposition")
def verify_recomposition():
    """Check the component decompositions of the generators, per index pair.

    Families: each branch against x/y/xy/yx components, the real and
    pseudo-imaginary parts against their x/y forms, and the recombinations
    of the pc generator from parts and from the zero-divisor basis.
    """
    for i, j in _PAIRS:
        x, y, xy, yx, real, imag = (component(i, j, c) for c in (*COMPONENT_FACTORS, "R", "I"))
        base = x + y.scale(_L2)
        cross = xy + yx
        for b, sign in (("+", 1), ("-", -1)):
            residual = branch_generator(i, j, b) - (base + cross.scale(pc_l(1, sign)))
            yield "branch-components", f"L{b}_{i}{j}", residual
        yield "real-part", f"LR_{i}{j}", real - base
        yield "pseudo-part", f"LI_{i}{j}", imag - cross.scale(pc_l(1))
        pc_body = pc_generator_poly(i, j)
        yield "pc-recombination", f"L_{i}{j}", pc_body - (real + imag.scale(PSEUDO_UNIT))
        branches = (branch_generator(i, j, "+").scale(SIGMA_PLUS)
                    + branch_generator(i, j, "-").scale(SIGMA_MINUS))
        yield "zero-divisor-recombination", f"L_{i}{j}", pc_body - branches


# A basis element as ``express_in_span`` reads it: its label, the element,
# its leading word and the reciprocal of its coefficient there.
Pivot = tuple[str, NcPolynomial, Word, PcScalar]


def span_pivots(basis: Mapping[str, NcPolynomial]) -> list[Pivot]:
    """The ``Pivot`` of each nonzero element of a basis with pairwise distinct
    leading words, computed once for all the expansions over that basis."""
    pivots = []
    for label, b in basis.items():
        if not b.is_zero():
            pivot = b.words()[0]
            pivots.append((label, b, pivot, b.coefficient(pivot).reciprocal()))
    return pivots


def express_in_span(
    p: NcPolynomial, pivots: Sequence[Pivot]
) -> tuple[dict[str, PcScalar], NcPolynomial]:
    """Exact expansion of p over a basis, given as its ``span_pivots``.

    Returns the coefficient map and the residual p - sum(c_b * b); a nonzero
    residual means p lies outside the span.
    """
    residual = p
    coeffs: dict[str, PcScalar] = {}
    for label, b, pivot, inverse in pivots:
        if pivot not in residual:
            continue
        coeffs[label] = c = residual.coefficient(pivot) * inverse
        residual = residual - b.scale(c)
    return coeffs, residual


def _component_pivots(comp: str) -> list[Pivot]:
    return span_pivots({f"L{comp}_{i}{j}": component(i, j, comp) for i, j in _PAIRS})


@suite("component-closure", schema="closure-report/v1")
def verify_component_closure():
    """Expand component commutators over component spans by exact solving.

    The verified claims: [R,R] and [I,I] land in span{R}, [R,I] lands in
    span{I}, all with zero residual.  The x,x and y,y brackets are recorded
    the same way; their solved constants ((i/2) and (i/2) l^-2 patterns,
    against i for the canonical generators) quantify how the coordinate
    components differ from plain rotation generators.
    """
    r_ops = {pair: component(*pair, "R") for pair in _PAIRS}
    i_ops = {pair: component(*pair, "I") for pair in _PAIRS}
    x_ops = {pair: component(*pair, "x") for pair in _PAIRS}
    y_ops = {pair: component(*pair, "y") for pair in _PAIRS}
    r_pivots = _component_pivots("R")
    families = (
        ("R,R", r_ops, r_ops, r_pivots),
        ("R,I", r_ops, i_ops, _component_pivots("I")),
        ("I,I", i_ops, i_ops, r_pivots),
        ("x,x", x_ops, x_ops, _component_pivots("x")),
        ("y,y", y_ops, y_ops, _component_pivots("y")),
    )
    for family, left_ops, right_ops, pivots in families:
        for (i, j), (k, q) in itertools.product(_PAIRS, _PAIRS):
            bracket = commutator(left_ops[(i, j)], right_ops[(k, q)])
            coeffs, residual = express_in_span(bracket, pivots)
            expansion = {lbl: str(c) for lbl, c in coeffs.items()}
            yield f"[{family}]", f"({i}{j}),({k}{q})", residual, {"expansion": expansion}


def _symmetrized_dot(
    a: Sequence[NcPolynomial], b: Sequence[NcPolynomial]
) -> NcPolynomial:
    """(1/2) sum_a (A_a B_a + B_a A_a)."""
    out = NcPolynomial.zero()
    for op_a, op_b in zip(a, b):
        out = out + multiply(op_a, op_b) + multiply(op_b, op_a)
    return out.scale(_HALF)


class CasimirExpansion(Record):
    """Expansion of the x-component Casimir around the R-component one.

    ``difference`` is c_x minus the truncated form C^R - l^2 (dot terms).
    ``decomposition_residual`` is c_x minus the full three-slice expansion
    (order 0 and 2 content vanishes iff it is zero), ``ordering_residual``
    is the gap between the symmetrized and the left-ordered dot products
    (zero means the ordering choice is immaterial at order l^2), and
    ``order4_residual`` is the exact leading correction the truncation
    drops, i.e. ``difference == l^4 * order4_residual``.
    """

    __slots__ = (
        "c_x", "c_r", "decomposition_residual", "ordering_residual", "order4_residual", "difference",
    )


@shared_products()
def casimir_expansion() -> CasimirExpansion:
    """Expand C^x = (1/2) sum (Lx^2 + Mx^2) in powers of the decomposition.

    Using Lx = LR - l^2 Ly termwise, the exact slices are

        s0 = (1/2) sum (LR^2 + MR^2) = C^R
        s1 = -[(LR . Ly) + (MR . My)]   (symmetrized dot products)
        s2 = (1/2) sum (Ly^2 + My^2)

    c_x itself is built independently from the alias operators, so
    c_x == s0 + l^2 s1 + l^4 s2 is an engine-level theorem, not a
    construction.  s2 is the leading correction the truncated form drops.
    """
    ops_x = vector_operators("x")
    ops_r = vector_operators("R")
    ops_y = vector_operators("y")
    c_x = ops_x.casimir
    c_r = ops_r.casimir

    slice1 = -(
        _symmetrized_dot(ops_r.l_vec, ops_y.l_vec)
        + _symmetrized_dot(ops_r.m_vec, ops_y.m_vec)
    )
    slice1_literal = -sum(
        (
            multiply(a, b)
            for a, b in zip(ops_r.l_vec + ops_r.m_vec, ops_y.l_vec + ops_y.m_vec)
        ),
        NcPolynomial.zero(),
    )
    slice2 = ops_y.casimir

    difference = c_x - (c_r + slice1.scale(_L2))
    return CasimirExpansion(
        c_x=c_x,
        c_r=c_r,
        decomposition_residual=difference - slice2.scale(pc_l(4)),
        ordering_residual=slice1 - slice1_literal,
        order4_residual=slice2,
        difference=difference,
    )


@suite("casimir-central")
def verify_casimir_commutes():
    """C^R commutes with every LR_ij."""
    c_r = casimir("R")
    for i, j in _PAIRS:
        yield "casimir-central", f"[C^R, LR_{i}{j}]", commutator(c_r, component(i, j, "R"))


@suite("casimir-expansion")
def verify_casimir_expansion():
    """The slices of ``casimir_expansion``: no order l^0 or l^2 terms remain,
    the dot-product ordering is immaterial, and the truncation drops exactly
    l^4 times a nonzero order-4 slice."""
    exp = casimir_expansion()
    order4, family = exp.order4_residual, "casimir-expansion"
    yield family, "no order l^0 or l^2 terms (c_x == s0 + l^2 s1 + l^4 s2)", exp.decomposition_residual
    yield family, "dot-product ordering immaterial at order l^2", exp.ordering_residual
    is_l4 = exp.difference == order4.scale(pc_l(4))
    yield Check(family, "difference equals l^4 times the order-4 slice", "0" if is_l4 else "nonzero", is_l4)
    yield Check(family, "order l^4 residual nonzero", f"{len(order4.terms())} terms", not order4.is_zero())


def verify() -> list[IdentityReport]:
    """The reports of the seven verify suites, in order.  Each suite is looked
    up by its module-level name at the call, so a wrapper bound to that name
    (a tracer's span, a test's stand-in) runs in its place."""
    return [
        operators.verify_canonical_relations(),
        operators.verify_induced_relations(),
        verify_so4_relations(),
        verify_recomposition(),
        verify_component_closure(),
        verify_casimir_commutes(),
        verify_casimir_expansion(),
    ]
