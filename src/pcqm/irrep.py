"""Finite-dimensional so(4) = su(2) (+) su(2) matrix realizations.

The (k,k) representation is built from two commuting spin-k blocks A, B on
the product basis |k m> (x) |k m'>, m descending:

    L_a = A_a (x) Id + Id (x) B_a        M_a = A_a (x) Id - Id (x) B_a

A_a (x) Id and Id (x) B_a commute, so the cross terms of L_a^2 and M_a^2
are both 2 A_a (x) B_a with opposite signs, and cancel in the sum:

    (L^2 + M^2)/2 = A^2 (x) Id + Id (x) B^2.

The Casimir is therefore scalar with value 2k(k+1) as soon as each block has
A^2 = B^2 = k(k+1), and the spectrum-denominator combination
4((L^2+M^2)/2 + 1/2) has the exact eigenvalue 8k(k+1) + 2 = 2(2k+1)^2.

The sweep checks each spin block exactly, in the rational ladder gauge
(``ladder_block``, ``check_ladder_block``), never building the
(2k+1)^2-dimensional product space.  The dense matrices of ``spin_block``
and ``build_irrep`` use binary floating point and serve export and the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import numpy as np

from .record import Record

SpinLike = Union[int, float, Fraction]

DEFAULT_K_MAX = 10


def _as_spin(k: SpinLike) -> Fraction:
    kf = Fraction(k)
    if kf < 0 or (2 * kf).denominator != 1:
        raise ValueError(f"spin must be a non-negative half-integer, got {k!r}")
    return kf


class SpinBlock(Record):
    """Spin-k angular momentum matrices with [J_a, J_b] = i eps_abc J_c."""

    __slots__ = ("k", "j1", "j2", "j3")
    # Arrays have no single truth value, so blocks compare by identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def dim(self) -> int:
        return int(2 * self.k) + 1


def spin_block(k: SpinLike) -> SpinBlock:
    k = _as_spin(k)
    n = int(2 * k) + 1
    # J+|k m> = sqrt(k(k+1) - m(m+1)) |k m+1>, basis ordered m = k .. -k.
    jp = np.zeros((n, n), dtype=complex)
    for r in range(1, n):
        m = k - r
        jp[r - 1, r] = math.sqrt(float(k * (k + 1) - m * (m + 1)))
    jm = jp.conj().T
    j3 = np.diag([float(k - r) for r in range(n)]).astype(complex)
    return SpinBlock(k=k, j1=(jp + jm) / 2, j2=(jp - jm) / 2j, j3=j3)


# Sparse matrix: (row, column) -> nonzero entry times a common denominator.
Scaled = dict[tuple[int, int], int]


class LadderBlock(Record):
    """Spin-k block in the rational ladder gauge, basis ordered m = k .. -k.

    J+|m> = |m+1>, J-|m> = (k(k+1) - m(m-1)) |m-1>, J3|m> = m|m>: similar
    to the unitary gauge of ``spin_block`` (J+ J- is unchanged), but the J+
    and J- entries are integers; only the J3 weights are Fractions.
    Compares by identity, like ``SpinBlock``.
    """

    __slots__ = ("k", "jp", "jm", "j3")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def dim(self) -> int:
        return int(2 * self.k) + 1


def ladder_block(k: SpinLike) -> LadderBlock:
    k = _as_spin(k)
    n = int(2 * k) + 1
    # At m = k - r: k(k+1) - m(m-1) = (2k - r)(r + 1), an integer.
    jp = {(r - 1, r): 1 for r in range(1, n)}
    jm = {(r + 1, r): (n - 1 - r) * (r + 1) for r in range(n - 1)}
    j3 = {(r, r): Fraction(n - 1 - 2 * r, 2) for r in range(n) if n - 1 != 2 * r}
    return LadderBlock(k=k, jp=jp, jm=jm, j3=j3)


def _product(a: Scaled, b: Scaled) -> Scaled:
    by_row: dict[int, list[tuple[int, int]]] = {}
    for (j, c), v in b.items():
        by_row.setdefault(j, []).append((c, v))
    out: Scaled = {}
    for (r, j), u in a.items():
        for c, v in by_row.get(j, ()):
            out[r, c] = out.get((r, c), 0) + u * v
    return out


def _combination(*terms: tuple[int, Scaled]) -> Scaled:
    out: Scaled = {}
    for coeff, entries in terms:
        for pos, v in entries.items():
            out[pos] = out.get(pos, 0) + coeff * v
    return {pos: v for pos, v in out.items() if v}


def check_ladder_block(block: LadderBlock) -> Fraction:
    """Check the spin-k relations exactly, entry by entry; return the (k,k)
    Casimir 2k(k+1).

    Requires zero residuals for [J3,J+] = J+, [J3,J-] = -J-, [J+,J-] = 2J3
    and J^2 = J+J- + J3^2 - J3 = k(k+1), each multiplied out from the
    block's entries; raises ArithmeticError naming the first identity and
    entry (row, column) that fail.  The entries and k(k+1) are scaled by
    their common denominator s into ints, and each identity is checked
    times s^2.
    """
    j_squared = block.k * (block.k + 1)
    parts = (block.jp, block.jm, block.j3)
    s = math.lcm(j_squared.denominator, *(v.denominator for e in parts for v in e.values()))
    jp, jm, j3 = ({pos: v.numerator * (s // v.denominator) for pos, v in e.items()} for e in parts)
    casimir = dict.fromkeys([(r, r) for r in range(block.dim)], int(j_squared * s * s))
    pm = _product(jp, jm)
    identities = (
        ("[J3,J+] = J+", ((1, _product(j3, jp)), (-1, _product(jp, j3)), (-s, jp))),
        ("[J3,J-] = -J-", ((1, _product(j3, jm)), (-1, _product(jm, j3)), (s, jm))),
        ("[J+,J-] = 2J3", ((1, pm), (-1, _product(jm, jp)), (-2 * s, j3))),
        (f"J^2 = {j_squared}", ((1, pm), (1, _product(j3, j3)), (-s, j3), (-1, casimir))),
    )
    for name, terms in identities:
        residual = _combination(*terms)
        if residual:
            (r, c), value = min(residual.items())
            raise ArithmeticError(
                f"{name} fails at entry ({r}, {c}): residual {Fraction(value, s * s)}"
            )
    return 2 * j_squared


class So4Irrep(Record):
    """(k,k) realization; dimension (2k+1)^2.  Compares by identity."""

    __slots__ = ("k", "dim", "l_ops", "m_ops")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def build_irrep(k: SpinLike) -> So4Irrep:
    k = _as_spin(k)
    if k > DEFAULT_K_MAX:
        raise ValueError(f"spin {k} exceeds the maximum {DEFAULT_K_MAX}")
    block = spin_block(k)
    eye = np.eye(block.dim)
    l_ops = tuple(np.kron(j, eye) + np.kron(eye, j) for j in (block.j1, block.j2, block.j3))
    m_ops = tuple(np.kron(j, eye) - np.kron(eye, j) for j in (block.j1, block.j2, block.j3))
    return So4Irrep(k=k, dim=block.dim ** 2, l_ops=l_ops, m_ops=m_ops)


def casimir_matrix(rep: So4Irrep) -> np.ndarray:
    total = sum(op @ op for op in rep.l_ops) + sum(op @ op for op in rep.m_ops)
    return total / 2


def casimir_eigenvalue(rep: So4Irrep) -> float:
    """Verify (L^2 + M^2)/2 is scalar to within 1e-12 and return its value, 2k(k+1)."""
    c = casimir_matrix(rep)
    value = float(np.mean(np.diagonal(c)).real)
    deviation = float(np.max(np.abs(c - value * np.eye(rep.dim))))
    if deviation > 1e-12:
        raise ArithmeticError(
            f"Casimir matrix is not scalar: max deviation {deviation:.3e} > 1.0e-12"
        )
    return value


def denominator_eigenvalue(k: SpinLike) -> Fraction:
    """Eigenvalue of 4*(Casimir + 1/2): exactly 8k(k+1) + 2 = 2(2k+1)^2."""
    k = _as_spin(k)
    return 8 * k * (k + 1) + 2


def shell_degeneracy(k: SpinLike) -> int:
    """Multiplicity of the scalar Casimir: (2k+1)^2 = n^2 with n = 2k+1."""
    k = _as_spin(k)
    return int((2 * k + 1) ** 2)


def export_matrices(rep: So4Irrep) -> dict:
    """JSON-ready dense dump of all six matrices."""

    def dense(m: np.ndarray) -> dict:
        return {"re": m.real.tolist(), "im": m.imag.tolist()}

    return {
        "schema": "so4-irrep/v1",
        "k": str(rep.k),
        "dim": rep.dim,
        "L": [dense(m) for m in rep.l_ops],
        "M": [dense(m) for m in rep.m_ops],
    }
