"""Finite-dimensional so(4) = su(2) (+) su(2) matrix realizations.

The (k,k) representation is built from two commuting spin-k blocks A, B on
the product basis |k m> (x) |k m'>, m descending:

    L_a = A_a (x) Id + Id (x) B_a        M_a = A_a (x) Id - Id (x) B_a

Half the sum of squares, (L^2 + M^2)/2, is a scalar matrix with value
2k(k+1); the spectrum-denominator combination 4((L^2+M^2)/2 + 1/2) has the
exact eigenvalue 8k(k+1) + 2 = 2(2k+1)^2.

Matrices use binary floating point; scalar checks hold to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

SpinLike = Union[int, float, Fraction]

DEFAULT_K_MAX = 10


def _as_spin(k: SpinLike) -> Fraction:
    kf = Fraction(k)
    if kf < 0 or (2 * kf).denominator != 1:
        raise ValueError(f"spin must be a non-negative half-integer, got {k!r}")
    return kf


@dataclass(frozen=True, eq=False)
class SpinBlock:
    """Spin-k angular momentum matrices with [J_a, J_b] = i eps_abc J_c."""

    k: Fraction
    j1: np.ndarray
    j2: np.ndarray
    j3: np.ndarray

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


@dataclass(frozen=True, eq=False)
class So4Irrep:
    """(k,k) realization; dimension (2k+1)^2."""

    k: Fraction
    dim: int
    l_ops: tuple[np.ndarray, np.ndarray, np.ndarray]
    m_ops: tuple[np.ndarray, np.ndarray, np.ndarray]


def build_irrep(k: SpinLike, *, k_max: SpinLike = DEFAULT_K_MAX) -> So4Irrep:
    k = _as_spin(k)
    if k > Fraction(k_max):
        raise ValueError(f"spin {k} exceeds configured maximum {k_max}")
    block = spin_block(k)
    eye = np.eye(block.dim)
    l_ops = tuple(np.kron(j, eye) + np.kron(eye, j) for j in (block.j1, block.j2, block.j3))
    m_ops = tuple(np.kron(j, eye) - np.kron(eye, j) for j in (block.j1, block.j2, block.j3))
    return So4Irrep(k=k, dim=block.dim ** 2, l_ops=l_ops, m_ops=m_ops)


def casimir_matrix(rep: So4Irrep) -> np.ndarray:
    total = sum(op @ op for op in rep.l_ops) + sum(op @ op for op in rep.m_ops)
    return total / 2


def casimir_eigenvalue(rep: So4Irrep, *, tol: float = 1e-12) -> float:
    """Verify (L^2 + M^2)/2 is scalar and return its value, 2k(k+1)."""
    c = casimir_matrix(rep)
    value = float(np.mean(np.diagonal(c)).real)
    deviation = float(np.max(np.abs(c - value * np.eye(rep.dim))))
    if deviation > tol:
        raise ArithmeticError(
            f"Casimir matrix is not scalar: max deviation {deviation:.3e} > {tol:.1e}"
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
