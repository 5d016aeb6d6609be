import itertools
from fractions import Fraction

import numpy as np
import pytest

from pcqm.irrep import (
    DEFAULT_K_MAX,
    LadderBlock,
    build_irrep,
    casimir_eigenvalue,
    casimir_matrix,
    check_ladder_block,
    denominator_eigenvalue,
    ladder_block,
    shell_degeneracy,
    spin_block,
)

EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1


def test_spin_block_commutators():
    for k in (Fraction(1, 2), 1, Fraction(3, 2), 3):
        block = spin_block(k)
        js = (block.j1, block.j2, block.j3)
        for a, b in itertools.product(range(3), range(3)):
            expected = sum(1j * EPS[a, b, c] * js[c] for c in range(3))
            assert np.allclose(js[a] @ js[b] - js[b] @ js[a], expected, atol=1e-12)
        j_squared = sum(j @ j for j in js)
        assert np.allclose(j_squared, float(k * (k + 1)) * np.eye(block.dim), atol=1e-12)


def test_trivial_representation():
    rep = build_irrep(0)
    assert rep.dim == 1
    assert all(np.all(op == 0) for op in rep.l_ops + rep.m_ops)
    assert casimir_eigenvalue(rep) == 0.0


def test_half_spin_dimension():
    assert build_irrep(Fraction(1, 2)).dim == 4


def test_l3_spectrum_is_sum_of_two_spin_weights():
    # oracle: all m1 + m2 with m in {-1, 0, 1}
    weights = sorted(m1 + m2 for m1 in (-1, 0, 1) for m2 in (-1, 0, 1))
    rep = build_irrep(1)
    eigs = sorted(np.linalg.eigvalsh(rep.l_ops[2]).round(12))
    assert np.allclose(eigs, weights, atol=1e-12)


def test_casimir_eigenvalues():
    for k, expected in ((0, 0), (Fraction(1, 2), Fraction(3, 2)), (1, 4)):
        rep = build_irrep(k)
        assert abs(casimir_eigenvalue(rep) - float(expected)) < 1e-12


def test_so4_matrix_algebra_closes():
    rep = build_irrep(Fraction(3, 2))
    L, M = rep.l_ops, rep.m_ops
    for a, b in itertools.product(range(3), range(3)):
        comm = L[a] @ L[b] - L[b] @ L[a]
        assert np.allclose(comm, sum(1j * EPS[a, b, c] * L[c] for c in range(3)), atol=1e-12)
        comm = L[a] @ M[b] - M[b] @ L[a]
        assert np.allclose(comm, sum(1j * EPS[a, b, c] * M[c] for c in range(3)), atol=1e-12)
        comm = M[a] @ M[b] - M[b] @ M[a]
        assert np.allclose(comm, sum(1j * EPS[a, b, c] * L[c] for c in range(3)), atol=1e-12)


def test_denominator_eigenvalue_examples():
    assert denominator_eigenvalue(0) == 2
    assert denominator_eigenvalue(Fraction(1, 2)) == 8
    assert denominator_eigenvalue(1) == 18


def test_sweep_to_five():
    k = Fraction(0)
    while k <= 5:
        rep = build_irrep(k)
        value = casimir_eigenvalue(rep)
        assert abs(value - float(2 * k * (k + 1))) < 1e-12
        assert denominator_eigenvalue(k) == 2 * (2 * k + 1) ** 2
        assert rep.dim == shell_degeneracy(k)
        n = 2 * k + 1
        assert shell_degeneracy(k) == n * n
        k += Fraction(1, 2)


def test_invalid_spins():
    for bad in (-1, Fraction(1, 3), 0.3):
        with pytest.raises(ValueError):
            build_irrep(bad)
    with pytest.raises(ValueError):
        build_irrep(11)  # beyond DEFAULT_K_MAX


def test_casimir_scalar_guard():
    rep = build_irrep(1)
    broken = type(rep)(k=rep.k, dim=rep.dim, l_ops=rep.l_ops, m_ops=(rep.l_ops[0] + 1,) + rep.m_ops[1:])
    with pytest.raises(ArithmeticError):
        casimir_eigenvalue(broken)


def _spins(k_max):
    return [Fraction(n, 2) for n in range(int(2 * k_max) + 1)]


def test_ladder_blocks_pass_the_exact_check():
    for k in _spins(DEFAULT_K_MAX):
        block = ladder_block(k)
        assert block.dim == 2 * k + 1
        value = check_ladder_block(block)
        assert isinstance(value, Fraction) and value == 2 * k * (k + 1)


def test_exact_casimir_matches_dense_oracle():
    for k in _spins(5):
        exact = check_ladder_block(ladder_block(k))
        assert abs(float(exact) - casimir_eigenvalue(build_irrep(k))) < 1e-12


def test_casimir_is_tensor_sum_of_block_squares():
    # (L^2 + M^2)/2 = A^2 (x) Id + Id (x) B^2: the identity the exact sweep rests on.
    for k in _spins(2):
        block = spin_block(k)
        a_squared = sum(j @ j for j in (block.j1, block.j2, block.j3))
        eye = np.eye(block.dim)
        expected = np.kron(a_squared, eye) + np.kron(eye, a_squared)
        assert np.allclose(casimir_matrix(build_irrep(k)), expected, atol=1e-12)


def _first_failure(k: Fraction, parts: dict) -> tuple[str, tuple[int, int], Fraction]:
    """The first spin relation that fails, its first entry and residual, in
    dense Fraction matrices: an evaluation independent of ``check_ladder_block``."""
    n = int(2 * k) + 1
    cells = list(itertools.product(range(n), range(n)))

    def dense(entries):
        return {rc: Fraction(entries.get(rc, 0)) for rc in cells}

    def mul(a, b):
        return {(r, c): sum(a[r, j] * b[j, c] for j in range(n)) for r, c in cells}

    def comb(*terms):
        return {rc: sum(x * m[rc] for x, m in terms) for rc in cells}

    p, m, z = dense(parts["jp"]), dense(parts["jm"]), dense(parts["j3"])
    eye = {(r, c): Fraction(r == c) for r, c in cells}
    j_squared = k * (k + 1)
    identities = (
        ("[J3,J+] = J+", comb((1, mul(z, p)), (-1, mul(p, z)), (-1, p))),
        ("[J3,J-] = -J-", comb((1, mul(z, m)), (-1, mul(m, z)), (1, m))),
        ("[J+,J-] = 2J3", comb((1, mul(p, m)), (-1, mul(m, p)), (-2, z))),
        (f"J^2 = {j_squared}", comb((1, mul(p, m)), (1, mul(z, z)), (-1, z), (-j_squared, eye))),
    )
    for name, residual in identities:
        for rc in cells:
            if residual[rc]:
                return name, rc, residual[rc]
    raise AssertionError("every relation holds")


@pytest.mark.parametrize(
    "k, field, entry, value, identity",
    [
        (Fraction(3, 2), "jm", (1, 0), Fraction(15, 4), "[J+,J-] = 2J3"),
        (Fraction(3, 2), "jp", (2, 3), 2, "[J+,J-] = 2J3"),
        (2, "j3", (4, 4), -1, "[J3,J+] = J+"),
        (1, "jp", (0, 2), 1, "[J3,J+] = J+"),
        (1, "jm", (2, 0), 1, "[J3,J-] = -J-"),
        # A denominator of 3 makes the check's common denominator 12, not 4.
        (Fraction(3, 2), "jm", (1, 0), Fraction(7, 3), "[J+,J-] = 2J3"),
    ],
    ids=[
        "jm-without-m(m-1)", "jp-value", "j3-value", "jp-raises-by-2", "jm-lowers-by-2",
        "jm-in-thirds",
    ],
)
def test_exact_check_names_the_failing_identity_and_entry(k, field, entry, value, identity):
    block = ladder_block(k)
    entries = {**getattr(block, field), entry: Fraction(value)}
    assert entries != getattr(block, field)
    parts = {"jp": block.jp, "jm": block.jm, "j3": block.j3, field: entries}
    with pytest.raises(ArithmeticError, match=r"fails at entry \(\d+, \d+\): residual") as err:
        check_ladder_block(LadderBlock(block.k, **parts))
    assert str(err.value).startswith(identity)
    name, (r, c), residual = _first_failure(block.k, parts)
    assert str(err.value) == f"{name} fails at entry ({r}, {c}): residual {residual}"


def test_exact_check_catches_a_block_of_the_wrong_spin():
    # Entries of spin 1 labelled spin 2 satisfy every commutator, not J^2 = 6.
    block = ladder_block(1)
    with pytest.raises(ArithmeticError, match=r"^J\^2 = 6 fails"):
        check_ladder_block(LadderBlock(Fraction(2), block.jp, block.jm, block.j3))
