"""Dicke states, collective operators and permutation symmetry."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from symwit.linalg import DenseOperator, op_power, pauli
from symwit.symmetric import (
    collective_j,
    collective_power,
    dicke,
    is_permutation_invariant,
    permute_qubits,
    spin_blocks,
    symmetrize,
    w_state,
)


def test_dicke_amplitudes_combinatorial_oracle():
    # independent construction: equal weight on every bitstring with m ones
    for n, m in ((2, 1), (4, 2), (6, 3), (5, 2), (4, 1)):
        state = dicke(n, m)
        want = np.zeros(2**n)
        for ones in itertools.combinations(range(n), m):
            index = sum(1 << (n - 1 - q) for q in ones)
            want[index] = 1.0
        want /= math.sqrt(math.comb(n, m))
        assert np.allclose(state.vec, want)


def test_dicke_collective_expectations():
    for n, m in ((4, 2), (6, 3), (5, 2), (4, 1), (8, 4)):
        state = dicke(n, m)
        jz = collective_j(n, "z")
        assert abs(jz.expectation(state) - (n - 2 * m) / 2) < 1e-12
        # maximal total spin j = n/2: J^2 = j(j+1)
        jx2, jy2, jz2 = (op_power(collective_j(n, ax), 2) for ax in "xyz")
        jsq = jx2 + jy2 + jz2
        j = n / 2
        assert abs(jsq.expectation(state) - j * (j + 1)) < 1e-10


def test_dicke_input_validation():
    with pytest.raises(ValueError):
        dicke(4, 5)
    with pytest.raises(ValueError):
        dicke(0, 0)


def test_dense_constructors_refuse_large_registers_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("a dense array was allocated before the size check")

    for name in ("zeros", "eye", "empty"):
        monkeypatch.setattr(np, name, no_allocation)
    with pytest.raises(ValueError, match="limited to 12"):
        dicke(40, 20)
    for axis in ("x", (1.0, 1.0, 0.0)):
        with pytest.raises(ValueError, match="limited to 12"):
            collective_j(13, axis)


def test_w_state_is_single_excitation_dicke():
    for n in (3, 5):
        assert np.allclose(w_state(n).vec, dicke(n, 1).vec)


def test_collective_j_explicit_sum_oracle():
    for n in (2, 3):
        for axis in "xyz":
            total = np.zeros((2**n, 2**n), dtype=complex)
            for k in range(n):
                factors = [np.eye(2)] * n
                factors[k] = pauli(axis).mat
                term = np.eye(1)
                for f in factors:
                    term = np.kron(term, f)
                total += term / 2
            assert np.allclose(collective_j(n, axis).mat, total)


def test_collective_power_matches_op_power():
    for power in (2, 3, 4):
        a = collective_power(4, "x", power)
        b = op_power(collective_j(4, "x"), power)
        assert np.allclose(a.mat, b.mat)


def test_permute_qubits_swap_oracle():
    xz = DenseOperator(np.kron(pauli("x").mat, pauli("z").mat))
    zx = permute_qubits(xz, (2, 1))
    assert np.allclose(zx.mat, np.kron(pauli("z").mat, pauli("x").mat))


def test_permute_qubits_composition():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    op = DenseOperator((a + a.conj().T) / 2)
    p1 = (2, 3, 4, 1)
    p2 = (3, 1, 4, 2)
    combined = tuple(p2[p1[k] - 1] for k in range(4))  # first p1, then p2
    assert np.allclose(
        permute_qubits(permute_qubits(op, p1), p2).mat,
        permute_qubits(op, combined).mat,
    )


def test_symmetrize_equals_bruteforce_average():
    rng = np.random.default_rng(12)
    for n in (3, 4):
        a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        op = DenseOperator(a)
        total = np.zeros_like(a)
        for perm in itertools.permutations(range(1, n + 1)):
            total += permute_qubits(op, perm).mat
        want = total / math.factorial(n)
        got = symmetrize(op)
        assert np.allclose(got.mat, want, atol=1e-12)
        assert is_permutation_invariant(got)


def test_symmetrize_idempotent_and_fixes_invariants():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((16, 16))
    op = symmetrize(DenseOperator(a))
    assert np.allclose(symmetrize(op).mat, op.mat, atol=1e-12)
    jx2 = op_power(collective_j(4, "x"), 2)
    assert np.allclose(symmetrize(jx2).mat, jx2.mat, atol=1e-12)


def test_is_permutation_invariant():
    assert is_permutation_invariant(op_power(collective_j(3, "y"), 2))
    single = DenseOperator(np.kron(pauli("x").mat, np.eye(4)))
    assert not is_permutation_invariant(single)


def test_spin_blocks_are_schur_weyl_isometries():
    rng = np.random.default_rng(9)
    for p in range(1, 6):
        dim = 2**p
        blocks = spin_blocks(p)
        assert sum(b.multiplicity * b.dim for b in blocks) == dim
        cols = np.concatenate([b.isometry.reshape(dim, -1) for b in blocks], axis=1)
        assert np.allclose(cols.T @ cols, np.eye(dim), atol=1e-12)
        jx, jy, jz = (collective_j(p, axis).mat for axis in "xyz")
        j_sq = jx @ jx + jy @ jy + jz @ jz
        assert np.allclose(j_sq @ cols, cols * np.concatenate(
            [np.full(b.multiplicity * b.dim, b.j * (b.j + 1)) for b in blocks]
        ), atol=1e-10)
        # a random PI operator is the same block on every copy and has no
        # entries between copies or between spins
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = symmetrize(DenseOperator(raw + raw.conj().T)).mat
        want = np.zeros((dim, dim), dtype=complex)
        start = 0
        for b in blocks:
            first = b.isometry[:, 0, :]
            size = b.multiplicity * b.dim
            want[start:start + size, start:start + size] = np.kron(
                np.eye(b.multiplicity), first.T @ op @ first
            )
            start += size
        assert np.allclose(cols.T @ op @ cols, want, atol=1e-10)
