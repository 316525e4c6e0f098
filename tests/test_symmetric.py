"""Dicke states, collective operators and permutation symmetry."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symwit.linalg import DenseOperator, identity, op_power, pauli
from symwit.symmetric import (
    PI_ATOL,
    _hamming_weights,
    collective_j,
    collective_power,
    compress,
    dicke,
    is_permutation_invariant,
    lift,
    permute_qubits,
    spin_blocks,
    symmetrize,
    w_state,
)
from symwit.witnesses import NoiseModel


def test_hamming_weights_table():
    for n in (1, 5, 10):
        table = _hamming_weights(n)
        assert table.tolist() == [bin(i).count("1") for i in range(2**n)]
        assert not table.flags.writeable


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
    for build in (identity, NoiseModel.white):
        with pytest.raises(ValueError, match="limited to 12"):
            build(13)


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


def _swap_moves(mat: np.ndarray, n: int, k: int) -> np.ndarray:
    """Conjugation by the swap of qubits k, k+1, in full, minus the operator."""
    perm = list(range(1, n + 1))
    perm[k - 1], perm[k] = perm[k], perm[k - 1]
    return permute_qubits(DenseOperator(mat), perm).mat - mat


def _full_copy_invariant(op: DenseOperator) -> bool:
    n = op.num_qubits
    return all(np.max(np.abs(_swap_moves(op.mat, n, k))) < PI_ATOL for k in range(1, n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_is_permutation_invariant_matches_the_full_copy_check(n):
    # a PI operator plus a non-PI perturbation whose largest move under an adjacent
    # swap is just below or just above PI_ATOL: dense ones, and single entries
    # (every entry for n <= 3, random ones above); none need be Hermitian
    rng = np.random.default_rng(40 + n)
    dim = 2**n
    perturbations = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                     for _ in range(3)]
    entries = itertools.product(range(dim), repeat=2) if n <= 3 else (
        rng.integers(dim, size=2) for _ in range(8))
    for i, j in entries:
        e = np.zeros((dim, dim), dtype=complex)
        e[i, j] = 1.0
        perturbations.append(e)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    pi_op = symmetrize(DenseOperator(a))
    assert is_permutation_invariant(pi_op) and _full_copy_invariant(pi_op)
    for e in perturbations:
        largest = max(np.max(np.abs(_swap_moves(e, n, k))) for k in range(1, n))
        if largest == 0.0:  # an entry that every swap fixes, such as a diagonal corner
            continue
        for factor in (0.5, 2.0):
            op = DenseOperator(pi_op.mat + factor * PI_ATOL / largest * e)
            assert is_permutation_invariant(op) == _full_copy_invariant(op) == (factor < 1)


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


def _reference_lift(isometry: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``sum_c V_c B V_c^T`` as the flattened isometry around ``1 (x) B``."""
    flat = isometry.reshape(len(isometry), -1)
    return flat @ np.kron(np.eye(isometry.shape[1]), block) @ flat.T


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(3, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_lift_is_the_copy_sum_and_inverts_compress(n, real, seed):
    rng = np.random.default_rng(seed)
    blocks = spin_blocks(n)
    mats = []
    for b in blocks:  # real symmetric or complex Hermitian (a 1x1 one is real)
        raw = rng.standard_normal((b.dim, b.dim))
        if not real:
            raw = raw + 1j * rng.standard_normal((b.dim, b.dim))
        mats.append(raw + raw.conj().T)
    for b, mat in zip(blocks, mats):
        got = lift([(b.isometry, mat)])
        assert got.dtype == (np.float64 if not np.any(mat.imag) else np.complex128)
        want = _reference_lift(b.isometry, mat)
        assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(mat)))
        assert np.max(np.abs(compress(got, b.isometry) - mat)) <= 1e-12
        if real:  # a complex block with zero imaginary part is lifted as the real one
            as_complex = lift([(b.isometry, mat.astype(complex))])
            assert as_complex.dtype == np.float64 and np.array_equal(as_complex, got)
    whole = lift([(b.isometry, mat) for b, mat in zip(blocks, mats)])
    for b, mat in zip(blocks, mats):  # the spins do not mix
        assert np.max(np.abs(compress(whole, b.isometry) - mat)) <= 1e-12
