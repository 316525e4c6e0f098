"""Symmetric (Dicke) states, collective spin operators, qubit permutations
and the real Schur–Weyl (total-spin) decomposition of the qubit register."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import DenseOperator, StateVector, _SIGMA, _check_dense_size, _kron_all

PI_ATOL = 1e-10


@lru_cache(maxsize=16)
def _hamming_weights(num_qubits: int) -> np.ndarray:
    """Read-only number of ``|1>`` factors of every basis index ``0 .. 2^N - 1``."""
    idx = np.arange(2**num_qubits)
    weights = sum((idx >> b) & 1 for b in range(num_qubits))
    weights.setflags(write=False)
    return weights


def dicke(num_qubits: int, excitations: int) -> StateVector:
    """Symmetric Dicke state with a fixed number of excited qubits.

    Equal superposition of every computational basis state whose Hamming
    weight (number of ``|1>`` factors) equals ``excitations``.
    """
    n, m = int(num_qubits), int(excitations)
    if n < 1:
        raise ValueError("num_qubits must be >= 1")
    if not 0 <= m <= n:
        raise ValueError(f"excitations must lie in 0..{n}, got {m}")
    _check_dense_size(n)
    vec = np.zeros(2**n, dtype=complex)
    vec[_hamming_weights(n) == m] = 1.0 / math.sqrt(math.comb(n, m))
    return StateVector(vec)


def w_state(num_qubits: int) -> StateVector:
    """Single-excitation Dicke state."""
    return dicke(num_qubits, 1)


def collective_j(num_qubits: int, axis) -> DenseOperator:
    """Collective spin component ``J = (1/2) sum_k sigma_axis^(k)``.

    ``axis`` is 'x', 'y' or 'z', or a nonzero real 3-vector giving the
    measurement direction (normalized internally).
    """
    n = int(num_qubits)
    if n < 1:
        raise ValueError("num_qubits must be >= 1")
    _check_dense_size(n)
    if isinstance(axis, str):
        if axis not in ("x", "y", "z"):
            raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
        local = _SIGMA[axis]
    else:
        v = np.asarray(axis, dtype=float).reshape(3)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("direction vector must be nonzero")
        v = v / nrm
        local = v[0] * _SIGMA["x"] + v[1] * _SIGMA["y"] + v[2] * _SIGMA["z"]
    total = sum(_kron_all([np.eye(2**q), local, np.eye(2 ** (n - 1 - q))]) for q in range(n))
    return DenseOperator(0.5 * total)


def collective_power(num_qubits: int, axis, power: int) -> DenseOperator:
    """Matrix power ``J_axis**power`` (re-hermitized against roundoff)."""
    from .linalg import op_power

    return op_power(collective_j(num_qubits, axis), power)


def _permutation_index_map(num_qubits: int, perm: tuple[int, ...]) -> np.ndarray:
    """dest[i] = index of the basis state obtained by sending qubit k to slot perm[k]."""
    n = num_qubits
    idx = np.arange(2**n)
    dest = np.zeros_like(idx)
    for k in range(1, n + 1):
        bit = (idx >> (n - k)) & 1
        dest |= bit << (n - perm[k - 1])
    return dest


def permute_qubits(a: DenseOperator, perm) -> DenseOperator:
    """Conjugate by the unitary that sends qubit k to position perm[k].

    ``perm`` is a bijection of 1..N given as a sequence; e.g. for N=2,
    perm=(2, 1) turns ``sigma_x (x) sigma_z`` into ``sigma_z (x) sigma_x``.
    """
    n = a.num_qubits
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"perm {p} is not a permutation of 1..{n}")
    dest = _permutation_index_map(n, p)
    out = np.empty_like(a.mat)
    out[np.ix_(dest, dest)] = a.mat
    return DenseOperator(out)


def symmetrize(a: DenseOperator) -> DenseOperator:
    """Orthogonal projection onto the permutation-invariant operator space.

    Equals the average of ``P A P^dagger`` over all N! qubit permutations,
    computed with O(N^2) transposition conjugations via the coset recursion
    ``Sym_k = (1/k) sum_t swap(t,k) Sym_{k-1} swap(t,k)`` instead of an
    explicit N!-term sum.
    """
    n = a.num_qubits
    out = np.array(a.mat, copy=True)
    for k in range(2, n + 1):
        acc = out.copy()  # t = k term (identity)
        tensor = out.reshape([2] * 2 * n)  # row bits, then column bits
        for t in range(1, k):
            acc += tensor.swapaxes(t - 1, k - 1).swapaxes(n + t - 1, n + k - 1).reshape(acc.shape)
        out = acc / k
    return DenseOperator(out)


def is_permutation_invariant(a: DenseOperator, atol: float = PI_ATOL) -> bool:
    """True when conjugation by every adjacent transposition changes nothing.

    Adjacent transpositions generate the full symmetric group, so this is
    equivalent to invariance under all N! permutations.  Only the entries a
    swap moves (row or column bits k, k+1 differ) are compared.
    """
    n = a.num_qubits
    for k in range(1, n):
        left, right = 2 ** (k - 1), 2 ** (n - k - 1)
        t = a.mat.reshape(left, 2, 2, right, left, 2, 2, right)
        moved = (
            t[:, 0, 1] - t[:, 1, 0].swapaxes(3, 4),  # row bits differ
            t[:, 0, 0, :, :, 0, 1] - t[:, 0, 0, :, :, 1, 0],  # row bits agree, column bits differ
            t[:, 1, 1, :, :, 0, 1] - t[:, 1, 1, :, :, 1, 0],
        )
        if max(np.max(np.abs(d)) for d in moved) >= atol:
            return False
    return True


class SpinBlock(NamedTuple):
    """Every copy of the total-spin-``j`` irrep inside ``num_qubits`` qubits.

    ``isometry`` is real with shape ``(2^p, multiplicity, 2j+1)``: the columns
    ``isometry[:, c, :]`` are the states ``|j, j>, |j, j-1>, ..., |j, -j>`` of
    copy ``c``, with the same (Condon–Shortley) matrices of ``J_x, J_y, J_z``
    on every copy.  A permutation-invariant operator ``A`` therefore has
    ``W_c^T A W_c' = delta_cc' A_j``.
    """

    j: float
    isometry: np.ndarray

    @property
    def multiplicity(self) -> int:
        return self.isometry.shape[1]

    @property
    def dim(self) -> int:
        return self.isometry.shape[2]


@lru_cache(maxsize=16)
def spin_blocks(num_qubits: int) -> tuple[SpinBlock, ...]:
    """Real Schur–Weyl isometries of ``num_qubits`` qubits, largest spin first.

    The highest-weight vectors of spin ``j`` (``J_z = j``, ``J_+ = 0``) are an
    orthonormal basis of the kernel of the real ``J_+`` on the Hamming-weight
    ``p/2 - j`` subspace; each is lowered by the real ``J_-`` with the
    standard normalization ``sqrt(j(j+1) - m(m-1))``.  The blocks together
    form a real orthogonal change of basis of the ``2^p``-dimensional space.
    """
    p = int(num_qubits)
    if p < 1:
        raise ValueError("num_qubits must be >= 1")
    j_plus = np.real(collective_j(p, "x").mat + 1j * collective_j(p, "y").mat)
    weight = _hamming_weights(p)
    blocks = []
    for w in range(p // 2 + 1):
        j = p / 2 - w
        cols = np.flatnonzero(weight == w)
        if w == 0:
            top = np.eye(2**p)[:, cols]
        else:
            rows = np.flatnonzero(weight == w - 1)
            _, _, vt = np.linalg.svd(j_plus[np.ix_(rows, cols)])
            top = np.zeros((2**p, len(cols) - len(rows)))
            top[cols] = vt[len(rows):].T  # J_+ is onto weight w-1, so the kernel is the rest
        iso = np.empty((2**p, top.shape[1], int(round(2 * j)) + 1))
        iso[:, :, 0] = top
        for s in range(1, iso.shape[2]):
            m = j - s + 1
            iso[:, :, s] = j_plus.T @ iso[:, :, s - 1] / math.sqrt(j * (j + 1) - m * (m - 1))
        iso.setflags(write=False)
        blocks.append(SpinBlock(j, iso))
    return tuple(blocks)


@lru_cache(maxsize=64)
def spin_matrix(j: float, axis: str) -> np.ndarray:
    """Condon–Shortley ``J_axis`` on ``|j, j>, ..., |j, -j>``, as in :func:`spin_blocks`."""
    m = j - np.arange(int(round(2 * j)) + 1)
    plus = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)  # the real J_+
    mat = {"x": (plus + plus.T) / 2, "y": (plus - plus.T) / 2j, "z": np.diag(m)}[axis]
    mat.setflags(write=False)
    return mat


def symmetric_amplitudes(state: StateVector) -> np.ndarray | None:
    """``state`` on the Dicke states ``|N/2, N/2>, ..., |N/2, -N/2>``; None outside their span."""
    top = spin_blocks(state.num_qubits)[0].isometry[:, 0, :]
    amps = top.T @ state.vec
    return amps if np.linalg.norm(state.vec - top @ amps) < PI_ATOL else None


def compress(mat: np.ndarray, isometry: np.ndarray) -> np.ndarray:
    """``sum_c V_c^T A V_c / mult`` over the copies ``V_c = isometry[:, c, :]`` of one block:
    ``Tr(W A) = sum_j mult_j Tr(W_j compress(A))`` for a PI ``W`` with blocks ``W_j``.

    Only the ``mult`` diagonal copy blocks are formed, and a complex ``A`` is
    taken as its real and imaginary parts, so the real isometry stays real."""
    full, mult, dim = isometry.shape
    flat, copies = isometry.reshape(full, mult * dim), isometry.transpose(1, 0, 2)

    def diagonal_blocks(part: np.ndarray) -> np.ndarray:  # sum_c V_c^T part V_c
        return ((flat.T @ part).reshape(mult, dim, full) @ copies).sum(axis=0)

    if np.iscomplexobj(mat):
        return (diagonal_blocks(mat.real) + 1j * diagonal_blocks(mat.imag)) / mult
    return diagonal_blocks(mat) / mult


def lift(pairs) -> np.ndarray:
    """The dense ``sum sum_c V_c A V_c^T`` of ``(isometry, A)`` pairs; inverts :func:`compress`.
    A real ``A`` stays real, and a complex one is lifted as its real and imaginary parts."""
    def copies(iso: np.ndarray, part: np.ndarray) -> np.ndarray:  # sum_c V_c part V_c^T
        flat = iso.reshape(len(iso), -1)
        return (iso.reshape(-1, iso.shape[2]) @ part).reshape(flat.shape) @ flat.T

    return sum(copies(iso, block.real) + 1j * copies(iso, block.imag) if np.any(np.imag(block))
               else copies(iso, np.real(block)) for iso, block in pairs)
