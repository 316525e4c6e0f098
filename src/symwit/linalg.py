"""Dense linear algebra on N-qubit registers.

Conventions shared by every module in the package:

* qubit 1 is the most significant bit of a computational-basis index,
* ``|0>`` is the +1 eigenstate of ``sigma_z``,
* operators and state vectors are immutable after construction.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

# Absolute entrywise tolerance for hermiticity checks.
HERM_ATOL = 1e-12
# Largest register the dense constructors build: a 2^12-square complex operator is 268 MB.
DENSE_MAX_QUBITS = 12

_SIGMA = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _check_dense_size(num_qubits: int) -> None:
    """Refuse, before any allocation, a register above ``DENSE_MAX_QUBITS``."""
    if num_qubits > DENSE_MAX_QUBITS:
        raise ValueError(f"{num_qubits} qubits: dense operators are limited to {DENSE_MAX_QUBITS}")


def _num_qubits_for_dim(dim: int, what: str) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    return n


class DenseOperator:
    """Immutable complex matrix acting on a register of qubits.

    The dimension must be exactly ``2**num_qubits``; zero qubits (a 1x1
    matrix) is allowed so that scalars can take part in tensor algebra.
    """

    __slots__ = ("num_qubits", "mat")

    def __init__(self, mat) -> None:
        arr = np.array(mat, dtype=complex, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {arr.shape}")
        object.__setattr__(self, "num_qubits", _num_qubits_for_dim(arr.shape[0], "operator"))
        arr.flags.writeable = False
        object.__setattr__(self, "mat", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("DenseOperator is immutable")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    # -- algebra -------------------------------------------------------
    def _coerce(self, other) -> "DenseOperator":
        if not isinstance(other, DenseOperator):
            raise TypeError(f"expected DenseOperator, got {type(other).__name__}")
        if other.num_qubits != self.num_qubits:
            raise ValueError(
                f"qubit count mismatch: {self.num_qubits} vs {other.num_qubits}"
            )
        return other

    def __add__(self, other) -> "DenseOperator":
        return DenseOperator(self.mat + self._coerce(other).mat)

    def __sub__(self, other) -> "DenseOperator":
        return DenseOperator(self.mat - self._coerce(other).mat)

    def __neg__(self) -> "DenseOperator":
        return DenseOperator(-self.mat)

    def __mul__(self, scalar) -> "DenseOperator":
        return DenseOperator(self.mat * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other) -> "DenseOperator":
        return DenseOperator(self.mat @ self._coerce(other).mat)

    def dag(self) -> "DenseOperator":
        return DenseOperator(self.mat.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def hermiticity_defect(self) -> float:
        """Largest entrywise deviation from A = A^dagger."""
        return float(np.max(np.abs(self.mat - self.mat.conj().T)))

    def is_hermitian(self, atol: float = HERM_ATOL) -> bool:
        return self.hermiticity_defect() < atol

    def hermitized(self) -> "DenseOperator":
        return DenseOperator(0.5 * (self.mat + self.mat.conj().T))

    def expectation(self, state) -> float:
        """Real expectation value on a density operator or state vector."""
        if isinstance(state, StateVector):
            val = complex(state.vec.conj() @ (self.mat @ state.vec))
        else:
            rho = state if isinstance(state, DenseOperator) else DenseOperator(state)
            self._coerce(rho)
            val = complex(np.sum(self.mat.T * rho.mat))  # Tr(A rho) without matmul
        if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
            raise ValueError(f"expectation value has imaginary residue {val.imag:.3e}")
        return float(val.real)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DenseOperator(num_qubits={self.num_qubits})"


class StateVector:
    """Immutable pure state of ``num_qubits`` qubits, unit norm within 1e-12."""

    __slots__ = ("num_qubits", "vec")

    def __init__(self, vec) -> None:
        arr = np.array(vec, dtype=complex, copy=True).reshape(-1)
        object.__setattr__(self, "num_qubits", _num_qubits_for_dim(arr.shape[0], "state"))
        nrm = float(np.linalg.norm(arr))
        if not abs(nrm - 1.0) <= 1e-12:  # also refuses nan amplitudes
            raise ValueError(f"state vector norm {nrm!r} is not 1 within 1e-12")
        arr.flags.writeable = False
        object.__setattr__(self, "vec", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("StateVector is immutable")

    @classmethod
    def normalized(cls, vec) -> "StateVector":
        arr = np.asarray(vec, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(arr)
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(arr / nrm)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]

    def density(self) -> DenseOperator:
        """Rank-one projector |psi><psi|."""
        return DenseOperator(np.outer(self.vec, self.vec.conj()))

    def overlap(self, other: "StateVector") -> complex:
        return complex(self.vec.conj() @ other.vec)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StateVector(num_qubits={self.num_qubits})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def identity(num_qubits: int) -> DenseOperator:
    _check_dense_size(num_qubits)
    return DenseOperator(np.eye(2**num_qubits, dtype=complex))


def pauli(axis: str) -> DenseOperator:
    """Single-qubit Pauli matrix; axis is one of 'x', 'y', 'z' or 'i'."""
    try:
        return DenseOperator(_SIGMA[axis])
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def pauli_string(axes) -> DenseOperator:
    """Tensor product of single-qubit Paulis, e.g. ('x', 'i', 'z')."""
    return DenseOperator(_kron_all([_SIGMA[a] for a in axes]))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _kron_all(mats) -> np.ndarray:
    """Left fold ``(m_1 (x) m_2) (x) ...`` of matrices or vectors; ``[[1]]`` if empty."""
    mats = list(mats)
    return reduce(np.kron, mats) if mats else np.eye(1, dtype=complex)


def kron(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """Tensor product; qubits of ``a`` become the most significant block."""
    return DenseOperator(np.kron(a.mat, b.mat))


def kron_power(a: DenseOperator, n: int) -> DenseOperator:
    if n < 0:
        raise ValueError("tensor power requires n >= 0")
    return DenseOperator(_kron_all([a.mat] * n))


def op_power(a: DenseOperator, n: int) -> DenseOperator:
    """n-th matrix power of a Hermitian operator, re-hermitized at each step.

    Repeated floating-point products of a Hermitian matrix drift away from
    exact hermiticity; the drift is symmetrized out so downstream hermiticity
    checks at 1e-12 stay meaningful.
    """
    if n < 0:
        raise ValueError("matrix power requires n >= 0")
    out = np.eye(a.dim, dtype=complex)
    for _ in range(n):
        out = out @ a.mat
        out = 0.5 * (out + out.conj().T)
    return DenseOperator(out)


def hermitian_eig(a: DenseOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns ascending real eigenvalues and a unitary matrix of column
    eigenvectors.  The input must be Hermitian to within 1e-12 entrywise;
    the residual asymmetry is symmetrized away before factorization.
    """
    return np.linalg.eigh(_hermitian_part(a))


def min_eig(a: DenseOperator) -> float:
    """Smallest eigenvalue of a Hermitian operator."""
    return float(np.linalg.eigvalsh(_hermitian_part(a))[0])


def _hermitian_part(a: DenseOperator) -> np.ndarray:
    """``(A + A^dagger) / 2`` of an operator Hermitian to within ``HERM_ATOL``."""
    defect = a.hermiticity_defect()
    if defect >= HERM_ATOL:
        raise ValueError(
            f"operator is not Hermitian: max |A - A^dagger| = {defect:.3e} >= {HERM_ATOL}"
        )
    return 0.5 * (a.mat + a.mat.conj().T)


def _validate_subset(subset, num_qubits: int) -> tuple[int, ...]:
    qubits = tuple(sorted(set(int(q) for q in subset)))
    if any(q < 1 or q > num_qubits for q in qubits):
        raise ValueError(f"qubit subset {qubits} out of range 1..{num_qubits}")
    return qubits


def partial_transpose(a: DenseOperator, subset) -> DenseOperator:
    """Transpose the tensor factors of the given qubits (1-based labels)."""
    n = a.num_qubits
    qubits = _validate_subset(subset, n)
    t = a.mat.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for q in qubits:
        axes[q - 1], axes[n + q - 1] = axes[n + q - 1], axes[q - 1]
    return DenseOperator(t.transpose(axes).reshape(a.dim, a.dim))


def partial_trace(a: DenseOperator, keep) -> DenseOperator:
    """Trace out all qubits not listed in ``keep`` (1-based labels).

    The kept qubits appear in ascending label order; keeping nothing returns
    the 1x1 matrix ``[Tr A]``.
    """
    n = a.num_qubits
    kept = _validate_subset(keep, n)
    traced = [q for q in range(1, n + 1) if q not in kept]
    t = a.mat.reshape((2,) * (2 * n))
    # rows: kept then traced, same for columns
    order = (
        [q - 1 for q in kept]
        + [q - 1 for q in traced]
        + [n + q - 1 for q in kept]
        + [n + q - 1 for q in traced]
    )
    dk, dt = 2 ** len(kept), 2 ** len(traced)
    t = t.transpose(order).reshape(dk, dt, dk, dt)
    return DenseOperator(np.einsum("itjt->ij", t))


def schmidt_max_sq(psi: StateVector) -> float:
    """Largest squared Schmidt coefficient over all bipartitions.

    Every bipartition of the register into two nonempty parts is scanned
    (each unordered split once, or one per part size when no qubit swap
    changes the state); the result lies in [1/2, 1] for entangled through
    product states respectively.
    """
    n = psi.num_qubits
    if n < 2:
        raise ValueError("a bipartition needs at least 2 qubits")
    tensor = psi.vec.reshape((2,) * n)
    if all(np.array_equal(tensor, tensor.swapaxes(k, k + 1)) for k in range(n - 1)):
        return max(float(np.linalg.svd(psi.vec.reshape(2**k, -1), compute_uv=False)[0]) ** 2
                   for k in range(1, n // 2 + 1))
    best = 0.0
    # enumerate each unordered bipartition once: the part containing qubit 1
    for mask in range(2 ** (n - 1)):
        part = [1] + [q for q in range(2, n + 1) if (mask >> (q - 2)) & 1]
        if len(part) == n:
            continue
        rest = [q for q in range(1, n + 1) if q not in part]
        mat = tensor.transpose([q - 1 for q in part + rest]).reshape(
            2 ** len(part), 2 ** len(rest)
        )
        top = np.linalg.svd(mat, compute_uv=False)[0]
        best = max(best, float(top) ** 2)
    return best
