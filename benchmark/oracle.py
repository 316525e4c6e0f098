"""Reference computations for the benchmark's checks, written with numpy alone.

Nothing here imports symwit: every quantity the benchmark compares against
is rebuilt from its definition.  Conventions match the paper and symwit's
documented ones: qubit 1 is the most significant bit of a basis index, |0>
is the +1 eigenstate of sigma_z, and the Dicke state D(N, m) is the equal
superposition of basis states with m qubits in |1>.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

SIGMA = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def local_sum(n: int, single: np.ndarray) -> np.ndarray:
    """sum_k single^(k) on n qubits, built by direct Kronecker products."""
    dim = 2**n
    total = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        total += np.kron(np.kron(np.eye(2**k), single), np.eye(2 ** (n - 1 - k)))
    return total


def spin(n: int, axis) -> np.ndarray:
    """Collective spin component J_n = (1/2) sum_k n.sigma^(k); axis is x/y/z or a 3-vector."""
    if isinstance(axis, str):
        single = SIGMA[axis]
    else:
        v = np.asarray(axis, dtype=float)
        v = v / np.linalg.norm(v)
        single = v[0] * SIGMA["x"] + v[1] * SIGMA["y"] + v[2] * SIGMA["z"]
    return 0.5 * local_sum(n, single)


def dicke(n: int, m: int) -> np.ndarray:
    """Dicke vector D(n, m): amplitude 1/sqrt(C(n, m)) on every weight-m basis state."""
    weights = np.array([bin(i).count("1") for i in range(2**n)])
    vec = (weights == m).astype(complex)
    return vec / math.sqrt(math.comb(n, m))


def projector(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def partial_transpose(rho: np.ndarray, part, n: int) -> np.ndarray:
    """Transpose the tensor factors of the qubits in ``part`` (1-based)."""
    t = rho.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for q in part:
        axes[q - 1], axes[n + q - 1] = axes[n + q - 1], axes[q - 1]
    return t.transpose(axes).reshape(rho.shape)


def schmidt_max_sq(vec: np.ndarray, n: int) -> float:
    """Largest squared Schmidt coefficient over every bipartition of n qubits."""
    tensor = vec.reshape((2,) * n)
    best = 0.0
    for size in range(1, n // 2 + 1):
        for part in itertools.combinations(range(n), size):
            rest = [q for q in range(n) if q not in part]
            mat = tensor.transpose(list(part) + rest).reshape(2**size, -1)
            best = max(best, float(np.linalg.svd(mat, compute_uv=False)[0] ** 2))
    return best


def min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0])


def max_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[-1])


def expectation(op: np.ndarray, rho: np.ndarray) -> float:
    return float(np.real(np.trace(op @ rho)))


def penalty_objective(n: int, m: int, q: float) -> np.ndarray:
    """Jx^2 + Jy^2 - q (Jz - <Jz>)^2 with <Jz> = n/2 - m on D(n, m)."""
    jx, jy, jz = spin(n, "x"), spin(n, "y"), spin(n, "z")
    shifted = jz - (n / 2 - m) * np.eye(2**n)
    return jx @ jx + jy @ jy - q * (shifted @ shifted)


def basis_operator(n: int, kind: str, axis, power, shift: float, target: np.ndarray) -> np.ndarray:
    """One witness basis operator: identity, (J_a + shift)^p, (sigma_a + shift)^(x)n, or |t><t|."""
    dim = 2**n
    if kind == "identity":
        return np.eye(dim, dtype=complex)
    if kind == "collective":
        return np.linalg.matrix_power(spin(n, axis) + shift * np.eye(dim), power)
    if kind == "tensor":
        local = SIGMA[axis] + shift * SIGMA["i"]
        out = np.eye(1, dtype=complex)
        for _ in range(n):
            out = np.kron(out, local)
        return out
    if kind == "projector":
        return projector(target)
    raise ValueError(f"unknown basis kind {kind!r}")


def witness_matrix(n: int, terms, coefficients, target: np.ndarray) -> np.ndarray:
    """W = sum_k c_k B_k from (kind, axis, power, shift) terms and their coefficients."""
    total = np.zeros((2**n, 2**n), dtype=complex)
    for (kind, axis, power, shift), coeff in zip(terms, coefficients):
        total += float(coeff) * basis_operator(n, kind, axis, power, shift, target)
    return total


def schedule_matrix(payload: dict) -> np.ndarray:
    """Operator realized by a schedule JSON payload: sum c (s n.sigma + w)^(x)N."""
    n = int(payload["N"])
    total = np.zeros((2**n, 2**n), dtype=complex)
    for term in payload["terms"]:
        vec = np.asarray(term["n"], dtype=float)
        w = float(term["identity_weight"])
        if not np.any(vec):
            total += float(term["coeff"]) * w**n * np.eye(2**n)
            continue
        u = vec / np.linalg.norm(vec)
        local = float(term["scale"]) * (u[0] * SIGMA["x"] + u[1] * SIGMA["y"] + u[2] * SIGMA["z"])
        local = local + w * SIGMA["i"]
        out = np.eye(1, dtype=complex)
        for _ in range(n):
            out = np.kron(out, local)
        total += float(term["coeff"]) * out
    return total


def nonwhite_noise(n: int) -> np.ndarray:
    """The paper's non-white noise for D(n, n/2): (|D(n,n/2-1)><..| + |D(n,n/2+1)><..|) / 2."""
    half = n // 2
    return 0.5 * (projector(dicke(n, half - 1)) + projector(dicke(n, half + 1)))


def white_noise(n: int) -> np.ndarray:
    return np.eye(2**n, dtype=complex) / 2**n


def noisy_state(target: np.ndarray, noise: np.ndarray, p: float) -> np.ndarray:
    return (1.0 - p) * projector(target) + p * noise


def fidelity(target: np.ndarray, rho: np.ndarray) -> float:
    return float(np.real(target.conj() @ rho @ target))


def noise_tolerance(w: np.ndarray, target: np.ndarray, noise: np.ndarray) -> float:
    """Largest p with Tr(W rho(p)) < 0 for rho(p) = (1-p)|t><t| + p noise, capped at 1."""
    value = expectation(w, projector(target))
    value_noise = expectation(w, noise)
    if value_noise <= value:
        return 1.0
    return min(1.0, value / (value - value_noise))


def product_max(op: np.ndarray, n: int, part_size: int, starts: int = 20, seed: int = 0) -> float:
    """Best <a (x) b| op |a (x) b> with a on the first ``part_size`` qubits, by alternating eigenvectors."""
    da, db = 2**part_size, 2 ** (n - part_size)
    tensor = op.reshape(da, db, da, db)
    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(starts):
        b = rng.standard_normal(db) + 1j * rng.standard_normal(db)
        b /= np.linalg.norm(b)
        value = -math.inf
        for _ in range(5000):
            a = np.linalg.eigh(np.einsum("ijkl,j,l->ik", tensor, b.conj(), b))[1][:, -1]
            vals, vecs = np.linalg.eigh(np.einsum("ijkl,i,k->jl", tensor, a.conj(), a))
            b = vecs[:, -1]
            if vals[-1] - value <= 1e-14:
                value = max(value, float(vals[-1]))
                break
            value = float(vals[-1])
        best = max(best, value)
    return best
