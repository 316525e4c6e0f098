"""Witness and state optimization by convex programming.

Two solvers back the public API.  ``optimize_witness`` fits witness
coefficients over a fixed operator basis by a cutting-plane method: the
positivity constraint ``W - alpha * W_P >= 0`` is relaxed to a growing set of
eigenvector cuts, a small linear program is re-solved after each round, and a
feasibility repair (shifting along the identity) turns the relaxed iterate
into a certified witness, so the gap between the two sides bounds the model
error.  ``max_ppt`` maximizes a Hermitian objective over density matrices
whose partial transpose across a given bipartition stays positive, using a
log-barrier interior-point method over a block-diagonal state.  When the
objective is permutation invariant the state is, without loss of generality
(by a twirling argument), invariant under permutations within each part; in
the real Schur–Weyl basis of the two parts it is then a direct sum of one
block per pair of part spins ``(j_A, j_B)``, of size
``(2 j_A + 1)(2 j_B + 1)``, and the partial transpose keeps every block, so
at N=6 the largest matrix is 16-square instead of 64-square.  Other
objectives are one dense block.  ``max_bisep_seesaw`` and
``max_symmetric_product`` provide matching product-state lower bounds by
alternating eigenvector updates (all random restarts batched) and direct
Bloch-sphere search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog, minimize

from .linalg import (
    DenseOperator,
    StateVector,
    _kron_all,
    schmidt_max_sq,
)
from .symmetric import (
    dicke,
    is_permutation_invariant,
    permute_qubits,
    spin_blocks,
)
from .witnesses import (BasisTerm, NoiseModel, WitnessSpec, _critical_noise,
                        _projector_witness_matrix, _wi3_objective, _wi3_penalty)

__all__ = [
    "SolverConfig",
    "SolverReport",
    "OptimizationError",
    "WitnessOptimizationProblem",
    "collective_power_basis",
    "optimize_witness",
    "PptProblem",
    "PptResult",
    "max_ppt",
    "PptScanResult",
    "max_ppt_all",
    "max_bisep_seesaw",
    "BisepResult",
    "max_bisep_all",
    "max_symmetric_product",
    "QScanResult",
    "q_scan",
    "PPT_MAX_QUBITS",
]

# The PPT objectives and the returned states are dense 2^N operators.
PPT_MAX_QUBITS = 8


class OptimizationError(RuntimeError):
    """Raised when a solver cannot produce a certified answer."""


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs shared by the solvers.

    ``barrier_tol`` is the final barrier parameter mu of the interior-point
    solver (the duality gap is bounded by ``2 * dim * mu``); ``cut_tol`` is
    the model-gap target of the cutting-plane witness fit; the seesaw fields
    control the random-restart product-state search.  All randomness flows
    from ``seed`` through explicit generators, so runs are reproducible.
    """

    barrier_tol: float = 1e-9
    cut_tol: float = 1e-6
    seesaw_restarts: int = 50
    seesaw_tol: float = 1e-12
    seed: int = 0

    @classmethod
    def from_mapping(cls, entries: dict) -> "SolverConfig":
        known = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, raw in entries.items():
            if key not in known:
                raise ValueError(f"unknown solver option {key!r}")
            kwargs[key] = int(raw) if key in ("seesaw_restarts", "seed") else float(raw)
        return cls(**kwargs)


@dataclass(frozen=True)
class SolverReport:
    """Convergence certificate attached to every solver result.

    ``optimum`` is the objective value at the returned point;
    ``primal_residual`` the violation of the equality constraints;
    ``dual_residual`` the optimality-gap bound (cutting-plane model gap, or
    ``2 * dim * mu`` for the barrier method); ``min_eig_slack`` the smallest
    eigenvalue over the semidefinite blocks at the returned point.
    """

    optimum: float
    primal_residual: float
    dual_residual: float
    min_eig_slack: float
    iterations: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "optimum": float(self.optimum),
            "primal_residual": float(self.primal_residual),
            "dual_residual": float(self.dual_residual),
            "min_eig_slack": float(self.min_eig_slack),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SolverReport":
        return cls(
            optimum=float(data["optimum"]),
            primal_residual=float(data["primal_residual"]),
            dual_residual=float(data["dual_residual"]),
            min_eig_slack=float(data["min_eig_slack"]),
            iterations=int(data["iterations"]),
            converged=bool(data["converged"]),
        )


def _herm(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2.0


# ---------------------------------------------------------------------------
# witness optimization (cutting plane)
# ---------------------------------------------------------------------------


def collective_power_basis(
    num_qubits: int,
    axes: tuple[str, ...] = ("x", "y", "z"),
    max_power: int | None = None,
    include_odd: bool = False,
) -> tuple[BasisTerm, ...]:
    """Identity plus powers of collective spin components as witness basis.

    Even powers ``J_a^2, J_a^4, ...`` up to ``max_power`` (default: the qubit
    number) for each requested axis; odd powers are excluded by default since
    they vanish on the states of interest, but can be switched on.
    """
    if max_power is None:
        max_power = num_qubits
    start = 1 if include_odd else 2
    step = 1 if include_odd else 2
    terms = [BasisTerm("identity")]
    for power in range(start, max_power + 1, step):
        for axis in axes:
            terms.append(BasisTerm("collective", axis=axis, power=power))
    return tuple(terms)


@dataclass(frozen=True)
class WitnessOptimizationProblem:
    """Inputs of the witness fit: target state, noise model, operator basis.

    The witness is constrained to ``W = sum_k c_k B_k`` with the
    normalization ``<target|W|target> = -1`` and the matrix inequality
    ``W - alpha * (lambda_sq * 1 - |target><target|) >= 0`` for some
    ``alpha > 0``; the objective is to minimize ``Tr(W rho_noise)``, which
    maximizes the noise tolerance ``1 / (1 + Tr(W rho_noise))``.
    """

    target: StateVector
    noise: NoiseModel
    basis: tuple[BasisTerm, ...]
    name: str = "optimized"

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", tuple(self.basis))
        if not self.basis:
            raise ValueError("witness basis must not be empty")
        if self.noise.rho_noise.dim != self.target.dim:
            raise ValueError("noise model dimension does not match the target")
        flats = self.basis_stack.reshape(len(self.basis), -1)
        norms = np.linalg.norm(flats, axis=1)
        if np.any(norms == 0):
            raise ValueError("witness basis contains a zero operator")
        gram = np.real(flats.conj() @ flats.T) / np.outer(norms, norms)
        if float(np.linalg.eigvalsh(gram)[0]) < 1e-10:
            raise ValueError("witness basis operators are linearly dependent")

    @property
    def num_qubits(self) -> int:
        return self.target.num_qubits

    @cached_property
    def basis_stack(self) -> np.ndarray:
        """The realized basis operators, one read-only ``(len(basis), dim, dim)`` array."""
        dim = self.target.dim
        stack = np.empty((len(self.basis), dim, dim), dtype=complex)
        for k, term in enumerate(self.basis):
            op = term.realize(self.num_qubits, self.target)
            if not op.is_hermitian(1e-10):
                raise ValueError("witness basis operators must be Hermitian")
            stack[k] = op.mat
        stack.setflags(write=False)
        return stack


def optimize_witness(
    problem: WitnessOptimizationProblem, config: SolverConfig | None = None
) -> tuple[WitnessSpec, SolverReport]:
    """Fit witness coefficients by cutting planes on the positivity constraint.

    Each round solves a linear program over the accumulated eigenvector cuts
    (a relaxation, hence a lower bound on the objective), then repairs the
    iterate into a strictly feasible witness by an identity shift (an upper
    bound).  Iteration stops once the two bounds agree to ``config.cut_tol``;
    the certified model gap is returned as ``dual_residual``.  Raises
    :class:`OptimizationError` if no witness of the requested form exists.
    """
    cfg = config or SolverConfig()
    mats = problem.basis_stack
    nb = mats.shape[0]
    dim = problem.target.dim
    lambda_sq = schmidt_max_sq(problem.target)
    wp = _projector_witness_matrix(problem.target, lambda_sq)
    psi = problem.target.vec

    t_vec = np.real(np.einsum("i,kij,j->k", psi.conj(), mats, psi))
    rho_noise = problem.noise.rho_noise.mat
    n_vec = np.real(np.einsum("kij,ji->k", mats, rho_noise))

    # identity expansion for the feasibility repair (requires 1 in the span)
    flats = mats.reshape(nb, -1)
    e_vec, *_ = np.linalg.lstsq(flats.T, np.eye(dim, dtype=complex).ravel(), rcond=None)
    e_vec = np.real(e_vec)
    residual = np.linalg.norm(flats.T @ e_vec - np.eye(dim).ravel())
    has_identity = residual < 1e-9 * math.sqrt(dim)

    obj = np.append(n_vec, 0.0)
    a_eq = np.append(t_vec, 0.0)[None, :]
    b_eq = np.array([-1.0])
    bounds = [(-1e3, 1e3)] * nb + [(0.0, 1e3)]
    cut_rows: list[np.ndarray] = []

    best_obj = math.inf
    best_point: tuple[np.ndarray, float] | None = None
    gap = math.inf
    lp_obj = -math.inf
    iterations = 0

    for _ in range(2000):
        a_ub = -np.array(cut_rows) if cut_rows else None
        b_ub = np.zeros(len(cut_rows)) if cut_rows else None
        res = linprog(
            obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
            method="highs",
        )
        iterations += 1
        if res.status == 2:
            raise OptimizationError(
                "no witness of the requested form exists: the normalization "
                "and positivity constraints are jointly infeasible"
            )
        if res.status != 0:
            raise OptimizationError(f"linear-program master failed: {res.message}")
        z = res.x
        lp_obj = float(res.fun)
        coeffs, alpha = z[:nb], z[nb]

        slack = _herm(np.tensordot(coeffs, mats, axes=(0, 0)) - alpha * wp)
        vals, vecs = np.linalg.eigh(slack)
        lam_min = float(vals[0])

        if lam_min >= -1e-12:
            cand_obj = float(n_vec @ coeffs)
            if cand_obj < best_obj:
                best_obj, best_point = cand_obj, (coeffs.copy(), float(alpha))
            gap = best_obj - lp_obj
            break

        for v in vecs[:, vals < -1e-12][:, :4].T:  # eigenvector cuts
            row = np.empty(nb + 1)
            row[:nb] = np.real(np.einsum("i,kij,j->k", v.conj(), mats, v))
            row[nb] = -np.real(v.conj() @ (wp @ v))
            cut_rows.append(row)

        if has_identity:
            # the spectral norm of the Hermitian slack, from the eigenvalues at hand
            norm = max(abs(lam_min), abs(float(vals[-1])))
            delta = -lam_min + 1e-10 * max(1.0, norm)
            if delta < 0.999:
                coeffs2 = (coeffs + delta * e_vec) / (1.0 - delta)
                alpha2 = alpha / (1.0 - delta)
                cand_obj = float(n_vec @ coeffs2)
                if cand_obj < best_obj:
                    best_obj, best_point = cand_obj, (coeffs2, alpha2)

        gap = best_obj - lp_obj
        if best_point is not None and gap <= cfg.cut_tol:
            break

    if best_point is None:
        raise OptimizationError(
            "cutting-plane witness fit found no feasible witness "
            f"(last positivity violation {lam_min:.3e})"
        )

    coeffs, alpha = best_point
    spec = WitnessSpec(
        name=problem.name,
        num_qubits=problem.num_qubits,
        basis=problem.basis,
        coefficients=tuple(float(c) for c in coeffs),
        target=problem.target,
        alpha=float(alpha),
        lambda_sq=lambda_sq,
        alpha_source="optimized",
    )
    report = SolverReport(
        optimum=best_obj,
        primal_residual=float(abs(t_vec @ coeffs + 1.0)),
        dual_residual=float(gap),
        min_eig_slack=spec.certificate_slack,
        iterations=iterations,
        converged=bool(gap <= cfg.cut_tol),
    )
    return spec, report


# ---------------------------------------------------------------------------
# PPT maximization (interior point)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PptProblem:
    """Maximize ``Tr(M rho)`` over states PPT across one bipartition.

    ``bipartition`` lists the qubits (1-based) of one part; the partial
    transpose acts on that part.  The objective is a dense operator on at
    most ``PPT_MAX_QUBITS`` qubits; a permutation-invariant one is solved in
    spin blocks (see :func:`max_ppt`).
    """

    objective: DenseOperator
    bipartition: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.objective.is_hermitian(1e-10):
            raise ValueError("PPT objective must be Hermitian")
        n = self.objective.num_qubits
        if n > PPT_MAX_QUBITS:
            raise ValueError(f"PPT maximization is limited to {PPT_MAX_QUBITS} qubits")
        part = tuple(sorted(set(int(q) for q in self.bipartition)))
        if not part or len(part) >= n or any(q < 1 or q > n for q in part):
            raise ValueError(f"bipartition {part} is not a proper subset of 1..{n}")
        object.__setattr__(self, "bipartition", part)


class PptResult(NamedTuple):
    value: float
    rho: DenseOperator
    report: SolverReport


class PptScanResult(NamedTuple):
    value: float
    bipartition: tuple[int, ...]
    rho: DenseOperator
    report: SolverReport


class BisepResult(NamedTuple):
    value: float
    bipartition: tuple[int, ...]


class _Block(NamedTuple):
    """One diagonal block ``X_b`` of the state, repeated ``mult`` times.

    ``objective`` is the ``(dim_a * dim_b)``-square block ``M_b`` of the
    objective; the partial transpose acts on the leading ``dim_a`` factor.
    """

    dim_a: int
    dim_b: int
    mult: int
    objective: np.ndarray


@lru_cache(maxsize=64)
def _block_basis(dim_a: int, dim_b: int, real: bool):
    """Flattened orthonormal basis of one block and of its partial transposes.

    The basis spans the Hermitian matrices, or the real symmetric ones when
    ``real``; coordinates in it are :func:`_herm_coords`.
    """
    elems = _hermitian_basis(dim_a * dim_b, real)
    flat = elems.reshape(len(elems), -1)
    pt_flat = _batched_pt_front(elems, dim_a).reshape(len(elems), -1)
    flat.setflags(write=False)
    pt_flat.setflags(write=False)
    return flat, pt_flat


def _hermitian_basis(dim: int, real: bool) -> np.ndarray:
    """Orthonormal basis of the Hermitian (or real symmetric) ``dim``-square matrices.

    Diagonal units first, then ``(E_kl + E_lk) / sqrt 2`` and, unless
    ``real``, ``i (E_kl - E_lk) / sqrt 2`` for ``k < l`` in row-major order.
    """
    rows, cols = np.triu_indices(dim, 1)
    n_off = len(rows)
    elems = np.zeros((dim + n_off * (1 if real else 2), dim, dim),
                     dtype=float if real else complex)
    diag = np.arange(dim)
    elems[diag, diag, diag] = 1.0
    sym = dim + np.arange(n_off)
    elems[sym, rows, cols] = elems[sym, cols, rows] = 1.0 / math.sqrt(2.0)
    if not real:
        anti = sym + n_off
        elems[anti, rows, cols] = 1j / math.sqrt(2.0)
        elems[anti, cols, rows] = -1j / math.sqrt(2.0)
    elems.setflags(write=False)
    return elems


def _batched_pt_front(elems: np.ndarray, dim_a: int) -> np.ndarray:
    """Partial transpose of the leading ``dim_a`` factor for a stack of matrices."""
    nb, dim, _ = elems.shape
    dim_b = dim // dim_a
    arr = elems.reshape(nb, dim_a, dim_b, dim_a, dim_b)
    return arr.transpose(0, 3, 2, 1, 4).reshape(nb, dim, dim)


def _herm_coords(stack: np.ndarray) -> np.ndarray:
    """Coordinates of Hermitian matrices in :func:`_hermitian_basis`.

    Real stacks get the real-symmetric coordinates.  For two Hermitian
    matrices ``Tr(A B) = a . b``.
    """
    rows, cols = np.triu_indices(stack.shape[-1], 1)
    upper = math.sqrt(2.0) * stack[:, rows, cols]
    parts = [np.real(np.diagonal(stack, axis1=1, axis2=2)), upper.real]
    if np.iscomplexobj(stack):
        parts.append(upper.imag)
    return np.concatenate(parts, axis=1)


def _logdet_pd(mat: np.ndarray) -> float | None:
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def _barrier_maximize(
    blocks: list[_Block], cfg: SolverConfig
) -> tuple[list[np.ndarray], SolverReport]:
    """Log-barrier interior point for a block-diagonal PPT problem.

    Maximizes ``sum_b mult_b Tr(M_b X_b)`` subject to
    ``sum_b mult_b Tr(X_b) = 1`` with every ``X_b`` and its partial transpose
    ``X_b^T_A`` positive definite, using the barrier
    ``-sum_b mult_b [log det X_b + log det X_b^T_A]``.  For a state
    ``rho = V (+)_b (X_b (x) 1_mult_b) V^T`` with a real orthogonal ``V``
    that keeps the partial transpose inside each block, this is the dense
    barrier of ``rho`` and ``rho^T_A``, so problem and central path are those
    of the dense PPT problem.  Each ``X_b`` is parameterized in an orthonormal
    Hermitian basis, real symmetric when no ``M_b`` has an imaginary part
    (the central path is then real); the Hessian is block diagonal.  Follows
    mu = 1, 0.1, ... down to ``cfg.barrier_tol`` with damped Newton steps;
    the final duality gap is bounded by ``2 * dim * mu`` with
    ``dim = sum_b mult_b dim_b``.  Returns the blocks ``X_b`` and the report.
    """
    real = not any(np.any(np.imag(b.objective)) for b in blocks)
    objectives = [np.real(b.objective) if real else b.objective for b in blocks]
    bases = [_block_basis(b.dim_a, b.dim_b, real) for b in blocks]
    bounds = np.cumsum([0] + [len(flat) for flat, _ in bases])
    slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    dims = [b.dim_a * b.dim_b for b in blocks]
    mults = [float(b.mult) for b in blocks]
    dim = sum(b.mult * d for b, d in zip(blocks, dims))
    nb = int(bounds[-1])
    m_vec = np.concatenate([
        mult * _herm_coords(m_b[None])[0] for mult, m_b in zip(mults, objectives)
    ])
    units = [_herm_coords(np.eye(d, dtype=float if real else complex)[None])[0] for d in dims]
    x = np.concatenate(units) / dim  # every X_b = 1 / dim
    a_vec = np.concatenate([mult * unit for mult, unit in zip(mults, units)])

    def parts_of(vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        return [
            ((vec[sl] @ flat).reshape(d, d), (vec[sl] @ pt_flat).reshape(d, d))
            for sl, d, (flat, pt_flat) in zip(slices, dims, bases)
        ]

    def barrier(vec: np.ndarray) -> float | None:
        total = 0.0
        for mult, pair in zip(mults, parts_of(vec)):
            for mat in pair:
                ld = _logdet_pd(mat)
                if ld is None:
                    return None
                total -= mult * ld
        return total

    total_newton = 0
    converged = True
    mu = 1.0
    while True:
        t = 1.0 / mu
        b_x = barrier(x)
        dec = math.inf
        for _ in range(60):
            # block-diagonal Hessian bordered by the trace constraint
            kkt = np.zeros((nb + 1, nb + 1))
            kkt[:nb, nb] = kkt[nb, :nb] = a_vec
            grad = -t * m_vec
            for mult, pair, d, flats, sl in zip(mults, parts_of(x), dims, bases, slices):
                for mat, flat in zip(pair, flats):
                    prec = np.linalg.inv(mat)
                    grad[sl] -= mult * np.real(flat.conj() @ prec.ravel())
                    curv = (prec @ flat.reshape(-1, d, d) @ prec).reshape(len(flat), -1)
                    kkt[sl, sl] += mult * np.real(curv @ flat.conj().T)
            # Near the central path grad is almost parallel to a_vec, with a
            # multiplier of order t, and the Hessian spans ~1/mu^2 in scale.
            # Removing that part of grad (it does not change dx), scaling
            # the Hessian to unit diagonal and taking the decrement as the
            # step's curvature dx.H.dx (equal to -grad.dx in exact
            # arithmetic) keeps the rounding error from growing with t.
            grad -= (a_vec @ grad) / (a_vec @ a_vec) * a_vec
            scale = np.append(1.0 / np.sqrt(np.diag(kkt)[:nb]), 1.0)
            kkt = kkt * np.outer(scale, scale)
            kkt[:nb, :nb] = (kkt[:nb, :nb] + kkt[:nb, :nb].T) / 2.0
            rhs = np.append(-grad, 0.0) * scale
            try:
                y = np.linalg.solve(kkt, rhs)[:nb]
            except np.linalg.LinAlgError:
                y = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:nb]
            dx = y * scale[:nb]
            dec = float(y @ kkt[:nb, :nb] @ y)
            if not math.isfinite(dec) or dec <= 2e-9:
                break

            # Armijo test on -t Tr(M rho) + barrier, with the linear part
            # taken from dx rather than as a difference of two large totals
            gain = t * float(m_vec @ dx)
            step = 1.0
            accepted = False
            for _ in range(60):
                x_new = x + step * dx
                b_new = barrier(x_new)
                if b_new is not None and b_new - b_x - step * gain <= -0.01 * step * dec:
                    x, b_x = x_new, b_new
                    accepted = True
                    break
                step *= 0.5
            total_newton += 1
            if not accepted:
                # Below mu ~ 1e-8 the Hessian spans more scales than double
                # precision resolves and dx can point uphill; that ends the
                # level at the rounding floor, like a centered one.  A
                # downhill dx that no step length improves enough is a
                # centering failure.
                probe = 1e-4
                b_probe = barrier(x + probe * dx)
                if b_probe is not None and b_probe - b_x - probe * gain >= 0.0:
                    dec = 0.0
                break
        if dec > 1e-5:
            converged = False
        if mu <= cfg.barrier_tol * (1.0 + 1e-12):
            break
        mu = max(mu / 10.0, cfg.barrier_tol)

    x = x / float(a_vec @ x)  # remove the accumulated unit-trace drift
    parts = parts_of(x)
    min_slack = min(float(np.linalg.eigvalsh(mat)[0]) for pair in parts for mat in pair)
    report = SolverReport(
        optimum=float(m_vec @ x),
        primal_residual=float(abs(a_vec @ x - 1.0)),
        dual_residual=float(2.0 * dim * mu),
        min_eig_slack=min_slack,
        iterations=total_newton,
        converged=converged,
    )
    return [xb for xb, _ in parts], report


@lru_cache(maxsize=16)
def _spin_embeddings(num_qubits: int, part_size: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """Real embeddings of the (j_A, j_B) spin blocks of a two-part register.

    Each entry is ``(dim_a, dim_b, V)`` with ``V`` of shape
    ``(2^N, mult * dim_a * dim_b)``: column block ``c`` is the isometry of
    copy ``c``, ordered as the tensor product of a part-A spin state (the
    first ``part_size`` qubits) and a part-B spin state.
    """
    out = []
    for blk_a in spin_blocks(part_size):
        for blk_b in spin_blocks(num_qubits - part_size):
            iso = np.einsum("xci,yej->xyceij", blk_a.isometry, blk_b.isometry)
            iso = iso.reshape(2**num_qubits, -1)
            iso.setflags(write=False)
            out.append((blk_a.dim, blk_b.dim, iso))
    return tuple(out)


def _front_permutation(part: tuple[int, ...], num_qubits: int):
    """Permutation sending the part qubits to slots 1..k, and its inverse."""
    dest = {}
    slot = 1
    for q in part:
        dest[q] = slot
        slot += 1
    for q in range(1, num_qubits + 1):
        if q not in dest:
            dest[q] = slot
            slot += 1
    perm = tuple(dest[q] for q in range(1, num_qubits + 1))
    inverse = [0] * num_qubits
    for q in range(1, num_qubits + 1):
        inverse[perm[q - 1] - 1] = q
    return perm, tuple(inverse)


def max_ppt(problem: PptProblem, config: SolverConfig | None = None) -> PptResult:
    """Maximum of ``Tr(M rho)`` over PPT states for one bipartition.

    The part is first moved to the leading qubits.  A permutation-invariant
    objective is invariant under permutations within each part, and so,
    without loss of generality (twirling preserves both constraints), is the
    optimal state: in the real Schur–Weyl basis of the two parts both are
    direct sums of blocks labelled by the part spins ``(j_A, j_B)``, of size
    ``(2 j_A + 1)(2 j_B + 1)`` and multiplicity the product of the spin
    multiplicities, and the partial transpose maps each block to itself.
    Any part of a given size then gives the same value.  Other objectives are
    solved as one dense block, which is practical up to 5 qubits.  The
    returned ``rho`` is the dense state on the original qubit order.
    """
    cfg = config or SolverConfig()
    m = problem.objective
    n = m.num_qubits
    part = problem.bipartition
    k = len(part)
    perm, inverse = _front_permutation(part, n)

    if is_permutation_invariant(m):
        embeddings = _spin_embeddings(n, k)
        m_mat = m.mat
    else:
        if n > 5:
            raise OptimizationError(
                "dense PPT maximization without permutation symmetry is "
                "limited to 5 qubits"
            )
        embeddings = ((2**k, 2 ** (n - k), np.eye(2**n)),)
        m_mat = permute_qubits(m, perm).mat
    blocks = []
    for dim_a, dim_b, iso in embeddings:
        d = dim_a * dim_b
        mult = iso.shape[1] // d
        copies = (iso.T @ m_mat @ iso).reshape(mult, d, mult, d)
        m_b = np.einsum("cicj->ij", copies) / mult  # equal copies for a PI objective
        blocks.append(_Block(dim_a, dim_b, mult, _herm(m_b)))
    x_blocks, report = _barrier_maximize(blocks, cfg)
    rho_mat = sum(
        iso @ np.kron(np.eye(blk.mult), xb) @ iso.T
        for (_, _, iso), blk, xb in zip(embeddings, blocks, x_blocks)
    )
    rho = permute_qubits(DenseOperator(_herm(rho_mat)), inverse)
    return PptResult(value=report.optimum, rho=rho, report=report)


def _bipartitions(num_qubits: int, permutation_invariant: bool) -> list[tuple[int, ...]]:
    """Each unordered bipartition once; only part sizes matter in the PI case."""
    n = num_qubits
    if permutation_invariant:
        return [tuple(range(1, k + 1)) for k in range(1, n // 2 + 1)]
    parts = []
    for k in range(1, n // 2 + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            if 2 * k == n and combo[0] != 1:
                continue
            parts.append(combo)
    return parts


def max_ppt_all(
    objective: DenseOperator, config: SolverConfig | None = None
) -> PptScanResult:
    """Maximum of ``Tr(M rho)`` over states PPT across at least one bipartition.

    States that mix over bipartitions cannot exceed the best single
    bipartition for a linear objective, so the scan over bipartitions is
    exact.  Ties are resolved to the first bipartition in scan order
    (ascending part size, lexicographic within a size).
    """
    cfg = config or SolverConfig()
    best: PptScanResult | None = None
    for part in _bipartitions(objective.num_qubits, is_permutation_invariant(objective)):
        result = max_ppt(PptProblem(objective, part), cfg)
        if best is None or result.value > best.value:
            best = PptScanResult(result.value, part, result.rho, result.report)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# product-state searches (lower bounds)
# ---------------------------------------------------------------------------


def max_bisep_seesaw(
    objective: DenseOperator,
    bipartition,
    restarts: int | None = None,
    tol: float | None = None,
    config: SolverConfig | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Best product-state value ``max <a(x)b| M |a(x)b>`` across one bipartition.

    Alternates exact eigenvector updates of the two factors from random
    (Haar-uniform) starts; each pass is monotonically nondecreasing, so the
    final value is a certified lower bound on the biseparable maximum.
    """
    cfg = config or SolverConfig()
    if restarts is None:
        restarts = cfg.seesaw_restarts
    if tol is None:
        tol = cfg.seesaw_tol
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n = objective.num_qubits
    part = tuple(sorted(set(int(q) for q in bipartition)))
    if not part or len(part) >= n or any(q < 1 or q > n for q in part):
        raise ValueError(f"bipartition {part} is not a proper subset of 1..{n}")
    prefix = tuple(range(1, len(part) + 1))
    m = objective
    if part != prefix:
        perm, _ = _front_permutation(part, n)
        m = permute_qubits(objective, perm)
    dim_a = 2 ** len(part)
    dim_b = 2 ** (n - len(part))
    m_tensor = m.mat.reshape(dim_a, dim_b, dim_a, dim_b)
    vec_b = np.empty((restarts, dim_b), dtype=complex)
    for r in range(restarts):
        vec_b[r] = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
        vec_b[r] /= np.linalg.norm(vec_b[r])
    values = np.full(restarts, -math.inf)
    active = np.arange(restarts)  # each restart stops on its own once it gains <= tol
    for _ in range(2000):
        if not active.size:
            break
        vb = vec_b[active]
        m_a = np.einsum("ijkl,rj,rl->rik", m_tensor, vb.conj(), vb)
        vec_a = np.linalg.eigh(m_a)[1][:, :, -1]
        m_b = np.einsum("ijkl,ri,rk->rjl", m_tensor, vec_a.conj(), vec_a)
        vals, vecs = np.linalg.eigh(m_b)
        vec_b[active] = vecs[:, :, -1]
        new, old = vals[:, -1], values[active]
        done = new - old <= tol
        values[active] = np.where(done, np.maximum(old, new), new)
        active = active[~done]
    return float(np.max(values, initial=-math.inf))


def max_bisep_all(
    objective: DenseOperator,
    restarts: int | None = None,
    tol: float | None = None,
    config: SolverConfig | None = None,
) -> BisepResult:
    """Best product-state value over all bipartitions, with the achiever.

    Mixtures of biseparable states cannot exceed the best pure product state
    for a linear objective, so this lower-bounds the biseparable maximum and
    is tight when the seesaw finds the global optimum for each split.
    """
    cfg = config or SolverConfig()
    best_value = -math.inf
    best_part: tuple[int, ...] | None = None
    parts = _bipartitions(objective.num_qubits, is_permutation_invariant(objective))
    for index, part in enumerate(parts):
        rng = np.random.default_rng(cfg.seed + index)
        value = max_bisep_seesaw(
            objective, part, restarts=restarts, tol=tol, config=cfg, rng=rng
        )
        if value > best_value:
            best_value, best_part = value, part
    assert best_part is not None
    return BisepResult(value=best_value, bipartition=best_part)


def max_symmetric_product(
    objective: DenseOperator,
    restarts: int | None = None,
    tol: float | None = None,
    config: SolverConfig | None = None,
) -> float:
    """Maximum of ``<a^(x)N| M |a^(x)N>`` over identical single-qubit states.

    Parameterizes the qubit by Bloch angles and runs Nelder-Mead from
    seeded random starts; the best value found is returned.
    """
    cfg = config or SolverConfig()
    if restarts is None:
        restarts = cfg.seesaw_restarts
    if tol is None:
        tol = max(cfg.seesaw_tol, 1e-14)
    n = objective.num_qubits
    mat = objective.mat
    rng = np.random.default_rng(cfg.seed)

    def negated(angles: np.ndarray) -> float:
        theta, phi = angles
        qubit = np.array(
            [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)]
        )
        state = _kron_all([qubit] * n)
        return -float(np.real(state.conj() @ (mat @ state)))

    best = -math.inf
    for _ in range(restarts):
        theta0 = math.acos(rng.uniform(-1.0, 1.0))
        phi0 = rng.uniform(0.0, 2.0 * math.pi)
        res = minimize(
            negated,
            np.array([theta0, phi0]),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": tol, "maxiter": 2000},
        )
        best = max(best, -float(res.fun))
    return best


# ---------------------------------------------------------------------------
# q scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QScanResult:
    """Rows ``(q, c_q, tolerance)`` plus the tolerance-maximizing row.

    Ties resolve to the earliest grid point.  A row's tolerance is 0 when the
    witness with that ``q`` does not detect the target at all (``c_q`` at
    least the target expectation).
    """

    rows: np.ndarray
    opt_index: int
    q_opt: float
    c_opt: float
    tolerance_opt: float


def q_scan(
    num_qubits: int,
    excitations: int,
    q_grid,
    config: SolverConfig | None = None,
) -> QScanResult:
    """Scan the penalty strength q of the witness family
    ``c_q - (J_x^2 + J_y^2 - q (J_z - <J_z>)^2)`` for a Dicke target.

    For each q the constant ``c_q`` is the PPT maximum of the bracketed
    operator over all bipartitions, and the white-noise tolerance of the
    resulting witness is recorded.
    """
    if num_qubits > PPT_MAX_QUBITS:
        raise ValueError(f"PPT maximization is limited to {PPT_MAX_QUBITS} qubits")
    cfg = config or SolverConfig()
    rho_t = dicke(num_qubits, excitations).density()
    dim = 2**num_qubits
    base = _wi3_objective(num_qubits, excitations, 0.0)
    penalty = _wi3_penalty(num_qubits, excitations)

    rows = []
    for q in q_grid:
        q = float(q)
        if q < 0:
            raise ValueError("q must be nonnegative")
        m = base - q * penalty if q else base
        c_q = max_ppt_all(m, cfg).value
        value_target = c_q - float(np.real(m.expectation(rho_t)))
        value_white = c_q - float(np.real(m.trace())) / dim
        tolerance = _critical_noise(value_target, value_white) if value_target < 0 else 0.0
        rows.append((q, c_q, tolerance))

    arr = np.array(rows, dtype=float)
    opt = int(np.argmax(arr[:, 2]))
    return QScanResult(
        rows=arr,
        opt_index=opt,
        q_opt=float(arr[opt, 0]),
        c_opt=float(arr[opt, 1]),
        tolerance_opt=float(arr[opt, 2]),
    )
