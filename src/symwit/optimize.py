"""Witness and state optimization by convex programming.

One log-barrier interior-point engine, :func:`_barrier_maximize`, solves
both convex programs, in real Schur–Weyl (total-spin) blocks whenever their
data is permutation invariant; other data is one dense block.
``optimize_witness`` fits witness coefficients over a fixed operator basis:
``W - alpha * W_P >= 0`` holds exactly when each spin-``j`` block of it
does, and at N=8 the largest block is 9-square instead of 256-square.
``max_ppt`` maximizes a Hermitian objective over density matrices whose
partial transpose across a given bipartition stays positive; the optimal
state for a permutation-invariant objective splits into one block per pair
of part spins ``(j_A, j_B)`` (see :func:`max_ppt`), so at N=6 the largest
matrix is 16-square instead of 64-square.  ``max_bisep_seesaw`` and
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
from scipy.optimize import minimize

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


_JSON_TYPES = {"float": float, "int": int, "bool": bool}  # casts by field annotation


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs shared by the solvers.

    ``barrier_tol`` is the final barrier parameter mu of the interior-point
    engine that fits witnesses and maximizes over PPT states (the duality
    gap is ``mu`` times the summed sizes of the barrier's matrix
    inequalities); the seesaw fields control the random-restart
    product-state search.  All randomness flows from ``seed`` through
    explicit generators, so runs are reproducible.
    """

    barrier_tol: float = 1e-9
    seesaw_restarts: int = 50
    seesaw_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self) -> None:
        # nan meets no stopping test, and barrier_tol = 0 lets mu underflow to 0
        tols = dict(barrier_tol=self.barrier_tol, seesaw_tol=self.seesaw_tol)
        if not all(math.isfinite(t) and t >= 0 for t in tols.values()) or self.barrier_tol == 0:
            raise ValueError(f"tolerances must be finite and >= 0, barrier_tol > 0; got {tols}")
        if self.seesaw_restarts < 0 or self.seed < 0:
            raise ValueError("seesaw_restarts and seed must be >= 0")

    @classmethod
    def from_mapping(cls, entries: dict) -> "SolverConfig":
        known = {f.name: _JSON_TYPES[f.type] for f in fields(cls)}
        for key in entries:
            if key not in known:
                raise ValueError(f"unknown solver option {key!r}")
        return cls(**{key: known[key](raw) for key, raw in entries.items()})


@dataclass(frozen=True)
class SolverReport:
    """Convergence certificate attached to every solver result.

    ``optimum`` is the objective value at the returned point;
    ``primal_residual`` the violation of the equality constraints;
    ``dual_residual`` the barrier's duality gap ``mu * sum(weight * dim)``
    over its matrix inequalities (``2 * dim * mu`` for a PPT problem);
    ``min_eig_slack`` the smallest eigenvalue over the semidefinite blocks at
    the returned point (for a witness fit, the spec's certificate slack).
    """

    optimum: float
    primal_residual: float
    dual_residual: float
    min_eig_slack: float
    iterations: int
    converged: bool

    def to_json(self) -> dict:
        return {f.name: _JSON_TYPES[f.type](getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict) -> "SolverReport":
        return cls(**{f.name: _JSON_TYPES[f.type](data[f.name]) for f in fields(cls)})


def _herm(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2.0


# ---------------------------------------------------------------------------
# interior-point engine
# ---------------------------------------------------------------------------


class _Lmi(NamedTuple):
    """``sum_i x[cols][i] F_i > 0``, the flattened ``dim``-square ``F_i`` as rows of ``flat``."""

    weight: float
    cols: slice
    flat: np.ndarray
    dim: int

    def matrix(self, x: np.ndarray) -> np.ndarray:
        return (x[self.cols] @ self.flat).reshape(self.dim, self.dim)


def _logdet_pd(mat: np.ndarray) -> float | None:
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def _barrier_maximize(
    m_vec: np.ndarray,
    a_vec: np.ndarray,
    lmis: list[_Lmi],
    x: np.ndarray,
    cfg: SolverConfig,
    stop=None,
) -> tuple[np.ndarray, SolverReport]:
    """Log-barrier interior point: maximize ``m . x`` over ``a . x = 1`` and the LMIs.

    Starts from the strictly feasible ``x`` and follows mu = 1, 0.1, ...
    down to ``cfg.barrier_tol`` with damped Newton steps on
    ``-m . x / mu - sum weight * log det``; on the central path the duality
    gap is ``mu * sum(weight * dim)``.  Every LMI is homogeneous in ``x``,
    so the final rescaling to ``a . x = 1`` keeps the point feasible.
    ``stop(x)``, when given, is asked after each barrier level and ends the
    path early when true.  Returns ``x`` and the report.
    """
    nb = len(x)

    def barrier(vec: np.ndarray) -> float | None:
        total = 0.0
        for lmi in lmis:
            ld = _logdet_pd(lmi.matrix(vec))
            if ld is None:
                return None
            total -= lmi.weight * ld
        return total

    total_newton = 0
    converged = True
    mu = 1.0
    while True:
        t = 1.0 / mu
        b_x = barrier(x)
        dec = math.inf
        for _ in range(60):
            # Hessian bordered by the equality constraint
            kkt = np.zeros((nb + 1, nb + 1))
            kkt[:nb, nb] = kkt[nb, :nb] = a_vec
            grad = -t * m_vec
            for lmi in lmis:
                flat, cols, d = lmi.flat, lmi.cols, lmi.dim
                prec = np.linalg.inv(lmi.matrix(x))
                grad[cols] -= lmi.weight * np.real(flat.conj() @ prec.ravel())
                curv = (prec @ flat.reshape(-1, d, d) @ prec).reshape(len(flat), -1)
                kkt[cols, cols] += lmi.weight * np.real(curv @ flat.conj().T)
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

            # Armijo test on -t m.x + barrier, with the linear part taken
            # from dx rather than as a difference of two large totals
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
        if mu <= cfg.barrier_tol * (1.0 + 1e-12) or (stop is not None and stop(x)):
            break
        mu = max(mu / 10.0, cfg.barrier_tol)

    x = x / float(a_vec @ x)  # remove the accumulated drift off the plane
    report = SolverReport(
        optimum=float(m_vec @ x),
        primal_residual=float(abs(a_vec @ x - 1.0)),
        dual_residual=float(sum(lmi.weight * lmi.dim for lmi in lmis) * mu),
        min_eig_slack=min(float(np.linalg.eigvalsh(lmi.matrix(x))[0]) for lmi in lmis),
        iterations=total_newton,
        converged=converged,
    )
    return x, report


# ---------------------------------------------------------------------------
# witness optimization
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


# Bound on Tr(W - alpha * W_P) per dimension.  The optimal face can be
# unbounded (it is for the xy basis under non-white noise), and the barrier
# then runs off along it.  One homogeneous row, (bound * a - tr) . z >= 0;
# rows bounding single coefficients, bound * a +- e_i, lose e_i to cancellation.
_MAX_TRACE_PER_DIM = 1e3


def _prefix_coordinates(flats: list[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """An orthogonal ``q`` such that LMI ``i`` reads only ``u[:ends[i]]`` of ``u = q^T z``.

    Column group ``i`` spans the directions that move ``flats[i]`` and none
    of ``flats[:i]``.  So a direction that an early, nearly singular LMI does
    not see gets no Hessian entries from it, whose ``1 / mu^2`` curvature
    would bury the direction's own in rounding noise.
    """
    rest = np.eye(len(flats[0]))
    groups, ends = [], []
    for flat in flats:
        if rest.shape[1]:
            coords = rest.T @ flat
            coords = np.concatenate([coords.real, coords.imag], axis=1)
            # all k left singular vectors, without the (d^2 x d^2) right factor
            vecs, sv, _ = np.linalg.svd(coords, full_matrices=len(coords) > coords.shape[1])
            rank = int(np.sum(sv > sv[0] * max(coords.shape) * np.finfo(float).eps))
            groups.append(rest @ vecs[:, :rank])
            rest = rest @ vecs[:, rank:]
        ends.append(sum(g.shape[1] for g in groups))
    return np.hstack(groups + [rest]), ends


def optimize_witness(
    problem: WitnessOptimizationProblem, config: SolverConfig | None = None
) -> tuple[WitnessSpec, SolverReport]:
    """Fit witness coefficients on the interior-point engine.

    Over ``z = (c, alpha)``, maximize ``-Tr(W rho_noise)`` subject to
    ``<target|W|target> = -1``, ``W - alpha * W_P >= 0``, ``alpha >= 0`` and
    the trace bound.  When the basis and ``W_P`` are permutation invariant
    the slack is ``(+)_j S_j (x) 1_mult_j`` in the Schur–Weyl basis: one LMI
    ``S_j = V_j^T (W - alpha W_P) V_j`` per spin ``j``, weighted ``mult_j``,
    has the dense barrier.  A phase I maximizes a margin ``s`` subtracted
    from every LMI until ``s > 0``.  Raises :class:`OptimizationError` if no
    witness of the requested form exists.
    """
    cfg = config or SolverConfig()
    mats = problem.basis_stack
    nb = mats.shape[0]
    dim = problem.target.dim
    lambda_sq = schmidt_max_sq(problem.target)
    wp = _projector_witness_matrix(problem.target, lambda_sq)
    psi = problem.target.vec

    t_vec = np.real(np.einsum("i,kij,j->k", psi.conj(), mats, psi))
    n_vec = np.real(np.einsum("kij,ji->k", mats, problem.noise.rho_noise.mat))

    if all(is_permutation_invariant(DenseOperator(op)) for op in (wp, *mats)):
        isos = [(float(b.multiplicity), b.isometry[:, 0, :]) for b in spin_blocks(problem.num_qubits)]
        blocks = [(mult, v.T @ (mats @ v), v.T @ wp @ v) for mult, v in isos]
    else:
        blocks = [(1.0, mats, wp)]
    a_vec = np.append(-t_vec, 0.0)
    traces = np.append(np.real(np.trace(mats, axis1=1, axis2=2)), -np.trace(wp).real)
    weights = [w for w, _, _ in blocks] + [1.0, 1.0]
    flats = [np.concatenate([mats_j, -wp_j[None]]).reshape(nb + 1, -1) for _, mats_j, wp_j in blocks]
    flats.append(np.eye(nb + 1)[:, nb:])  # alpha >= 0
    flats.append((_MAX_TRACE_PER_DIM * dim * a_vec - traces)[:, None])
    # the engine works in u = q^T z, where each LMI reads a prefix of u
    q, ends = _prefix_coordinates(flats)
    lmis = []
    for weight, flat, end in zip(weights, flats, ends):
        flat = q[:, :end].T @ flat
        flat = flat if np.any(np.imag(flat)) else np.real(flat)
        lmis.append(_Lmi(weight, slice(0, end), flat, math.isqrt(flat.shape[1])))
    a_u = q.T @ a_vec

    infeasible = OptimizationError(
        "no witness of the requested form exists: the normalization "
        "and positivity constraints are jointly infeasible"
    )
    if not a_vec.any():
        raise infeasible
    u0 = a_u / (a_u @ a_u)
    s0 = min(float(np.linalg.eigvalsh(lmi.matrix(u0))[0]) for lmi in lmis) - 1.0
    phase_one = [  # the margin s comes first and is subtracted from every LMI
        lmi._replace(cols=slice(0, lmi.cols.stop + 1),
                     flat=np.vstack([-np.eye(lmi.dim).ravel(), lmi.flat]))
        for lmi in lmis
    ]
    start, first = _barrier_maximize(
        np.eye(nb + 2)[0], np.append(0.0, a_u), phase_one, np.append(s0, u0), cfg,
        stop=lambda x: x[0] > 0,
    )
    if start[0] <= 0:
        raise infeasible
    u, second = _barrier_maximize(q.T @ np.append(-n_vec, 0.0), a_u, lmis, start[1:], cfg)
    z = q @ u

    coeffs, alpha = z[:nb], float(z[nb])
    try:  # the dense W can lose the barrier's margin to rounding when coefficients are large
        spec = WitnessSpec(problem.name, problem.num_qubits, problem.basis,
                           tuple(float(c) for c in coeffs), problem.target, alpha, lambda_sq,
                           alpha_source="optimized")
    except ValueError as exc:
        raise OptimizationError(f"the fitted witness fails its certificate: {exc}") from None
    report = SolverReport(
        optimum=float(n_vec @ coeffs),
        primal_residual=float(abs(t_vec @ coeffs + 1.0)),
        dual_residual=second.dual_residual,
        min_eig_slack=spec.certificate_slack,
        iterations=first.iterations + second.iterations,
        converged=second.converged,
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
    """A diagonal block ``X_b`` of the state, repeated ``mult`` times, and the
    objective's block ``M_b``; the partial transpose acts on the ``dim_a`` factor."""

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


def _ppt_blocks(blocks: list[_Block], cfg: SolverConfig) -> tuple[list[np.ndarray], SolverReport]:
    """Maximize ``sum_b mult_b Tr(M_b X_b)`` over ``sum_b mult_b Tr(X_b) = 1``, X_b, X_b^T_A > 0.

    With the LMIs ``X_b`` and ``X_b^T_A`` weighted ``mult_b``, the barrier is
    the dense one of ``rho = V (+)_b (X_b (x) 1_mult_b) V^T`` and
    ``rho^T_A`` (``V`` real orthogonal, keeping the partial transpose inside
    each block), so the central path is the dense problem's.  ``X_b`` has
    coordinates in an orthonormal Hermitian basis, real symmetric when no
    ``M_b`` has an imaginary part; the path starts at ``X_b = 1 / dim``.
    """
    real = not any(np.any(np.imag(b.objective)) for b in blocks)
    objectives = [np.real(b.objective) if real else b.objective for b in blocks]
    bases = [_block_basis(b.dim_a, b.dim_b, real) for b in blocks]
    bounds = np.cumsum([0] + [len(flat) for flat, _ in bases])
    dims = [b.dim_a * b.dim_b for b in blocks]
    mults = [float(b.mult) for b in blocks]
    dim = sum(b.mult * d for b, d in zip(blocks, dims))
    m_vec = np.concatenate([
        mult * _herm_coords(m_b[None])[0] for mult, m_b in zip(mults, objectives)
    ])
    units = [_herm_coords(np.eye(d, dtype=float if real else complex)[None])[0] for d in dims]
    a_vec = np.concatenate([mult * unit for mult, unit in zip(mults, units)])
    lmis = [_Lmi(mult, slice(lo, hi), flat, d)  # X_b, then X_b^T_A, block by block
            for mult, lo, hi, d, pair in zip(mults, bounds[:-1], bounds[1:], dims, bases)
            for flat in pair]
    x, report = _barrier_maximize(m_vec, a_vec, lmis, np.concatenate(units) / dim, cfg)
    return [lmi.matrix(x) for lmi in lmis[::2]], report


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
    order = list(part) + [q for q in range(1, num_qubits + 1) if q not in part]
    return tuple(order.index(q) + 1 for q in range(1, num_qubits + 1)), tuple(order)


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
    x_blocks, report = _ppt_blocks(blocks, cfg)
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


def _ppt_constant(objective: DenseOperator, config: SolverConfig | None = None) -> float:
    """``max_ppt_all(objective).value`` as a witness constant; refused unless converged."""
    result = max_ppt_all(objective, config)
    if not result.report.converged:
        raise OptimizationError("PPT interior-point solver did not converge")
    return result.value


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
        c_q = _ppt_constant(m, cfg)
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
