"""Witness and state optimization by convex programming.

One primal-dual interior-point engine, :func:`_primal_dual_maximize`,
solves both convex programs, in real Schur–Weyl (total-spin) blocks whenever
their data is permutation invariant; other data is one dense block.  Each
solve has one matrix inequality, a stack of equal-size diagonal blocks
(``Y`` and ``Y^T_A`` for a PPT block) inverted and factored in one batched
call, with an inner product weighted per row, so blocks of different
weights form one block-diagonal inequality (the witness fit's).
``optimize_witness`` fits witness coefficients over a fixed operator basis:
``W - alpha * W_P >= 0`` holds exactly when each spin-``j`` block of it
does (at N=8 the largest is 9-square instead of 256-square), and the fit
is one such inequality.
``max_ppt`` maximizes a Hermitian objective over density matrices whose
partial transpose across a given bipartition stays positive, with a
certified duality gap; for a permutation-invariant objective the maximum
is that of the best block per pair of part spins ``(j_A, j_B)`` (see
:func:`max_ppt`), so at N=6 the largest solve is 16-square, not 64-square,
and a block that conserves ``J_z^A + J_z^B`` is solved in its charge sectors.
One walk, :func:`_scan_blocks`, lists the blocks of every bipartition in the
order that ``max_ppt``, ``max_ppt_all`` and ``max_bisep_all`` take them,
each skipping a block whose bound is below the best so far.
``max_bisep_seesaw`` and ``max_symmetric_product`` provide matching
product-state lower bounds by batched alternating eigenvector updates (per
spin block in ``max_bisep_all``), extrapolated where they converge
slowly, and a Bloch-sphere grid search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import (
    DenseOperator,
    StateVector,
    schmidt_max_sq,
)
from .symmetric import (
    _hamming_weights,
    compress,
    dicke,
    is_permutation_invariant,
    lift,
    permute_qubits,
    spin_blocks,
)
from .witnesses import (BasisTerm, NoiseModel, WitnessSpec, _basis_blocks, _block_expectation,
                        _critical_noise, _wi3_objective, _wi3_penalty)

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
    """Numerical settings shared by the solvers.

    ``barrier_tol`` is the final mu, the mean complementarity ``<Z, S>_w /
    sum(w)``, of the primal-dual engine that fits witnesses and maximizes
    over PPT states (see :class:`SolverReport` for the duality gap); the
    seesaw fields and ``seed`` are the only settings of the product-state
    searches (:func:`max_bisep_seesaw`, :func:`max_bisep_all`,
    :func:`max_symmetric_product`), which take no settings of their own.  All
    randomness flows from ``seed`` through explicit generators, so runs are
    reproducible.
    """

    barrier_tol: float = 1e-9
    seesaw_restarts: int = 50
    seesaw_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self) -> None:
        # nan meets no stopping test, and barrier_tol = 0 none that mu > 0 can meet
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
    ``dual_residual`` the duality gap: certified for a PPT result
    (``optimum + dual_residual`` is an upper bound), and for a witness fit
    ``<Z, S>_w`` at the engine's last iterate;
    ``min_eig_slack`` the smallest eigenvalue over the semidefinite blocks at
    the returned point (for a witness fit, the spec's certificate slack);
    ``iterations`` the predictor-corrector iterations taken, one each, over
    every solve behind the result.
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
    """The Hermitian part of a matrix or of each matrix of a stack."""
    return (mat + mat.conj().swapaxes(-1, -2)) / 2.0


# ---------------------------------------------------------------------------
# interior-point engine
# ---------------------------------------------------------------------------


class _Lmi(NamedTuple):
    """``sum_i x[i] F_i > 0`` for ``F_i`` made of ``k`` equal-size, ``d``-square diagonal blocks.

    Row ``i`` of ``flat``, shape ``(len(x), k * d^2)``, holds the blocks of
    ``F_i`` flattened one after the other; ``weight[b, r]``, shape ``(k, d)``,
    is the inner-product weight of row ``r`` of block ``b``, constant on each
    diagonal sub-block of the ``F_i``.
    """

    weight: np.ndarray
    flat: np.ndarray

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """The ``(k, d, d)`` stack of blocks at ``x``."""
        k, d = self.weight.shape
        return (x @ self.flat).reshape(k, d, d)


def _primal_dual_maximize(
    m_vec: np.ndarray,
    a_vec: np.ndarray,
    lmi: _Lmi,
    x: np.ndarray,
    cfg: SolverConfig,
    stop=None,
) -> tuple[np.ndarray, np.ndarray, SolverReport]:
    """Primal-dual path following: maximize ``m . x`` over ``a . x = 1`` and ``S = F(x) > 0``.

    The dual minimizes ``y`` over ``Z >= 0``, blocks as ``S``, with ``m - y
    a + F*(Z) = 0``, ``F*(Z)_i = <F_i, Z>_w = Tr(F_i D_w Z)`` (``D_w`` the
    row weights), so that ``y - m . x = <Z, S>_w``.  From the strictly
    feasible ``x``, ``Z = S^-1`` and ``y`` fitted by least squares, each
    iteration is one predictor-corrector step (Mehrotra 1992) along the HKM
    direction (Helmberg, Rendl, Vanderbei and Wolkowicz 1996; Kojima,
    Shindoh and Hara 1997; Monteiro 1997): two solves of
    one bordered Newton system, Hessian ``Tr(F_i D_w Z F_j S^-1)`` scaled to
    unit diagonal, toward ``Z S = 0``, then toward ``Z S = t 1 - dZ dS`` of
    the first, ``t = max(sigma mu, barrier_tol / 10)``, ``sigma = (mu_aff /
    mu)^3``, ``mu = <Z, S>_w / sum(w)``.  ``S`` and ``Z`` each step 0.98 of
    the way to their boundary (from the eigenvalues of ``L^-1 dS L^-H``, at
    most 1), halved while the new point does not factor.  The path ends
    converged once ``mu <= barrier_tol`` and ``|m - y a + F*(Z)| <=
    barrier_tol (1 + |m|)``; unconverged after 100 steps, when no step
    factors, or when ``stop(x, Z)``, asked at every iterate (it must not
    modify them), is true.  Returns ``x`` rescaled to ``a . x = 1`` (the LMI
    is homogeneous), ``Z`` and the report, whose ``dual_residual`` is
    ``<Z, S>_w``.
    """
    nb = len(x)
    k, d = lmi.weight.shape
    w = lmi.weight[..., None]  # D_w, constant on the diagonal sub-blocks that it scales
    total, size_m = float(lmi.weight.sum()), 1.0 + float(np.linalg.norm(m_vec))
    flat_conj = lmi.flat.conj()
    blocks = lmi.flat.reshape(nb, k, d, d)

    def adjoint(mat: np.ndarray) -> np.ndarray:  # F*(mat), of mat's Hermitian part
        return np.real(flat_conj @ (w * mat).ravel())

    def mean_gap(z_mat: np.ndarray, s_mat: np.ndarray) -> float:  # <Z, S>_w / sum(w)
        return float(np.real(np.sum(w * z_mat * s_mat.conj()))) / total

    def factor(mat: np.ndarray) -> np.ndarray | None:
        try:
            return np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            return None

    s = lmi.matrix(x)
    z = _herm(np.linalg.inv(s))
    chol_s, chol_z = np.linalg.cholesky(s), np.linalg.cholesky(z)
    y = float(a_vec @ (m_vec + adjoint(z))) / float(a_vec @ a_vec)
    iterations, converged = 0, False
    while True:
        inv_s, inv_z = np.linalg.inv(chol_s), np.linalg.inv(chol_z)
        s_inv = inv_s.conj().swapaxes(-1, -2) @ inv_s
        mu = mean_gap(z, s)
        if stop is not None and stop(x, z):
            break
        residual = np.linalg.norm(m_vec - y * a_vec + adjoint(z))
        if mu <= cfg.barrier_tol and residual <= cfg.barrier_tol * size_m:
            converged = True
            break
        if iterations == 100:
            break
        kkt = np.zeros((nb + 1, nb + 1))
        kkt[:nb, nb] = kkt[nb, :nb] = a_vec
        kkt[:nb, :nb] = np.real(((w * z) @ blocks @ s_inv).reshape(nb, -1) @ flat_conj.T)
        scale = np.append(1.0 / np.sqrt(np.diag(kkt)[:nb]), 1.0)
        kkt = kkt * np.outer(scale, scale)
        kkt[:nb, :nb] = (kkt[:nb, :nb] + kkt[:nb, :nb].T) / 2.0

        def direction(target: np.ndarray):
            """``dx``, ``dy``, ``dS``, ``dZ`` toward ``Z S = target`` and their step lengths."""
            tgt = _herm(target @ s_inv)
            rhs = np.append(m_vec - y * a_vec + adjoint(tgt), 1.0 - a_vec @ x) * scale
            sol = np.linalg.solve(kkt, rhs) * scale
            ds = lmi.matrix(sol[:nb])
            dz = tgt - z - _herm(z @ ds @ s_inv)
            scaled = [inv @ step @ inv.conj().swapaxes(-1, -2)
                      for inv, step in ((inv_s, ds), (inv_z, dz))]
            low = np.linalg.eigvalsh(np.concatenate(scaled))[:, 0].reshape(2, k).min(axis=1)
            return sol[:nb], sol[nb], ds, dz, np.minimum(1.0, 0.98 / np.maximum(-low, 0.98))

        _, _, ds, dz, (step_p, step_d) = direction(np.zeros_like(z))
        mu_aff = mean_gap(z + step_d * dz, s + step_p * ds)
        sigma = min(1.0, mu_aff / mu) ** 3
        dx, dy, ds, dz, (step_p, step_d) = direction(
            max(sigma * mu, cfg.barrier_tol / 10) * np.eye(d) - dz @ ds)
        iterations += 1
        for _ in range(40):  # rounding can leave a 0.98 step just outside the cone
            x_new, z_new = x + step_p * dx, _herm(z + step_d * dz)
            s_new = lmi.matrix(x_new)
            chol_s_new, chol_z_new = factor(s_new), factor(z_new)
            if chol_s_new is not None and chol_z_new is not None:
                break
            step_p *= 0.5 if chol_s_new is None else 1.0
            step_d *= 0.5 if chol_z_new is None else 1.0
        else:
            break
        x, s, chol_s, z, chol_z, y = x_new, s_new, chol_s_new, z_new, chol_z_new, y + step_d * dy

    x = x / float(a_vec @ x)  # remove the accumulated drift off the plane
    report = SolverReport(
        optimum=float(m_vec @ x),
        primal_residual=float(abs(a_vec @ x - 1.0)),
        dual_residual=mu * total,
        min_eig_slack=float(np.min(np.linalg.eigvalsh(lmi.matrix(x))[:, 0])),
        iterations=iterations,
        converged=converged,
    )
    return x, z, report


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
    step = 1 if include_odd else 2
    powers = range(step, (num_qubits if max_power is None else max_power) + 1, step)
    return (BasisTerm("identity"),) + tuple(
        BasisTerm("collective", axis=axis, power=power) for power in powers for axis in axes)


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
        nb = len(self.basis)
        gram = sum(iso.shape[1] * np.real(flat.conj() @ flat.T)  # sum_j mult_j Tr(A_j^dag B_j)
                   for iso, stack in self.blocks for flat in [stack[:nb].reshape(nb, -1)])
        norms = np.sqrt(np.diag(gram))
        if np.any(norms == 0):
            raise ValueError("witness basis contains a zero operator")
        if float(np.linalg.eigvalsh(gram / np.outer(norms, norms))[0]) < 1e-10:
            raise ValueError("witness basis operators are linearly dependent")

    @property
    def num_qubits(self) -> int:
        return self.target.num_qubits

    @cached_property
    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(isometry, stack)`` per block: the basis terms' blocks, then the target projector's."""
        return _basis_blocks(self.basis + (BasisTerm("projector"),), self.target)


# Bound on Tr(W - alpha * W_P) per dimension.  The optimal face can be
# unbounded (it is for the xy basis under non-white noise), and the
# interior-point iterates then run off along it.  One homogeneous row,
# (bound * a - tr) . z >= 0; rows bounding single coefficients,
# bound * a +- e_i, lose e_i to cancellation.
_MAX_TRACE_PER_DIM = 1e3


def _prefix_coordinates(flats: list[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """An orthogonal ``q`` such that block ``i`` reads only ``u[:ends[i]]`` of ``u = q^T z``.

    Column group ``i`` spans the directions that move ``flats[i]`` (one
    diagonal block of an LMI) and none of ``flats[:i]``.  So a direction
    that an early, nearly singular block does not see is exactly zero in
    it and gets no Hessian entries from it, whose curvature grows as
    ``1 / mu`` and would bury the direction's own in rounding noise.
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
    the trace bound, all read from the blocks of ``problem.blocks``.  For a
    symmetric target the slack is ``(+)_j S_j (x) 1_mult_j`` in the
    Schur–Weyl basis, ``S_j = W_j - alpha W_P,j``; any other target has one
    dense block.  The fit is a 1-block LMI ``(+)_j S_j (+) (alpha) (+) (trace row)``,
    row weights ``mult_j`` on ``S_j`` (the dense inner product) and 1 on the last
    two, in prefix coordinates of the unit-norm columns of ``z``.  A phase I
    maximizes a margin ``s`` subtracted from it until ``s > 0``.  Raises
    :class:`OptimizationError` if no witness of the requested form exists.
    """
    cfg = config or SolverConfig()
    nb = len(problem.basis)
    dim = problem.target.dim
    lambda_sq = schmidt_max_sq(problem.target)
    mults = [float(iso.shape[1]) for iso, _ in problem.blocks]

    def basis_traces(rho_blocks) -> np.ndarray:  # Tr(B_k rho) = sum_j mult_j Tr(B_kj rho_j)
        return sum(mult * np.real(np.einsum("kij,ji->k", stack[:nb], r))
                   for mult, (_, stack), r in zip(mults, problem.blocks, rho_blocks))

    t_vec = basis_traces([stack[nb] for _, stack in problem.blocks])
    n_vec = np.real(_block_expectation([(iso, stack[:nb]) for iso, stack in problem.blocks],
                                       problem.noise))
    a_vec = np.append(-t_vec, 0.0)
    eyes = [np.eye(len(stack[0])) for _, stack in problem.blocks]
    traces = np.append(basis_traces(eyes), 1.0 - lambda_sq * dim)
    flats = [np.concatenate([stack[:nb], stack[nb:] - lambda_sq * eye]).reshape(nb + 1, -1)
             for (_, stack), eye in zip(problem.blocks, eyes)]  # the blocks of W and of -W_P
    flats.append(np.eye(nb + 1)[:, nb:])  # alpha >= 0
    flats.append((_MAX_TRACE_PER_DIM * dim * a_vec - traces)[:, None])
    # the engine works in u with z = q u, where diagonal block i reads a prefix u[:ends[i]];
    # q is orthogonal for unit-norm columns, so rounding in u stays relative to each column
    norms = np.sqrt(sum(m * np.sum(np.abs(flat) ** 2, axis=1) for m, flat in zip(mults, flats)))
    q, ends = _prefix_coordinates([flat / norms[:, None] for flat in flats])
    q = q / norms[:, None]
    offsets = np.cumsum([0] + [math.isqrt(flat.shape[1]) for flat in flats])
    slack = np.zeros((len(q), offsets[-1], offsets[-1]), dtype=complex)
    for flat, end, lo, hi in zip(flats, ends, offsets[:-1], offsets[1:]):
        slack[:end, lo:hi, lo:hi] = (q[:, :end].T @ flat).reshape(end, hi - lo, hi - lo)
    slack = slack.reshape(len(q), -1)
    lmi = _Lmi(np.repeat(mults + [1.0, 1.0], np.diff(offsets))[None],
               slack if np.any(np.imag(slack)) else np.real(slack))
    a_u = q.T @ a_vec

    infeasible = OptimizationError(
        "no witness of the requested form exists: the normalization "
        "and positivity constraints are jointly infeasible"
    )
    if not a_vec.any():
        raise infeasible
    u0 = a_u / (a_u @ a_u)
    s0 = float(np.linalg.eigvalsh(lmi.matrix(u0))[0, 0]) - 1.0
    # the margin s comes first and is subtracted from the LMI
    phase_one = lmi._replace(flat=np.vstack([-np.eye(offsets[-1]).ravel(), lmi.flat]))
    start, _, first = _primal_dual_maximize(
        np.eye(nb + 2)[0], np.append(0.0, a_u), phase_one, np.append(s0, u0), cfg,
        stop=lambda x, z: x[0] > 0,
    )
    if start[0] <= 0:
        raise infeasible
    u, _, second = _primal_dual_maximize(q.T @ np.append(-n_vec, 0.0), a_u, lmi, start[1:], cfg)
    z = q @ u

    coeffs, alpha = z[:nb], float(z[nb])
    try:  # W can lose the engine's margin to rounding in large coefficients
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


def _proper_part(bipartition, num_qubits: int) -> tuple[int, ...]:
    """The sorted distinct qubits of one part; refused unless a proper subset of 1..N."""
    n = num_qubits
    part = tuple(sorted(set(int(q) for q in bipartition)))
    if not part or len(part) >= n or any(q < 1 or q > n for q in part):
        raise ValueError(f"bipartition {part} is not a proper subset of 1..{n}")
    return part


def _check_hermitian(objective: DenseOperator, kind: str) -> None:
    if not objective.is_hermitian(1e-10):
        raise ValueError(f"{kind} objective must be Hermitian")


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
        _check_hermitian(self.objective, "PPT")
        n = self.objective.num_qubits
        if n > PPT_MAX_QUBITS:
            raise ValueError(f"PPT maximization is limited to {PPT_MAX_QUBITS} qubits")
        object.__setattr__(self, "bipartition", _proper_part(self.bipartition, n))


class PptResult(NamedTuple):
    value: float
    bipartition: tuple[int, ...]
    rho: DenseOperator
    report: SolverReport

    @property
    def upper_bound(self) -> float:
        """``value + report.dual_residual``: a certified upper bound on the PPT maximum
        (``value`` is attained by ``rho``, so it is a lower bound)."""
        return self.value + self.report.dual_residual


class BisepResult(NamedTuple):
    value: float
    bipartition: tuple[int, ...]


class _Block(NamedTuple):
    """A diagonal block ``X_b`` of the state, repeated ``mult`` times, and the
    objective's block ``M_b``; the partial transpose acts on the ``dim_a`` factor.
    ``charge`` is the diagonal of ``J_z^A (x) 1 + 1 (x) J_z^B`` in the block's
    basis (``None``: not known, so no charge sectors; see :func:`_ppt_block`);
    ``top`` bounds ``Tr(M_b Y)`` over PPT states ``Y`` (see :func:`_top`;
    ``inf``: not known, so the block is never skipped)."""

    dim_a: int
    dim_b: int
    mult: int
    objective: np.ndarray
    charge: np.ndarray | None = None
    top: float = math.inf


@lru_cache(maxsize=64)
def _block_basis(dim_a: int, dim_b: int, real: bool) -> np.ndarray:
    """An orthonormal basis of one block, each element flattened and followed by its
    flattened partial transpose: the ``flat`` of the 2-block :class:`_Lmi` ``(Y, Y^T_A)``.

    The basis spans the Hermitian matrices, or the real symmetric ones when
    ``real``; coordinates in it are :func:`_herm_coords`.
    """
    elems = _hermitian_basis(dim_a * dim_b, real)
    flat = np.stack([elems, _batched_pt_front(elems, dim_a)], axis=1).reshape(len(elems), -1)
    flat.setflags(write=False)
    return flat


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


def _dual_bound(blocks: list[_Block], p_mats, q_mats) -> float:
    """An upper bound on the PPT problem of ``blocks`` from any Hermitian ``P_b``, ``Q_b``.

    ``c = max_b [lambda_max(M_b + P_b + Q_b^T_A) - lambda_min(P_b) - lambda_min(Q_b)]``.
    For feasible ``X_b``, ``Tr(P_b X_b) >= lambda_min(P_b) Tr X_b`` and
    ``Tr(Q_b X_b^T_A) >= lambda_min(Q_b) Tr X_b``, so with
    ``sum_b mult_b Tr X_b = 1`` every ``sum_b mult_b Tr(M_b X_b) <= c``.
    No sign of ``P_b`` or ``Q_b`` is assumed: a poor choice loosens ``c``
    but never invalidates it.  The dual iterate ``(Z_1, Z_2)`` of a block
    solve is a good one: where ``M_b + Z_1 + Z_2^T_A = y 1`` holds, ``c <=
    y``, and ``y`` exceeds the value by ``<Z, S>``.
    """
    bound = -math.inf
    for blk, p_b, q_b in zip(blocks, p_mats, q_mats):
        q_pt = _batched_pt_front(q_b[None], blk.dim_a)[0]
        top = np.linalg.eigvalsh(blk.objective + p_b + q_pt)[-1]
        low = np.linalg.eigvalsh(p_b)[0] + np.linalg.eigvalsh(q_b)[0]
        bound = max(bound, float(top - low))
    return bound


def _charge_sectors(blk: _Block, real: bool) -> np.ndarray:
    """Which :func:`_hermitian_basis` elements of a block join equal charges.

    All of them unless ``blk.charge`` is known and ``M_b`` conserves it, to
    rounding: no entry of ``M_b`` joining unequal charges above
    ``1e-12 max |M_b|``.
    """
    d = blk.dim_a * blk.dim_b
    rows, cols = np.triu_indices(d, 1)
    same = np.ones(len(rows), dtype=bool)
    if blk.charge is not None:
        joins = blk.charge[rows] == blk.charge[cols]
        scale = np.max(np.abs(blk.objective), initial=0.0)
        if np.max(np.abs(blk.objective[rows, cols][~joins]), initial=0.0) <= 1e-12 * scale:
            same = joins
    return np.concatenate([np.ones(d, dtype=bool), same] + ([] if real else [same]))


def _ppt_block(blk: _Block, cfg: SolverConfig, floor: float):
    """``(Y, report)`` maximizing ``Tr(M_b Y)``, ``Tr Y = 1``, ``Y, Y^T_A > 0``, from ``Y = 1 / d``.

    ``Y`` and ``Y^T_A`` are the two blocks of one :class:`_Lmi`, so each
    iteration inverts and factors both in one call.  ``Y`` spans only the
    basis elements of :func:`_charge_sectors`: when ``M_b`` commutes with the
    charge ``C = J_z^A + J_z^B``, twirling ``Y`` by the local unitaries
    ``exp(i t C)`` keeps both constraints and the value, so some optimum
    commutes with ``C``.  ``dual_residual`` is the least of ``blk.top`` and the
    :func:`_dual_bound` (with the full ``M_b``) at the engine's dual blocks
    ``Z_1``, ``Z_2`` of every iterate, minus the value; the solve stops once
    that bound is below ``floor - 1e-9 (1 + |floor|)``.
    """
    real = not np.any(np.imag(blk.objective))
    m_b = np.real(blk.objective) if real else blk.objective
    d = blk.dim_a * blk.dim_b
    keep = _charge_sectors(blk, real)
    unit = _herm_coords(np.eye(d, dtype=m_b.dtype)[None])[0][keep]
    lmi = _Lmi(np.ones((2, d)), _block_basis(blk.dim_a, blk.dim_b, real)[keep])
    cutoff = floor - 1e-9 * (1.0 + abs(floor))
    least = blk.top

    def certify(x: np.ndarray, z: np.ndarray) -> bool:
        nonlocal least
        least = min(least, _dual_bound([blk], [z[0]], [z[1]]))
        return least < cutoff

    x, _, report = _primal_dual_maximize(_herm_coords(m_b[None])[0][keep], unit, lmi, unit / d,
                                         cfg, certify)
    return lmi.matrix(x)[0], replace(report, dual_residual=least - report.optimum)


def _ppt_blocks(blocks: list[_Block], cfg: SolverConfig) -> tuple[int, np.ndarray, SolverReport]:
    """Maximize ``sum_b mult_b Tr(M_b X_b)`` over ``sum_b mult_b Tr(X_b) = 1``, X_b, X_b^T_A >= 0.

    With ``t_b = mult_b Tr X_b`` and ``Y_b = X_b / Tr X_b`` the objective is
    ``sum_b t_b Tr(M_b Y_b)``, so the maximum is the best block's own
    (:func:`_ppt_block`, in its charge sectors), returned as its index ``b``
    and ``Y_b`` (``X_b = Y_b / mult_b``, other blocks 0).  Blocks are solved
    in the given order, each with floor ``bound``, the best value so far,
    except that a block whose ``top < bound - 1e-12 (1 + |bound|)`` is
    skipped.  The first of the greatest value wins, with the greatest bound of
    any block (``top`` if skipped) and the iterations of all.
    """
    best: tuple[int, np.ndarray, SolverReport] | None = None
    upper, steps = -math.inf, 0
    for i, blk in enumerate(blocks):
        bound = -math.inf if best is None else best[2].optimum
        if blk.top < bound - 1e-12 * (1.0 + abs(bound)):
            upper = max(upper, blk.top)
            continue
        y, report = _ppt_block(blk, cfg, bound)
        upper = max(upper, report.optimum + report.dual_residual)
        steps += report.iterations
        if best is None or report.optimum > best[2].optimum:
            best = (i, y, report)
    assert best is not None
    i, y, report = best
    return i, y, replace(report, dual_residual=upper - report.optimum, iterations=steps)


def _top(m_b: np.ndarray, dim_a: int, dim_b: int) -> float:
    """``min(lambda_max(M_b), lambda_max(M_b^T_A))``, a bound on ``Tr(M_b Y)`` over PPT
    (so also product) states ``Y``: ``Tr(M Y) = Tr(M^T_A Y^T_A)`` with ``Y^T_A >= 0`` of
    unit trace.  With a 1-dimensional factor ``M_b^T_A`` is ``M_b`` or its transpose,
    and the bound is ``lambda_max(M_b)``."""
    top = float(np.linalg.eigvalsh(m_b)[-1])
    if min(dim_a, dim_b) > 1:
        top = min(top, float(np.linalg.eigvalsh(_batched_pt_front(m_b[None], dim_a)[0])[-1]))
    return top


@lru_cache(maxsize=16)
def _spin_embeddings(num_qubits: int, part_size: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """Real embeddings of the (j_A, j_B) spin blocks of a two-part register.

    Each entry is ``(dim_a, dim_b, V)`` with ``V`` of shape
    ``(2^N, mult, dim_a * dim_b)``: ``V[:, c, :]`` is the isometry of copy
    ``c``, ordered as the tensor product of a part-A spin state (the first
    ``part_size`` qubits) and a part-B spin state.
    """
    out = []
    for blk_a in spin_blocks(part_size):
        for blk_b in spin_blocks(num_qubits - part_size):
            iso = np.einsum("xci,yej->xyceij", blk_a.isometry, blk_b.isometry)
            iso = iso.reshape(2**num_qubits, blk_a.multiplicity * blk_b.multiplicity, -1)
            iso.setflags(write=False)
            out.append((blk_a.dim, blk_b.dim, iso))
    return tuple(out)


def _front_permutation(part: tuple[int, ...], num_qubits: int):
    """Permutation sending the part qubits to slots 1..k, and its inverse."""
    order = list(part) + [q for q in range(1, num_qubits + 1) if q not in part]
    return tuple(order.index(q) + 1 for q in range(1, num_qubits + 1)), tuple(order)


def _scan_blocks(objective: DenseOperator, parts: list[tuple[int, ...]], pi: bool):
    """``(part index, V, block)`` for every block of every part of ``parts``, in that
    order, each part's blocks in descending ``top``, ties in block order: the spin
    blocks of :func:`_spin_embeddings` if ``pi``, else one dense block, with the part
    moved to the leading qubits."""
    n = objective.num_qubits
    entries = []
    for index, part in enumerate(parts):
        k = len(part)
        if pi:  # J_z = m = j - i on spin state i of each factor
            embeddings = _spin_embeddings(n, k)
            mats = [_herm(compress(objective.mat, iso)) for _, _, iso in embeddings]
            spin_m = [((d_a - 1) / 2 - np.arange(d_a), (d_b - 1) / 2 - np.arange(d_b))
                      for d_a, d_b, _ in embeddings]
        else:  # J_z = size / 2 - Hamming weight on each part
            embeddings = ((2**k, 2 ** (n - k), np.eye(2**n)[:, None, :]),)
            mats = [_herm(permute_qubits(objective, _front_permutation(part, n)[0]).mat)]
            spin_m = [(k / 2 - _hamming_weights(k), (n - k) / 2 - _hamming_weights(n - k))]
        blocks = [(index, iso, _Block(d_a, d_b, iso.shape[1], m_b, np.add.outer(*z).ravel(),
                                      _top(m_b, d_a, d_b)))
                  for (d_a, d_b, iso), m_b, z in zip(embeddings, mats, spin_m)]
        entries += sorted(blocks, key=lambda entry: -entry[2].top)
    return entries


def _bipartitions(num_qubits: int, permutation_invariant: bool) -> list[tuple[int, ...]]:
    """Each unordered bipartition once; only part sizes matter in the PI case."""
    n = num_qubits
    if permutation_invariant:
        return [tuple(range(1, k + 1)) for k in range(1, n // 2 + 1)]
    return [combo for k in range(1, n // 2 + 1)
            for combo in itertools.combinations(range(1, n + 1), k) if 2 * k < n or combo[0] == 1]


def _max_ppt(problem: PptProblem, every_part: bool, config: SolverConfig | None) -> PptResult:
    """:func:`max_ppt` of ``problem``, or :func:`max_ppt_all` of its objective: one
    :func:`_ppt_blocks` over the :func:`_scan_blocks` of the parts, and one lift of the winner."""
    cfg = config or SolverConfig()
    m, n = problem.objective, problem.objective.num_qubits
    pi = is_permutation_invariant(m)
    if not pi and n > 5:
        raise OptimizationError("PPT maximization without permutation symmetry: 5 qubits at most")
    parts = _bipartitions(n, pi) if every_part else [problem.bipartition]
    entries = _scan_blocks(m, parts, pi)
    win, y, report = _ppt_blocks([blk for _, _, blk in entries], cfg)
    index, iso, blk = entries[win]
    inverse = _front_permutation(parts[index], n)[1]
    rho = permute_qubits(DenseOperator(_herm(lift([(iso, y / blk.mult)]))), inverse)
    return PptResult(report.optimum, parts[index], rho, report)


def max_ppt(problem: PptProblem, config: SolverConfig | None = None) -> PptResult:
    """Maximum of ``Tr(M rho)`` over PPT states for one bipartition.

    The part is first moved to the leading qubits.  A permutation-invariant
    objective is invariant under permutations within each part, and so,
    without loss of generality (twirling preserves both constraints), is the
    optimal state: in the real Schur–Weyl basis of the two parts both are
    direct sums of blocks labelled by the part spins ``(j_A, j_B)``, of size
    ``(2 j_A + 1)(2 j_B + 1)`` and multiplicity the product of the spin
    multiplicities, and the partial transpose maps each block to itself.
    Any part of a given size then gives the same value.  The maximum is the
    best block's: blocks are taken in descending ``min(lambda_max(M_b),
    lambda_max(M_b^T_A))``, a bound on the block's PPT value, ties in block
    order; one whose bound is below the best so far is skipped, a solve
    stops once its dual bound is, and the first of the greatest value wins
    (:func:`_ppt_blocks`).  Other objectives are one dense block, refused
    above 5 qubits.  A block whose ``M_b`` conserves ``J_z^A + J_z^B`` (``m =
    j - i`` on spin state ``i``, or each part's size / 2 minus its Hamming
    weight in the dense block) is solved over its charge sectors only
    (:func:`_ppt_block`).  ``rho`` is on the original qubit order; ``upper_bound
    = value + dual_residual`` is an upper bound, and ``iterations`` counts the
    steps of every block solve.
    """
    return _max_ppt(problem, False, config)


def max_ppt_all(objective: DenseOperator, config: SolverConfig | None = None) -> PptResult:
    """Maximum of ``Tr(M rho)`` over states PPT across at least one bipartition.

    States that mix over bipartitions cannot exceed the best single
    bipartition for a linear objective, so the scan over bipartitions is
    exact.  It is one block scan of :func:`max_ppt` over the blocks of every
    bipartition in turn (ascending part size, lexicographic within a size),
    so a block of a later bipartition is skipped, or its solve stopped, as
    soon as its bound is below the best so far, and ties go to the first
    bipartition.  ``dual_residual`` is the greatest ``value +
    dual_residual`` of any block, minus ``value``: an upper bound on all.
    """
    return _max_ppt(PptProblem(objective, (1,)), True, config)


def _ppt_constant(objective: DenseOperator, config: SolverConfig | None = None) -> float:
    """The certified ``upper_bound`` of :func:`max_ppt_all` as a witness constant
    (the primal value is a lower bound); refused unless converged."""
    result = max_ppt_all(objective, config)
    if not result.report.converged:
        raise OptimizationError("PPT interior-point solver did not converge")
    return result.upper_bound


# ---------------------------------------------------------------------------
# product-state searches (lower bounds)
# ---------------------------------------------------------------------------


def max_bisep_seesaw(objective: DenseOperator, bipartition,
                     config: SolverConfig | None = None) -> float:
    """Best product-state value ``max <a(x)b| M |a(x)b>`` across one bipartition.

    Alternates exact eigenvector updates of the two factors from random
    (Haar-uniform) starts, and every third sweep tries a jump along the
    linearly converging iterates, kept only if it raises the value (see
    :func:`_seesaw`).  Each restart's value is nondecreasing and attained
    by an explicit product state, so the final value is a certified lower
    bound on the biseparable maximum.  ``config`` sets the restarts, the
    stopping tolerance and the seed of the starts.
    """
    cfg = config or SolverConfig()
    _check_hermitian(objective, "product-state")
    n = objective.num_qubits
    part = _proper_part(bipartition, n)
    m = permute_qubits(objective, _front_permutation(part, n)[0])
    return _seesaw(m.mat, 2 ** len(part), 2 ** (n - len(part)), cfg.seesaw_restarts,
                   cfg.seesaw_tol, np.random.default_rng(cfg.seed))


# A restart tries one extrapolated sweep every _EXTRAPOLATE_EVERY plain ones, when
# its estimated rate r is in (0, _MAX_RATE): r / (1 - r) grows without bound as r -> 1.
_EXTRAPOLATE_EVERY = 3
_MAX_RATE = 0.999


def _seesaw(mat: np.ndarray, dim_a: int, dim_b: int, restarts: int, tol: float, rng) -> float:
    """Best ``<a(x)b| mat |a(x)b>`` over ``dim_a`` x ``dim_b`` product states found by
    alternating eigenvector updates from ``restarts`` random starts of ``b``, all batched.

    A sweep sets ``a`` to the top eigenvector of ``<b| mat |b>``, then ``b`` to
    that of ``<a| mat |a>``, whose top eigenvalue is the sweep's value, and
    aligns the phase of the new ``b`` to the old (values depend on ``|b><b|``
    only).  Near a bifurcation the ``b`` converge linearly, at a rate ``r``
    close to 1.  So every 3rd sweep a restart estimates ``r = Re<D_(k-1)|D_k>
    / |D_(k-1)|^2`` from its last two steps ``D`` and, when ``0 < r < 0.999``,
    sweeps once from ``normalize(b_k + r / (1 - r) D_k)``: it keeps that
    sweep's ``b`` and value only if the value is strictly higher, and then
    starts its step history anew.  Every value is thus the top eigenvalue at
    an explicit product state, nondecreasing per restart: a lower bound.  A
    restart stops once a plain sweep gains ``<= tol``, reading only its own
    history, so the result does not depend on the batching.
    """
    # reshuffle[(j, l), (i, k)] = M[(i, j), (k, l)], so each partial contraction is a matmul
    reshuffle = mat.reshape(dim_a, dim_b, dim_a, dim_b).transpose(1, 3, 0, 2)
    reshuffle = reshuffle.reshape(dim_b**2, dim_a**2)

    def sweep(vb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        outer_b = (vb.conj()[:, :, None] * vb[:, None, :]).reshape(-1, dim_b**2)
        m_a = (outer_b @ reshuffle).reshape(-1, dim_a, dim_a)
        vec_a = np.linalg.eigh(m_a)[1][:, :, -1]
        outer_a = (vec_a.conj()[:, :, None] * vec_a[:, None, :]).reshape(-1, dim_a**2)
        m_b = (outer_a @ reshuffle.T).reshape(-1, dim_b, dim_b)
        vals, vecs = np.linalg.eigh(m_b)
        new_b = vecs[:, :, -1]
        overlap = np.sum(vb.conj() * new_b, axis=1)
        return vals[:, -1], new_b * np.exp(-1j * np.angle(overlap))[:, None]

    starts = rng.standard_normal((restarts, 2, dim_b))
    vec_b = starts[:, 0] + 1j * starts[:, 1]
    vec_b /= np.linalg.norm(vec_b, axis=1, keepdims=True)
    values = np.full(restarts, -math.inf)
    steps = np.zeros_like(vec_b)  # last step b_k - b_(k-1) per restart; 0 before one, after a jump
    age = np.zeros(restarts, dtype=int)  # plain sweeps since the start or the last jump
    active = np.arange(restarts)  # each restart stops on its own once it gains <= tol
    for _ in range(2000):
        if not active.size:
            break
        new, new_b = sweep(vec_b[active])
        step, last = new_b - vec_b[active], steps[active]
        last_sq = np.sum(np.abs(last) ** 2, axis=1)
        rate = np.real(np.sum(last.conj() * step, axis=1)) / np.where(last_sq > 0, last_sq, 1.0)
        old = values[active]
        done = new - old <= tol
        values[active] = np.where(done, np.maximum(old, new), new)
        vec_b[active], steps[active] = new_b, step
        age[active] += 1
        jump = ~done & (age[active] % _EXTRAPOLATE_EVERY == 0) & (rate > 0) & (rate < _MAX_RATE)
        if jump.any():
            rows, rate = active[jump], rate[jump]
            guess = vec_b[rows] + (rate / (1.0 - rate))[:, None] * steps[rows]
            trial, trial_b = sweep(guess / np.linalg.norm(guess, axis=1, keepdims=True))
            better = trial > values[rows]
            rows = rows[better]
            values[rows], vec_b[rows], steps[rows], age[rows] = trial[better], trial_b[better], 0, 0
        active = active[~done]
    return float(np.max(values, initial=-math.inf))


def max_bisep_all(objective: DenseOperator, config: SolverConfig | None = None) -> BisepResult:
    """Best product-state value over all bipartitions, and its bipartition (no product vectors).

    Mixtures of biseparable states cannot exceed the best pure product state
    for a linear objective, so this lower-bounds the biseparable maximum and
    is tight when the seesaw finds the global optimum for each split.  The
    seesaw is the extrapolated one of :func:`_seesaw`: every value is still
    attained by a product state, so the result stays a monotone lower bound.  It
    walks the blocks of :func:`max_ppt_all`'s scan, :func:`_scan_blocks` (the
    value is bilinear in the parts' reduced block states; an objective that is
    not permutation invariant is one block per part) and searches a block only
    while its ``top``, :func:`_top`, which no product state exceeds, is above
    the best so far; a block with a 1-dimensional factor is its ``top``.  The
    restarts and tolerance are ``config``'s, and part ``i`` draws its starts
    from ``default_rng(seed + i)``.
    """
    cfg = config or SolverConfig()
    _check_hermitian(objective, "product-state")
    pi = is_permutation_invariant(objective)
    parts = _bipartitions(objective.num_qubits, pi)
    rngs = [np.random.default_rng(cfg.seed + index) for index in range(len(parts))]
    best_value, best_index = -math.inf, 0
    for index, _, blk in _scan_blocks(objective, parts, pi):
        if blk.top <= best_value:
            continue
        value = blk.top if min(blk.dim_a, blk.dim_b) == 1 else _seesaw(
            blk.objective, blk.dim_a, blk.dim_b, cfg.seesaw_restarts, cfg.seesaw_tol, rngs[index])
        if value > best_value:
            best_value, best_index = value, index
    return BisepResult(value=best_value, bipartition=parts[best_index])


def max_symmetric_product(objective: DenseOperator, config: SolverConfig | None = None) -> float:
    """Maximum of ``<a^(x)N| M |a^(x)N>`` over identical single-qubit states.

    For any ``M`` this is ``c^dagger M_top c``, ``M_top`` on the Dicke states and
    ``c_k = sqrt(C(N, k)) cos^(N-k)(theta/2) (e^(i phi) sin(theta/2))^k``.  The
    ``seesaw_restarts`` best points of a ``(4N+9) x (8N+16)`` grid of Bloch angles
    are refined by a 3x3 stencil, halving its step when no neighbour improves,
    down to ``seesaw_tol`` radians (at least 1e-14).
    """
    cfg = config or SolverConfig()
    _check_hermitian(objective, "product-state")
    tol = max(cfg.seesaw_tol, 1e-14)
    n = objective.num_qubits
    dicke_cols = spin_blocks(n)[0].isometry[:, 0, :]
    m_top = dicke_cols.T @ objective.mat @ dicke_cols
    k = np.arange(n + 1)
    binom = np.sqrt([math.comb(n, i) for i in k])

    def values(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        c = (binom * np.cos(theta[..., None] / 2) ** (n - k)
             * (np.exp(1j * phi[..., None]) * np.sin(theta[..., None] / 2)) ** k)
        return np.einsum("...i,ij,...j->...", c.conj(), m_top, c).real

    theta, phi = np.meshgrid(np.linspace(0, math.pi, 4 * n + 9),
                             np.linspace(0, 2 * math.pi, 8 * n + 16, endpoint=False),
                             indexing="ij")
    best = np.argsort(-values(theta, phi).ravel())[:max(cfg.seesaw_restarts, 1)]
    theta, phi, rows = theta.ravel()[best], phi.ravel()[best], np.arange(len(best))
    step = np.full(len(best), math.pi / (4 * n + 8))
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=2)))  # [4] is the centre
    while np.any(step >= tol):
        cand_t = theta[:, None] + step[:, None] * offsets[:, 0]
        cand_p = phi[:, None] + step[:, None] * offsets[:, 1]
        cand = values(cand_t, cand_p)
        pick = np.argmax(cand, axis=1)
        pick = np.where(cand[rows, pick] > cand[:, 4], pick, 4)
        theta, phi = cand_t[rows, pick], cand_p[rows, pick]
        step = np.where(pick == 4, step / 2, step)
    return float(values(theta, phi).max())


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

    For each q the constant ``c_q`` is the certified upper bound on the PPT
    maximum of the bracketed operator over all bipartitions (see
    :func:`max_ppt_all`), and the white-noise tolerance of the resulting
    witness is recorded.
    """
    if num_qubits > PPT_MAX_QUBITS:
        raise ValueError(f"PPT maximization is limited to {PPT_MAX_QUBITS} qubits")
    cfg = config or SolverConfig()
    target = dicke(num_qubits, excitations)
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
        value_target = c_q - m.expectation(target)
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
