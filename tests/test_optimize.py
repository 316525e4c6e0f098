"""Convex solvers: cutting-plane witness fit, PPT interior point, seesaw."""

from __future__ import annotations

import math

import numpy as np
import pytest

from symwit.linalg import DenseOperator, StateVector, identity, op_power, partial_transpose
from symwit.symmetric import collective_j, dicke
from symwit.witnesses import BasisTerm, NoiseModel, noise_tolerance
from symwit.optimize import (
    OptimizationError,
    PptProblem,
    SolverConfig,
    SolverReport,
    WitnessOptimizationProblem,
    collective_power_basis,
    max_bisep_all,
    max_bisep_seesaw,
    max_ppt,
    max_ppt_all,
    max_symmetric_product,
    optimize_witness,
    q_scan,
)


def bell_projector() -> DenseOperator:
    bell = StateVector(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    return DenseOperator(np.outer(bell.vec, bell.vec.conj()))


def random_pi_objective(
    num_qubits: int, rng: np.random.Generator, real: bool = False
) -> DenseOperator:
    ops = [identity(num_qubits)]
    for axis in "xyz":
        for power in (1, 2):
            if real and (axis, power) == ("y", 1):
                continue  # J_y is the only imaginary term
            ops.append(op_power(collective_j(num_qubits, axis), power))
    total = ops[0] * 0.0
    for op in ops:
        total = total + float(rng.standard_normal()) * op
    return total.hermitized()


def test_config_mapping():
    cfg = SolverConfig.from_mapping({"cut_tol": "1e-5", "seed": "3"})
    assert cfg.cut_tol == 1e-5 and cfg.seed == 3
    with pytest.raises(ValueError):
        SolverConfig.from_mapping({"bogus": "1"})


def test_report_json_round_trip():
    rep = SolverReport(1.0, 1e-10, 2e-8, 3e-9, 17, True)
    assert SolverReport.from_json(rep.to_json()) == rep


def test_ppt_two_qubit_bell_oracle():
    # two-qubit PPT states are exactly the separable ones; the best overlap
    # with a maximally entangled state is 1/2
    result = max_ppt(PptProblem(bell_projector(), (1,)))
    assert abs(result.value - 0.5) < 1e-6
    assert result.report.converged
    assert result.report.dual_residual < 1e-6


def test_ppt_returned_state_is_feasible():
    rng = np.random.default_rng(41)
    for n, part in ((3, (2,)), (3, (1, 3)), (4, (2, 4))):
        raw = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        m = DenseOperator((raw + raw.conj().T) / 2)
        result = max_ppt(PptProblem(m, part))
        rho = result.rho
        assert abs(rho.trace() - 1.0) < 1e-8
        assert np.linalg.eigvalsh(rho.mat)[0] > -1e-8
        assert np.linalg.eigvalsh(partial_transpose(rho, part).mat)[0] > -1e-8
        got = float(np.real((m @ rho).trace()))
        assert abs(got - result.value) < 1e-8


def test_ppt_commutant_matches_dense_solver():
    # a PI objective solved in spin blocks must agree with the generic
    # one-block dense solve on the same bipartition
    rng = np.random.default_rng(42)
    m = random_pi_objective(3, rng)
    fast = max_ppt(PptProblem(m, (1,)))
    from symwit.optimize import _Block, _barrier_maximize

    _, report = _barrier_maximize([_Block(2, 4, 1, m.mat)], SolverConfig())
    assert abs(fast.value - report.optimum) < 1e-6


def test_ppt_spin_blocks_match_one_block_solve():
    from symwit.optimize import _Block, _barrier_maximize

    rng = np.random.default_rng(44)
    for n in (3, 4, 5):
        # complex objectives where the one-block solve is cheap
        m = random_pi_objective(n, rng, real=n == 5)
        for k in range(1, n // 2 + 1):
            part = tuple(range(n - k + 1, n + 1))  # a part that is not a prefix
            result = max_ppt(PptProblem(m, part))
            _, dense = _barrier_maximize(
                [_Block(2**k, 2 ** (n - k), 1, m.mat)], SolverConfig()
            )
            assert result.report.converged and dense.converged
            assert abs(result.value - dense.optimum) < 1e-6, (n, k)
            rho = result.rho
            assert abs(rho.trace() - 1.0) < 1e-9
            assert np.linalg.eigvalsh(rho.mat)[0] > -1e-9
            assert np.linalg.eigvalsh(partial_transpose(rho, part).mat)[0] > -1e-9
            assert abs(float(np.real((m @ rho).trace())) - result.value) < 1e-8


def test_ppt_problem_validation():
    m = bell_projector()
    with pytest.raises(ValueError):
        PptProblem(m, ())
    with pytest.raises(ValueError):
        PptProblem(m, (1, 2))
    with pytest.raises(ValueError):
        PptProblem(DenseOperator(np.array([[0, 1], [0, 0]], dtype=complex)), (1,))


def test_max_ppt_all_reports_bipartition():
    m = op_power(collective_j(4, "x"), 2) + op_power(collective_j(4, "y"), 2)
    result = max_ppt_all(m)
    assert result.bipartition in ((1,), (1, 2))
    assert result.value >= max_bisep_all(m, restarts=10).value - 1e-6


def test_seesaw_bell_oracle_and_restart_prefix_monotone():
    m = bell_projector()
    v50 = max_bisep_seesaw(m, (1,), restarts=50)
    assert abs(v50 - 0.5) < 1e-9
    # restarts consume one rng stream: more restarts can only improve
    values = [max_bisep_seesaw(m, (1,), restarts=r) for r in (1, 5, 20, 50)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def _seesaw_sequential(m, part_size, restarts, seed, tol):
    """Reference: one restart at a time, same random stream and stopping rule."""
    n = m.num_qubits
    dim_a, dim_b = 2**part_size, 2 ** (n - part_size)
    tensor = m.mat.reshape(dim_a, dim_b, dim_a, dim_b)
    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(restarts):
        vec_b = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
        vec_b /= np.linalg.norm(vec_b)
        value = -math.inf
        for _ in range(2000):
            vec_a = np.linalg.eigh(np.einsum("ijkl,j,l->ik", tensor, vec_b.conj(), vec_b))[1][:, -1]
            vals, vecs = np.linalg.eigh(np.einsum("ijkl,i,k->jl", tensor, vec_a.conj(), vec_a))
            vec_b, new_value = vecs[:, -1], float(vals[-1])
            if new_value - value <= tol:
                value = max(value, new_value)
                break
            value = new_value
        best = max(best, value)
    return best


def test_seesaw_batch_matches_sequential_restarts():
    # a loose tol stops each restart after a few passes, far from converged,
    # so the value depends on the restart's own start vector
    rng = np.random.default_rng(45)
    for n, k in ((3, 1), (4, 2), (5, 2)):
        m = random_pi_objective(n, rng)
        for seed in (0, 1):
            for tol in (1e-12, 1.0):
                got = max_bisep_seesaw(
                    m, tuple(range(1, k + 1)), restarts=7, tol=tol,
                    config=SolverConfig(seed=seed),
                )
                assert abs(got - _seesaw_sequential(m, k, 7, seed, tol)) <= 1e-12
    assert max_bisep_seesaw(bell_projector(), (1,), restarts=0) == -math.inf


def test_seesaw_is_lower_bound_of_ppt():
    rng = np.random.default_rng(43)
    for n in (3, 4):
        m = random_pi_objective(n, rng)
        ppt = max_ppt(PptProblem(m, (1,))).value
        see = max_bisep_seesaw(m, (1,), restarts=20)
        assert see <= ppt + 1e-6


def test_seesaw_restart_stability():
    # most single restarts already find the global optimum here
    m = op_power(collective_j(4, "x"), 2) + op_power(collective_j(4, "y"), 2)
    best = max_bisep_seesaw(m, (1,), restarts=50)
    hits = 0
    for seed in range(50):
        v = max_bisep_seesaw(m, (1,), restarts=1, config=SolverConfig(seed=seed))
        hits += abs(v - best) < 1e-9
    assert hits >= 45


def test_max_symmetric_product_oracle():
    # symmetric product states on the equator: <Jx^2+Jy^2> = j(j+1) - N/4
    for n in (4, 6):
        m = op_power(collective_j(n, "x"), 2) + op_power(collective_j(n, "y"), 2)
        want = (n / 2) * (n / 2 + 1) - n / 4
        got = max_symmetric_product(m, restarts=10)
        assert abs(got - want) < 1e-8


def test_optimize_witness_projector_basis_recovers_projector():
    target = dicke(6, 3)
    noise = NoiseModel.white(6)
    problem = WitnessOptimizationProblem(
        target, noise, (BasisTerm("identity"), BasisTerm("projector")), name="proj"
    )
    spec, report = optimize_witness(problem)
    assert report.converged
    assert report.dual_residual <= 1e-6
    assert abs(noise_tolerance(spec, noise) - 0.4063492063) < 1e-6
    assert abs(report.primal_residual) < 1e-8


def test_optimize_witness_normalization_and_certificate():
    target = dicke(4, 2)
    noise = NoiseModel.white(4)
    basis = collective_power_basis(4, axes=("x", "y", "z"), max_power=4)
    spec, report = optimize_witness(WitnessOptimizationProblem(target, noise, basis))
    value = float(np.real(np.vdot(target.vec, spec.dense.mat @ target.vec)))
    assert abs(value + 1.0) < 1e-8
    assert spec.alpha is not None and spec.alpha > 0
    slack = np.linalg.eigvalsh(
        spec.dense.mat - spec.alpha * (spec.lambda_sq * np.eye(16)
                                       - np.outer(target.vec, target.vec.conj()))
    )[0]
    assert slack > -1e-9
    assert report.dual_residual <= 1e-6


def test_optimize_witness_infeasible_raises():
    target = dicke(4, 2)
    noise = NoiseModel.white(4)
    problem = WitnessOptimizationProblem(target, noise, (BasisTerm("identity"),))
    with pytest.raises(OptimizationError):
        optimize_witness(problem)


def test_optimize_witness_rejects_dependent_basis():
    target = dicke(4, 2)
    noise = NoiseModel.white(4)
    with pytest.raises(ValueError):
        WitnessOptimizationProblem(
            target, noise, (BasisTerm("identity"), BasisTerm("identity"))
        )


def test_q_scan_small_grid_consistency():
    rows = q_scan(3, 1, (0.5, 1.0)).rows
    assert rows.shape == (2, 3)
    # cross-check one row against a direct solve
    jx2 = op_power(collective_j(3, "x"), 2)
    jy2 = op_power(collective_j(3, "y"), 2)
    jz = collective_j(3, "z")
    target = dicke(3, 1)
    jz0 = float(np.real(jz.expectation(target)))
    m = jx2 + jy2 - 0.5 * op_power(jz - jz0 * identity(3), 2)
    direct = max_ppt_all(m).value
    assert abs(rows[0, 1] - direct) < 1e-9
