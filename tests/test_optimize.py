"""Convex solvers: the interior-point engine (witness fit and PPT), seesaw."""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from symwit.linalg import DenseOperator, StateVector, identity, op_power, partial_transpose
from symwit.symmetric import collective_j, dicke
from symwit.witnesses import BasisTerm, NoiseModel, catalog, noise_tolerance, nonwhite_noise_state
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
    cfg = SolverConfig.from_mapping({"barrier_tol": "1e-8", "seed": "3"})
    assert cfg.barrier_tol == 1e-8 and cfg.seed == 3
    for key in ("bogus", "cut_tol"):  # cut_tol left with the cutting-plane fit
        with pytest.raises(ValueError, match="unknown solver option"):
            SolverConfig.from_mapping({key: "1"})
    # out-of-range values would crash the barrier (mu underflows to 0) or
    # never meet a stopping test (nan)
    for key, raw in (
        ("barrier_tol", "0"), ("barrier_tol", "-1"), ("barrier_tol", "nan"),
        ("barrier_tol", "inf"), ("seesaw_tol", "nan"), ("seesaw_tol", "inf"),
        ("seesaw_restarts", "-1"), ("seed", "-3"),
    ):
        with pytest.raises(ValueError):
            SolverConfig.from_mapping({key: raw})
    assert SolverConfig.from_mapping({"seesaw_restarts": "0", "seesaw_tol": "0"}).seesaw_restarts == 0


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
    from symwit.optimize import _Block, _ppt_blocks

    _, report = _ppt_blocks([_Block(2, 4, 1, m.mat)], SolverConfig())
    assert abs(fast.value - report.optimum) < 1e-6


def test_ppt_spin_blocks_match_one_block_solve():
    from symwit.optimize import _Block, _ppt_blocks

    rng = np.random.default_rng(44)
    for n in (3, 4, 5):
        # complex objectives where the one-block solve is cheap
        m = random_pi_objective(n, rng, real=n == 5)
        for k in range(1, n // 2 + 1):
            part = tuple(range(n - k + 1, n + 1))  # a part that is not a prefix
            result = max_ppt(PptProblem(m, part))
            _, dense = _ppt_blocks([_Block(2**k, 2 ** (n - k), 1, m.mat)], SolverConfig())
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
    # J_z vanishes on the target, so no W over it meets <W> = -1
    for basis in ((BasisTerm("identity"),), (BasisTerm("collective", axis="z", power=1),)):
        with pytest.raises(OptimizationError, match="no witness of the requested form"):
            optimize_witness(WitnessOptimizationProblem(target, noise, basis))


def test_fit_converges_under_nonwhite_noise_with_the_xyz_basis():
    # the cutting-plane fit ran all 2000 rounds here (about 66 s) and stopped unconverged
    noise = NoiseModel.custom(nonwhite_noise_state(0.0))
    basis = collective_power_basis(6, ("x", "y", "z"))
    start = time.monotonic()
    spec, report = optimize_witness(WitnessOptimizationProblem(dicke(6, 3), noise, basis))
    assert time.monotonic() - start < 5.0
    assert report.converged and report.dual_residual <= 1e-6
    assert abs(noise_tolerance(spec, noise) - 0.4) <= 1e-6


@pytest.mark.parametrize("p, want", [(0.0, 2.0), (0.5, 0.5)])
def test_fit_converges_when_noise_leaves_spin_blocks_free(p, want):
    # noise inside the symmetric block leaves the j < N/2 blocks to the trace
    # bound alone: their small curvature must not drown in the target block's
    noise = NoiseModel.custom(
        p * dicke(4, 2).density() + 0.5 * (1 - p) * (dicke(4, 1).density() + dicke(4, 3).density())
    )
    problem = WitnessOptimizationProblem(dicke(4, 2), noise, collective_power_basis(4))
    _, report = optimize_witness(problem)
    assert report.converged and report.dual_residual <= 1e-6
    assert abs(report.optimum - want) <= 1e-6


@pytest.mark.parametrize("n, axes", [(4, "xy"), (4, "xyz"), (6, "xy"), (6, "xyz")])
def test_fit_in_spin_blocks_matches_one_dense_block(n, axes, monkeypatch):
    import symwit.optimize as opt

    sizes = []
    engine = opt._barrier_maximize

    def recording(m_vec, a_vec, lmis, x, cfg, stop=None):
        sizes.append(max(lmi.dim for lmi in lmis))
        return engine(m_vec, a_vec, lmis, x, cfg, stop)

    monkeypatch.setattr(opt, "_barrier_maximize", recording)
    problem = WitnessOptimizationProblem(
        dicke(n, n // 2), NoiseModel.white(n), collective_power_basis(n, tuple(axes))
    )
    _, blocks = optimize_witness(problem)
    monkeypatch.setattr(opt, "is_permutation_invariant", lambda op: False)
    _, dense = optimize_witness(problem)
    assert sizes == [n + 1, n + 1, 2**n, 2**n]  # the largest block has spin n/2
    assert blocks.converged and dense.converged
    assert abs(blocks.optimum - dense.optimum) <= 1e-8


def test_fit_reaches_the_projector_closed_form_for_a_random_target():
    # W = a 1 + b |psi><psi| is best at W_P / (1 - lambda^2): Tr(W) / 2^N is
    # (lambda^2 - 2^-N) / (1 - lambda^2); the target is neither PI nor real
    rng = np.random.default_rng(7)
    vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    target = StateVector(vec / np.linalg.norm(vec))
    basis = (BasisTerm("identity"), BasisTerm("projector"))
    spec, report = optimize_witness(WitnessOptimizationProblem(target, NoiseModel.white(4), basis))
    lam_sq = spec.lambda_sq
    assert report.converged
    assert abs(report.optimum - (lam_sq - 2**-4) / (1 - lam_sq)) <= 1e-6


def test_prefix_coordinates_give_each_lmi_a_prefix():
    from symwit.optimize import _prefix_coordinates

    rng = np.random.default_rng(8)
    mix = np.linalg.qr(rng.standard_normal((6, 6)))[0]  # hide the structure
    # LMI 0 reads variables 0-1, LMI 1 also 2-3 (complex), LMI 2 all six
    reads = [2, 4, 6]
    flats = []
    for k, d, imag in zip(reads, (3, 2, 2), (0, 1j, 0)):
        flat = np.zeros((6, d * d), dtype=complex)
        flat[:k] = rng.standard_normal((k, d * d)) + imag * rng.standard_normal((k, d * d))
        flats.append(mix @ flat)
    q, ends = _prefix_coordinates(flats)
    assert ends == reads
    assert np.allclose(q.T @ q, np.eye(6), atol=1e-12)
    for flat, end in zip(flats[:2], ends):
        assert np.max(np.abs(q[:, end:].T @ flat)) <= 1e-12 * np.max(np.abs(flat))


def test_unconverged_ppt_constant_is_refused(monkeypatch):
    import symwit.optimize as opt

    solve = opt.max_ppt_all

    def unconverged(objective, config=None):
        result = solve(objective, config)
        return result._replace(report=dataclasses.replace(result.report, converged=False))

    monkeypatch.setattr(opt, "max_ppt_all", unconverged)
    with pytest.raises(OptimizationError):
        q_scan(3, 1, (0.5,))
    with pytest.raises(OptimizationError):
        catalog("WI3_D41", q=0.8125)  # a q no other test builds, so not cached


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
