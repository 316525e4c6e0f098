"""Convex solvers: the interior-point engine (witness fit and PPT), seesaw."""

from __future__ import annotations

import dataclasses
import math
import time
from functools import reduce

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

    _, _, report = _ppt_blocks([_Block(2, 4, 1, m.mat)], SolverConfig())
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
            _, _, dense = _ppt_blocks([_Block(2**k, 2 ** (n - k), 1, m.mat)], SolverConfig())
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
    assert result.value >= max_bisep_all(m, SolverConfig(seesaw_restarts=10)).value - 1e-6


def penalty_objective(n: int, m: int, q: float) -> DenseOperator:
    """Jx^2 + Jy^2 - q (Jz - <Jz>_D(n,m))^2, the ppt_threshold objectives."""
    obj = op_power(collective_j(n, "x"), 2) + op_power(collective_j(n, "y"), 2)
    shifted = collective_j(n, "z") - (n / 2 - m) * identity(n)
    return obj - q * op_power(shifted, 2) if q else obj


def bell_pairs_projector() -> DenseOperator:
    """The projector on |Phi+>_12 |Phi+>_34."""
    return DenseOperator(np.kron(bell_projector().mat, bell_projector().mat))


def random_real_objective(num_qubits: int, seed: int) -> DenseOperator:
    raw = np.random.default_rng(seed).standard_normal((2**num_qubits, 2**num_qubits))
    return DenseOperator(((raw + raw.T) / 2).astype(complex))


@pytest.mark.parametrize("objective", [
    penalty_objective(4, 1, 0.0), penalty_objective(4, 1, 1.47), penalty_objective(4, 1, 2.4),
    penalty_objective(5, 2, 0.0), bell_pairs_projector(), random_real_objective(4, 11),
], ids=["q0", "q1.47", "q2.4", "n5", "bell-pairs", "random-real"])
def test_pruned_scan_matches_exhaustive_scan(objective):
    from symwit.optimize import _bipartitions
    from symwit.symmetric import is_permutation_invariant

    best, upper, steps = None, -math.inf, 0
    for part in _bipartitions(objective.num_qubits, is_permutation_invariant(objective)):
        result = max_ppt(PptProblem(objective, part))
        upper = max(upper, result.value + result.report.dual_residual)
        steps += result.report.iterations
        if best is None or result.value > best[0]:
            best = (result.value, part, result.rho.mat.tobytes(), result.report)
    got = max_ppt_all(objective)
    assert (got.value, got.bipartition, got.rho.mat.tobytes()) == best[:3]
    # the scan's gap covers every bipartition; the running best only saves Newton
    # steps, and the scan counts those of the bipartitions it stops early too
    report = dataclasses.replace(best[3], dual_residual=upper - best[0])
    assert got.report == dataclasses.replace(report, iterations=got.report.iterations)
    assert report.iterations <= got.report.iterations <= steps


@pytest.mark.parametrize("objective", [
    penalty_objective(4, 1, 0.0), penalty_objective(5, 2, 0.0), bell_pairs_projector(),
], ids=["q0", "n5", "bell-pairs"])
def test_scan_counts_every_newton_step(objective, monkeypatch):
    import symwit.optimize as opt

    taken = []
    engine = opt._primal_dual_maximize

    def counted(*args, **kwargs):
        out = engine(*args, **kwargs)
        taken.append(out[2].iterations)
        return out

    monkeypatch.setattr(opt, "_primal_dual_maximize", counted)
    assert max_ppt_all(objective).report.iterations == sum(taken)


def test_scan_gap_covers_every_bipartition():
    # a blend on which part size 2 beats size 1 by 2e-8, while size 1 alone
    # ends with a larger gap: its value + gap exceeds the winner's own
    t = 0.5613944
    objective = (1 - t) * penalty_objective(4, 1, 0.0) + t * random_pi_objective(
        4, np.random.default_rng(17))
    scan = max_ppt_all(objective)
    assert scan.bipartition == (1, 2) and scan.report.converged
    for part in ((1,), (1, 2)):
        alone = max_ppt(PptProblem(objective, part))
        assert alone.value + alone.report.dual_residual <= \
            scan.value + scan.report.dual_residual + 1e-12  # one rounding of upper - value


def test_floor_stops_a_losing_bipartition():
    # the best value of part (1,) is the floor of every block of part (1, 2)
    from symwit.optimize import _batched_pt_front, _ppt_block, _scan_blocks

    m = penalty_objective(4, 1, 0.0)
    first, second = (max_ppt(PptProblem(m, part)) for part in ((1,), (1, 2)))
    assert second.report.converged and second.value < first.value
    scan = max_ppt_all(m)
    assert scan.bipartition == (1,)
    assert scan.report.iterations < first.report.iterations + second.report.iterations
    blk = _scan_blocks(m, [(1, 2)], True)[0][2]
    y, report = _ppt_block(blk, SolverConfig(), first.value)
    assert not report.converged and report.optimum < first.value
    assert report.optimum + report.dual_residual < first.value
    # the point reached is still a PPT state of the block
    assert abs(np.trace(y) - 1.0) < 1e-9
    assert np.linalg.eigvalsh(y)[0] > -1e-9
    assert np.linalg.eigvalsh(_batched_pt_front(y[None], blk.dim_a)[0])[0] > -1e-9


PPT_THRESHOLD_GRID = [(4, 1, round(0.2 * k, 1)) for k in range(15)] + [(4, 1, 1.47), (5, 2, 0.0)]


def _exhaustive_block_ppt(objective: DenseOperator, part: tuple[int, ...]):
    """max_ppt with every block solved alone, no skip and no floor.

    Returns (value, rho bytes, report, the winning block's Newton steps); the
    report's ``iterations`` sums the steps of every block.
    """
    from symwit.optimize import _front_permutation, _herm, _ppt_blocks, _scan_blocks
    from symwit.symmetric import lift, permute_qubits

    entries = _scan_blocks(objective, [part], True)
    blocks = [blk for _, _, blk in entries]
    solves = [_ppt_blocks([b], SolverConfig()) for b in blocks]
    tops = [np.linalg.eigvalsh(b.objective)[-1] for b in blocks]
    win = None
    for i in sorted(range(len(blocks)), key=lambda i: -tops[i]):
        if win is None or solves[i][2].optimum > solves[win][2].optimum:
            win = i
    (_, y, report), iso = solves[win], entries[win][1]
    upper = max(r.optimum + r.dual_residual for _, _, r in solves)
    steps = sum(r.iterations for _, _, r in solves)
    winner_steps = report.iterations
    report = dataclasses.replace(report, dual_residual=upper - report.optimum, iterations=steps)
    rho = DenseOperator(_herm(lift([(iso, y / blocks[win].mult)])))
    rho = permute_qubits(rho, _front_permutation(part, objective.num_qubits)[1])
    return report.optimum, rho.mat.tobytes(), report, winner_steps


@pytest.mark.parametrize("objective", [
    penalty_objective(4, 1, 0.0), penalty_objective(4, 1, 2.4), penalty_objective(4, 1, 1.47),
    penalty_objective(5, 2, 0.0), random_pi_objective(4, np.random.default_rng(7)),
    random_pi_objective(5, np.random.default_rng(17)),  # near-tied blocks: several are solved
], ids=["q0", "q2.4", "q1.47", "n5", "random-complex", "random-near-tie"])
def test_block_scan_matches_exhaustive_block_solves(objective):
    from symwit.optimize import _bipartitions

    for part in _bipartitions(objective.num_qubits, True):
        got = max_ppt(PptProblem(objective, part))
        value, rho, report, winner_steps = _exhaustive_block_ppt(objective, part)
        assert (got.value, got.rho.mat.tobytes()) == (value, rho)
        # skipped blocks and blocks stopped early take fewer steps than alone
        assert got.report == dataclasses.replace(report, iterations=got.report.iterations)
        assert winner_steps <= got.report.iterations <= report.iterations


@pytest.mark.parametrize("key", PPT_THRESHOLD_GRID + [(6, 3, 0.0), (8, 4, 0.0)], ids=str)
def test_product_maximum_is_within_the_certified_ppt_bound(key):
    objective = penalty_objective(*key)
    ppt = max_ppt_all(objective)
    assert ppt.report.converged and 0.0 <= ppt.report.dual_residual <= 1e-8 * (1 + abs(ppt.value))
    assert max_bisep_all(objective).value <= ppt.value + ppt.report.dual_residual


def _dense_bisep_all(objective: DenseOperator) -> float:
    """max_bisep_all as max_bisep_seesaw on each bipartition, seeded the same way."""
    from symwit.optimize import _bipartitions
    from symwit.symmetric import is_permutation_invariant

    parts = _bipartitions(objective.num_qubits, is_permutation_invariant(objective))
    return max(max_bisep_seesaw(objective, part, SolverConfig(seed=index))
               for index, part in enumerate(parts))


@pytest.mark.parametrize("key", PPT_THRESHOLD_GRID + [(6, 3, 0.0)], ids=str)
def test_block_product_search_matches_the_dense_seesaw(key):
    objective = penalty_objective(*key)
    got = max_bisep_all(objective).value
    assert abs(got - _dense_bisep_all(objective)) <= 1e-9
    if key == (4, 1, 0.0):
        assert abs(got - (3.5 + math.sqrt(3))) <= 1e-9


def random_complex_objective(num_qubits: int, seed: int) -> DenseOperator:
    rng = np.random.default_rng(seed)
    shape = (2**num_qubits, 2**num_qubits)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return DenseOperator((raw + raw.conj().T) / 2)


@pytest.mark.parametrize("objective", [
    random_real_objective(3, 5), bell_pairs_projector(), random_complex_objective(3, 5),
], ids=["random-real", "bell-pairs", "random-complex"])
def test_product_search_without_symmetry_is_the_dense_seesaw(objective):
    # an objective that is not permutation invariant is one block per part of the scan
    assert max_bisep_all(objective).value == _dense_bisep_all(objective)


def test_objective_without_a_conserved_charge_keeps_the_full_basis():
    from symwit.optimize import _charge_sectors, _ppt_blocks, _scan_blocks

    m = penalty_objective(4, 1, 0.0) + 0.3 * collective_j(4, "x")
    for part in ((1,), (1, 2)):
        blocks = [blk for _, _, blk in _scan_blocks(m, [part], True)]
        assert all(_charge_sectors(b, not np.any(np.imag(b.objective))).all() for b in blocks)
        unknown = _ppt_blocks([b._replace(charge=None) for b in blocks], SolverConfig())[2]
        assert max_ppt(PptProblem(m, part)).report == unknown
    result = max_ppt_all(m)
    assert result.bipartition == (1,) and result.report.converged
    # a log-barrier full-basis solve read 5.797498421543819 with certified gap 6.33e-8:
    # both values are attained and within their gaps of the same maximum
    assert abs(result.value - 5.797498421543819) <= 6.33e-8 + result.report.dual_residual


@pytest.mark.parametrize("objective", [penalty_objective(*key) for key in PPT_THRESHOLD_GRID] + [
    random_pi_objective(4, np.random.default_rng(3)),
    random_pi_objective(5, np.random.default_rng(5)),
], ids=[str(key) for key in PPT_THRESHOLD_GRID] + ["random-4", "random-5"])
def test_no_block_value_exceeds_the_partial_transpose_bound(objective):
    # Tr(M Y) = Tr(M^T_A Y^T_A) <= lambda_max(M^T_A) for PPT and product Y
    from symwit.optimize import _batched_pt_front, _ppt_blocks, _scan_blocks, _seesaw

    for part in ((1,), (1, 2)):
        blocks = [blk for _, _, blk in _scan_blocks(objective, [part], True)]
        for i, b in enumerate(blocks):
            m_pt = _batched_pt_front(b.objective[None], b.dim_a)[0]
            bound = min(np.linalg.eigvalsh(b.objective)[-1], np.linalg.eigvalsh(m_pt)[-1])
            assert abs(b.top - bound) <= 1e-12 * (1 + abs(bound))
            assert _ppt_blocks([b], SolverConfig())[2].optimum <= bound + 1e-12
            if min(b.dim_a, b.dim_b) > 1:
                rng = np.random.default_rng(i)
                assert _seesaw(b.objective, b.dim_a, b.dim_b, 10, 1e-12, rng) <= bound + 1e-12


def test_partial_transpose_bound_skips_the_losing_two_qubit_block(monkeypatch):
    # the part-size-2 (j_A, j_B) = (1, 1) block never wins on the ppt_threshold
    # grid; from q = 1.4 on its bound lambda_max(M_b^T_A) rules out both its
    # PPT solve and its seesaw
    import symwit.optimize as opt

    counts = {"ppt": 0, "seesaw": 0}
    solve, seesaw = opt._ppt_block, opt._seesaw

    def counted_solve(blk, *args):
        counts["ppt"] += (blk.dim_a, blk.dim_b) == (3, 3)
        return solve(blk, *args)

    def counted_seesaw(mat, dim_a, dim_b, *args):
        counts["seesaw"] += (dim_a, dim_b) == (3, 3)
        return seesaw(mat, dim_a, dim_b, *args)

    monkeypatch.setattr(opt, "_ppt_block", counted_solve)
    monkeypatch.setattr(opt, "_seesaw", counted_seesaw)
    for key in PPT_THRESHOLD_GRID:
        max_ppt_all(penalty_objective(*key))
        max_bisep_all(penalty_objective(*key))
    assert counts["ppt"] <= 7 and counts["seesaw"] <= 7, counts


def _count_linalg_calls(monkeypatch, *names: str) -> dict[str, int]:
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_extrapolation_cuts_the_product_search_sweeps(monkeypatch):
    # near the bifurcation at q = 2.2-2.8 plain sweeps converge linearly at a rate of
    # about 0.96: without extrapolation the grid takes 754 sweeps, 370 of them at q = 2.4
    objectives = [penalty_objective(*key) for key in PPT_THRESHOLD_GRID]
    counts = _count_linalg_calls(monkeypatch, "eigh")
    for objective in objectives:
        max_bisep_all(objective)
    assert counts["eigh"] / 2 <= 320, counts  # a sweep is two eigh calls


def test_product_search_reaches_the_degenerate_optimum():
    # plain sweeps stop at 3.99999999998 here, where the linear rate is closest to 1
    assert max_bisep_all(penalty_objective(4, 1, 2.4)).value >= 4.0 - 1e-12


def test_ppt_block_solve_inverts_and_factors_both_blocks_at_once(monkeypatch):
    # Y and Y^T_A as one 2-block LMI, whose S and Z are each inverted and factored in one
    # call; the log-barrier engine took 60 Newton steps here, 80 inv and 114 cholesky calls
    from symwit.optimize import _ppt_blocks, _scan_blocks

    entries = _scan_blocks(penalty_objective(4, 1, 1.0), [(1,)], True)
    (block,) = [b for _, _, b in entries if (b.dim_a, b.dim_b) == (2, 4)]
    shapes: dict[str, list] = {"inv": [], "cholesky": []}
    for name, calls in shapes.items():
        def recorded(mat, _calls=calls, _original=getattr(np.linalg, name)):
            _calls.append(np.shape(mat))
            return _original(mat)
        monkeypatch.setattr(np.linalg, name, recorded)
    report = _ppt_blocks([block], SolverConfig())[2]
    assert report.converged and report.iterations <= 20
    assert all(shape == (2, 8, 8) for calls in shapes.values() for shape in calls), shapes
    assert len(shapes["inv"]) < 80 and len(shapes["cholesky"]) < 114


def test_seesaw_bell_oracle_and_restart_prefix_monotone():
    m = bell_projector()
    v50 = max_bisep_seesaw(m, (1,), SolverConfig(seesaw_restarts=50))
    assert abs(v50 - 0.5) < 1e-9
    # restarts consume one rng stream: more restarts can only improve
    values = [max_bisep_seesaw(m, (1,), SolverConfig(seesaw_restarts=r)) for r in (1, 5, 20, 50)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def _seesaw_sequential(m, part_size, restarts, seed, tol):
    """Reference: one restart at a time, same random stream, stopping rule and extrapolation."""
    n = m.num_qubits
    dim_a, dim_b = 2**part_size, 2 ** (n - part_size)
    tensor = m.mat.reshape(dim_a, dim_b, dim_a, dim_b)

    def sweep(vec_b):
        vec_a = np.linalg.eigh(np.einsum("ijkl,j,l->ik", tensor, vec_b.conj(), vec_b))[1][:, -1]
        vals, vecs = np.linalg.eigh(np.einsum("ijkl,i,k->jl", tensor, vec_a.conj(), vec_a))
        overlap = np.vdot(vec_b, vecs[:, -1])
        return float(vals[-1]), vecs[:, -1] * (overlap.conj() / abs(overlap) if overlap else 1.0)

    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(restarts):
        vec_b = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
        vec_b /= np.linalg.norm(vec_b)
        value, last, plain = -math.inf, None, 0
        for _ in range(2000):
            new_value, new_b = sweep(vec_b)
            step, vec_b = new_b - vec_b, new_b
            if new_value - value <= tol:
                value = max(value, new_value)
                break
            value, plain = new_value, plain + 1
            if plain % 3 == 0 and last is not None and np.vdot(last, last).real > 0:
                rate = np.vdot(last, step).real / np.vdot(last, last).real
                if 0 < rate < 0.999:
                    guess = vec_b + rate / (1 - rate) * step
                    trial, trial_b = sweep(guess / np.linalg.norm(guess))
                    if trial > value:  # jump, and forget the steps before it
                        value, vec_b, step, plain = trial, trial_b, None, 0
            last = step
        best = max(best, value)
    return best


def test_seesaw_batch_matches_sequential_restarts():
    # a loose tol stops each restart after a few passes, far from converged,
    # so the value depends on the restart's own start vector
    rng = np.random.default_rng(45)
    for n, k in ((3, 1), (4, 2), (5, 2)):
        m = random_pi_objective(n, rng)
        for seed in (0, 1):
            for tol in (1e-12, 1e-6, 1.0):
                got = max_bisep_seesaw(
                    m, tuple(range(1, k + 1)),
                    SolverConfig(seesaw_restarts=7, seesaw_tol=tol, seed=seed),
                )
                assert abs(got - _seesaw_sequential(m, k, 7, seed, tol)) <= 1e-12
    assert max_bisep_seesaw(bell_projector(), (1,), SolverConfig(seesaw_restarts=0)) == -math.inf


def test_seesaw_is_lower_bound_of_ppt():
    rng = np.random.default_rng(43)
    for n in (3, 4):
        m = random_pi_objective(n, rng)
        ppt = max_ppt(PptProblem(m, (1,))).value
        see = max_bisep_seesaw(m, (1,), SolverConfig(seesaw_restarts=20))
        assert see <= ppt + 1e-6


def test_seesaw_restart_stability():
    # most single restarts already find the global optimum here
    m = op_power(collective_j(4, "x"), 2) + op_power(collective_j(4, "y"), 2)
    best = max_bisep_seesaw(m, (1,), SolverConfig(seesaw_restarts=50))
    hits = 0
    for seed in range(50):
        v = max_bisep_seesaw(m, (1,), SolverConfig(seesaw_restarts=1, seed=seed))
        hits += abs(v - best) < 1e-9
    assert hits >= 45


def test_product_searches_refuse_a_non_hermitian_objective():
    # on this objective the seesaw read 4.533 across (1,), where its Hermitian part gives 3.062
    rng = np.random.default_rng(1)
    m = DenseOperator(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    for search in (lambda: max_bisep_seesaw(m, (1,)), lambda: max_bisep_all(m),
                   lambda: max_symmetric_product(m)):
        with pytest.raises(ValueError, match="objective must be Hermitian"):
            search()


def test_max_symmetric_product_oracle():
    # symmetric product states on the equator: <Jx^2+Jy^2> = j(j+1) - N/4
    for n in (4, 6):
        m = op_power(collective_j(n, "x"), 2) + op_power(collective_j(n, "y"), 2)
        want = (n / 2) * (n / 2 + 1) - n / 4
        got = max_symmetric_product(m, SolverConfig(seesaw_restarts=10))
        assert abs(got - want) < 1e-8


def test_max_symmetric_product_random_objectives():
    # <a^(x)N|M|a^(x)N> for any M lies between sampled product values and lambda_max(M_top)
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 5, 6):
        a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        m = DenseOperator((a + a.conj().T) / 2)
        theta, phi = np.arccos(rng.uniform(-1, 1, 2000)), rng.uniform(0, 2 * np.pi, 2000)
        qubits = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)
        sampled = max(float(np.real(s.conj() @ m.mat @ s))
                      for s in (reduce(np.kron, [q] * n) for q in qubits))
        top = np.stack([dicke(n, k).vec for k in range(n + 1)], axis=1)
        ceiling = np.linalg.eigvalsh(top.conj().T @ m.mat @ top)[-1]
        got = max_symmetric_product(m, SolverConfig(seesaw_restarts=10))
        assert sampled - 1e-12 <= got <= ceiling + 1e-12


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


@pytest.mark.parametrize("axes", ["xy", "xyz"])
@pytest.mark.parametrize("p", [0.0, 0.5])
def test_fit_converges_far_out_on_a_nearly_free_face(axes, p):
    # coefficients near 1e3 on J^8 terms of norm 4^8: rounding in unscaled
    # coordinates ate the barrier's ~1e-9 certificate margin, and the last
    # barrier levels end at the rounding floor
    side = (dicke(8, 3).density() + dicke(8, 5).density()) * 0.5
    noise = NoiseModel.custom(side * (1 - p) + dicke(8, 4).density() * p)
    problem = WitnessOptimizationProblem(dicke(8, 4), noise, collective_power_basis(8, tuple(axes)))
    _, report = optimize_witness(problem)
    assert report.converged and report.min_eig_slack >= 0
    assert abs(report.optimum - ((1 - p) * 4 / 3 - p)) <= 1e-6  # <D84|W|D84> = -1


def _block_layout(lmi) -> tuple[int, ...]:
    """Sizes of the finest contiguous diagonal blocks that hold every matrix of ``lmi``,
    an LMI of one block."""
    dim = lmi.weight.shape[1]
    pattern = np.any(lmi.flat.reshape(-1, dim, dim) != 0, axis=0)
    cuts = [k for k in range(1, dim) if not (pattern[:k, k:].any() or pattern[k:, :k].any())]
    return tuple(int(s) for s in np.diff([0] + cuts + [dim]))


@pytest.mark.parametrize("n, axes", [(4, "xy"), (4, "xyz"), (6, "xy"), (6, "xyz")])
def test_fit_in_spin_blocks_matches_one_dense_block(n, axes, monkeypatch):
    import symwit.optimize as opt
    import symwit.witnesses as wit

    layouts = []
    engine = opt._primal_dual_maximize

    def recording(m_vec, a_vec, lmi, x, cfg, stop=None):
        assert lmi.weight.shape[0] == 1 and len(lmi.flat) == len(x)
        layouts.append(_block_layout(lmi))
        return engine(m_vec, a_vec, lmi, x, cfg, stop)

    monkeypatch.setattr(opt, "_primal_dual_maximize", recording)
    problem = WitnessOptimizationProblem(
        dicke(n, n // 2), NoiseModel.white(n), collective_power_basis(n, tuple(axes))
    )
    _, blocks = optimize_witness(problem)
    monkeypatch.setattr(wit, "symmetric_amplitudes", lambda state: None)
    problem = dataclasses.replace(problem)  # its blocks are cached
    _, dense = optimize_witness(problem)
    # one LMI: the spin blocks n/2, n/2 - 1, ..., 0, then the alpha and trace rows
    spin = tuple(range(n + 1, 0, -2)) + (1, 1)
    assert layouts == [spin, spin, (2**n, 1, 1), (2**n, 1, 1)]
    assert blocks.converged and dense.converged
    assert abs(blocks.optimum - dense.optimum) <= 1e-8


@pytest.mark.parametrize("target, axes", [(dicke(4, 2), "xyz"), (dicke(6, 3), "xy"), (None, "")])
def test_fit_lmi_is_zero_off_its_blocks_and_past_each_prefix(target, axes, monkeypatch):
    import symwit.optimize as opt

    if target is None:  # neither PI nor real: one dense block
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        target = StateVector(vec / np.linalg.norm(vec))
    n = target.num_qubits
    seen = {}
    prefix, engine = opt._prefix_coordinates, opt._primal_dual_maximize

    def recording_prefix(flats):
        seen["sizes"] = [math.isqrt(flat.shape[1]) for flat in flats]
        q, seen["ends"] = prefix(flats)
        return q, seen["ends"]

    def recording_engine(m_vec, a_vec, lmi, x, cfg, stop=None):
        seen["lmi"] = lmi
        return engine(m_vec, a_vec, lmi, x, cfg, stop)

    monkeypatch.setattr(opt, "_prefix_coordinates", recording_prefix)
    monkeypatch.setattr(opt, "_primal_dual_maximize", recording_engine)
    basis = collective_power_basis(n, tuple(axes)) + (BasisTerm("projector"),)
    problem = WitnessOptimizationProblem(target, NoiseModel.white(n), basis)
    assert optimize_witness(problem)[1].converged
    lmi = seen["lmi"]  # the second phase's
    sizes, ends = seen["sizes"], seen["ends"]
    mults = [iso.shape[1] for iso, _ in problem.blocks] + [1, 1]  # the alpha and trace rows
    dim = sum(sizes)
    assert lmi.weight.shape == (1, dim) and len(lmi.flat) == ends[-1]  # it reads all of u
    mats = lmi.flat.reshape(-1, dim, dim)
    inside = np.zeros((dim, dim), dtype=bool)
    offsets = np.cumsum([0] + sizes)
    for lo, hi, end, mult in zip(offsets[:-1], offsets[1:], ends, mults):
        inside[lo:hi, lo:hi] = True
        assert np.all(mats[end:, lo:hi, lo:hi] == 0) and np.any(mats[end - 1, lo:hi, lo:hi])
        assert np.all(lmi.weight[0, lo:hi] == mult)
    assert np.all(mats[:, ~inside] == 0)


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
    direct = max_ppt_all(m)
    assert abs(rows[0, 1] - (direct.value + direct.report.dual_residual)) < 1e-9


@pytest.mark.parametrize("name", ["WI2_D63", "WI2_D5", "WI3_D41", "WI3_W5", "WI3_W6"])
def test_catalog_constant_is_a_certified_ppt_bound(name):
    # W = c - M reads >= 0 on every PPT state, so on every biseparable one
    spec = catalog(name)
    c = spec.coefficients[0]
    ppt = max_ppt_all(c * identity(spec.num_qubits) - spec.dense)
    assert ppt.report.converged and ppt.report.dual_residual <= 1e-8 * (1 + abs(ppt.value))
    assert c >= ppt.value + ppt.report.dual_residual
