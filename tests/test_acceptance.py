"""Acceptance suite: one test per shipped guarantee, at the stated tolerance.

Each test is self-contained and prints one pass/fail line under ``pytest -v``.
Stated runtime budgets are asserted with a monotonic clock.
"""

from __future__ import annotations

import itertools
import time
from functools import reduce

import numpy as np

from symwit.compiler import (
    canned_decomposition,
    compile_operator,
    mermin_decomposition,
    mermin_operator,
    settings_upper_bound,
)
from symwit.counts import evaluate_witness_counts, simulate_counts
from symwit.linalg import DenseOperator, identity, min_eig, op_power
from symwit.optimize import (
    WitnessOptimizationProblem,
    collective_power_basis,
    max_bisep_all,
    max_ppt_all,
    optimize_witness,
    q_scan,
)
from symwit.symmetric import collective_j, dicke
from symwit.witnesses import (
    NoiseModel,
    catalog,
    expectation,
    fidelity_curves,
    noise_tolerance,
    nonwhite_noise_state,
)


def _jsq_xy(num_qubits: int) -> DenseOperator:
    return op_power(collective_j(num_qubits, "x"), 2) + op_power(
        collective_j(num_qubits, "y"), 2
    )


def _symmetrized_product(mats: list[np.ndarray]) -> np.ndarray:
    """Sum over all orderings of ``mats`` of their Kronecker product.

    The orderings of a subset T sum to ``sum_k S(T - {k}) (x) mats[k]`` over
    the last factor k, so the 2^N subset sums are built in order of size.
    """
    sums = [np.ones((1, 1), dtype=complex)]
    for mask in range(1, 2 ** len(mats)):
        sums.append(sum(np.kron(sums[mask ^ (1 << k)], m)
                        for k, m in enumerate(mats) if mask >> k & 1))
    return sums[-1]


def _sign_expansion(mats: list[np.ndarray]) -> np.ndarray:
    """2^(N-1)-term tensor-power expansion of the symmetrized product.

    Gauge-fixes the first sign to +1 and weights each term with the product
    of all signs; for odd N this coincides with the unweighted sum over sign
    vectors of product +1, for even N the weight is the leading sign.
    """
    n = len(mats)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for rest in itertools.product((1, -1), repeat=n - 1):
        signs = (1,) + rest
        weight = 1
        for s in rest:
            weight *= s
        combo = sum(s * m for s, m in zip(signs, mats))
        out += weight * reduce(np.kron, [combo] * n)
    return out / 2 ** (n - 1)


def test_criterion_01_decomposition_identities():
    start = time.monotonic()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for n in (3, 5, 2, 4, 6):
        for _ in range(100):
            mats = [
                0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                for _ in range(n)
            ]
            lhs = _symmetrized_product(mats)
            worst = max(worst, float(np.max(np.abs(lhs - _sign_expansion(mats)))))
    assert worst < 1e-10
    assert time.monotonic() - start < 30.0


def test_criterion_02_setting_bounds():
    start = time.monotonic()
    refined = (9, 25, 49, 97, 145, 241, 337, 481, 625)
    for n, want in zip(range(2, 11), refined):
        l_n, l_ref = settings_upper_bound(n)
        assert l_ref == want
        assert l_n == (2 * n**3 + 3 * n**2 + 4 * n) // 3
        assert (2 * n**3 + 3 * n**2 + 4 * n) % 3 == 0
    assert time.monotonic() - start < 1.0


def test_criterion_03_canned_decompositions():
    start = time.monotonic()
    for name, (n, m, scale, settings) in {
        "D63": (6, 3, 64.0, 21),
        "D42": (4, 2, 16.0, 9),
    }.items():
        schedule = canned_decomposition(name)
        assert schedule.num_settings == settings
        target = scale * dicke(n, m).density().mat
        got = schedule.reconstruct().mat
        rel = np.max(np.abs(got - target)) / np.max(np.abs(target))
        assert rel < 1e-9
    assert time.monotonic() - start < 10.0


def test_criterion_04_mermin_decomposition():
    for n in range(2, 9):
        for axes in (("x", "z"), ("y", "z")):
            direct = mermin_operator(n, *axes)
            closed = mermin_decomposition(n, *axes).reconstruct()
            assert np.max(np.abs(direct.mat - closed.mat)) < 1e-10


def test_criterion_05_catalog_tolerances():
    start = time.monotonic()
    printed = {
        "WP_D63": 0.4063,
        "WP3_D63": 0.2735,
        "WP2_D63": 0.1391,
        "WI2_D63": 0.1091,
        "WI2_D5": 0.1046,
        "WP_D41": 0.2667,
        "WI3_D41": 0.1476,
        "WP_D42": 0.3556,
        "WP3_D42": 0.2759,
    }
    for name, want in printed.items():
        w = catalog(name)
        got = noise_tolerance(w, NoiseModel.white(w.num_qubits))
        assert abs(got - want) <= 5e-4, (name, got, want)
    assert time.monotonic() - start < 60.0


def test_criterion_06_lmi_validity():
    for name, alpha in (("WP2_D63", 2.5), ("WP3_D63", 2.5), ("WP3_D42", 3.0)):
        w = catalog(name)
        assert w.alpha == alpha
        projector_part = float(w.lambda_sq) * identity(w.num_qubits) - w.target.density()
        slack = min_eig(w.dense + (-alpha) * projector_part)
        assert slack >= -1e-9, (name, slack)


def test_criterion_07_ppt_maximization():
    start = time.monotonic()
    # N = 4, penalized objective at q = 1.47
    shifted = collective_j(4, "z") + (-1.0) * identity(4)
    m4 = _jsq_xy(4) + (-1.47) * op_power(shifted, 2)
    c4 = max_ppt_all(m4).value
    s4 = max_bisep_all(m4).value
    assert abs(c4 - 4.1234) <= 1e-3
    assert abs(c4 - s4) <= 1e-3
    # N = 5
    m5 = _jsq_xy(5)
    c5 = max_ppt_all(m5).value
    s5 = max_bisep_all(m5).value
    assert abs(c5 - 7.8723) <= 1e-3
    assert abs(c5 - s5) <= 1e-3
    assert time.monotonic() - start < 300.0
    # N = 6
    start6 = time.monotonic()
    m6 = _jsq_xy(6)
    c6 = max_ppt_all(m6).value
    s6 = max_bisep_all(m6).value
    assert abs(c6 - 11.0179) <= 1e-3
    assert abs(c6 - s6) <= 1e-3
    assert time.monotonic() - start6 < 1800.0


def test_criterion_08_witness_optimization():
    target = dicke(6, 3)
    noise = NoiseModel.white(6)
    for axes, want in ((("x", "y"), 0.1391), (("x", "y", "z"), 0.2735)):
        problem = WitnessOptimizationProblem(target, noise, collective_power_basis(6, axes))
        witness, report = optimize_witness(problem)
        assert report.converged
        assert report.dual_residual < 1e-6
        got = noise_tolerance(witness, noise)
        assert abs(got - want) <= 1e-3, (axes, got, want)


def test_criterion_09_q_scan_peak():
    grid = np.round(np.arange(0.0, 4.0 + 1e-9, 0.1), 10)
    assert grid.size == 41
    result = q_scan(4, 1, grid)
    assert 1.4 <= result.q_opt <= 1.6
    assert abs(result.tolerance_opt - 0.1476) <= 1e-3
    tol = result.rows[:, 2]
    k = result.opt_index
    assert np.all(np.diff(tol[: k + 1]) >= -1e-12)
    assert np.all(np.diff(tol[k:]) <= 1e-12)


def test_criterion_10_fidelity_curves():
    w = catalog("WP3_D63")
    grid = np.linspace(0.0, 1.0, 101)
    white = fidelity_curves(w, NoiseModel.white(6), grid)
    nonwhite = fidelity_curves(w, NoiseModel.custom(nonwhite_noise_state(0.0)), grid)
    for curves in (white, nonwhite):
        assert np.all(curves[:, 2] <= curves[:, 1] + 1e-12)
        assert abs(curves[0, 1] - 1.0) < 1e-9
        assert abs(curves[0, 2] - 1.0) < 1e-9
    gap_white = white[1:, 1] - white[1:, 2]
    gap_nonwhite = nonwhite[1:, 1] - nonwhite[1:, 2]
    assert np.all(gap_nonwhite < gap_white)


def test_criterion_11_large_n_tolerances():
    printed = {
        "WP3_D84": 0.2578,
        "WI3_W5": 0.0744,
        "WI3_W6": 0.0401,
    }
    for name, want in printed.items():
        w = catalog(name)
        got = noise_tolerance(w, NoiseModel.white(w.num_qubits))
        assert abs(got - want) <= 1e-3, (name, got, want)
    start = time.monotonic()
    w10 = catalog("WP3_D105")
    got10 = noise_tolerance(w10, NoiseModel.white(10))
    assert abs(got10 - 0.2404) <= 1e-3
    assert time.monotonic() - start < 300.0


def test_criterion_12_counts_round_trip():
    w = catalog("WP3_D63")
    target = dicke(6, 3)
    schedule = compile_operator(w.dense).merged()
    oracle = expectation(w, target.density())
    hits = 0
    for trial in range(20):
        seed = 1000 + trial
        data = simulate_counts(target, schedule, shots_per_setting=100_000, seed=seed)
        result = evaluate_witness_counts(w, data, schedule=schedule, seed=seed)
        if abs(result.witness_value - oracle) <= 3.0 * result.standard_error:
            hits += 1
    assert hits >= 18
