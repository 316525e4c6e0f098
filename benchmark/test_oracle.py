"""Closed-form tests of the benchmark's oracle.

Run with ``python3 -m pytest benchmark/test_oracle.py`` or
``python3 benchmark/test_oracle.py``.
"""

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402


def test_total_spin_on_dicke_states():
    for n in range(2, 7):
        j = n / 2
        jx, jy, jz = (oracle.spin(n, a) for a in "xyz")
        total = jx @ jx + jy @ jy + jz @ jz
        for m in range(n + 1):
            psi = oracle.dicke(n, m)
            assert abs(np.vdot(psi, psi) - 1.0) < 1e-12
            assert abs(np.vdot(psi, total @ psi) - j * (j + 1)) < 1e-10
            assert abs(np.vdot(psi, jz @ psi) - (n / 2 - m)) < 1e-12


def test_spin_commutation():
    jx, jy, jz = (oracle.spin(3, a) for a in "xyz")
    assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)


def test_partial_transpose_detects_bell_state():
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    pt = oracle.partial_transpose(oracle.projector(bell), (1,), 2)
    assert abs(oracle.min_eig(pt) + 0.5) < 1e-12
    product = np.kron([1, 0], [1, 1]) / math.sqrt(2)
    assert oracle.min_eig(oracle.partial_transpose(oracle.projector(product), (2,), 2)) > -1e-12


def test_schmidt_coefficient_of_dicke_states():
    # D(4,2): the 2|2 split gives Schmidt weights (1/6, 4/6, 1/6)
    assert abs(oracle.schmidt_max_sq(oracle.dicke(4, 2), 4) - 2 / 3) < 1e-12
    assert abs(oracle.schmidt_max_sq(oracle.dicke(6, 3), 6) - 0.6) < 1e-12


def test_biseparable_maximum_of_jx2_plus_jy2_at_n4():
    m = oracle.penalty_objective(4, 1, 0.0)
    assert abs(oracle.max_eig(m) - 6.0) < 1e-10
    best = max(oracle.product_max(m, 4, k) for k in (1, 2))
    assert abs(best - (3.5 + math.sqrt(3))) < 1e-9


def test_witness_and_schedule_rebuilds_agree():
    n = 2
    psi = oracle.dicke(n, 1)
    terms = [("identity", None, None, 0.0), ("collective", "x", 2, 0.0), ("tensor", "z", None, 1.0)]
    w = oracle.witness_matrix(n, terms, [1.0, -2.0, 0.5], psi)
    jx = oracle.spin(n, "x")
    want = np.eye(4) - 2.0 * jx @ jx + 0.5 * np.kron(oracle.SIGMA["z"] + np.eye(2), oracle.SIGMA["z"] + np.eye(2))
    assert np.allclose(w, want)
    # (sigma_z + 1)^(x)2 as a one-term schedule, plus a constant term
    payload = {"N": 2, "terms": [
        {"coeff": 0.5, "n": [0, 0, 1], "scale": 1.0, "identity_weight": 1.0},
        {"coeff": 3.0, "n": [0, 0, 0], "scale": 0.0, "identity_weight": 1.0},
    ]}
    expect = 0.5 * np.kron(oracle.SIGMA["z"] + np.eye(2), oracle.SIGMA["z"] + np.eye(2)) + 3.0 * np.eye(4)
    assert np.allclose(oracle.schedule_matrix(payload), expect)


def test_noise_tolerance_of_projector_witness():
    n = 4
    psi = oracle.dicke(n, 2)
    lam = oracle.schmidt_max_sq(psi, n)
    w = lam * np.eye(16) - oracle.projector(psi)
    # Tr(W |psi><psi|) = lam - 1, Tr(W 1/16) = lam - 1/16
    want = (1 - lam) / (1 - 1 / 16)
    assert abs(oracle.noise_tolerance(w, psi, oracle.white_noise(n)) - want) < 1e-12
    rho = oracle.noisy_state(psi, oracle.white_noise(n), 0.2)
    assert abs(oracle.fidelity(psi, rho) - (0.8 + 0.2 / 16)) < 1e-12


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
