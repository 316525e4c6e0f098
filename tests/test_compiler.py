"""Measurement-schedule compilation for permutationally invariant operators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from symwit.compiler import (
    PauliClass,
    Schedule,
    Setting,
    canned_decomposition,
    compile_operator,
    mermin_decomposition,
    mermin_operator,
    pauli_decompose,
    settings_upper_bound,
    symmetrized_product_to_powers,
)
from symwit.linalg import DenseOperator, pauli, pauli_string
from symwit.symmetric import (PI_ATOL, collective_power, dicke, is_permutation_invariant,
                              symmetrize)
from symwit.witnesses import CATALOG_NAMES, catalog


def test_setting_canonicalization():
    assert Setting.from_ints((2, 0, 2)).label == (1, 0, 1)
    assert Setting.from_ints((-1, 1, 0)).label == (1, -1, 0)
    assert Setting.from_ints((0, -3, 0)).label == (0, 1, 0)
    a = Setting.from_ints((1, 1, 0))
    b = Setting.from_vector((1 / math.sqrt(2), 1 / math.sqrt(2), 0.0))
    assert a == b
    with pytest.raises(ValueError):
        Setting.from_ints((0, 0, 0))


def test_pauli_class_realization_oracle():
    cls = PauliClass(1, 1, 0)
    want = np.kron(pauli("x").mat, pauli("y").mat) + np.kron(
        pauli("y").mat, pauli("x").mat
    )
    assert np.allclose(cls.realization(2).mat, want)
    assert cls.arrangement_count(2) == 2
    assert PauliClass(2, 1, 1).arrangement_count(6) == math.factorial(6) // (
        math.factorial(2) * math.factorial(2)
    )


def test_sign_expansion_single_class():
    # every class on up to 6 qubits, checked against its sum over arrangements
    for n in range(1, 7):
        for i in range(n + 1):
            for j in range(n + 1 - i):
                for m in range(n + 1 - i - j):
                    cls = PauliClass(i, j, m, -0.7)
                    total = sum(t.realize(n) for t in symmetrized_product_to_powers(cls, n))
                    assert np.max(np.abs(total - cls.realization(n).mat)) < 1e-12, (n, i, j, m)


def test_pauli_decompose_round_trip():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        raw = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        op = symmetrize(DenseOperator((raw + raw.conj().T) / 2)).hermitized()
        poly = pauli_decompose(op)
        assert np.max(np.abs(poly.realization().mat - op.mat)) < 1e-10


def test_pauli_decompose_rejects_bad_inputs():
    nonsym = DenseOperator(np.kron(pauli("x").mat, np.eye(2)))
    with pytest.raises(ValueError):
        pauli_decompose(nonsym)
    nonherm = DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        pauli_decompose(nonherm)


def test_pauli_decompose_matches_dense_traces():
    rng = np.random.default_rng(23)
    for n in range(1, 8):
        raw = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        op = symmetrize(DenseOperator((raw + raw.conj().T) / 2)).hermitized()
        got = {(c.i, c.j, c.m): c.coefficient for c in pauli_decompose(op).classes}
        for i in range(n + 1):
            for j in range(n + 1 - i):
                for m in range(n + 1 - i - j):
                    rep = pauli_string(PauliClass(i, j, m).letters(n)).mat
                    want = np.trace(op.mat @ rep).real / 2**n
                    assert abs(got.get((i, j, m), 0.0) - want) < 1e-12, (n, i, j, m)


def test_pauli_decompose_tolerance_contract():
    # a PI operator plus a non-PI perturbation that still passes the PI check:
    # every coefficient is within N(N-1)/2 * PI_ATOL of its PI projection's
    rng = np.random.default_rng(24)
    for n in (3, 5):
        dim = 2**n
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        base = symmetrize(DenseOperator((raw + raw.conj().T) / 2)).hermitized().mat
        u = rng.uniform(0, 1, (dim, dim)) * np.exp(2j * np.pi * rng.uniform(0, 1, (dim, dim)))
        op = DenseOperator(base + 3e-11 * (u + u.conj().T) / 2)
        assert is_permutation_invariant(op) and not is_permutation_invariant(op, 1e-12)
        proj = symmetrize(op).mat
        got = {(c.i, c.j, c.m): c.coefficient for c in pauli_decompose(op).classes}
        bound = n * (n - 1) / 2 * PI_ATOL
        for i in range(n + 1):
            for j in range(n + 1 - i):
                for m in range(n + 1 - i - j):
                    rep = pauli_string(PauliClass(i, j, m).letters(n)).mat
                    want = np.trace(proj @ rep).real / dim
                    assert abs(got.get((i, j, m), 0.0) - want) <= bound, (n, i, j, m)


def test_compile_reconstructs_random_pi_operators():
    rng = np.random.default_rng(22)
    for n in (2, 3, 4, 5, 6):
        raw = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        op = symmetrize(DenseOperator((raw + raw.conj().T) / 2)).hermitized()
        schedule = compile_operator(op)
        err = np.max(np.abs(schedule.reconstruct().mat - op.mat))
        scale = max(1.0, np.max(np.abs(op.mat)))
        assert err < 1e-9 * scale
        assert schedule.num_settings <= settings_upper_bound(n)[1]


def test_compiled_catalog_witnesses_have_one_constant_term():
    for name in CATALOG_NAMES:
        schedule = compile_operator(catalog(name).dense)
        constants = [t for t in schedule.terms if t.setting is None]
        assert len(constants) <= 1, name
        assert all(t.identity_weight == 1.0 for t in constants), name


def test_compile_collective_power():
    op = collective_power(4, "x", 2)
    schedule = compile_operator(op)
    assert np.max(np.abs(schedule.reconstruct().mat - op.mat)) < 1e-10


def test_settings_upper_bound_formula():
    for n in range(2, 11):
        general, refined = settings_upper_bound(n)
        assert general == (2 * n**3 + 3 * n**2 + 4 * n) // 3
        assert refined <= general
    with pytest.raises(ValueError):
        settings_upper_bound(0)


def test_mermin_closed_form_small():
    for n in (3, 4):
        combinatorial = mermin_operator(n, "x", "y")
        schedule = mermin_decomposition(n, "x", "y")
        err = np.max(np.abs(schedule.reconstruct().mat - combinatorial.mat))
        assert err < 1e-10
        assert schedule.num_settings == n


def test_canned_d42_reconstructs():
    schedule = canned_decomposition("D42")
    target = 16 * dicke(4, 2).density()
    err = np.max(np.abs(schedule.reconstruct().mat - target.mat))
    assert err < 1e-9 * 16
    assert schedule.num_settings == 9


def test_schedule_merging_and_pruning():
    s = Setting.from_ints((1, 0, 0))
    from symwit.compiler import LocalTerm

    schedule = Schedule(2, [
        LocalTerm(0.5, s, 1.0, 0.0),
        LocalTerm(0.25, s, 1.0, 0.0),
        LocalTerm(0.75, None, 0.0, 0.0),   # zero constant: pruned
        LocalTerm(0.0, s, 2.0, 0.0),       # zero coefficient: pruned
    ])
    merged = schedule.merged()
    assert len(merged.terms) == 1
    assert float(merged.terms[0].coefficient) == 0.75
    assert merged.num_settings == 1


def test_schedule_merges_terms_that_differ_in_the_last_bit():
    from symwit.compiler import LocalTerm

    s = Setting.from_ints((1, 0, 0))
    merged = Schedule(2, [
        LocalTerm(0.5, s, 0.3, 0.1),
        LocalTerm(0.25, s, np.nextafter(0.3, 1.0), np.nextafter(0.1, 0.0)),
    ]).merged()
    assert len(merged.terms) == 1
    assert float(merged.terms[0].coefficient) == 0.75


def test_schedule_json_round_trip_is_stable():
    schedule = canned_decomposition("D42")
    text = schedule.to_json()
    back = Schedule.from_json(text)
    assert back.to_json() == text
    assert np.max(np.abs(back.reconstruct().mat - schedule.reconstruct().mat)) < 1e-12


def test_schedule_from_json_rejects_garbage():
    term = '{"coeff": 1, "n": %s, "scale": 1, "identity_weight": 0}'
    for text in (
        "{}",
        '{"N": 3, "terms": [%s]}' % (term % "5"),
        '{"N": 3, "terms": [%s]}' % (term % "[1, 0]"),
        '{"N": 3, "terms": 7}',
        '{"N": 1e400, "terms": []}',
        '{"N": 3.7, "terms": []}',
        '{"N": true, "terms": []}',
    ):
        with pytest.raises(ValueError):
            Schedule.from_json(text)


def test_schedule_from_json_absorbs_flipped_directions():
    sigma = (pauli("x").mat, pauli("y").mat, pauli("z").mat)
    text = '{"N": 3, "terms": [{"coeff": 0.7, "n": %s, "scale": 1.5, "identity_weight": 0.25}]}'
    for n_vec in ([0, 0, -1], [-0.3, 0.5, -0.7]):
        unit = np.asarray(n_vec, dtype=float) / np.linalg.norm(n_vec)
        local = 1.5 * sum(u * s for u, s in zip(unit, sigma)) + 0.25 * np.eye(2)
        want = 0.7 * np.kron(np.kron(local, local), local)
        back = Schedule.from_json(text % n_vec)
        assert np.max(np.abs(back.reconstruct().mat - want)) < 1e-12
