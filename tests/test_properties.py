"""Property tests: canonical setting keys, sign-flip round trips, Born
probabilities, bootstrap determinism and the witness certificate."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symwit.compiler import LocalTerm, Schedule, Setting
from symwit.counts import CountRecord, CountsDataset, _born_probabilities, evaluate_counts
from symwit.linalg import StateVector
from symwit.optimize import (
    WitnessOptimizationProblem,
    collective_power_basis,
    optimize_witness,
    q_scan,
)
from symwit.symmetric import dicke
from symwit.witnesses import NoiseModel, noise_tolerance, wi3_witness

reproducible = settings(derandomize=True, deadline=None, max_examples=100)

int_vectors = st.tuples(*[st.integers(-6, 6)] * 3).filter(any)
float_vectors = st.tuples(*[st.floats(-10.0, 10.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 1e-3
)
vectors = st.one_of(int_vectors, float_vectors)
factors = st.one_of(st.integers(-5, 5), st.floats(-100.0, 100.0)).filter(
    lambda k: abs(k) > 1e-3
)


@reproducible
@given(vectors, factors)
def test_parse_is_invariant_under_rescaling(v, k):
    setting, flipped = Setting.parse(v)
    scaled, scaled_flipped = Setting.parse([k * x for x in v])
    assert scaled == setting
    assert hash(scaled) == hash(setting)
    assert scaled_flipped == (flipped != (k < 0))


@reproducible
@given(vectors)
def test_parse_reads_a_serialized_setting_back_unchanged(v):
    setting, _ = Setting.parse(v)
    again, flipped = Setting.parse(json.loads(json.dumps(setting.json_entry())), keep_unit=True)
    assert again == setting
    assert again.unit == setting.unit
    assert not flipped
    schedule = Schedule(1, [LocalTerm(1.0, setting, 1.0, 0.0)])
    assert Schedule.from_json(schedule.to_json()).terms[0].setting.unit == setting.unit
    data = CountsDataset(1, (CountRecord(setting, "+", 1),))
    assert CountsDataset.from_ndjson(data.to_ndjson()).records[0].setting.unit == setting.unit


def _flip_entry(entry):
    return [-x for x in entry]


@reproducible
@given(
    st.integers(1, 5),
    vectors,
    st.floats(-3.0, 3.0),
    st.floats(0.1, 2.0),
    st.floats(-2.0, 2.0),
)
def test_schedule_json_accepts_either_sign(num_qubits, v, coeff, scale, w):
    # c (s n.sigma + w)^(x)N  ==  (-1)^N c (s (-n).sigma - w)^(x)N
    setting, _ = Setting.parse(v)
    schedule = Schedule(num_qubits, [LocalTerm(coeff, setting, scale, w)])
    payload = json.loads(schedule.to_json())
    for term in payload["terms"]:
        term["n"] = _flip_entry(term["n"])
        term["identity_weight"] = -term["identity_weight"]
        term["coeff"] *= (-1) ** num_qubits
    flipped = Schedule.from_json(json.dumps(payload))
    assert flipped.settings == schedule.settings
    want = schedule.reconstruct().mat
    tol = 1e-12 * max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(flipped.reconstruct().mat - want)) <= tol


@reproducible
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.text(alphabet="+-", min_size=3, max_size=3),
            st.integers(0, 50),
            st.booleans(),
        ),
        min_size=1,
        max_size=20,
    ),
    st.lists(vectors, min_size=4, max_size=4),
)
def test_ndjson_sign_flips_group_identically(rows, pool):
    settings_pool = [Setting.parse(v)[0] for v in pool]
    data = CountsDataset(3, tuple(
        CountRecord(settings_pool[i], outcomes, count) for i, outcomes, count, _ in rows
    ))
    lines = []
    for rec, (_, _, _, flip) in zip(data.records, rows):
        entry = json.loads(rec.json_line())
        if flip:
            entry["setting"] = _flip_entry(entry["setting"])
            entry["outcomes"] = entry["outcomes"].translate(str.maketrans("+-", "-+"))
        lines.append(json.dumps(entry))
    plain = CountsDataset.from_ndjson(data.to_ndjson()).grouped()
    mixed = CountsDataset.from_ndjson("\n".join(lines)).grouped()
    assert [g[0] for g in mixed] == [g[0] for g in plain]
    assert [g[1] for g in mixed] == [g[1] for g in plain]
    assert all(np.array_equal(a[2], b[2]) for a, b in zip(mixed, plain))


@reproducible
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), vectors)
def test_pure_state_and_density_born_probabilities_agree(num_qubits, seed, v):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    state = StateVector(amps / np.linalg.norm(amps))
    setting, _ = Setting.parse(v)
    pure = _born_probabilities(state, setting, num_qubits)
    mixed = _born_probabilities(state.density(), setting, num_qubits)
    assert np.max(np.abs(pure - mixed)) <= 1e-12


@reproducible
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.text(alphabet="+-", min_size=2, max_size=2),
                  st.integers(1, 50)),
        min_size=1,
        max_size=12,
    ),
    st.integers(0, 2**31),
    st.integers(2, 40),
)
def test_bootstrap_error_is_seed_deterministic(rows, seed, samples):
    pool = [Setting.from_ints(v) for v in ((1, 0, 0), (0, 1, 1), (1, 2, 3))]
    data = CountsDataset(2, tuple(CountRecord(pool[i], o, c) for i, o, c in rows))
    schedule = Schedule(2, [LocalTerm(0.2, None, 0.0, 1.0)] + [
        LocalTerm(0.7, s, 1.0, 0.3) for s, _, _ in data.grouped()
    ])
    first = evaluate_counts(schedule, data, bootstrap_samples=samples, seed=seed)
    again = evaluate_counts(schedule, data, bootstrap_samples=samples, seed=seed)
    assert first.standard_error == again.standard_error
    assert first.to_json() == again.to_json()


@pytest.mark.parametrize("n, m, grid", [(3, 1, [0.0, 1.0, 2.0]), (4, 1, [0.0, 0.5, 1.47, 2.6])])
def test_q_scan_tolerance_is_the_witness_noise_tolerance(n, m, grid):
    noise = NoiseModel.white(n)
    for q, c_q, tolerance in q_scan(n, m, grid).rows:
        witness = wi3_witness(n, m, c_q, q)
        if tolerance == 0.0:  # the witness does not detect its target
            with pytest.raises(ValueError):
                noise_tolerance(witness, noise)
        else:
            assert tolerance == pytest.approx(noise_tolerance(witness, noise), abs=1e-12)


@pytest.mark.parametrize("n, m, axes", [(4, 2, "xy"), (4, 2, "xyz"), (6, 3, "xy")])
def test_fit_reports_the_certificate_slack_of_its_spec(n, m, axes):
    target = dicke(n, m)
    problem = WitnessOptimizationProblem(
        target, NoiseModel.white(n), collective_power_basis(n, tuple(axes))
    )
    spec, report = optimize_witness(problem)
    assert report.min_eig_slack == spec.certificate_slack
    assert report.min_eig_slack >= 0
    projector_part = spec.lambda_sq * np.eye(2**n) - np.outer(target.vec, target.vec.conj())
    direct = np.linalg.eigvalsh(spec.dense.mat - spec.alpha * projector_part)[0]
    assert abs(report.min_eig_slack - direct) < 1e-12
