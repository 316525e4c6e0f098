"""Count simulation, NDJSON round trips and witness estimation."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from symwit.compiler import LocalTerm, Schedule, Setting, compile_operator
from symwit.counts import (
    CountRecord,
    CountsDataset,
    _born_probabilities,
    _mixture,
    evaluate_counts,
    evaluate_witness_counts,
    simulate_counts,
)
from symwit.linalg import DenseOperator, StateVector, op_power
from symwit.symmetric import collective_j, dicke
from symwit.witnesses import NoiseModel, catalog, nonwhite_noise_state


def single_term_schedule(num_qubits: int, n_ints, coeff=1.0, scale=1.0, w=0.0) -> Schedule:
    return Schedule(num_qubits, [LocalTerm(coeff, Setting.from_ints(n_ints), scale, w)])


def test_simulate_z_basis_is_deterministic_for_basis_states():
    # |01> measured along z gives the pattern "+-" every shot
    state = StateVector(np.array([0.0, 1.0, 0.0, 0.0]))  # |01>, qubit 1 = MSB
    schedule = single_term_schedule(2, (0, 0, 1))
    data = simulate_counts(state, schedule, shots_per_setting=100, seed=0)
    assert len(data.records) == 1
    assert data.records[0].outcomes == "+-"
    assert data.records[0].count == 100


def test_simulate_x_basis_on_bell_state():
    # |Phi+> is a +1 eigenstate of XX: the two outcomes always agree
    bell = StateVector(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    schedule = single_term_schedule(2, (1, 0, 0))
    data = simulate_counts(bell, schedule, shots_per_setting=2000, seed=1)
    assert {rec.outcomes for rec in data.records} == {"++", "--"}
    result = evaluate_counts(schedule, data, bootstrap_samples=50, seed=1)
    assert abs(result.witness_value - 1.0) < 1e-12  # exactly 1 shot by shot


def test_estimator_matches_dense_oracle_within_errors():
    target = dicke(4, 2)
    op = op_power(collective_j(4, "x"), 2)
    schedule = compile_operator(op)
    oracle = float(np.real(op.expectation(target)))
    data = simulate_counts(target, schedule, shots_per_setting=50_000, seed=7)
    result = evaluate_counts(schedule, data, seed=7)
    assert abs(result.witness_value - oracle) < 4 * result.standard_error
    assert result.standard_error < 0.05


def test_estimator_is_exactly_linear_in_coefficients():
    target = dicke(4, 2)
    op = op_power(collective_j(4, "x"), 2)
    schedule = compile_operator(op)
    scaled = Schedule(4, [
        LocalTerm(3.0 * float(t.coefficient), t.setting, t.scale, t.identity_weight)
        for t in schedule.terms
    ])
    data = simulate_counts(target, schedule, shots_per_setting=2_000, seed=3)
    a = evaluate_counts(schedule, data, bootstrap_samples=0)
    b = evaluate_counts(scaled, data, bootstrap_samples=0)
    assert b.witness_value == pytest.approx(3.0 * a.witness_value, abs=1e-12)


def test_per_term_breakdown_sums_exactly():
    w = catalog("WP3_D63")
    schedule = compile_operator(w.dense).merged()
    data = simulate_counts(dicke(6, 3), schedule, shots_per_setting=5_000, seed=5)
    result = evaluate_counts(schedule, data, seed=5)
    total = sum(t.contribution for t in result.per_term)
    assert total == result.witness_value


def test_bootstrap_is_seed_deterministic():
    w = catalog("WP_D42")
    schedule = compile_operator(w.dense).merged()
    data = simulate_counts(dicke(4, 2), schedule, shots_per_setting=2_000, seed=9)
    r1 = evaluate_counts(schedule, data, seed=123)
    r2 = evaluate_counts(schedule, data, seed=123)
    r3 = evaluate_counts(schedule, data, seed=124)
    assert r1.standard_error == r2.standard_error
    assert r1.standard_error != r3.standard_error
    assert r1.witness_value == r3.witness_value  # value has no randomness


def test_bootstrap_error_matches_the_ideal_bootstrap():
    # resampling each setting's + count histogram: the ideal bootstrap variance is
    # sum_g Var_g(F) / T_g, F_h the setting's summed per-shot estimator at h pluses
    w = catalog("WP_D42")
    schedule = compile_operator(w.dense).merged()
    rho = DenseOperator(0.8 * dicke(4, 2).density().mat + 0.2 * np.eye(16) / 16)
    data = simulate_counts(rho, schedule, shots_per_setting=500, seed=29)
    result = evaluate_counts(schedule, data, bootstrap_samples=20_000, seed=31)
    plus = np.arange(5)
    variance = 0.0
    for setting, hist in data.weight_counts():
        estimator = sum(
            float(t.coefficient) * (float(t.identity_weight) + float(t.scale)) ** plus
            * (float(t.identity_weight) - float(t.scale)) ** (4 - plus)
            for t in schedule.terms if t.setting == setting
        )
        total = hist.sum()
        q = hist / total
        variance += (q @ estimator**2 - (q @ estimator) ** 2) / total
    assert result.standard_error == pytest.approx(np.sqrt(variance), rel=0.05)


def test_seeded_counts_ignore_last_bit_probabilities():
    # a Born probability of 1e-30 where the exact one is 0 leaves every draw as it was
    rho = np.array(dicke(4, 2).density().mat)
    nudged = rho.copy()
    nudged[0, 0] += 1e-30
    schedule = single_term_schedule(4, (0, 0, 1))
    texts = [simulate_counts(DenseOperator(m), schedule, 1000, seed=3).to_ndjson()
             for m in (rho, nudged)]
    assert texts[0] == texts[1]


def test_ndjson_round_trip_is_byte_stable():
    schedule = compile_operator(catalog("WP_D42").dense).merged()
    data = simulate_counts(dicke(4, 2), schedule, shots_per_setting=500, seed=2)
    text = data.to_ndjson()
    back = CountsDataset.from_ndjson(text)
    assert back.to_ndjson() == text
    assert back.num_qubits == 4


def test_ndjson_sign_convention_flip():
    line = '{"setting": [0, 0, 1], "outcomes": "+-", "count": 5}'
    flipped = '{"setting": [0, 0, -1], "outcomes": "-+", "count": 5}'
    a = CountsDataset.from_ndjson(line)
    b = CountsDataset.from_ndjson(flipped)
    assert a.records[0].outcomes == b.records[0].outcomes == "+-"
    assert a.records[0].setting == b.records[0].setting


def test_ndjson_rejects_malformed_lines():
    with pytest.raises(ValueError):
        CountsDataset.from_ndjson('{"setting": [0, 0], "outcomes": "++", "count": 1}')
    with pytest.raises(ValueError):
        CountsDataset.from_ndjson('{"outcomes": "++", "count": 1}')
    with pytest.raises(ValueError):
        CountsDataset.from_ndjson("")
    for count in ("1e400", "2.7", "true"):
        with pytest.raises(ValueError):
            CountsDataset.from_ndjson('{"setting": [0, 0, 1], "outcomes": "++", "count": %s}'
                                      % count)
    with pytest.raises(ValueError):
        CountRecord(Setting.from_ints((0, 0, 1)), "+0-", 1)


@pytest.mark.parametrize("bad, message", [
    ('"outcomes": "+0", "count": 1', "outcomes must be a nonempty +/- string, got '+0'"),
    ('"outcomes": "+", "count": 1', "outcome string '+' does not have 2 characters"),
    ('"outcomes": "++", "count": -1', "count must be nonnegative"),
])
def test_ndjson_names_the_line_of_a_bad_row(bad, message):
    text = ('{"setting": [0, 0, 1], "outcomes": "+-", "count": 5}\n'
            '{"setting": [1, 0, 0], %s}\n' % bad)
    with pytest.raises(ValueError) as info:
        CountsDataset.from_ndjson(text)
    assert str(info.value) == f"malformed counts record on line 2: {message}"


def _records_read_one_by_one(text: str) -> tuple[CountRecord, ...]:
    """The NDJSON records as one validated CountRecord per line."""
    records = []
    for line in text.splitlines():
        entry = json.loads(line)
        setting, flipped = Setting.parse(entry["setting"], keep_unit=True)
        outcomes = entry["outcomes"]
        if flipped:
            outcomes = outcomes.translate(str.maketrans("+-", "-+"))
        records.append(CountRecord(setting, outcomes, entry["count"]))
    return tuple(records)


def test_columnar_dataset_keeps_the_record_surface():
    with pytest.raises(ValueError, match="does not have 3 characters"):
        CountsDataset(3, (CountRecord(Setting.from_ints((0, 0, 1)), "++", 1),))
    schedule = compile_operator(catalog("WP_D42").dense)
    target = dicke(4, 2)
    data = simulate_counts(target, schedule, shots_per_setting=500, seed=4)
    # one record per nonzero draw, drawn as simulate_counts documents
    patterns = ["".join(p) for p in itertools.product("+-", repeat=4)]
    want = []
    for index, setting in enumerate(schedule.settings):
        probs = _born_probabilities(_mixture(target, 4), setting, 4)
        draws = np.random.default_rng(4 + index).multinomial(500, probs)
        want += [CountRecord(setting, patterns[i], int(draws[i])) for i in np.nonzero(draws)[0]]
    assert data.records == tuple(want)
    # a file in the other sign convention on every other line reads as the same records
    lines = data.to_ndjson().splitlines()
    for k in range(0, len(lines), 2):
        entry = json.loads(lines[k])
        entry["setting"] = [-x for x in entry["setting"]]
        entry["outcomes"] = entry["outcomes"].translate(str.maketrans("+-", "-+"))
        lines[k] = json.dumps(entry)
    text = "\n".join(lines)
    parsed = CountsDataset.from_ndjson(text)
    assert parsed.records == _records_read_one_by_one(text) == data.records
    hists = {}
    for rec in data.records:
        hists.setdefault(rec.setting, np.zeros(5, dtype=np.int64))[rec.outcomes.count("+")] += rec.count
    for got in (data.weight_counts(), parsed.weight_counts()):
        assert [s for s, _ in got] == list(hists)
        assert all(np.array_equal(h, hists[s]) for s, h in got)
    assert data.total_shots() == parsed.total_shots() == 500 * schedule.num_settings
    assert type(parsed.total_shots()) is int
    assert parsed == data == CountsDataset(4, data.records)
    assert hash(parsed) == hash(data) and len({parsed, data}) == 1
    assert repr(data) == f"CountsDataset(num_qubits=4, rows={len(data.records)})"
    changed = CountsDataset(4, data.records[:-1] + (CountRecord(
        data.records[-1].setting, data.records[-1].outcomes, data.records[-1].count + 1),))
    assert changed != data and data != data.records


def test_evaluate_requires_matching_settings():
    schedule = single_term_schedule(2, (1, 0, 0))
    data = CountsDataset(2, (CountRecord(Setting.from_ints((0, 0, 1)), "++", 10),))
    with pytest.raises(ValueError):
        evaluate_counts(schedule, data, bootstrap_samples=0)


def test_evaluate_rejects_wrong_width():
    schedule = single_term_schedule(3, (1, 0, 0))
    data = CountsDataset(2, (CountRecord(Setting.from_ints((1, 0, 0)), "++", 10),))
    with pytest.raises(ValueError):
        evaluate_counts(schedule, data, bootstrap_samples=0)


def test_simulate_accepts_density_matrices():
    w = catalog("WP_D42")
    noise = NoiseModel.white(4)
    rho = DenseOperator(0.8 * dicke(4, 2).density().mat + 0.2 * noise.rho_noise.mat)
    schedule = compile_operator(w.dense).merged()
    oracle = float(np.real((w.dense @ rho).trace()))
    data = simulate_counts(rho, schedule, shots_per_setting=50_000, seed=13)
    result = evaluate_counts(schedule, data, seed=13)
    assert abs(result.witness_value - oracle) < 4 * result.standard_error


@pytest.mark.parametrize("name, noise", [
    ("WP3_D42", "white"), ("WP3_D63", "white"), ("WP_D63", "nonwhite"), ("WP3_D84", "white"),
])
@pytest.mark.parametrize("p", [0.0, 0.15])
def test_weighted_parts_sample_as_one_state(name, noise, p):
    w = catalog(name)
    n = w.num_qubits
    model = (NoiseModel.white(n) if noise == "white"
             else NoiseModel.custom(nonwhite_noise_state(0.0)))
    rho = DenseOperator((1 - p) * w.target.density().mat + p * model.rho_noise.mat)
    parts = [(1 - p, w.target), (p, model)]
    schedule = compile_operator(w.dense)
    if noise == "white" and p > 0:
        # a sum of two distributions, within ~1e-16 of the dense one's: a seeded draw may move
        for setting in schedule.settings:
            got = _born_probabilities(_mixture(parts, n), setting, n)
            assert np.max(np.abs(got - _born_probabilities(_mixture(rho, n), setting, n))) <= 1e-15
        return
    # bit for bit by construction: white noise of weight 0 adds exact zeros to the target's
    # distribution, and custom noise takes the target into the same dense sum as rho
    one_state = w.target if noise == "white" else rho
    for seed in (0, 1):
        got = simulate_counts(parts, schedule, 100_000, seed=seed).to_ndjson()
        assert got == simulate_counts(one_state, schedule, 100_000, seed=seed).to_ndjson()


def test_simulate_checks_mixture_weights_and_sizes():
    schedule = single_term_schedule(2, (0, 0, 1))
    bell = StateVector(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    with pytest.raises(ValueError, match="negative"):
        simulate_counts([(1.2, bell), (-0.2, NoiseModel.white(2))], schedule, 10)
    with pytest.raises(ValueError, match="sum to"):
        simulate_counts([(0.5, bell), (0.2, NoiseModel.white(2))], schedule, 10)
    with pytest.raises(ValueError, match="dimension"):
        simulate_counts([(0.5, bell), (0.5, NoiseModel.white(3))], schedule, 10)
    with pytest.raises(ValueError, match="Hermitian"):
        simulate_counts([(0.5, bell), (0.5, DenseOperator(np.eye(4) / 2))], schedule, 10)


def test_witness_wrapper_adds_fidelity_fields():
    w = catalog("WP3_D63")
    schedule = compile_operator(w.dense).merged()
    data = simulate_counts(dicke(6, 3), schedule, shots_per_setting=20_000, seed=17)
    result = evaluate_witness_counts(w, data, schedule=schedule, seed=17)
    want = w.lambda_sq - result.witness_value / w.alpha
    assert result.fidelity_bound == pytest.approx(want, abs=1e-12)
    assert result.fidelity_bound_error == pytest.approx(
        result.standard_error / w.alpha, abs=1e-15
    )
    # a certificate-free witness leaves the fields empty
    w2 = catalog("WI2_D63")
    schedule2 = compile_operator(w2.dense).merged()
    data2 = simulate_counts(dicke(6, 3), schedule2, shots_per_setting=1_000, seed=19)
    result2 = evaluate_witness_counts(w2, data2, schedule=schedule2, seed=19)
    assert result2.fidelity_bound is None
    assert result2.fidelity_bound_error is None


def test_evaluation_result_json():
    w = catalog("WP_D42")
    schedule = compile_operator(w.dense).merged()
    data = simulate_counts(dicke(4, 2), schedule, shots_per_setting=1_000, seed=23)
    result = evaluate_witness_counts(w, data, schedule=schedule, seed=23)
    payload = result.to_json()
    assert payload["witness_value"] == result.witness_value
    assert len(payload["per_term"]) == len(result.per_term)
