"""Property tests: canonical setting keys and sign-flip round trips."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from symwit.compiler import LocalTerm, Schedule, Setting
from symwit.counts import CountRecord, CountsDataset

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
