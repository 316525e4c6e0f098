"""Property tests: canonical setting keys, sign-flip round trips, the
cached polarization rows of the compiler, Born
probabilities, bootstrap determinism, the witness certificate and the PPT
dual bound, the primal-dual engine on a stack of matrix inequalities and
the extrapolated seesaw."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symwit.compiler import (LocalTerm, Schedule, Setting, _canonical_term, compile_operator,
                             pauli_decompose)
from symwit.counts import (CountRecord, CountsDataset, _born_probabilities, _mixture,
                           evaluate_counts)
from symwit.linalg import DenseOperator, StateVector, identity, op_power
from symwit.optimize import (
    PptProblem,
    SolverConfig,
    WitnessOptimizationProblem,
    _Block,
    _batched_pt_front,
    _bipartitions,
    _dual_bound,
    _herm_coords,
    _hermitian_basis,
    _Lmi,
    _ppt_blocks,
    _primal_dual_maximize,
    _scan_blocks,
    _seesaw,
    collective_power_basis,
    max_bisep_seesaw,
    max_ppt,
    optimize_witness,
    q_scan,
)
from symwit.symmetric import collective_j, dicke, symmetrize
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


def _reference_schedule(op: DenseOperator) -> Schedule:
    """The polarization expansion of every Pauli class, one :func:`_canonical_term` per raw term."""
    n = op.num_qubits
    terms = []
    for cls in pauli_decompose(op).classes:
        blocks = cls.blocks(n)
        base = cls.coefficient / (2**n * math.prod(map(math.factorial, blocks)))
        for minus in itertools.product(*(range(k + 1) for k in blocks)):
            weight = (-1) ** sum(minus) * math.prod(map(math.comb, blocks, minus))
            nx, ny, nz, w = (float(k - 2 * a) for k, a in zip(blocks, minus))
            terms.append(_canonical_term(base * weight, (nx, ny, nz), w, n))
    return Schedule(n, terms).merged()


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.integers(2, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_compile_from_cached_rows_is_the_per_term_expansion(n, real, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((2**n, 2**n))
    if not real:
        raw = raw + 1j * rng.standard_normal((2**n, 2**n))
    op = symmetrize(DenseOperator((raw + raw.conj().T) / 2)).hermitized()
    want = _reference_schedule(op).to_json()
    schedule = compile_operator(op)
    assert schedule.to_json() == want
    # the cache holds rows, not terms: a mutated schedule leaves the next compile unchanged
    schedule.terms.reverse()
    schedule.terms[0] = LocalTerm(123.0, Setting.from_ints((1, 2, 3)), 1.0, 0.0)
    assert compile_operator(op).to_json() == want


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
    plain = CountsDataset.from_ndjson(data.to_ndjson()).records
    mixed = CountsDataset.from_ndjson("\n".join(lines)).records
    assert [(r.setting, r.outcomes, r.count) for r in mixed] == [
        (r.setting, r.outcomes, r.count) for r in plain
    ]


@reproducible
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), vectors)
def test_pure_state_and_density_born_probabilities_agree(num_qubits, seed, v):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    state = StateVector(amps / np.linalg.norm(amps))
    setting, _ = Setting.parse(v)
    pure = _born_probabilities(_mixture(state, num_qubits), setting, num_qubits)
    mixed = _born_probabilities(_mixture(state.density(), num_qubits), setting, num_qubits)
    assert np.max(np.abs(pure - mixed)) <= 1e-12


@reproducible
@given(st.integers(2, 6), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2**32 - 1), vectors)
def test_weighted_parts_born_probabilities_match_the_dense_mixture(num_qubits, p, white, seed, v):
    rng = np.random.default_rng(seed)
    dim = 2**num_qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    state = StateVector(amps / np.linalg.norm(amps))
    if white:
        noise = NoiseModel.white(num_qubits)
    else:  # a random full-rank mixed state
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        noise = NoiseModel.custom(DenseOperator(g @ g.conj().T / np.trace(g @ g.conj().T).real))
    setting, _ = Setting.parse(v)
    dense = DenseOperator((1 - p) * state.density().mat + p * noise.rho_noise.mat)
    mixture = _mixture([(1 - p, state), (p, noise)], num_qubits)
    parts = _born_probabilities(mixture, setting, num_qubits)
    whole = _born_probabilities(_mixture(dense, num_qubits), setting, num_qubits)
    assert np.max(np.abs(parts - whole)) <= 1e-15


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
        LocalTerm(0.7, s, 1.0, 0.3) for s, _ in data.weight_counts()
    ])
    first = evaluate_counts(schedule, data, bootstrap_samples=samples, seed=seed)
    again = evaluate_counts(schedule, data, bootstrap_samples=samples, seed=seed)
    assert first.standard_error == again.standard_error
    assert first.to_json() == again.to_json()


@reproducible
@given(
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 63), st.integers(1, 50)),
             min_size=1, max_size=20),
    st.lists(st.tuples(st.integers(0, 2), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                       st.floats(-3.0, 3.0)), min_size=1, max_size=6),
)
def test_estimates_match_the_per_pattern_estimator(num_qubits, rows, terms):
    # terms only on settings that have counts (a setting without counts raises)
    pool = [Setting.from_ints(v) for v in ((1, 0, 0), (0, 1, 1), (1, 2, 3))]
    records = [CountRecord(pool[i], format(bits % 2**num_qubits, f"0{num_qubits}b")
                           .translate(str.maketrans("01", "+-")), count)
               for i, bits, count in rows]
    data = CountsDataset(num_qubits, tuple(records))
    used = sorted({i for i, _, _ in rows})
    terms = [(i, c, s, w) for i, c, s, w in terms if i in used] or [(used[0], 1.0, 1.0, 0.0)]
    schedule = Schedule(num_qubits, [LocalTerm(c, pool[i], s, w) for i, c, s, w in terms])
    result = evaluate_counts(schedule, data, bootstrap_samples=0)

    def oracle(setting, scale, weight):
        mine = [rec for rec in records if rec.setting == setting]
        total = sum(rec.count for rec in mine)
        return sum(rec.count * np.prod([weight + scale * (1 if o == "+" else -1)
                                        for o in rec.outcomes]) for rec in mine) / total

    want_terms = [oracle(pool[i], s, w) for i, _, s, w in terms]
    want = sum(c * m for (_, c, _, _), m in zip(terms, want_terms))
    for est, m in zip(result.per_term, want_terms):
        assert est.mean == pytest.approx(m, rel=1e-12, abs=1e-12 * 6.0**num_qubits)
    size = sum(abs(c) * 6.0**num_qubits for _, c, _, _ in terms)
    assert result.witness_value == pytest.approx(want, rel=1e-12, abs=1e-12 * size)
    assert sum(t.contribution for t in result.per_term) == result.witness_value


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


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.booleans(), st.integers(0, 1), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "central"]), st.floats(-3.0, 3.0), st.floats(1e-3, 10.0))
def test_ppt_dual_bound_is_an_upper_bound(pi, extra, seed, kind, shift, scale):
    # PI objectives at N = 3-4 in spin blocks, others at N = 2-3 in one block;
    # P and Q random (shifted, so indefinite ones are drawn) or each block's
    # own central-path duals mu X^-1, mu (X^T_A)^-1 plus a random part, X
    # from the block's single-block solve (the scan leaves the other blocks zero)
    rng = np.random.default_rng(seed)
    n = (3 if pi else 2) + extra
    if pi:
        terms = [identity(n)] + [op_power(collective_j(n, a), k) for a in "xyz" for k in (1, 2)]
        objective = sum((float(rng.standard_normal()) * t for t in terms[1:]), terms[0] * 0.0)
    else:
        objective = DenseOperator(_random_hermitian(rng, 2**n))
    parts = _bipartitions(n, pi)
    part = parts[int(rng.integers(len(parts)))]
    blocks = [blk for _, _, blk in _scan_blocks(objective.hermitized(), [part], pi)]
    cfg = SolverConfig()
    win, y, _ = _ppt_blocks(blocks, cfg)  # X_win = Y / mult_win, mult_win Tr(M X_win) = Tr(M Y)
    value = float(np.real(np.trace(blocks[win].objective @ y)))
    p_mats, q_mats = [], []
    for b in blocks:
        d = b.dim_a * b.dim_b
        p_b, q_b = (scale * _random_hermitian(rng, d) + shift * np.eye(d) for _ in range(2))
        if kind == "central":
            x = _ppt_blocks([b], cfg)[1] / b.mult
            x_pt = _batched_pt_front(x[None], b.dim_a)[0]
            p_b = cfg.barrier_tol * (np.linalg.inv(x) + p_b)
            q_b = cfg.barrier_tol * (np.linalg.inv(x_pt) + q_b)
        p_mats.append((p_b + p_b.conj().T) / 2)
        q_mats.append((q_b + q_b.conj().T) / 2)
    bound = _dual_bound(blocks, p_mats, q_mats)
    assert bound >= value - 1e-9
    assert bound >= max_bisep_seesaw(objective, part, SolverConfig(seesaw_restarts=5)) - 1e-9


@settings(derandomize=True, deadline=None, max_examples=15)
@given(st.integers(3, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_no_block_beats_the_block_scan_by_more_than_its_gap(n, seed, real):
    # random PI objectives from collective powers, J_y (the imaginary term) optional
    rng = np.random.default_rng(seed)
    terms = [op_power(collective_j(n, a), k) for a in "xyz" for k in (1, 2)
             if not (real and (a, k) == ("y", 1))]
    objective = sum((float(rng.standard_normal()) * t for t in terms), identity(n) * 0.0)
    for part in _bipartitions(n, True):
        result = max_ppt(PptProblem(objective.hermitized(), part))
        assert result.report.dual_residual >= 0.0
        for _, _, block in _scan_blocks(objective.hermitized(), [part], True):
            alone = _ppt_blocks([block], SolverConfig())[2].optimum
            assert alone <= result.value + result.report.dual_residual


def _random_stack(d: int, weights: list[int], real: bool, seed: int):
    """max sum_b w_b Tr(M_b X_b) over sum_b w_b Tr X_b = 1, X_b > 0, in variables y that a
    random rotation spreads over every block, posed as a stack of k d-square blocks and as
    one block-diagonal kd-square block; its value is max_b lambda_max(M_b).

    Returns the objectives M_b, (m, a, y0) and the two LMIs.
    """
    rng = np.random.default_rng(seed)
    k = len(weights)
    basis = _hermitian_basis(d, real).reshape(-1, d * d)
    size = len(basis)
    mix = np.linalg.qr(rng.standard_normal((k * size, k * size)))[0]  # hide the structure
    objectives = [_random_hermitian(rng, d) for _ in weights]
    objectives = [m.real if real else m for m in objectives]
    m_x = np.concatenate([w * _herm_coords(m[None])[0] for w, m in zip(weights, objectives)])
    unit = _herm_coords(np.eye(d, dtype=float if real else complex)[None])[0]
    a_x = np.concatenate([w * unit for w in weights])
    x0 = np.tile(unit, k) / (d * sum(weights))
    blocks = np.zeros((k * size, k, d, d), dtype=basis.dtype)
    for b in range(k):
        blocks[b * size:(b + 1) * size, b] = basis.reshape(-1, d, d)
    blocks = np.tensordot(mix.T, blocks, axes=1)  # sum_i y_i blocks[i] = sum_j (mix y)_j F_j
    weight = np.repeat(np.array(weights, dtype=float)[:, None], d, axis=1)
    stacked = _Lmi(weight, blocks.reshape(k * size, -1))
    diagonal = np.zeros((k * size, k * d, k * d), dtype=basis.dtype)
    for b in range(k):
        diagonal[:, b * d:(b + 1) * d, b * d:(b + 1) * d] = blocks[:, b]
    one = _Lmi(weight.reshape(1, -1), diagonal.reshape(k * size, -1))
    return objectives, (mix.T @ m_x, mix.T @ a_x, mix.T @ x0), (stacked, one)


stacks = (st.integers(1, 3), st.lists(st.integers(1, 5), min_size=1, max_size=4),
          st.booleans(), st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(*stacks)
def test_block_diagonal_lmi_matches_separate_lmis(d, weights, real, seed):
    objectives, problem, lmis = _random_stack(d, weights, real, seed)
    cfg = SolverConfig()
    m_vec, a_vec, x0 = problem
    reports = [_primal_dual_maximize(m_vec, a_vec, lmi, x0, cfg)[2] for lmi in lmis]
    assert all(r.converged for r in reports)
    assert abs(reports[0].optimum - reports[1].optimum) <= 1e-9
    # <Z, S>_w is about 1e-9 and read off O(1) iterates: equal to rounding of the objective
    scale = 1.0 + abs(reports[0].optimum)
    assert abs(reports[0].dual_residual - reports[1].dual_residual) <= 1e-12 * scale
    assert reports[0].min_eig_slack == pytest.approx(reports[1].min_eig_slack, rel=1e-6, abs=1e-12)
    want = max(float(np.linalg.eigvalsh(m)[-1]) for m in objectives)
    assert -1e-9 <= want - reports[0].optimum <= reports[0].dual_residual + 1e-9


@settings(derandomize=True, deadline=None, max_examples=40)
@given(*stacks)
def test_dual_iterate_certifies_the_stack_optimum(d, weights, real, seed):
    # the dual iterate Z is PSD, and _dual_bound at its blocks (P_b = Z_b, Q_b = 0: a
    # 1-dimensional factor has no partial transpose) brackets max_b lambda_max(M_b)
    objectives, problem, lmis = _random_stack(d, weights, real, seed)
    want = max(float(np.linalg.eigvalsh(m)[-1]) for m in objectives)
    blocks = [_Block(1, d, w, m) for w, m in zip(weights, objectives)]
    m_vec, a_vec, x0 = problem
    for lmi in lmis:
        _, z, report = _primal_dual_maximize(m_vec, a_vec, lmi, x0, SolverConfig())
        np.linalg.cholesky(z)
        if len(z) == 1:  # one block-diagonal block: cut out its diagonal blocks
            z = np.stack([z[0, b * d:(b + 1) * d, b * d:(b + 1) * d] for b in range(len(weights))])
        bound = _dual_bound(blocks, list(z), list(np.zeros_like(z)))
        slack = 1e-12 * (1.0 + abs(want))  # rounding of the value and of eigvalsh
        assert bound + slack >= want >= report.optimum - slack
        assert bound - report.optimum <= 1e-8 * (1.0 + abs(want))


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.booleans(), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_charge_sector_solve_matches_the_full_basis(pi, extra, seed):
    # J_z-conserving objectives: PI ones from collective terms at N = 3-6, and
    # complex non-PI ones at N = 3-4 whose entries join equal Hamming weights
    rng = np.random.default_rng(seed)
    n = 3 + (extra if pi else extra % 2)
    jz = collective_j(n, "z")
    if pi:
        jxy = op_power(collective_j(n, "x"), 2) + op_power(collective_j(n, "y"), 2)
        terms = [jz, op_power(jz, 2), jxy, op_power(jxy, 2), jz @ jxy + jxy @ jz]
        objective = sum((float(rng.standard_normal()) * t for t in terms), identity(n) * 0.0)
    else:
        weights = np.diag(jz.mat).real
        raw = _random_hermitian(rng, 2**n) * (weights[:, None] == weights[None, :])
        objective = DenseOperator(raw)
    cfg = SolverConfig()
    parts = _bipartitions(n, pi)
    part = parts[int(rng.integers(len(parts)))]
    blocks = [blk for _, _, blk in _scan_blocks(objective.hermitized(), [part], pi)]
    sector = _ppt_blocks(blocks, cfg)[2]
    full = _ppt_blocks([b._replace(charge=None) for b in blocks], cfg)[2]
    assert sector.converged and full.converged
    slack = 1e-12 * (1.0 + abs(full.optimum))
    assert sector.optimum <= full.optimum + full.dual_residual + slack
    assert full.optimum <= sector.optimum + sector.dual_residual + slack
    rho = max_ppt(PptProblem(objective.hermitized(), part)).rho.mat
    assert np.max(np.abs(rho @ jz.mat - jz.mat @ rho)) <= 1e-12


def _plain_seesaw(mat: np.ndarray, dim_a: int, dim_b: int, restarts: int, tol: float,
                  rng: np.random.Generator) -> float:
    """Reference: the seesaw without extrapolation, batched over the restarts."""
    reshuffle = mat.reshape(dim_a, dim_b, dim_a, dim_b).transpose(1, 3, 0, 2)
    reshuffle = reshuffle.reshape(dim_b**2, dim_a**2)
    vec_b = np.empty((restarts, dim_b), dtype=complex)
    for r in range(restarts):
        vec_b[r] = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
        vec_b[r] /= np.linalg.norm(vec_b[r])
    values = np.full(restarts, -np.inf)
    active = np.arange(restarts)
    for _ in range(2000):
        if not active.size:
            break
        vb = vec_b[active]
        outer_b = (vb.conj()[:, :, None] * vb[:, None, :]).reshape(-1, dim_b**2)
        vec_a = np.linalg.eigh((outer_b @ reshuffle).reshape(-1, dim_a, dim_a))[1][:, :, -1]
        outer_a = (vec_a.conj()[:, :, None] * vec_a[:, None, :]).reshape(-1, dim_a**2)
        vals, vecs = np.linalg.eigh((outer_a @ reshuffle.T).reshape(-1, dim_b, dim_b))
        vec_b[active] = vecs[:, :, -1]
        new, old = vals[:, -1], values[active]
        done = new - old <= tol
        values[active] = np.where(done, np.maximum(old, new), new)
        active = active[~done]
    return float(np.max(values))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(2, 4), st.integers(2, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_extrapolated_seesaw_is_never_below_the_plain_one(dim_a, dim_b, real, seed):
    # an extrapolated sweep is kept only when it raises the value, so from the same
    # starts the seesaw ends no lower than the plain alternating updates
    rng = np.random.default_rng(seed)
    mat = _random_hermitian(rng, dim_a * dim_b)
    mat = mat.real if real else mat
    got = _seesaw(mat, dim_a, dim_b, 10, 1e-12, np.random.default_rng(seed))
    plain = _plain_seesaw(mat, dim_a, dim_b, 10, 1e-12, np.random.default_rng(seed))
    assert got >= plain - 1e-12 * (1 + abs(plain))
