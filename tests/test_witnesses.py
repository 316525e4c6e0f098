"""Witness catalog, noise tolerances and fidelity machinery."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symwit.linalg import (DenseOperator, StateVector, identity, kron_power, op_power, pauli,
                           schmidt_max_sq)
from symwit.symmetric import collective_j, collective_power, dicke, spin_blocks, symmetrize
from symwit.witnesses import (
    CATALOG_NAMES,
    BasisTerm,
    NoiseModel,
    WitnessSpec,
    _block_expectation,
    _witness_value,
    catalog,
    expectation,
    fidelity_bound,
    fidelity_curves,
    noise_tolerance,
    nonwhite_noise_state,
    projector_witness,
    wi2_witness,
    wi3_witness,
)


def dense_term(term: BasisTerm, n: int, target: StateVector) -> np.ndarray:
    """A basis term as a dense 2^n operator, built from the dense constructors."""
    if term.kind == "identity":
        return identity(n).mat
    if term.kind == "projector":
        return target.density().mat
    if term.kind == "tensor":
        return kron_power(pauli(term.axis) + term.shift * identity(1), n).mat
    if term.shift == 0.0:
        return collective_power(n, term.axis, term.power).mat
    return op_power(collective_j(n, term.axis) + term.shift * identity(n), term.power).mat


def dense_witness(w: WitnessSpec) -> np.ndarray:
    return sum(float(c) * dense_term(t, w.num_qubits, w.target)
               for c, t in zip(w.coefficients, w.basis))


def assert_blocks_compress(dense: np.ndarray, block_of) -> None:
    """``block_of(j)`` equals ``V_c^T dense V_c`` on every copy ``c`` of every spin ``j``."""
    n = int(math.log2(len(dense)))
    atol = 1e-12 * max(1.0, float(np.max(np.abs(dense))))
    for b in spin_blocks(n):
        want = block_of(b.j)
        for c in range(b.multiplicity):
            v = b.isometry[:, c, :]
            assert np.max(np.abs(v.T @ dense @ v - want), initial=0.0) <= atol, (n, b.j, c)


def test_projector_witness_basics():
    target = dicke(6, 3)
    w = projector_witness(target, "proj")
    assert abs(w.lambda_sq - 0.6) < 1e-12
    assert abs(w.lambda_sq - schmidt_max_sq(target)) < 1e-12
    assert abs(expectation(w, target.density()) - (0.6 - 1.0)) < 1e-12
    assert w.alpha == 1.0
    # lambda^2 * 1 - |t><t| >= 0 always holds with alpha = 1
    slack = np.linalg.eigvalsh(w.dense.mat - 1.0 * w.dense.mat)[0]
    assert slack >= -1e-12


def test_catalog_names_resolve():
    for name in CATALOG_NAMES:
        w = catalog(name)
        assert w.name == name
        assert w.dense.is_hermitian(1e-10)
    assert catalog("wp_d63").name == "WP_D63"
    with pytest.raises(ValueError):
        catalog("NOPE")


def test_witness_json_round_trip():
    for name in ("WP_D63", "WP2_D63", "WP3_D42", "WI2_D63", "WI3_D41"):
        w = catalog(name)
        back = WitnessSpec.from_json(w.to_json())
        assert back.name == w.name
        assert np.max(np.abs(back.dense.mat - w.dense.mat)) < 1e-12
        assert back.alpha == w.alpha
        assert back.to_json() == w.to_json()


def test_lmi_certificate_validated_on_construction():
    target = dicke(4, 2)
    basis = (BasisTerm("identity"), BasisTerm("projector"))
    # too large an alpha has no valid certificate
    with pytest.raises(ValueError):
        WitnessSpec(
            name="bad",
            num_qubits=4,
            basis=basis,
            coefficients=(0.1, -1.0),
            target=target,
            alpha=5.0,
            lambda_sq=2 / 3,
        )


def test_noise_tolerance_is_scale_invariant_and_pi_stable():
    noise = NoiseModel.white(6)
    for name in ("WP_D63", "WP2_D63", "WP3_D63", "WI2_D63"):
        w = catalog(name)
        base = noise_tolerance(w, noise)
        # witnesses here are PI: symmetrizing the matrix must not change anything
        sym = symmetrize(w.dense)
        rho_t = w.target.density()
        value = float(np.real((sym @ rho_t).trace()))
        value_noise = float(np.real(sym.trace())) / sym.dim
        direct = value / (value - value_noise)
        assert abs(direct - base) < 1e-10


def test_noise_tolerance_requires_detection():
    w = catalog("WP_D63")
    noise = NoiseModel.white(6)
    with pytest.raises(ValueError):
        noise_tolerance(w, noise, rho=noise.rho_noise)  # <W> >= 0 there


def test_nonwhite_noise_state():
    for p in (0.0, 0.3, 4 / 7, 1.0):
        rho = nonwhite_noise_state(p)
        assert abs(rho.trace() - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho.mat)[0] > -1e-12
        fid = float(np.real(dicke(6, 3).density().expectation(rho)))
        assert abs(fid - p) < 1e-12
    with pytest.raises(ValueError):
        nonwhite_noise_state(1.5)


def test_fidelity_bound_never_exceeds_true_fidelity():
    rng = np.random.default_rng(31)
    names = ("WP_D63", "WP2_D63", "WP3_D63", "WP3_D42", "WP_D42")
    for name in names:
        w = catalog(name)
        dim = w.dense.dim
        rho_t = w.target.density().mat
        for _ in range(20):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            sigma = raw @ raw.conj().T
            sigma /= np.trace(sigma).real
            p = rng.uniform(0.0, 1.0)
            rho = DenseOperator((1 - p) * rho_t + p * sigma)
            value = expectation(w, rho)
            bound = fidelity_bound(w, value)
            true_fid = float(np.real(w.target.density().expectation(rho)))
            assert bound <= true_fid + 1e-9


def test_wi2_family_uniformity():
    # the D(5,2)-anchored witness must not distinguish members of the
    # two-dimensional symmetric family spanned by D(5,2) and D(5,3)
    w = catalog("WI2_D5")
    d52 = dicke(5, 2).vec
    d53 = dicke(5, 3).vec
    rng = np.random.default_rng(32)
    base = None
    for _ in range(10):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c /= np.linalg.norm(c)
        psi = c[0] * d52 + c[1] * d53
        value = float(np.real(np.vdot(psi, w.dense.mat @ psi)))
        if base is None:
            base = value
        assert abs(value - base) < 1e-10


def test_wi3_witness_structure():
    w = wi3_witness(4, 1, c=4.1234, q=1.47, name="check")
    target = dicke(4, 1)
    # <W> at the target: c - <Jx^2+Jy^2> since the penalty vanishes there
    from symwit.linalg import op_power
    from symwit.symmetric import collective_j

    jxy = op_power(collective_j(4, "x"), 2) + op_power(collective_j(4, "y"), 2)
    want = 4.1234 - float(np.real(jxy.expectation(target)))
    assert abs(expectation(w, target.density()) - want) < 1e-10


def test_wi2_witness_matches_catalog():
    w = wi2_witness(6, c=11.0179, name="WI2_D63")
    assert np.max(np.abs(w.dense.mat - catalog("WI2_D63").dense.mat)) < 1e-12


def test_fidelity_curves_affine_structure():
    w = catalog("WP3_D63")
    noise = NoiseModel.white(6)
    grid = np.linspace(0.0, 1.0, 11)
    rows = fidelity_curves(w, noise, grid)
    assert rows.shape == (11, 3)
    assert abs(rows[0, 1] - 1.0) < 1e-12
    assert abs(rows[0, 2] - 1.0) < 1e-12
    for col in (1, 2):
        slopes = np.diff(rows[:, col]) / np.diff(rows[:, 0])
        assert np.max(np.abs(slopes - slopes[0])) < 1e-9
    assert np.all(rows[:, 2] <= rows[:, 1] + 1e-12)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel.custom(DenseOperator(np.eye(4)))  # trace 4, not a state
    white = NoiseModel.white(3)
    assert abs(white.rho_noise.trace() - 1.0) < 1e-12
    # white noise is read as 1/2^N on every spin block, so no other state may carry the kind
    with pytest.raises(ValueError, match="maximally mixed"):
        NoiseModel("white", dicke(3, 1).density())
    NoiseModel("custom", DenseOperator(np.eye(8) / 8))


@pytest.mark.parametrize("min_eig, accepted", [(-2e-10, False), (-5e-11, True)])
def test_noise_model_positivity_boundary(min_eig, accepted):
    # the positivity check refuses a noise state below min-eig -1e-10, in any basis
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((8, 8)) + 0j)
    vals = np.array([0.5 - min_eig, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0, min_eig])
    rho = DenseOperator((q * vals) @ q.conj().T).hermitized()
    if accepted:
        NoiseModel.custom(rho)
    else:
        with pytest.raises(ValueError, match="positive semidefinite"):
            NoiseModel.custom(rho)


def test_expectation_rejects_unnormalized():
    w = catalog("WP_D41")
    with pytest.raises(ValueError):
        expectation(w, DenseOperator(np.eye(16)))


def test_wp3_d84_has_no_alpha_certificate():
    from symwit.witnesses import _largest_valid_alpha

    spec = catalog("WP3_D84")
    assert spec.alpha is None
    wp = spec._projector_witness_blocks(schmidt_max_sq(spec.target))
    assert _largest_valid_alpha([w for _, w in spec.blocks], wp) is None


def test_derived_alpha_is_certified_with_no_slack():
    spec = catalog("WP3_D105")
    assert spec.alpha_source == "derived"
    assert spec.certificate_slack >= 0


def _random_dicke_witnesses(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 8))
        basis = (BasisTerm("identity"), BasisTerm("projector"), BasisTerm("collective", "x", 2),
                 BasisTerm("collective", "z", 2, shift=float(rng.normal())))
        yield WitnessSpec("random", n, basis, tuple(rng.normal(size=4)),
                          dicke(n, int(rng.integers(1, n))))


def test_derived_alpha_is_tight():
    from symwit.witnesses import _largest_valid_alpha, _slack

    spec = catalog("WP3_D105")
    cases = [([w for _, w in spec.blocks], spec._projector_witness_blocks(spec.lambda_sq),
              spec.alpha)]
    for spec in _random_dicke_witnesses(60, seed=3):
        w_blocks = [w for _, w in spec.blocks]
        wp_blocks = spec._projector_witness_blocks(schmidt_max_sq(spec.target))
        alpha = _largest_valid_alpha(w_blocks, wp_blocks)
        if alpha is not None and alpha < 10.0:
            cases.append((w_blocks, wp_blocks, alpha))
    assert len(cases) > 5
    for w_blocks, wp_blocks, alpha in cases:
        assert _slack(w_blocks, wp_blocks, alpha) >= 0
        assert _slack(w_blocks, wp_blocks, alpha * (1 + 1e-9)) < 0


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_blocks_are_the_compressed_dense_witness(name):
    w = catalog(name)
    amps = spin_blocks(w.num_qubits)[0].isometry[:, 0, :].T @ w.target.vec
    coeffs = [float(c) for c in w.coefficients]
    assert_blocks_compress(dense_witness(w), lambda j: sum(
        c * t.block(w.num_qubits, j, amps) for c, t in zip(coeffs, w.basis)))


def test_random_basis_term_blocks_are_the_compressed_dense_terms():
    rng = np.random.default_rng(33)
    for n in range(1, 7):
        for axis in "xyz":
            shift = float(rng.uniform(-2.0, 2.0))
            terms = [BasisTerm("tensor", axis, n, shift)] + [
                BasisTerm("collective", axis, power, shift) for power in (1, 2, 3)]
            for term in terms:
                assert_blocks_compress(dense_term(term, n, dicke(n, 0)),
                                       lambda j, t=term: t.block(n, j, None))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(2, 5), st.booleans(), st.integers(0, 2**32 - 1))
def test_expectation_on_any_state_is_the_dense_trace(n, symmetric, seed):
    rng = np.random.default_rng(seed)
    dim = 2**n
    if symmetric:
        target = dicke(n, int(rng.integers(0, n + 1)))
    else:  # the witness is then one dense block
        target = StateVector.normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    axes = rng.choice(list("xyz"), 2)
    shifts = rng.uniform(-2.0, 2.0, 2)
    basis = (BasisTerm("identity"), BasisTerm("projector"),
             BasisTerm("collective", axes[0], int(rng.integers(1, 5)), float(shifts[0])),
             BasisTerm("tensor", axes[1], n, float(shifts[1])))
    w = WitnessSpec("random", n, basis, tuple(rng.uniform(-1.0, 1.0, len(basis))), target)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    dense = dense_witness(w)
    want = float(np.real(np.trace(dense @ rho)))
    assert abs(expectation(w, DenseOperator(rho)) - want) <= 1e-10 * max(1.0, np.max(np.abs(dense)))
    assert np.max(np.abs(w.dense.mat - dense)) <= 1e-10 * max(1.0, np.max(np.abs(dense)))


_NONFINITE = [
    ("alpha", math.nan), ("alpha", math.inf), ("lambda_sq", math.nan), ("lambda_sq", -math.inf),
    ("coefficients", math.nan), ("coefficients", math.inf), ("shift", math.nan),
    ("shift", math.inf), ("power", 2.5), ("target", math.nan),
]


@pytest.mark.parametrize("field, value", _NONFINITE)
def test_non_finite_witness_data_is_refused(field, value):
    payload = json.loads(catalog("WP3_D42").to_json())
    if field in ("alpha", "lambda_sq"):
        payload[field] = value
    elif field == "coefficients":
        payload[field][1] = value
    elif field == "target":
        payload[field][0][0] = value
    else:
        payload["basis_terms"][1][field] = value
    with pytest.raises(ValueError):
        WitnessSpec.from_json(json.dumps(payload))


def _block_cases(w: WitnessSpec):
    """The states the block path reads, with their dense density matrices."""
    n = w.num_qubits
    noises = [NoiseModel.white(n)]
    if n == 6:
        noises.append(NoiseModel.custom(nonwhite_noise_state(0.0)))
    return [(w.target, w.target.density().mat)] + [(x, x.rho_noise.mat) for x in noises]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_block_expectation_is_the_dense_trace(name):
    # the pure target enters through its amplitudes and white noise as 1/2^N per block
    w = catalog(name)
    for state, rho in _block_cases(w):
        assert abs(_witness_value(w, state) - float(np.real(np.trace(w.dense.mat @ rho)))) <= 1e-12


def test_block_expectation_on_a_target_outside_the_symmetric_subspace():
    rng = np.random.default_rng(41)
    target = StateVector.normalized(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    basis = (BasisTerm("identity"), BasisTerm("projector"), BasisTerm("collective", "y", 2))
    w = WitnessSpec("asymmetric", 4, basis, (0.4, -1.0, 0.1), target)
    assert len(w.blocks) == 1  # one dense block
    raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    custom = NoiseModel.custom(DenseOperator(raw @ raw.conj().T / np.trace(raw @ raw.conj().T)))
    for state, rho in _block_cases(w) + [(custom, custom.rho_noise.mat)]:
        assert abs(_witness_value(w, state) - float(np.real(np.trace(w.dense.mat @ rho)))) <= 1e-12
    stack = [(iso, np.stack([a, 2 * a])) for iso, a in w.blocks]  # a stack gives one value each
    want = np.array([1, 2]) * _witness_value(w, custom)
    assert np.allclose(_block_expectation(stack, custom), want, atol=1e-12)


def test_noise_tolerance_of_a_dense_rho_is_the_dense_formula():
    w = catalog("WP3_D63")
    noise = NoiseModel.custom(nonwhite_noise_state(0.0))
    rho = 0.9 * w.target.density().mat + 0.1 * NoiseModel.white(6).rho_noise.mat
    value = float(np.real(np.trace(w.dense.mat @ rho)))
    value_noise = float(np.real(np.trace(w.dense.mat @ noise.rho_noise.mat)))
    want = value / (value - value_noise)
    assert abs(noise_tolerance(w, noise, rho=DenseOperator(rho)) - want) <= 1e-12


def test_pi_tolerance_builds_no_dense_state(monkeypatch):
    # the pure target and the white noise are read in the spin blocks, never as 2^N x 2^N states
    import symwit.symmetric
    import symwit.witnesses

    def refuse(*args, **kwargs):
        raise AssertionError("dense state on the PI tolerance path")

    spec = catalog("WP3_D105")
    noise = NoiseModel.white(10)
    monkeypatch.setattr(StateVector, "density", refuse)
    monkeypatch.setattr(symwit.symmetric, "compress", refuse)
    monkeypatch.setattr(symwit.witnesses, "compress", refuse)
    assert round(noise_tolerance(spec, noise), 4) == 0.2404


def test_fit_builds_each_basis_term_block_once(monkeypatch):
    # the problem, the fitted spec's blocks and its certificate share one build per (term, j)
    import symwit.witnesses as witnesses
    from symwit.optimize import (WitnessOptimizationProblem, collective_power_basis,
                                 optimize_witness)

    calls = []
    spin_matrix = witnesses.spin_matrix
    monkeypatch.setattr(witnesses, "spin_matrix",
                        lambda j, axis: calls.append((j, axis)) or spin_matrix(j, axis))
    witnesses._closed_form_block.cache_clear()
    basis = collective_power_basis(6, ("x", "y", "z"))
    problem = WitnessOptimizationProblem(dicke(6, 3), NoiseModel.white(6), basis)
    spec, report = optimize_witness(problem)
    assert report.converged and spec.certificate_slack >= -witnesses.LMI_ATOL
    info = witnesses._closed_form_block.cache_info()
    keys = {(term, b.j) for term in basis for b in spin_blocks(6)}
    assert info.misses == info.currsize == len(keys)
    assert info.hits >= len(keys)
    assert len(calls) == sum(term.kind != "identity" for term, _ in keys)  # no build bypasses the cache


def test_cached_basis_term_blocks_are_read_only():
    term = BasisTerm("collective", "x", 2)
    block = term.block(4, 1.0, None)
    assert block is term.block(4, 1.0, None)
    with pytest.raises(ValueError):
        block[0, 0] = 1.0


def _reference_dense(w: WitnessSpec) -> DenseOperator:
    """The dense witness lifted as ``flat (1 (x) W_j) flat^T`` per spin, then hermitized."""
    total = sum(flat @ np.kron(np.eye(iso.shape[1]), block) @ flat.T
                for iso, block in w.blocks for flat in [iso.reshape(len(iso), -1)])
    return DenseOperator(total).hermitized()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_compiles_to_the_reference_lift_schedule(name):
    from symwit.compiler import compile_operator

    w = catalog(name)
    got, want = (json.loads(compile_operator(op).to_json())
                 for op in (w.dense, _reference_dense(w)))
    assert got["settings"] == want["settings"]
    assert ([(t["n"], t["scale"], t["identity_weight"]) for t in got["terms"]]
            == [(t["n"], t["scale"], t["identity_weight"]) for t in want["terms"]])
    coeffs = np.array([[t["coeff"] for t in s["terms"]] for s in (got, want)])
    assert np.max(np.abs(coeffs[0] - coeffs[1])) <= 1e-14 * max(1.0, np.max(np.abs(coeffs[1])))
