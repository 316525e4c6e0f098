"""Measurement-count simulation and witness evaluation from counts.

Count data is newline-delimited JSON (NDJSON), one line per observed outcome
pattern::

    {"setting": [0, 1, 1], "outcomes": "++-+-+", "count": 17}

``setting`` is the measurement direction n shared by all qubits (each qubit
measures n . sigma); ``outcomes`` holds one character per qubit, first
character = qubit 1, with ``+`` marking the +1 eigenvalue along the canonical
direction (gcd-reduced, first nonzero component positive); ``count`` is the
number of shots that produced the pattern.  Directions supplied with the
opposite sign are canonicalized on load and the outcome characters flipped,
so files may use either sign convention.  Records are grouped by setting
equality (the canonical key of :class:`~symwit.compiler.Setting`), so every
spelling of one direction lands in the same group.

A schedule term ``coefficient * (scale * (n . sigma) + w * 1)^{(x) N}`` has
the unbiased single-shot estimator ``coefficient * prod_k (w + scale * o_k)``
with ``o_k = +-1`` the outcome of qubit ``k``; statistical errors come from a
per-setting multinomial bootstrap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .compiler import LocalTerm, Schedule, Setting, _json_int, compile_operator
from .linalg import DenseOperator, StateVector, _SIGMA, _kron_all
from .witnesses import WitnessSpec, fidelity_bound

__all__ = [
    "CountRecord",
    "CountsDataset",
    "TermEstimate",
    "EvaluationResult",
    "simulate_counts",
    "evaluate_counts",
    "evaluate_witness_counts",
]


@dataclass(frozen=True)
class CountRecord:
    """One NDJSON line: a setting, an outcome pattern, and its multiplicity."""

    setting: Setting
    outcomes: str
    count: int

    def __post_init__(self) -> None:
        if not self.outcomes or any(ch not in "+-" for ch in self.outcomes):
            raise ValueError(f"outcomes must be a nonempty +/- string, got {self.outcomes!r}")
        if self.count < 0:
            raise ValueError("count must be nonnegative")

    def json_line(self) -> str:
        return json.dumps(
            {
                "setting": self.setting.json_entry(),
                "outcomes": self.outcomes,
                "count": int(self.count),
            },
            separators=(", ", ": "),
        )


@dataclass(frozen=True)
class CountsDataset:
    """A collection of count records over a fixed qubit number."""

    num_qubits: int
    records: tuple[CountRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        for rec in self.records:
            if len(rec.outcomes) != self.num_qubits:
                raise ValueError(
                    f"outcome string {rec.outcomes!r} does not have {self.num_qubits} characters"
                )

    def grouped(self) -> list[tuple[Setting, list[str], np.ndarray]]:
        """Aggregate records per distinct setting, in first-appearance order.

        Returns ``(setting, outcome_patterns, counts)`` triples with duplicate
        patterns merged; the order defines the bootstrap task index.
        """
        groups: dict[Setting, dict[str, int]] = {}
        for rec in self.records:
            table = groups.setdefault(rec.setting, {})
            table[rec.outcomes] = table.get(rec.outcomes, 0) + rec.count
        return [
            (setting, list(table.keys()), np.array(list(table.values()), dtype=np.int64))
            for setting, table in groups.items()
        ]

    def total_shots(self) -> int:
        return int(sum(rec.count for rec in self.records))

    # -- NDJSON ----------------------------------------------------------
    def to_ndjson(self) -> str:
        return "".join(rec.json_line() + "\n" for rec in self.records)

    @classmethod
    def from_ndjson(cls, text: str) -> "CountsDataset":
        records = []
        num_qubits = None
        parsed = {}  # raw direction -> (setting, flipped); a file has few distinct ones
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                raw = json.dumps(entry["setting"])
                if raw not in parsed:
                    parsed[raw] = Setting.parse(entry["setting"], keep_unit=True)
                setting, flipped = parsed[raw]
                outcomes = str(entry["outcomes"])
                count = _json_int(entry["count"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed counts record on line {lineno}: {exc}") from None
            if setting is None:
                raise ValueError(f"setting on line {lineno} must be nonzero")
            # canonicalization may flip the direction; flip outcomes to match
            if flipped:
                outcomes = outcomes.translate(str.maketrans("+-", "-+"))
            if num_qubits is None:
                num_qubits = len(outcomes)
            records.append(CountRecord(setting, outcomes, count))
        if num_qubits is None:
            raise ValueError("counts data contains no records")
        return cls(num_qubits, tuple(records))


@dataclass(frozen=True)
class TermEstimate:
    """Estimated contribution of one schedule term to the total."""

    setting: tuple | None
    scale: float
    identity_weight: float
    coefficient: float
    mean: float
    contribution: float

    def to_json(self) -> dict:
        return {
            "setting": list(self.setting) if self.setting is not None else None,
            "scale": self.scale,
            "identity_weight": self.identity_weight,
            "coefficient": self.coefficient,
            "mean": self.mean,
            "contribution": self.contribution,
        }


@dataclass(frozen=True)
class EvaluationResult:
    """Witness value estimated from counts, with bootstrap errors.

    ``per_term`` sums exactly to ``witness_value``; the fidelity fields are
    filled only when the evaluated object carries a positivity certificate
    (``alpha`` and ``lambda_sq``).
    """

    witness_value: float
    standard_error: float
    fidelity_bound: float | None
    fidelity_bound_error: float | None
    per_term: tuple[TermEstimate, ...]

    def to_json(self) -> dict:
        return {
            "witness_value": self.witness_value,
            "standard_error": self.standard_error,
            "fidelity_bound": self.fidelity_bound,
            "fidelity_bound_error": self.fidelity_bound_error,
            "per_term": [t.to_json() for t in self.per_term],
        }


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _measurement_frame(setting: Setting) -> np.ndarray:
    """Columns: the +1 and -1 eigenvectors of ``n . sigma`` for the unit n."""
    ux, uy, uz = setting.unit
    mat = ux * _SIGMA["x"] + uy * _SIGMA["y"] + uz * _SIGMA["z"]
    vals, vecs = np.linalg.eigh(mat)  # ascending: -1 then +1
    return vecs[:, ::-1]


def _rotate(out: np.ndarray, frame_dag: np.ndarray, num_qubits: int) -> np.ndarray:
    """``frame_dag^{(x)N}`` applied to the leading 2^N axis, one qubit at a time."""
    shape = out.shape
    for k in range(num_qubits):
        out = np.matmul(frame_dag, out.reshape(2**k, 2, -1))
    return out.reshape(shape)


def _born_probabilities(
    state: StateVector | DenseOperator, setting: Setting, num_qubits: int
) -> np.ndarray:
    """Outcome distribution ``|U^dag psi|^2`` or ``diag(U^dag rho U)``, ``U = frame^{(x)N}``."""
    frame_dag = _measurement_frame(setting).conj().T
    if isinstance(state, StateVector):
        probs = np.abs(_rotate(state.vec, frame_dag, num_qubits)) ** 2
    else:
        # U^dag rho U is U^dag applied to the rows of (U^dag rho)^dag = rho U
        half = _rotate(state.mat, frame_dag, num_qubits)
        probs = np.real(np.diagonal(_rotate(half.conj().T, frame_dag, num_qubits)))
    probs = np.clip(probs, 0.0, None)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"outcome probabilities sum to {total}, not 1")
    return probs / total


def _outcome_string(index: int, num_qubits: int) -> str:
    return "".join(
        "+" if (index >> (num_qubits - 1 - k)) & 1 == 0 else "-"
        for k in range(num_qubits)
    )


def simulate_counts(
    state: StateVector | DenseOperator,
    schedule: Schedule,
    shots_per_setting: int,
    seed: int = 0,
) -> CountsDataset:
    """Sample measurement counts for every setting of a schedule.

    Each distinct setting is one task; task ``i`` draws ``shots_per_setting``
    multinomial samples from the Born distribution using an independent
    generator seeded with ``seed + i``, so tasks may be reproduced in
    isolation.
    """
    n = schedule.num_qubits
    if state.num_qubits != n:
        raise ValueError("state dimension does not match the schedule")
    if isinstance(state, DenseOperator):
        if not state.is_hermitian(1e-10) or abs(state.trace() - 1.0) > 1e-9:
            raise ValueError("density matrix input must be Hermitian with unit trace")
    if shots_per_setting <= 0:
        raise ValueError("shots_per_setting must be positive")
    records = []
    for index, setting in enumerate(schedule.settings):
        probs = _born_probabilities(state, setting, n)
        rng = np.random.default_rng(seed + index)
        draws = rng.multinomial(shots_per_setting, probs)
        for basis_index in np.nonzero(draws)[0]:
            records.append(
                CountRecord(setting, _outcome_string(int(basis_index), n), int(draws[basis_index]))
            )
    return CountsDataset(n, tuple(records))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _term_factors(term: LocalTerm, patterns: list[str]) -> np.ndarray:
    """Per-pattern estimator ``prod_k (w + scale * o_k)`` for one term."""
    w = float(term.identity_weight)
    s = float(term.scale)
    out = np.empty(len(patterns))
    for i, pattern in enumerate(patterns):
        plus = pattern.count("+")
        out[i] = (w + s) ** plus * (w - s) ** (len(pattern) - plus)
    return out


def evaluate_counts(
    schedule: Schedule,
    dataset: CountsDataset,
    bootstrap_samples: int = 1000,
    seed: int = 0,
) -> EvaluationResult:
    """Estimate the schedule's observable from counts, with bootstrap errors.

    Every term is averaged against the empirical outcome distribution of its
    setting (exactly linear in the term coefficients); missing settings raise
    a :class:`ValueError`.  The standard error is the standard deviation over
    ``bootstrap_samples`` multinomial resamples, drawn per setting from a
    generator seeded with ``seed`` plus the setting's position in the data.
    """
    if dataset.num_qubits != schedule.num_qubits:
        raise ValueError("dataset and schedule disagree on the qubit number")
    groups = dataset.grouped()
    group_index = {setting: gi for gi, (setting, _, _) in enumerate(groups)}
    resamples: dict[int, np.ndarray] = {}

    boot = np.zeros(max(bootstrap_samples, 1))
    per_term = []
    value = 0.0
    for term in schedule.terms:
        coeff = float(term.coefficient)
        if term.setting is None:
            mean = float(term.identity_weight) ** schedule.num_qubits
            contribution = coeff * mean
            boot += contribution
            per_term.append(
                TermEstimate(None, term.scale, term.identity_weight, coeff, mean, contribution)
            )
        else:
            gi = group_index.get(term.setting)
            if gi is None:
                raise ValueError(f"no counts found for setting {term.setting!r}")
            _, patterns, counts = groups[gi]
            total = int(counts.sum())
            if total == 0:
                raise ValueError(f"setting {term.setting!r} has zero total shots")
            factors = _term_factors(term, patterns)
            mean = float(factors @ counts) / total
            contribution = coeff * mean
            if bootstrap_samples > 0:
                if gi not in resamples:  # one resample per setting, drawn when first used
                    rng = np.random.default_rng(seed + gi)
                    resamples[gi] = rng.multinomial(total, counts / total, size=bootstrap_samples)
                boot += coeff * (resamples[gi] @ factors) / total
            per_term.append(
                TermEstimate(
                    tuple(term.setting.json_entry()),
                    term.scale,
                    term.identity_weight,
                    coeff,
                    mean,
                    contribution,
                )
            )
        value += contribution
    error = float(np.std(boot, ddof=1)) if bootstrap_samples > 1 else 0.0
    return EvaluationResult(
        witness_value=value,
        standard_error=error,
        fidelity_bound=None,
        fidelity_bound_error=None,
        per_term=tuple(per_term),
    )


def evaluate_witness_counts(
    witness: WitnessSpec,
    dataset: CountsDataset,
    schedule: Schedule | None = None,
    bootstrap_samples: int = 1000,
    seed: int = 0,
) -> EvaluationResult:
    """Evaluate a witness from counts and attach its fidelity bound.

    The witness is compiled into a measurement schedule unless one is given
    (pass the schedule used to take the data to keep term bookkeeping
    identical); a given schedule must realize the witness, else
    :class:`ValueError`.  The fidelity bound of :func:`fidelity_bound` and its
    propagated error are filled when the witness carries a certificate.
    """
    if schedule is None:
        schedule = compile_operator(witness.dense)
    else:
        _check_realizes(schedule, witness.dense)
    base = evaluate_counts(schedule, dataset, bootstrap_samples=bootstrap_samples, seed=seed)
    if witness.alpha is None:
        return base
    return EvaluationResult(
        witness_value=base.witness_value,
        standard_error=base.standard_error,
        fidelity_bound=fidelity_bound(witness, base.witness_value),
        fidelity_bound_error=base.standard_error / float(witness.alpha),
        per_term=base.per_term,
    )


def _check_realizes(schedule: Schedule, operator: DenseOperator) -> None:
    """Raise :class:`ValueError` unless ``schedule`` realizes ``operator`` to 1e-8.

    Compares values on 4 random product states from a fixed seed, in time
    linear in the terms: a Hermitian operator that vanishes on every product
    state is zero, so a schedule for another operator shows on random ones.
    """
    n = schedule.num_qubits
    if n != operator.num_qubits:
        raise ValueError(f"schedule has {n} qubits, the witness {operator.num_qubits}")
    rng = np.random.default_rng(0)
    qubits = rng.standard_normal((4, n, 2)) + 1j * rng.standard_normal((4, n, 2))
    qubits /= np.linalg.norm(qubits, axis=2, keepdims=True)
    states = np.stack([_kron_all(factors) for factors in qubits], axis=1)
    want = np.real(np.sum(states.conj() * (operator.mat @ states), axis=0))
    factors = np.array([term.local_matrix() for term in schedule.terms]).reshape(-1, 2, 2)
    values = np.einsum("sni,tij,snj->tsn", qubits.conj(), factors, qubits).prod(axis=2)
    got = np.array([float(term.coefficient) for term in schedule.terms]) @ np.real(values)
    error = float(np.max(np.abs(got - want)))
    if error > 1e-8 * max(1.0, float(np.max(np.abs(want)))):
        raise ValueError(f"the schedule does not realize the witness (error {error:.3e})")
