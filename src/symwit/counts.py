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
with ``o_k = +-1`` the outcome of qubit ``k``.  It depends only on the number
``h`` of ``+`` outcomes, so evaluation reads each setting's histogram of ``h``
over ``0..N``, and the error bars come from a multinomial bootstrap of that
histogram: a sum of multinomial cells is multinomial, so this has the
distribution of a bootstrap over outcome patterns.
"""

from __future__ import annotations

import itertools
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
        if not self.outcomes or self.outcomes.strip("+-"):
            raise ValueError(f"outcomes must be a nonempty +/- string, got {self.outcomes!r}")
        if self.count < 0:
            raise ValueError("count must be nonnegative")

    def json_line(self) -> str:
        return _json_line(_line_prefix(self.setting), self)


def _line_prefix(setting: Setting) -> str:
    """A record's line up to its outcomes, which need no JSON escaping."""
    entry = json.dumps(setting.json_entry(), separators=(", ", ": "))
    return f'{{"setting": {entry}, "outcomes": "'


def _json_line(prefix: str, rec: CountRecord) -> str:  # prefix: _line_prefix(rec.setting)
    return f'{prefix}{rec.outcomes}", "count": {int(rec.count)}}}'


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

    def weight_counts(self) -> list[tuple[Setting, np.ndarray]]:
        """Shots per distinct setting binned by their number of ``+`` outcomes.

        Returns ``(setting, hist)`` pairs in first-appearance order, where
        ``hist[h]`` (``h = 0..N``) counts the shots with ``h`` pluses; the
        order defines the bootstrap task index.
        """
        hists: dict[Setting, list[int]] = {}
        for rec in self.records:
            hist = hists.setdefault(rec.setting, [0] * (self.num_qubits + 1))
            hist[rec.outcomes.count("+")] += rec.count
        return [(setting, np.array(hist, dtype=np.int64)) for setting, hist in hists.items()]

    def total_shots(self) -> int:
        return int(sum(rec.count for rec in self.records))

    # -- NDJSON ----------------------------------------------------------
    def to_ndjson(self) -> str:
        # one prefix per setting object: equal settings may still print apart (0.0 and -0.0)
        settings = {id(rec.setting): rec.setting for rec in self.records}
        prefixes = {key: _line_prefix(setting) for key, setting in settings.items()}
        return "".join(_json_line(prefixes[id(rec.setting)], rec) + "\n" for rec in self.records)

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
        return {**vars(self), "setting": list(self.setting) if self.setting is not None else None}


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
        return {**vars(self), "per_term": [t.to_json() for t in self.per_term]}


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
    # rotation rounding is ~1e-16: zero it, so that a seeded draw does not hinge on last bits
    probs = np.where(probs < 1e-14, 0.0, probs)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"outcome probabilities sum to {total}, not 1")
    return probs / total


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
    outcomes = tuple(map("".join, itertools.product("+-", repeat=n)))  # "+" for a 0 bit
    for index, setting in enumerate(schedule.settings):
        probs = _born_probabilities(state, setting, n)
        rng = np.random.default_rng(seed + index)
        draws = rng.multinomial(shots_per_setting, probs)
        for basis_index in np.nonzero(draws)[0]:
            records.append(
                CountRecord(setting, outcomes[basis_index], int(draws[basis_index]))
            )
    return CountsDataset(n, tuple(records))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _term_factors(term: LocalTerm, num_qubits: int) -> np.ndarray:
    """Estimator ``prod_k (w + scale * o_k)`` of a shot with ``h`` pluses, for ``h = 0..N``."""
    w = float(term.identity_weight)
    s = float(term.scale)
    plus = np.arange(num_qubits + 1)
    return (w + s) ** plus * (w - s) ** (num_qubits - plus)


def evaluate_counts(
    schedule: Schedule,
    dataset: CountsDataset,
    bootstrap_samples: int = 1000,
    seed: int = 0,
) -> EvaluationResult:
    """Estimate the schedule's observable from counts, with bootstrap errors.

    Every term is averaged against its setting's histogram of ``+`` counts
    (:meth:`CountsDataset.weight_counts`; exactly linear in the term
    coefficients); missing settings raise a :class:`ValueError`.  The standard
    error is the standard deviation over ``bootstrap_samples`` multinomial
    resamples of each histogram (distributed as resamples of the outcome
    patterns), drawn from a generator seeded with ``seed`` plus the setting's
    position in the data.  ``0`` samples give no error bar (0.0); a negative
    count or a single resample, which has no spread, raises :class:`ValueError`.
    """
    if bootstrap_samples < 0 or bootstrap_samples == 1:
        raise ValueError(f"bootstrap_samples must be 0 or at least 2, got {bootstrap_samples}")
    if dataset.num_qubits != schedule.num_qubits:
        raise ValueError("dataset and schedule disagree on the qubit number")
    n = schedule.num_qubits
    groups = dataset.weight_counts()
    group_index = {setting: gi for gi, (setting, _) in enumerate(groups)}
    resamples: dict[int, np.ndarray] = {}

    boot = np.zeros(bootstrap_samples)
    per_term = []
    value = 0.0
    for term in schedule.terms:
        coeff = float(term.coefficient)
        if term.setting is None:
            mean = float(term.identity_weight) ** n
            boot += coeff * mean
        else:
            gi = group_index.get(term.setting)
            if gi is None:
                raise ValueError(f"no counts found for setting {term.setting!r}")
            hist = groups[gi][1]
            total = int(hist.sum())
            if total == 0:
                raise ValueError(f"setting {term.setting!r} has zero total shots")
            factors = _term_factors(term, n)
            mean = float(factors @ hist) / total
            if bootstrap_samples:
                if gi not in resamples:  # one resample per setting, drawn when first used
                    rng = np.random.default_rng(seed + gi)
                    resamples[gi] = rng.multinomial(total, hist / total, size=bootstrap_samples)
                boot += coeff * (resamples[gi] @ factors) / total
        contribution = coeff * mean
        setting = None if term.setting is None else tuple(term.setting.json_entry())
        per_term.append(
            TermEstimate(setting, term.scale, term.identity_weight, coeff, mean, contribution)
        )
        value += contribution
    error = float(np.std(boot, ddof=1)) if bootstrap_samples else 0.0
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
