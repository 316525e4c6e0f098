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
spelling of one direction lands in the same group.  A :class:`CountsDataset`
holds its rows as columns (setting, outcomes, count), with ``records`` a view.
A noisy state is sampled from the weighted sum of its parts' Born distributions.

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
from .witnesses import NoiseModel, WitnessSpec, fidelity_bound

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
        _check_row(self.outcomes, self.count)

    def json_line(self) -> str:
        return _json_line(_line_prefix(self.setting), self.outcomes, self.count)


def _check_row(outcomes: str, count: int, width: int | None = None) -> None:
    if not outcomes or outcomes.strip("+-"):
        raise ValueError(f"outcomes must be a nonempty +/- string, got {outcomes!r}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if width is not None and len(outcomes) != width:
        raise ValueError(f"outcome string {outcomes!r} does not have {width} characters")


_FLIP = str.maketrans("+-", "-+")


def _line_prefix(setting: Setting) -> str:
    """A record's line up to its outcomes, which need no JSON escaping."""
    entry = json.dumps(setting.json_entry(), separators=(", ", ": "))
    return f'{{"setting": {entry}, "outcomes": "'


def _json_line(prefix: str, outcomes: str, count: int) -> str:  # prefix: _line_prefix(setting)
    return f'{prefix}{outcomes}", "count": {int(count)}}}'


class CountsDataset:
    """Count records over a fixed qubit number, held as three columns.

    ``columns`` holds, per row, its setting (rows of one parsed or simulated
    setting share the object), outcome string and int count.  ``records`` is a
    view of the rows as :class:`CountRecord` objects, built on first use.
    Datasets are equal, and hash alike, when their qubit numbers and rows are.
    """

    def __init__(self, num_qubits: int, records) -> None:
        records = tuple(records)
        for rec in records:
            _check_row(rec.outcomes, rec.count, num_qubits)
        rows = [(rec.setting, rec.outcomes, int(rec.count)) for rec in records]
        self.num_qubits, self._records = num_qubits, records
        self.columns = tuple(zip(*rows)) or ((), (), ())

    @classmethod
    def _from_columns(cls, num_qubits: int, *columns: list) -> "CountsDataset":
        """A dataset over checked columns: +/- strings of width N and nonnegative ints."""
        self = cls.__new__(cls)
        self.num_qubits, self._records, self.columns = num_qubits, None, tuple(map(tuple, columns))
        return self

    @property
    def records(self) -> tuple[CountRecord, ...]:
        if self._records is None:
            self._records = tuple(map(CountRecord, *self.columns))
        return self._records

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountsDataset):
            return NotImplemented
        return (self.num_qubits, self.columns) == (other.num_qubits, other.columns)

    def __hash__(self) -> int:
        return hash((self.num_qubits, self.columns))

    def __repr__(self) -> str:
        return f"CountsDataset(num_qubits={self.num_qubits}, rows={len(self.columns[2])})"

    def weight_counts(self) -> list[tuple[Setting, np.ndarray]]:
        """Shots per distinct setting binned by their number of ``+`` outcomes.

        Returns ``(setting, hist)`` pairs in first-appearance order, where
        ``hist[h]`` (``h = 0..N``) counts the shots with ``h`` pluses; the
        order defines the bootstrap task index.
        """
        hists: dict[Setting, list[int]] = {}
        for setting, outcomes, count in zip(*self.columns):
            hist = hists.setdefault(setting, [0] * (self.num_qubits + 1))
            hist[outcomes.count("+")] += count
        return [(setting, np.array(hist, dtype=np.int64)) for setting, hist in hists.items()]

    def total_shots(self) -> int:
        return sum(self.columns[2])

    # -- NDJSON ----------------------------------------------------------
    def to_ndjson(self) -> str:
        # one prefix per setting object: equal settings may still print apart (0.0 and -0.0)
        settings = {id(setting): setting for setting in self.columns[0]}
        prefixes = {key: _line_prefix(setting) for key, setting in settings.items()}
        return "".join([_json_line(prefixes[id(setting)], outcomes, count) + "\n"
                        for setting, outcomes, count in zip(*self.columns)])

    @classmethod
    def from_ndjson(cls, text: str) -> "CountsDataset":
        rows, num_qubits = [], None  # (setting, outcomes, count)
        parsed = {}  # repr(raw direction) -> (setting, flipped); a file has few distinct ones
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = repr(entry["setting"])
                if key not in parsed:
                    parsed[key] = Setting.parse(entry["setting"], keep_unit=True)
                setting, flipped = parsed[key]
                outcomes, count = str(entry["outcomes"]), _json_int(entry["count"])
                _check_row(outcomes, count, num_qubits)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed counts record on line {lineno}: {exc}") from None
            if setting is None:
                raise ValueError(f"setting on line {lineno} must be nonzero")
            num_qubits = len(outcomes)
            # canonicalization may flip the direction; flip outcomes to match
            rows.append((setting, outcomes.translate(_FLIP) if flipped else outcomes, count))
        if num_qubits is None:
            raise ValueError("counts data contains no records")
        return cls._from_columns(num_qubits, *zip(*rows))


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


def _mixture(state, num_qubits: int) -> tuple[float, list, np.ndarray | None]:
    """``state`` checked, as (white-noise weight, weighted vectors, density-matrix sum or None).

    Once a part is a density matrix (a :class:`DenseOperator` or custom noise), the
    pure parts are added into it, so the draws are bit for bit those of that sum.
    """
    pairs = [(1.0, state)] if isinstance(state, (StateVector, DenseOperator, NoiseModel)) else state
    white, parts = 0.0, []
    for weight, part in pairs:
        rho = part.rho_noise if isinstance(part, NoiseModel) else part
        if rho.num_qubits != num_qubits:
            raise ValueError("state dimension does not match the schedule")
        if weight < 0:
            raise ValueError(f"mixture weight {weight!r} is negative")
        if isinstance(part, DenseOperator) and (
                not part.is_hermitian(1e-10) or abs(part.trace() - 1.0) > 1e-9):
            raise ValueError("density matrix input must be Hermitian with unit trace")
        if isinstance(part, NoiseModel) and part.kind == "white":
            white += float(weight)  # 1/2^N on every outcome: rho_noise is not read
        else:
            parts.append((float(weight), rho))
    if all(isinstance(rho, StateVector) for _, rho in parts):
        return white, [(w, rho.vec) for w, rho in parts], None
    terms = [w * (rho.mat if isinstance(rho, DenseOperator) else rho.density().mat)
             for w, rho in parts]
    return white, [], sum(terms[1:], terms[0])


def _born_probabilities(mixture, setting: Setting, num_qubits: int) -> np.ndarray:
    """Outcome distribution when every qubit measures ``setting``, ``U = frame^{(x)N}``.

    The weighted sum of the parts' distributions of a :func:`_mixture`:
    ``1/2^N`` for white noise, ``|U^dag psi|^2`` for a pure part and
    ``diag(U^dag rho U)`` for the density-matrix sum.
    """
    white, vectors, rho = mixture
    frame_dag = _measurement_frame(setting).conj().T
    probs = np.full(2**num_qubits, white / 2**num_qubits)
    for weight, vec in vectors:
        probs += weight * np.abs(_rotate(vec, frame_dag, num_qubits)) ** 2
    if rho is not None:
        # U^dag rho U is U^dag applied to the rows of (U^dag rho)^dag = rho U
        half = _rotate(rho, frame_dag, num_qubits)
        probs += np.real(np.diagonal(_rotate(half.conj().T, frame_dag, num_qubits)))
    # rotation rounding is ~1e-16: zero it, so that a seeded draw does not hinge on last bits
    probs = np.where(probs < 1e-14, 0.0, probs)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"outcome probabilities sum to {total}, not 1")
    return probs / total


def simulate_counts(
    state,
    schedule: Schedule,
    shots_per_setting: int,
    seed: int = 0,
) -> CountsDataset:
    """Sample measurement counts for every setting of a schedule.

    ``state`` is a :class:`StateVector`, a :class:`DenseOperator`, or a mixture
    ``[(w_1, part_1), ...]`` of those and :class:`NoiseModel` parts, sampled from
    the weighted sum of the parts' Born distributions.  Each distinct setting is
    one task; task ``i`` draws ``shots_per_setting`` multinomial samples from
    the Born distribution using an independent generator seeded with
    ``seed + i``, so tasks may be reproduced in isolation.
    """
    n = schedule.num_qubits
    mixture = _mixture(state, n)
    if shots_per_setting <= 0:
        raise ValueError("shots_per_setting must be positive")
    columns = ([], [], [])  # settings, outcomes, counts
    patterns = tuple(map("".join, itertools.product("+-", repeat=n)))  # "+" for a 0 bit
    for index, setting in enumerate(schedule.settings):
        probs = _born_probabilities(mixture, setting, n)
        draws = np.random.default_rng(seed + index).multinomial(shots_per_setting, probs)
        hit = np.flatnonzero(draws)
        columns[0].extend([setting] * len(hit))
        columns[1].extend([patterns[i] for i in hit.tolist()])
        columns[2].extend(draws[hit].tolist())
    return CountsDataset._from_columns(n, *columns)


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
