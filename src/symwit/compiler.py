"""Compile permutationally invariant observables into local measurement settings.

A permutationally invariant (PI) N-qubit observable decomposes into
symmetrized Pauli classes.  Each class expands — via the polarization
identity — into a short sum of collective terms of the form

    coefficient * (scale * (n . sigma) + w * 1)^{(x) N}

which are measurable by pointing every qubit's detector along the single
direction ``n``.  A :class:`Schedule` collects such terms together with the
deduplicated list of directions ("settings") they require.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .linalg import DenseOperator, _SIGMA, _kron_all
from .symmetric import is_permutation_invariant, symmetrize

_ZERO_SNAP = 1e-12

_AXES = ("x", "y", "z")
_AXIS_VEC = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def _snap(x: float, tol: float = _ZERO_SNAP) -> float:
    if abs(x) < tol:
        return 0.0
    for target in (1.0, -1.0, 0.5, -0.5):
        if abs(x - target) < tol:
            return target
    return float(x)


class Setting:
    """Canonical measurement direction shared by all qubits.

    Stored as a unit 3-vector with the first nonzero component positive;
    an exact integer label (gcd-reduced) is kept alongside whenever the
    direction is proportional to an integer vector.  Settings compare and
    hash by one canonical key, the label when there is one and otherwise the
    unit vector rounded to 9 decimals, so equal settings hash equal and
    serve directly as dictionary keys.
    """

    __slots__ = ("unit", "label", "_key")

    def __init__(self, unit: tuple[float, float, float], label=None) -> None:
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "label", label)
        # 9 decimals, the scale of the integer test: a finer grid splits one
        # direction computed two ways (e.g. before and after a JSON round trip)
        key = label if label is not None else tuple(round(x, 9) for x in unit)
        object.__setattr__(self, "_key", key)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Setting is immutable")

    @classmethod
    def from_ints(cls, n) -> "Setting":
        ints = tuple(int(v) for v in n)
        if ints == (0, 0, 0):
            raise ValueError("setting direction must be nonzero")
        g = math.gcd(math.gcd(abs(ints[0]), abs(ints[1])), abs(ints[2]))
        reduced = tuple(v // g for v in ints)
        first = next(v for v in reduced if v != 0)
        if first < 0:
            reduced = tuple(-v for v in reduced)
        nrm = math.sqrt(sum(v * v for v in reduced))
        unit = tuple(_snap(v / nrm) for v in reduced)
        return cls(unit, reduced)

    @classmethod
    def from_vector(cls, v) -> "Setting":
        arr = [float(x) for x in v]
        nrm = math.sqrt(sum(x * x for x in arr))
        if nrm < _ZERO_SNAP:
            raise ValueError("setting direction must be nonzero")
        unit = [_snap(x / nrm) for x in arr]
        first = next(x for x in unit if x != 0.0)
        if first < 0:
            unit = [-x for x in unit]
        label = _integer_label(unit)
        if label is not None:
            return cls.from_ints(label)
        return cls(tuple(unit), None)

    @classmethod
    def parse(cls, raw, keep_unit: bool = False) -> tuple["Setting | None", bool]:
        """Canonical setting of a raw direction, and whether ``raw`` points against it.

        ``raw`` must hold three finite numbers.  A vector of norm below 1e-12
        gives ``(None, False)``; one within 1e-9 of an integer vector is read
        as that integer vector.  With ``keep_unit`` (directions read back from
        JSON) a vector that is already a canonical unit is kept as written:
        renormalizing it could move its last bit and so its key.
        """
        try:
            arr = [float(x) for x in raw]
        except (TypeError, ValueError):
            raise ValueError(f"direction must be 3 numbers, got {raw!r}") from None
        if len(arr) != 3 or not all(math.isfinite(x) for x in arr):
            raise ValueError(f"direction must be 3 finite numbers, got {raw!r}")
        if math.sqrt(sum(x * x for x in arr)) < _ZERO_SNAP:
            return None, False
        if all(abs(x - round(x)) < 1e-9 for x in arr):
            setting = cls.from_ints([round(x) for x in arr])
        else:
            setting = cls.from_vector(arr)
            if keep_unit and setting.label is None and math.dist(arr, setting.unit) < 1e-11:
                setting = cls(tuple(arr), None)
        return setting, _dot(arr, setting) < 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Setting):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def json_entry(self):
        return list(self.label) if self.label is not None else list(self.unit)

    def __repr__(self) -> str:
        if self.label is not None:
            return f"Setting{self.label}"
        return f"Setting({self.unit[0]:.6f}, {self.unit[1]:.6f}, {self.unit[2]:.6f})"


def _json_int(raw) -> int:
    """An integer read from JSON: an int or an integral float, never a bool."""
    if type(raw) is int or type(raw) is float and raw.is_integer():
        return int(raw)
    raise ValueError(f"expected an integer, got {raw!r}")


def _dot(vec, setting: Setting) -> float:
    return sum(float(a) * u for a, u in zip(vec, setting.unit))


def _integer_label(unit, max_coeff: int = 720) -> tuple[int, int, int] | None:
    """Smallest integer vector proportional to ``unit``, if one exists."""
    ref = max(abs(x) for x in unit)
    ratios = []
    for x in unit:
        fr = Fraction(x / ref).limit_denominator(max_coeff)
        ratios.append(fr)
    lcm = 1
    for fr in ratios:
        lcm = lcm * fr.denominator // math.gcd(lcm, fr.denominator)
    ints = [int(fr * lcm) for fr in ratios]
    nrm = math.sqrt(sum(v * v for v in ints))
    if nrm == 0:
        return None
    for x, v in zip(unit, ints):
        if abs(x - v / nrm) > 1e-9:
            return None
    return tuple(ints)


@dataclass(frozen=True)
class LocalTerm:
    """One collective tensor-power term of a schedule.

    Realizes ``coefficient * (scale * (n . sigma) + identity_weight * 1)^{(x) N}``
    where ``n`` is the unit vector of ``setting``.  ``setting is None`` marks a
    constant term ``coefficient * identity_weight**N * 1`` that needs no
    measurement.
    """

    coefficient: object  # float or Fraction
    setting: Setting | None
    scale: float
    identity_weight: float

    def local_matrix(self) -> np.ndarray:
        """The single-qubit factor ``scale * (n . sigma) + w * 1``."""
        w = float(self.identity_weight)
        if self.setting is None:
            return w * np.eye(2, dtype=complex)
        ux, uy, uz = self.setting.unit
        s = float(self.scale)
        return (
            s * (ux * _SIGMA["x"] + uy * _SIGMA["y"] + uz * _SIGMA["z"])
            + w * _SIGMA["i"]
        )

    def realize(self, num_qubits: int) -> np.ndarray:
        return float(self.coefficient) * _kron_all([self.local_matrix()] * num_qubits)


def _absorb_flip(coefficient, identity_weight: float, num_qubits: int):
    """``(coefficient, w)`` of a term whose direction ``-a`` is rewritten as ``a``.

    Uses ``(-(a.sigma) + w)^{(x)N} = (-1)^N (a.sigma - w)^{(x)N}``.
    """
    if num_qubits % 2 == 1:
        coefficient = -coefficient
    return coefficient, -identity_weight


def _canonical_term(coefficient, n_vec, identity_weight, num_qubits: int) -> LocalTerm:
    """Normalize a raw ``coefficient * (n . sigma + w)^{(x)N}`` term.

    The direction is reduced to canonical form; a sign flip of the direction
    is absorbed into the coefficient and identity weight.  A zero direction
    gives the constant term ``coefficient * w**N`` with identity weight 1, so
    all constants merge into one.
    """
    setting, flipped = Setting.parse(n_vec)
    w = float(identity_weight)
    if setting is None:
        return LocalTerm(coefficient * w**num_qubits, None, 0.0, 1.0)
    if flipped:
        coefficient, w = _absorb_flip(coefficient, w, num_qubits)
    return LocalTerm(coefficient, setting, _snap(abs(_dot(n_vec, setting)), 1e-12), _snap(w))


@dataclass
class Schedule:
    """Measurement plan: collective terms plus their deduplicated settings."""

    num_qubits: int
    terms: list[LocalTerm] = field(default_factory=list)

    @property
    def settings(self) -> list[Setting]:
        """Distinct settings of the terms, in order of first appearance."""
        return list(dict.fromkeys(t.setting for t in self.terms if t.setting is not None))

    @property
    def num_settings(self) -> int:
        return len(self.settings)

    def reconstruct(self) -> DenseOperator:
        """Dense realization of the full term sum."""
        dim = 2**self.num_qubits
        total = np.zeros((dim, dim), dtype=complex)
        for term in self.terms:
            total += term.realize(self.num_qubits)
        return DenseOperator(total)

    def merged(self) -> "Schedule":
        """Combine terms sharing a setting, scale and identity weight."""
        groups: dict[tuple, LocalTerm] = {}
        for term in self.terms:
            # rounded like the unit key, so last-bit differences still merge
            key = (term.setting, round(term.scale, 12), round(term.identity_weight, 12))
            old = groups.get(key)
            if old is not None:
                term = LocalTerm(old.coefficient + term.coefficient, old.setting,
                                 old.scale, old.identity_weight)
            groups[key] = term
        merged = [
            t for t in groups.values()
            if abs(float(t.coefficient)) > 1e-15
            and not (t.setting is None and abs(t.identity_weight) < 1e-15)
        ]
        merged.sort(key=_term_sort_key)
        return Schedule(self.num_qubits, merged)

    # -- serialization --------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "N": self.num_qubits,
            "terms": [
                {
                    "coeff": float(t.coefficient),
                    "n": t.setting.json_entry() if t.setting is not None else [0, 0, 0],
                    "scale": float(t.scale),
                    "identity_weight": float(t.identity_weight),
                }
                for t in self.terms
            ],
            "settings": [s.json_entry() for s in self.settings],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        """Read :meth:`to_json` output; a direction may be given with either sign."""
        payload = json.loads(text)
        try:
            n = _json_int(payload["N"])
            terms = []
            for entry in payload["terms"]:
                setting, flipped = Setting.parse(entry["n"], keep_unit=True)
                coeff, w = float(entry["coeff"]), float(entry["identity_weight"])
                if flipped:
                    coeff, w = _absorb_flip(coeff, w, n)
                terms.append(LocalTerm(coeff, setting, float(entry["scale"]), w))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ValueError(f"malformed schedule JSON: {exc}") from None
        return cls(n, terms)


def _term_sort_key(t: LocalTerm):
    if t.setting is None:
        unit = (0.0, 0.0, 0.0)
    else:
        unit = t.setting.unit
    return (unit, float(t.scale), float(t.identity_weight))


# ---------------------------------------------------------------------------
# symmetrized Pauli classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliClass:
    """Symmetrized Pauli monomial class on N qubits.

    ``(i, j, m)`` counts sigma_x, sigma_y and sigma_z factors; the remaining
    ``N - i - j - m`` factors are identities.  The dense realization is the
    sum over all distinct arrangements of that multiset.
    """

    i: int
    j: int
    m: int
    coefficient: float = 1.0

    def weight(self) -> int:
        return self.i + self.j + self.m

    def arrangement_count(self, num_qubits: int) -> int:
        r = num_qubits - self.weight()
        return (
            math.factorial(num_qubits)
            // (math.factorial(self.i) * math.factorial(self.j)
                * math.factorial(self.m) * math.factorial(r))
        )

    def letters(self, num_qubits: int) -> list[str]:
        r = num_qubits - self.weight()
        if r < 0:
            raise ValueError(f"class {self} does not fit on {num_qubits} qubits")
        return ["x"] * self.i + ["y"] * self.j + ["z"] * self.m + ["i"] * r

    def realization(self, num_qubits: int) -> DenseOperator:
        total = np.zeros((2**num_qubits, 2**num_qubits), dtype=complex)
        for arrangement in _multiset_permutations(self.letters(num_qubits)):
            total += _kron_all(_SIGMA[a] for a in arrangement)
        return DenseOperator(self.coefficient * total)


def _multiset_permutations(items: list[str]):
    """Distinct permutations of a multiset, in lexicographic order."""
    seq = sorted(items)
    n = len(seq)
    while True:
        yield tuple(seq)
        # next lexicographic permutation
        k = n - 2
        while k >= 0 and seq[k] >= seq[k + 1]:
            k -= 1
        if k < 0:
            return
        l = n - 1
        while seq[l] <= seq[k]:
            l -= 1
        seq[k], seq[l] = seq[l], seq[k]
        seq[k + 1:] = reversed(seq[k + 1:])


@dataclass
class PauliPolynomial:
    """PI operator written as a combination of symmetrized Pauli classes."""

    num_qubits: int
    classes: list[PauliClass] = field(default_factory=list)

    def realization(self) -> DenseOperator:
        dim = 2**self.num_qubits
        total = np.zeros((dim, dim), dtype=complex)
        for cls in self.classes:
            total += cls.realization(self.num_qubits).mat
        return DenseOperator(total)


def pauli_decompose(a: DenseOperator, atol: float = 1e-10) -> PauliPolynomial:
    """Expand a PI Hermitian operator over symmetrized Pauli classes.

    The operator is first projected exactly onto the PI subspace (a no-op up
    to the stated tolerance); each class coefficient is then read off a single
    representative Pauli string, which is valid precisely because of the
    permutation invariance.  ``P`` has one nonzero per row, so ``Tr(A P) =
    i^j sum_c A[c, c^f] (-1)^popcount(c&g)`` (f: x, y qubits; g: y, z qubits).
    """
    n = a.num_qubits
    defect = a.hermiticity_defect()
    if defect >= 1e-12:
        raise ValueError(f"operator is not Hermitian: defect {defect:.3e}")
    if not is_permutation_invariant(a, atol):
        raise ValueError("operator is not permutation invariant within tolerance")
    sym = symmetrize(a).hermitized()
    scale = max(1.0, float(np.max(np.abs(sym.mat))))
    rows = np.arange(2**n)
    classes: list[PauliClass] = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for m in range(n + 1 - i - j):
                flip = (2 ** (i + j) - 1) << (n - i - j)
                letters = PauliClass(i, j, m).letters(n)
                signs = _kron_all(np.array([1.0, -1.0 if q in "yz" else 1.0]) for q in letters)
                coeff = 1j**j * complex(sym.mat[rows, rows ^ flip] @ signs) / 2**n
                if abs(coeff.imag) > 1e-10 * scale:
                    raise ValueError("non-real Pauli coefficient on a Hermitian input")
                if abs(coeff.real) > 1e-12 * scale:
                    classes.append(PauliClass(i, j, m, float(coeff.real)))
    return PauliPolynomial(n, classes)


def symmetrized_product_to_powers(cls: PauliClass, num_qubits: int) -> list[LocalTerm]:
    """Expand one symmetrized class into collective tensor-power terms.

    The polarization identity ``sum_pi a_pi(1) (x) ... (x) a_pi(N) =
    2^-N sum_s (prod_k s_k) (sum_k s_k a_k)^{(x)N}`` over sign vectors ``s``,
    grouped by the numbers ``(a, b, e, d)`` of minus signs in the x, y, z and
    identity blocks, writes the sum over distinct arrangements of the class
    multiset (``r = N - i - j - m`` identities, coefficient ``c``) as

        c / (2^N i! j! m! r!) * sum (-1)^(a+b+e+d) C(i,a) C(j,b) C(m,e) C(r,d)
            * ((i-2a) sigma_x + (j-2b) sigma_y + (m-2e) sigma_z + (r-2d) 1)^{(x)N}

    a combination of at most (i+1)(j+1)(m+1)(r+1) terms.
    """
    blocks = tuple(cls.letters(num_qubits).count(axis) for axis in "xyzi")
    base = cls.coefficient / (2**num_qubits * math.prod(map(math.factorial, blocks)))
    terms: list[LocalTerm] = []
    for minus in product(*(range(k + 1) for k in blocks)):
        weight = (-1) ** sum(minus) * math.prod(map(math.comb, blocks, minus))
        nx, ny, nz, w = (float(k - 2 * a) for k, a in zip(blocks, minus))
        terms.append(_canonical_term(base * weight, (nx, ny, nz), w, num_qubits))
    return terms


def compile_operator(a: DenseOperator) -> Schedule:
    """Compile a PI Hermitian operator into a merged measurement schedule."""
    poly = pauli_decompose(a)
    schedule = Schedule(a.num_qubits)
    for cls in poly.classes:
        schedule.terms.extend(symmetrized_product_to_powers(cls, a.num_qubits))
    return schedule.merged()


# ---------------------------------------------------------------------------
# setting-count bounds
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def settings_upper_bound(num_qubits: int) -> tuple[int, int]:
    """Upper bounds (L, L') on the settings needed for any PI observable.

    ``L`` counts integer direction vectors with ``1 <= |nx|+|ny|+|nz| <= N``
    up to a global sign; ``L'`` additionally identifies vectors that agree
    after rescaling (gcd reduction), which is valid because a rescaled
    direction is the same measurement setting.
    """
    n = int(num_qubits)
    if n < 1:
        raise ValueError("num_qubits must be >= 1")
    l_formula = (2 * n**3 + 3 * n**2 + 4 * n) // 3
    canon: set[tuple[int, int, int]] = set()
    sign_classes: set[tuple[int, int, int]] = set()
    for nx in range(-n, n + 1):
        for ny in range(-n, n + 1):
            for nz in range(-n, n + 1):
                total = abs(nx) + abs(ny) + abs(nz)
                if not 1 <= total <= n:
                    continue
                vec = (nx, ny, nz)
                first = next(v for v in vec if v != 0)
                if first < 0:
                    vec = (-nx, -ny, -nz)
                sign_classes.add(vec)
                g = math.gcd(math.gcd(abs(nx), abs(ny)), abs(nz))
                canon.add(tuple(v // g for v in vec))
    if len(sign_classes) != l_formula:
        raise AssertionError(
            f"sign-dedup count {len(sign_classes)} disagrees with formula {l_formula}"
        )
    return l_formula, len(canon)


# ---------------------------------------------------------------------------
# Mermin-type operators
# ---------------------------------------------------------------------------

def _axis_letter(axis) -> str:
    if axis in (None, "0", 0, "i", "1"):
        return "i"
    if axis in _AXES:
        return axis
    raise ValueError(f"axis must be 'x', 'y', 'z' or identity ('0'), got {axis!r}")


def mermin_operator(num_qubits: int, a, b) -> DenseOperator:
    """Mermin-type operator: alternating even-a-count Pauli sums.

    ``M_{a,b} = sum_{k even} (-1)^(k/2) * sum_over_distinct_arrangements``
    of ``k`` factors ``sigma_a`` and ``N - k`` factors ``sigma_b``.  The first
    slot ``a`` may be the identity ('0'), in which case the operator is a
    polynomial in the single direction ``b``.
    """
    n = int(num_qubits)
    la, lb = _axis_letter(a), _axis_letter(b)
    if lb == "i":
        raise ValueError("second axis must be a Pauli axis")
    if la == lb:
        raise ValueError("axes must differ")
    dim = 2**n
    total = np.zeros((dim, dim), dtype=complex)
    for k in range(0, n + 1, 2):
        sign = (-1) ** (k // 2)
        for positions in combinations(range(n), k):
            total += sign * _kron_all(
                _SIGMA[la] if q in positions else _SIGMA[lb] for q in range(n)
            )
    return DenseOperator(total)


def mermin_decomposition(num_qubits: int, a, b) -> Schedule:
    """N-setting measurement schedule for :func:`mermin_operator`.

    ``M_{a,b} = (2^(N-1)/N) sum_{k=1..N} (-1)^k
    (sin(k pi/N) sigma_a + cos(k pi/N) sigma_b)^{(x)N}`` — all settings lie in
    the a-b plane.  With ``a`` the identity the sine part becomes an identity
    weight and a single setting along ``b`` suffices.
    """
    n = int(num_qubits)
    la, lb = _axis_letter(a), _axis_letter(b)
    if lb == "i":
        raise ValueError("second axis must be a Pauli axis")
    if la == lb:
        raise ValueError("axes must differ")
    prefactor = Fraction(2 ** (n - 1), n)
    schedule = Schedule(n)
    for k in range(1, n + 1):
        s, c = _snap(math.sin(k * math.pi / n)), _snap(math.cos(k * math.pi / n))
        coeff = float(prefactor) * (-1) ** k
        vec = np.zeros(3)
        w = 0.0
        if la == "i":
            w = s
        else:
            vec += s * np.asarray(_AXIS_VEC[la])
        vec += c * np.asarray(_AXIS_VEC[lb])
        schedule.terms.append(_canonical_term(coeff, tuple(vec), w, n))
    return schedule.merged()


# ---------------------------------------------------------------------------
# canned schedules
# ---------------------------------------------------------------------------

def _tensor_terms(num_qubits: int, coeff: Fraction, vec, weights) -> list[LocalTerm]:
    """Terms ``coeff * (v . sigma + w)^{(x)N}`` for each w in weights."""
    return [
        _canonical_term(coeff, tuple(float(x) for x in vec), float(w), num_qubits)
        for w in weights
    ]


def _pm(base: tuple[float, float, float], flips: list[int]):
    """All sign combinations of ``base`` over the component indices ``flips``."""
    out = []
    for signs in product((1.0, -1.0), repeat=len(flips)):
        vec = list(base)
        for idx, s in zip(flips, signs):
            vec[idx] *= s
        out.append(tuple(vec))
    return out


def canned_decomposition(name: str) -> Schedule:
    """Published measurement schedules for half-filled Dicke projectors.

    ``"D63"`` returns the 21-setting schedule reconstructing ``64 |D_6^3><D_6^3|``;
    ``"D42"`` the 9-setting schedule reconstructing ``16 |D_4^2><D_4^2|``.
    Coefficients are exact rationals.
    """
    key = name.strip().upper()
    if key == "D63":
        return _canned_d63()
    if key == "D42":
        return _canned_d42()
    raise ValueError(f"unknown canned decomposition {name!r} (choose 'D63' or 'D42')")


def _mermin_terms(num_qubits: int, coeff: Fraction, a, b) -> list[LocalTerm]:
    terms = []
    for t in mermin_decomposition(num_qubits, a, b).terms:
        terms.append(LocalTerm(float(coeff) * t.coefficient, t.setting, t.scale,
                               t.identity_weight))
    return terms


@lru_cache(maxsize=None)
def _canned_d63() -> Schedule:
    n = 6
    F = Fraction
    x, y, z = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    terms: list[LocalTerm] = []
    terms.append(LocalTerm(F(-3, 5), None, 0.0, 1.0))                      # [1]
    terms += _tensor_terms(n, F(3, 10), x, (1.0, -1.0))                    # [x +- 1]
    terms += _tensor_terms(n, F(-3, 5), x, (0.0,))                         # [x]
    terms += _tensor_terms(n, F(3, 10), y, (1.0, -1.0))                    # [y +- 1]
    terms += _tensor_terms(n, F(-3, 5), y, (0.0,))                         # [y]
    terms += _tensor_terms(n, F(1, 5), z, (1.0, -1.0))                     # [z +- 1]
    terms += _tensor_terms(n, F(-1, 5), z, (0.0,))                         # [z]
    # The published table lists its Mermin groups in the trigonometric
    # (N-setting) convention, which for N = 6 is the negative of the
    # combinatorial definition realized by mermin_decomposition.
    terms += _mermin_terms(n, F(-1, 5), "0", "z")
    for vec in _pm((1.0, 1.0, 0.0), [1]):                                  # [x +- y +- 1]
        terms += _tensor_terms(n, F(1, 20), vec, (1.0, -1.0))
    for vec in _pm((1.0, 0.0, 1.0), [2]):                                  # [x +- z +- 1]
        terms += _tensor_terms(n, F(-1, 20), vec, (1.0, -1.0))
    for vec in _pm((0.0, 1.0, 1.0), [2]):                                  # [y +- z +- 1]
        terms += _tensor_terms(n, F(-1, 20), vec, (1.0, -1.0))
    for vec in _pm((1.0, 1.0, 1.0), [1, 2]):                               # [x +- y +- z]
        terms += _tensor_terms(n, F(-1, 20), vec, (0.0,))
    for vec in _pm((1.0, 0.0, 1.0), [2]):                                  # [x +- z]
        terms += _tensor_terms(n, F(1, 5), vec, (0.0,))
    for vec in _pm((0.0, 1.0, 1.0), [2]):                                  # [y +- z]
        terms += _tensor_terms(n, F(1, 5), vec, (0.0,))
    for vec in _pm((1.0, 1.0, 0.0), [1]):                                  # [x +- y]
        terms += _tensor_terms(n, F(1, 10), vec, (0.0,))
    terms += _mermin_terms(n, F(-3, 5), "x", "z")
    terms += _mermin_terms(n, F(-3, 5), "y", "z")
    return Schedule(n, terms).merged()


@lru_cache(maxsize=None)
def _canned_d42() -> Schedule:
    n = 4
    F = Fraction
    x, y, z = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    terms: list[LocalTerm] = []
    terms += _tensor_terms(n, F(2, 3), x, (0.0,))                          # 2 [x] / 3
    terms += _tensor_terms(n, F(2, 3), y, (0.0,))                          # 2 [y] / 3
    # The identity-shifted groups carry half the weight of the bare tensor
    # powers: 16 P = (2/3)([x] + [y]) + (1/3)([x +- 1] + [y +- 1]) + ...
    terms += _tensor_terms(n, F(1, 3), x, (1.0, -1.0))                     # [x +- 1] / 3
    terms += _tensor_terms(n, F(1, 3), y, (1.0, -1.0))                     # [y +- 1] / 3
    terms += _tensor_terms(n, F(8, 3), z, (0.0,))                          # 8 [z] / 3
    terms += _tensor_terms(n, F(-1, 6), z, (1.0, -1.0))                    # -[z +- 1] / 6
    for vec in _pm((1.0, 0.0, 1.0), [2]):                                  # -[x +- z] / 3
        terms += _tensor_terms(n, F(-1, 3), vec, (0.0,))
    for vec in _pm((0.0, 1.0, 1.0), [2]):                                  # -[y +- z] / 3
        terms += _tensor_terms(n, F(-1, 3), vec, (0.0,))
    for vec in _pm((1.0, 1.0, 0.0), [1]):                                  # [x +- y] / 6
        terms += _tensor_terms(n, F(1, 6), vec, (0.0,))
    return Schedule(n, terms).merged()
