"""Entanglement witnesses for symmetric Dicke states.

Provides projector witnesses, the catalog of collective-observable witnesses
(two- and three-setting, projector-derived and independent), noise models,
white/non-white noise tolerances, fidelity lower bounds and JSON round trips.

The fidelity certificate ``W - alpha (lambda_sq 1 - |target><target|) >= 0``
(:attr:`WitnessSpec.certificate_slack`), the bound :func:`fidelity_bound` and
the tolerance :func:`_critical_noise` live here only; :mod:`symwit.optimize`
and :mod:`symwit.counts` call them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from scipy.optimize import minimize_scalar

from .linalg import (
    DenseOperator,
    StateVector,
    identity,
    kron_power,
    op_power,
    pauli,
    schmidt_max_sq,
)
from .symmetric import collective_j, collective_power, dicke

#: eigenvalue slack accepted when certifying W - alpha * W_P >= 0
LMI_ATOL = 1e-9

_KINDS = ("identity", "collective", "tensor", "projector")


@dataclass(frozen=True)
class BasisTerm:
    """One named operator in a witness expansion.

    Kinds: ``identity`` is the identity; ``collective`` is ``(J_axis +
    shift)**power``; ``tensor`` is ``(sigma_axis + shift)**(tensor N)``;
    ``projector`` is the projector onto the witness target.
    """

    kind: str
    axis: str | None = None
    power: int | None = None
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown basis term kind {self.kind!r}")
        if self.kind in ("collective", "tensor") and self.axis not in ("x", "y", "z"):
            raise ValueError(f"basis term kind {self.kind!r} requires an x/y/z axis")
        if self.kind == "collective" and (self.power is None or self.power < 1):
            raise ValueError("collective basis term requires power >= 1")

    def realize(self, num_qubits: int, target: StateVector | None = None) -> DenseOperator:
        if self.kind == "identity":
            return identity(num_qubits)
        if self.kind == "collective":
            if self.shift == 0.0:
                return collective_power(num_qubits, self.axis, self.power)
            op = collective_j(num_qubits, self.axis) + self.shift * identity(num_qubits)
            return op_power(op, self.power)
        if self.kind == "tensor":
            local = pauli(self.axis) + self.shift * identity(1)
            return kron_power(local, num_qubits)
        if target is None:
            raise ValueError("projector basis term requires a target state")
        return target.density()

    def json_entry(self) -> dict:
        return {
            "kind": self.kind,
            "axis": self.axis,
            "power": self.power,
            "shift": float(self.shift),
        }

    @classmethod
    def from_json_entry(cls, entry: dict) -> "BasisTerm":
        return cls(
            kind=entry["kind"],
            axis=entry.get("axis"),
            power=entry.get("power"),
            shift=float(entry.get("shift") or 0.0),
        )


@dataclass(frozen=True)
class WitnessSpec:
    """A witness ``W = sum_k c_k B_k`` for a pure target state.

    ``alpha`` and ``lambda_sq`` carry the certificate ``W - alpha * (lambda_sq
    - |target><target|) >= 0`` used for fidelity bounds; both are optional,
    but whenever ``alpha`` is set the certificate is checked at construction.
    ``alpha_source`` records where alpha came from (``printed``, ``derived``
    or ``exact``).
    """

    name: str
    num_qubits: int
    basis: tuple[BasisTerm, ...]
    coefficients: tuple
    target: StateVector
    alpha: float | None = None
    lambda_sq: float | None = None
    alpha_source: str | None = None

    def __post_init__(self) -> None:
        if len(self.basis) != len(self.coefficients):
            raise ValueError("basis and coefficients must have equal length")
        if self.target.num_qubits != self.num_qubits:
            raise ValueError("target state has the wrong number of qubits")
        if not self.dense.is_hermitian(1e-10):
            raise ValueError("witness realization is not Hermitian")
        if self.alpha is not None:
            if self.alpha <= 0:
                raise ValueError("alpha must be positive")
            if self.lambda_sq is None:
                raise ValueError("alpha requires lambda_sq to define the projector witness")
            if self.certificate_slack < -LMI_ATOL:
                raise ValueError(f"W - alpha*W_P has negative eigenvalue "
                                 f"{self.certificate_slack:.3e} for alpha={self.alpha}")

    @cached_property
    def dense(self) -> DenseOperator:
        dim = 2**self.num_qubits
        total = np.zeros((dim, dim), dtype=complex)
        for coeff, term in zip(self.coefficients, self.basis):
            total += float(coeff) * term.realize(self.num_qubits, self.target).mat
        return DenseOperator(total).hermitized()

    @cached_property
    def certificate_slack(self) -> float | None:
        """``min-eig(W - alpha * W_P)``, or None when no alpha is set."""
        if self.alpha is None:
            return None
        wp = _projector_witness_matrix(self.target, float(self.lambda_sq))
        return _certificate_slack(self.dense.mat, wp, float(self.alpha))

    # -- serialization ----------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "N": self.num_qubits,
            "basis_terms": [term.json_entry() for term in self.basis],
            "coefficients": [float(c) for c in self.coefficients],
            "alpha": None if self.alpha is None else float(self.alpha),
            "lambda_sq": None if self.lambda_sq is None else float(self.lambda_sq),
            "alpha_source": self.alpha_source,
            "target": [[float(a.real), float(a.imag)] for a in self.target.vec],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WitnessSpec":
        payload = json.loads(text)
        amps = np.array([complex(re, im) for re, im in payload["target"]])
        return cls(
            name=payload["name"],
            num_qubits=int(payload["N"]),
            basis=tuple(BasisTerm.from_json_entry(e) for e in payload["basis_terms"]),
            coefficients=tuple(float(c) for c in payload["coefficients"]),
            target=StateVector(amps),
            alpha=payload.get("alpha"),
            lambda_sq=payload.get("lambda_sq"),
            alpha_source=payload.get("alpha_source"),
        )


@dataclass(frozen=True)
class NoiseModel:
    """Admixed noise state: ``rho(p) = (1-p) rho + p rho_noise``."""

    kind: str
    rho_noise: DenseOperator

    def __post_init__(self) -> None:
        if self.kind not in ("white", "custom"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        rho = self.rho_noise
        if not rho.is_hermitian(1e-10):
            raise ValueError("noise state is not Hermitian")
        if abs(rho.trace() - 1.0) > 1e-10:
            raise ValueError("noise state trace differs from 1")
        if float(np.linalg.eigvalsh(rho.hermitized().mat)[0]) < -1e-10:
            raise ValueError("noise state is not positive semidefinite")

    @classmethod
    def white(cls, num_qubits: int) -> "NoiseModel":
        dim = 2**num_qubits
        return cls("white", DenseOperator(np.eye(dim, dtype=complex) / dim))

    @classmethod
    def custom(cls, rho_noise: DenseOperator) -> "NoiseModel":
        return cls("custom", rho_noise)


# ---------------------------------------------------------------------------
# witness constructors
# ---------------------------------------------------------------------------

def projector_witness(target: StateVector, name: str | None = None) -> WitnessSpec:
    """The witness ``lambda^2 * 1 - |target><target|``.

    ``lambda^2`` is the largest squared Schmidt coefficient of the target over
    all bipartitions, so the witness value is negative only on states that are
    genuinely multipartite entangled.
    """
    lam_sq = schmidt_max_sq(target)
    return WitnessSpec(
        name=name or f"WP_{target.num_qubits}qubit",
        num_qubits=target.num_qubits,
        basis=(BasisTerm("identity"), BasisTerm("projector")),
        coefficients=(lam_sq, -1.0),
        target=target,
        alpha=1.0,
        lambda_sq=lam_sq,
        alpha_source="exact",
    )


def wi2_witness(num_qubits: int, c: float, name: str | None = None) -> WitnessSpec:
    """Two-setting witness ``c - (Jx^2 + Jy^2)`` for the half-filled Dicke target."""
    return WitnessSpec(
        name=name or f"WI2_D{num_qubits}{num_qubits // 2}",
        num_qubits=num_qubits,
        basis=(
            BasisTerm("identity"),
            BasisTerm("collective", "x", 2),
            BasisTerm("collective", "y", 2),
        ),
        coefficients=(c, -1.0, -1.0),
        target=dicke(num_qubits, num_qubits // 2),
    )


def wi3_witness(
    num_qubits: int,
    excitations: int,
    c: float,
    q: float,
    name: str | None = None,
) -> WitnessSpec:
    """Three-setting witness ``c - (Jx^2 + Jy^2) + q (Jz - <Jz>)^2``.

    ``<Jz>`` is evaluated on the Dicke target ``|D_N^(m)>`` rather than
    hardcoded, so one formula serves every ``(N, m)``.
    """
    target = dicke(num_qubits, excitations)
    jz_mean = collective_j(num_qubits, "z").expectation(target.density())
    return WitnessSpec(
        name=name or f"WI3_D{num_qubits}{excitations}",
        num_qubits=num_qubits,
        basis=(
            BasisTerm("identity"),
            BasisTerm("collective", "x", 2),
            BasisTerm("collective", "y", 2),
            BasisTerm("collective", "z", 2, shift=-jz_mean),
        ),
        coefficients=(c, -1.0, -1.0, q),
        target=target,
    )


def _wi3_objective(num_qubits: int, excitations: int | None, q: float) -> DenseOperator:
    """The operator ``Jx^2 + Jy^2 - q (Jz - <Jz>)^2`` of the :func:`wi3_witness` family.

    Its maximum over biseparable (or PPT) states is the witness constant
    ``c``.  ``<Jz>`` is taken on the Dicke target ``|D_N^(m)>``, so
    ``excitations`` is needed only when ``q`` is nonzero.
    """
    objective = collective_power(num_qubits, "x", 2) + collective_power(num_qubits, "y", 2)
    if q:
        objective = objective - q * _wi3_penalty(num_qubits, excitations)
    return objective


def _wi3_penalty(num_qubits: int, excitations: int) -> DenseOperator:
    """The penalty ``(Jz - <Jz>)^2`` of :func:`_wi3_objective`."""
    jz = collective_j(num_qubits, "z")
    jz_mean = jz.expectation(dicke(num_qubits, excitations))
    return op_power(jz - jz_mean * identity(num_qubits), 2)


def _projector_witness_matrix(target: StateVector, lambda_sq: float) -> np.ndarray:
    """The projector witness ``W_P = lambda_sq * 1 - |target><target|``."""
    return lambda_sq * np.eye(target.dim) - np.outer(target.vec, target.vec.conj())


def _certificate_slack(witness: np.ndarray, projector_witness: np.ndarray, alpha: float) -> float:
    """``min-eig(W - alpha * W_P)``; the certificate holds when it is >= -LMI_ATOL."""
    return float(np.linalg.eigvalsh(witness - alpha * projector_witness)[0])


def _largest_valid_alpha(
    witness: np.ndarray, projector_witness_mat: np.ndarray, hi: float = 10.0
) -> float | None:
    """Largest alpha in (0, hi] with min-eig(W - alpha*W_P) >= -LMI_ATOL.

    The minimum eigenvalue is concave in alpha, so a bounded scalar search
    locates the peak and a bisection walks down the right branch.
    """

    def slack(alpha: float) -> float:
        return _certificate_slack(witness, projector_witness_mat, alpha)

    res = minimize_scalar(
        lambda a: -slack(a), bounds=(0.0, hi), method="bounded", options={"xatol": 1e-4}
    )
    peak = float(res.x)
    if slack(peak) < -LMI_ATOL:
        return None
    if slack(hi) >= -LMI_ATOL:
        return hi
    lo, up = peak, hi
    while up - lo > 1e-6:
        mid = 0.5 * (lo + up)
        if slack(mid) >= -LMI_ATOL:
            lo = mid
        else:
            up = mid
    return lo


def _with_derived_alpha(spec: WitnessSpec) -> WitnessSpec:
    """Attach the largest certifiable alpha to ``spec`` (if one exists)."""
    lam_sq = schmidt_max_sq(spec.target)
    alpha = _largest_valid_alpha(spec.dense.mat, _projector_witness_matrix(spec.target, lam_sq))
    if alpha is None:
        return spec
    return WitnessSpec(
        name=spec.name,
        num_qubits=spec.num_qubits,
        basis=spec.basis,
        coefficients=spec.coefficients,
        target=spec.target,
        alpha=alpha,
        lambda_sq=lam_sq,
        alpha_source="derived",
    )


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def _jpow_basis(axes_powers) -> tuple[BasisTerm, ...]:
    return tuple(BasisTerm("collective", axis, power) for axis, power in axes_powers)


def _wp2_d63() -> WitnessSpec:
    F = Fraction
    basis = (BasisTerm("identity"),) + _jpow_basis(
        [("x", 2), ("y", 2), ("x", 4), ("y", 4), ("x", 6), ("y", 6)]
    )
    coeffs = (F(31, 4), -F(35, 18), -F(35, 18), F(55, 72), F(55, 72), -F(5, 72), -F(5, 72))
    return WitnessSpec(
        "WP2_D63", 6, basis, coeffs, dicke(6, 3),
        alpha=2.5, lambda_sq=0.6, alpha_source="printed",
    )


def _wp3_d63() -> WitnessSpec:
    F = Fraction
    basis = (BasisTerm("identity"),) + _jpow_basis(
        [("x", 2), ("y", 2), ("x", 4), ("y", 4), ("x", 6), ("y", 6),
         ("z", 2), ("z", 4), ("z", 6)]
    )
    coeffs = (
        F(3, 2), -F(1, 45), -F(1, 45), F(1, 36), F(1, 36), -F(1, 180), -F(1, 180),
        F(1007, 360), -F(31, 36), F(23, 360),
    )
    return WitnessSpec(
        "WP3_D63", 6, basis, coeffs, dicke(6, 3),
        alpha=2.5, lambda_sq=0.6, alpha_source="printed",
    )


def _wp3_d42() -> WitnessSpec:
    F = Fraction
    basis = (BasisTerm("identity"),) + _jpow_basis(
        [("x", 2), ("y", 2), ("x", 4), ("y", 4), ("z", 2), ("z", 4)]
    )
    coeffs = (F(2), F(1, 6), F(1, 6), -F(1, 6), -F(1, 6), F(31, 12), -F(7, 12))
    return WitnessSpec(
        "WP3_D42", 4, basis, coeffs, dicke(4, 2),
        alpha=3.0, lambda_sq=Fraction(2, 3), alpha_source="printed",
    )


def _wp3_d84() -> WitnessSpec:
    basis = (BasisTerm("identity"),) + _jpow_basis(
        [(axis, 2 * n) for axis in ("x", "y", "z") for n in range(1, 5)]
    )
    coeffs = (
        1.3652,
        0.0038612, -0.0052555, 0.0015016, -0.00010726,
        0.0038612, -0.0052555, 0.0015016, -0.000107266,
        3.124, -1.07699, 0.11916, -0.0038992,
    )
    # No alpha certificate exists for these printed coefficients: the best
    # slack min-eig(W - alpha W_P) is about -2.5e-4, near alpha = 2.389.
    return WitnessSpec("WP3_D84", 8, basis, coeffs, dicke(8, 4))


def _wp3_d105() -> WitnessSpec:
    basis = (
        BasisTerm("identity"),
        BasisTerm("tensor", "x", 10, shift=1.0),
        BasisTerm("tensor", "x", 10, shift=-1.0),
        BasisTerm("tensor", "y", 10, shift=1.0),
        BasisTerm("tensor", "y", 10, shift=-1.0),
    ) + _jpow_basis([("z", 2 * n) for n in range(1, 6)])
    c_xy = -0.0023069
    # The identity coefficient follows from the <W> = -1 normalization at the
    # target: each (sigma_l +- 1)^(x)10 term evaluates to binom(10,5) = 252
    # there and the J_z powers vanish, so c_1 = -1 + 4*252*|c_xy| = 1.3253552.
    # This value also reproduces the quoted 0.2404 white-noise tolerance.
    c_1 = -1.0 - 4 * 252 * c_xy
    coeffs = (c_1, c_xy, c_xy, c_xy, c_xy,
              3.4681, -1.2624, 0.16494, -0.0084574, 0.000146551)
    return _with_derived_alpha(WitnessSpec("WP3_D105", 10, basis, coeffs, dicke(10, 5)))


def _wi3_d41(q: float) -> WitnessSpec:
    if abs(q - 1.47) < 1e-12:
        c = 4.1234
    else:
        from .optimize import _ppt_constant  # deferred to avoid an import cycle

        c = _ppt_constant(_wi3_objective(4, 1, q))
    return wi3_witness(4, 1, c, q, name="WI3_D41")


_BUILDERS = {
    "WP_D63": lambda: projector_witness(dicke(6, 3), name="WP_D63"),
    "WP_D41": lambda: projector_witness(dicke(4, 1), name="WP_D41"),
    "WP_D42": lambda: projector_witness(dicke(4, 2), name="WP_D42"),
    "WP2_D63": _wp2_d63,
    "WP3_D63": _wp3_d63,
    "WP3_D42": _wp3_d42,
    "WP3_D84": _wp3_d84,
    "WP3_D105": _wp3_d105,
    "WI2_D63": lambda: wi2_witness(6, 11.0179, name="WI2_D63"),
    "WI2_D5": lambda: wi2_witness(5, 7.8723, name="WI2_D5"),
    "WI3_W5": lambda: _with_derived_alpha(wi3_witness(5, 1, 5.6242, 2.22, name="WI3_W5")),
    "WI3_W6": lambda: _with_derived_alpha(wi3_witness(6, 1, 7.1095, 3.13, name="WI3_W6")),
}

CATALOG_NAMES = tuple(sorted(_BUILDERS) + ["WI3_D41"])


@lru_cache(maxsize=None)
def _catalog_cached(key: str, q: float | None) -> WitnessSpec:
    if key == "WI3_D41":
        return _wi3_d41(1.47 if q is None else q)
    if q is not None:
        raise ValueError(f"witness {key!r} takes no q parameter")
    return _BUILDERS[key]()


def catalog(name: str, q: float | None = None) -> WitnessSpec:
    """Named witnesses with the published coefficients.

    ``WI3_D41`` accepts the parameter ``q`` (default 1.47, the published
    optimum, with the published constant 4.1234); for any other ``q`` the
    constant is recomputed from the PPT relaxation.
    """
    key = name.strip().upper().replace("-", "_")
    if key not in _BUILDERS and key != "WI3_D41":
        raise ValueError(f"unknown witness {name!r}; choose one of {CATALOG_NAMES}")
    return _catalog_cached(key, q)


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------

def expectation(witness: WitnessSpec, rho: DenseOperator) -> float:
    """``Tr(W rho)`` for a unit-trace ``rho``."""
    if abs(rho.trace() - 1.0) > 1e-8:
        raise ValueError(f"rho has trace {rho.trace()!r}, expected 1")
    return witness.dense.expectation(rho)


def noise_tolerance(
    witness: WitnessSpec, noise: NoiseModel, rho: DenseOperator | None = None
) -> float:
    """Largest noise fraction ``p*`` below which the witness value stays negative.

    For ``rho(p) = (1-p) rho + p rho_noise`` the witness detects the state
    for all ``p < p* = Tr(W rho) / (Tr(W rho) - Tr(W rho_noise))``, capped at 1.
    """
    if rho is None:
        rho = witness.target.density()
    value = expectation(witness, rho)
    if value >= 0:
        raise ValueError(f"witness value {value!r} on rho is not negative")
    return _critical_noise(value, expectation(witness, noise.rho_noise))


def _critical_noise(value: float, value_noise: float) -> float:
    """Noise fraction ``v / (v - v_noise)``, capped at 1, at which ``(1-p) v + p v_noise`` is 0."""
    if value_noise <= value:
        return 1.0
    return min(1.0, value / (value - value_noise))


def fidelity_bound(witness: WitnessSpec, expectation_value: float) -> float:
    """Lower bound ``lambda_sq - value / alpha`` on the target fidelity."""
    if witness.alpha is None or witness.lambda_sq is None:
        raise ValueError(f"witness {witness.name!r} has no alpha certificate")
    return float(witness.lambda_sq) - expectation_value / witness.alpha


def nonwhite_noise_state(p: float) -> DenseOperator:
    """Six-qubit mixture ``p |D63><D63| + (1-p)/2 (|D62><D62| + |D64><D64|)``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p!r} outside [0, 1]")
    mats = [dicke(6, m).density().mat for m in (2, 3, 4)]
    return DenseOperator(p * mats[1] + 0.5 * (1.0 - p) * (mats[0] + mats[2]))


def fidelity_curves(witness: WitnessSpec, noise: NoiseModel, p_grid) -> np.ndarray:
    """Columns ``(p, F, F')``: exact fidelity and witness-based lower bound.

    The state is ``rho(p) = (1-p) |target><target| + p rho_noise``; both
    curves are affine in ``p`` by linearity of the trace.
    """
    grid = np.asarray(p_grid, dtype=float).reshape(-1)
    if grid.size == 0 or grid.min() < 0.0 or grid.max() > 1.0:
        raise ValueError("p_grid must be a nonempty grid inside [0, 1]")
    target_rho = witness.target.density()
    value_target = expectation(witness, target_rho)
    value_noise = expectation(witness, noise.rho_noise)
    fid_noise = target_rho.expectation(noise.rho_noise)
    fid = (1.0 - grid) + grid * fid_noise
    values = (1.0 - grid) * value_target + grid * value_noise
    bound = np.array([fidelity_bound(witness, v) for v in values])
    return np.column_stack([grid, fid, bound])
