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
import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from numbers import Integral

import numpy as np

from .linalg import (
    DenseOperator,
    StateVector,
    _check_dense_size,
    identity,
    op_power,
    schmidt_max_sq,
)
from .symmetric import (collective_j, collective_power, compress, dicke, lift, spin_blocks,
                        spin_matrix, symmetric_amplitudes)

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
        if not isinstance(self.power, (Integral, type(None))) or not math.isfinite(self.shift):
            raise ValueError(f"basis term needs an integer power and a finite shift: {self!r}")
        if self.kind == "collective" and (self.power is None or self.power < 1):
            raise ValueError("collective basis term requires power >= 1")

    def block(self, num_qubits: int, j: float, target_amps: np.ndarray | None) -> np.ndarray:
        """This term on one copy of spin ``j`` (:func:`spin_blocks`), given the
        target's amplitudes on the Dicke states (:func:`symmetric_amplitudes`)."""
        if self.kind != "projector":
            return _closed_form_block(self, num_qubits, j)
        if target_amps is None:
            raise ValueError("projector basis term requires a symmetric target")
        dim = int(round(2 * j)) + 1
        top = dim == num_qubits + 1
        return np.outer(target_amps, target_amps.conj()) if top else np.zeros((dim, dim))

    def json_entry(self) -> dict:
        return {**asdict(self), "shift": float(self.shift)}

    @classmethod
    def from_json_entry(cls, entry: dict) -> "BasisTerm":
        return cls(
            kind=entry["kind"],
            axis=entry.get("axis"),
            power=entry.get("power"),
            shift=float(entry.get("shift") or 0.0),
        )


@lru_cache(maxsize=1024)
def _closed_form_block(term: BasisTerm, num_qubits: int, j: float) -> np.ndarray:
    """Read-only :meth:`BasisTerm.block` of a term that does not depend on the target."""
    dim, s = int(round(2 * j)) + 1, term.shift
    if term.kind == "identity":
        op = np.eye(dim)
    elif term.kind == "collective":
        op = np.linalg.matrix_power(spin_matrix(j, term.axis) + s * np.eye(dim), term.power)
    else:  # (sigma + s)^(x)N is (1 + s)^n (s - 1)^(N - n) where n = N/2 + J_axis factors are +1
        _, vecs = np.linalg.eigh(spin_matrix(j, term.axis))  # J_axis = -j, ..., j
        n = round(num_qubits / 2 - j) + np.arange(dim)
        op = (vecs * (1.0 + s) ** n * (s - 1.0) ** (num_qubits - n)) @ vecs.conj().T
    block = (op + op.conj().T) / 2
    block.setflags(write=False)
    return block


@dataclass(frozen=True)
class WitnessSpec:
    """A witness ``W = sum_k c_k B_k`` for a pure target state.

    ``alpha`` and ``lambda_sq`` carry the certificate ``W - alpha * (lambda_sq
    - |target><target|) >= 0`` used for fidelity bounds; both are optional,
    but whenever ``alpha`` is set the certificate is checked at construction.
    ``alpha_source`` records where alpha came from (``printed``, ``derived``
    or ``exact``).

    The certificate and expectation values read :attr:`blocks`, one per total
    spin ``j`` for a symmetric target; :attr:`dense` is lifted from them.
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
        if not all(math.isfinite(float(v)) for v in (*self.coefficients, self.alpha or 0,
                                                     self.lambda_sq or 0)):
            raise ValueError("witness coefficients, alpha and lambda_sq must be finite")
        if self.alpha is not None:
            if self.alpha <= 0:
                raise ValueError("alpha must be positive")
            if self.lambda_sq is None:
                raise ValueError("alpha requires lambda_sq to define the projector witness")
            if self.certificate_slack < -LMI_ATOL:
                raise ValueError(f"W - alpha*W_P has negative eigenvalue "
                                 f"{self.certificate_slack:.3e} for alpha={self.alpha}")

    @cached_property
    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(isometry, W_j)``: ``W = sum_j sum_c V_c W_j V_c^T``, ``V_c = isometry[:, c]``."""
        coeffs = np.array([float(c) for c in self.coefficients])
        return [(iso, np.tensordot(coeffs, stack, axes=1))
                for iso, stack in _basis_blocks(self.basis, self.target)]

    @cached_property
    def dense(self) -> DenseOperator:
        w = lift(self.blocks)
        return DenseOperator((w + w.conj().T) / 2)

    def _projector_witness_blocks(self, lambda_sq: float) -> list[np.ndarray]:
        """The blocks of ``W_P = lambda_sq * 1 - |target><target|``, aligned with :attr:`blocks`."""
        return [lambda_sq * np.eye(len(p)) - p
                for _, (p,) in _basis_blocks((BasisTerm("projector"),), self.target)]

    @cached_property
    def certificate_slack(self) -> float | None:
        """``min-eig(W - alpha * W_P)``, or None when no alpha is set."""
        if self.alpha is None:
            return None
        return _slack([w for _, w in self.blocks],
                      self._projector_witness_blocks(float(self.lambda_sq)), float(self.alpha))

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
        if self.kind == "white":  # read as 1/2^N on every spin block, so it must be exactly that
            if (np.count_nonzero(rho.mat) != rho.dim
                    or not np.all(np.diagonal(rho.mat) == 1.0 / rho.dim)):
                raise ValueError("white noise state is not the maximally mixed state")
            return
        if not rho.is_hermitian(1e-10):
            raise ValueError("noise state is not Hermitian")
        if abs(rho.trace() - 1.0) > 1e-10:
            raise ValueError("noise state trace differs from 1")
        try:  # a Cholesky factor of rho + 1e-10 exists iff min-eig(rho) > -1e-10
            np.linalg.cholesky(rho.hermitized().mat + 1e-10 * np.eye(rho.dim))
        except np.linalg.LinAlgError:
            raise ValueError("noise state is not positive semidefinite") from None

    @classmethod
    def white(cls, num_qubits: int) -> "NoiseModel":
        _check_dense_size(num_qubits)
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

    ``<Jz>`` on the Dicke target ``|D_N^(m)>`` is exactly ``N/2 - m``.
    """
    target = dicke(num_qubits, excitations)
    jz_mean = num_qubits / 2 - excitations
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
    """The penalty ``(Jz - <Jz>)^2`` of :func:`_wi3_objective`, ``<Jz> = N/2 - m``."""
    jz_mean = num_qubits / 2 - excitations
    return op_power(collective_j(num_qubits, "z") - jz_mean * identity(num_qubits), 2)


def _basis_blocks(basis, target: StateVector) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(isometry, stack)`` per block, ``stack[k]`` the block of ``basis[k]``.

    Only a target outside the symmetric subspace has a projector that is not
    permutation invariant; then the one block is the whole space.
    """
    n = target.num_qubits
    spins = spin_blocks(n)
    amps = symmetric_amplitudes(target)
    if amps is not None:
        return [(b.isometry, np.array([term.block(n, b.j, amps) for term in basis]))
                for b in spins]
    stack = [target.density().mat if term.kind == "projector"
             else lift((b.isometry, term.block(n, b.j, None)) for b in spins)
             for term in basis]
    return [(np.eye(target.dim)[:, None, :], np.array(stack))]


def _slack(w_blocks, wp_blocks, alpha: float) -> float:
    """``min-eig(W - alpha * W_P)`` from the blocks of ``W`` and ``W_P``."""
    return min(float(np.linalg.eigvalsh(w - alpha * wp)[0]) for w, wp in zip(w_blocks, wp_blocks))


def _largest_valid_alpha(w_blocks, wp_blocks, hi: float = 10.0) -> float | None:
    """Largest alpha in (0, hi] with min-eig(W - alpha*W_P) >= 0, from the blocks.

    The concave slack min-eig(W - alpha*W_P) changes sign only at eigenvalues of
    some W_P,j^-1 W_j (the real parts of all are taken: a spurious one only splits
    an interval).  The answer is the right end of the last interval between them
    with slack >= 0 at its midpoint, backed off geometrically to slack >= 0 (no
    ``LMI_ATOL``).  lambda_sq, the top eigenvalue of W_P, at 1 or above gives None.
    """
    if max(float(np.linalg.eigvalsh(wp)[-1]) for wp in wp_blocks) >= 1.0:
        return None
    slack = partial(_slack, w_blocks, wp_blocks)
    roots = np.concatenate([np.linalg.eigvals(np.linalg.solve(wp, w)).real
                            for w, wp in zip(w_blocks, wp_blocks)])
    ends = np.append(np.unique(roots[(roots > 0) & (roots < hi)]), hi)
    mids = (np.append(0.0, ends[:-1]) + ends) / 2
    valid = [i for i, mid in enumerate(mids) if slack(mid) >= 0]
    if not valid:
        return None
    end, mid = ends[valid[-1]], mids[valid[-1]]
    alpha, step = end, end * np.finfo(float).eps
    while slack(alpha) < 0:
        alpha, step = max(end - step, mid), 2 * step
    return float(alpha)


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
    spec = WitnessSpec("WP3_D105", 10, basis, coeffs, dicke(10, 5))
    lam_sq = schmidt_max_sq(spec.target)
    wp_blocks = spec._projector_witness_blocks(lam_sq)
    alpha = _largest_valid_alpha([w for _, w in spec.blocks], wp_blocks)
    return replace(spec, alpha=alpha, lambda_sq=lam_sq, alpha_source="derived")


def _wi3_d41(q: float) -> WitnessSpec:
    if abs(q - 1.47) < 1e-12:
        c = 4.1235  # the published 4.1234 sits below the PPT maximum 4.12341941; rounded up
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
    # No alpha certificate exists for WI3_W5 or WI3_W6: over alpha in (0, 10]
    # the best slack min-eig(W - alpha W_P) is -0.83 (near alpha = 0.22) and
    # -0.87 (near alpha = 0.13).
    # WI3_W5's published 5.6242 sits below its PPT maximum 5.62424698; rounded up.
    "WI3_W5": lambda: wi3_witness(5, 1, 5.6243, 2.22, name="WI3_W5"),
    "WI3_W6": lambda: wi3_witness(6, 1, 7.1095, 3.13, name="WI3_W6"),
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
    optimum, with the published constant 4.1234 rounded up to 4.1235); for
    any other ``q`` the constant is the certified upper bound of the PPT
    relaxation.
    """
    key = name.strip().upper().replace("-", "_")
    if key not in _BUILDERS and key != "WI3_D41":
        raise ValueError(f"unknown witness {name!r}; choose one of {CATALOG_NAMES}")
    return _catalog_cached(key, q)


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------

def _block_expectation(blocks, state):
    """``sum_j mult_j Tr(A_j rho_j)`` over the blocks ``(isometry, A_j)`` of a PI operator.

    ``A_j`` may be a stack ``(k, d, d)`` of k operators, giving k values.  ``rho_j =
    sum_c V_c^T rho V_c / mult`` is the state on one block: white noise
    (a :class:`NoiseModel` of kind ``white``) is ``1/2^N`` on every block, a pure
    :class:`StateVector` enters through its amplitudes ``a_c = V_c^T psi`` as
    ``sum_c a_c a_c^dag / mult``, and any other state is compressed once, here.
    """
    if isinstance(state, NoiseModel):
        state = None if state.kind == "white" else state.rho_noise
    total = 0.0
    for iso, a in blocks:
        full, mult, dim = iso.shape
        if state is None:
            total = total + mult * np.einsum("...ii->...", a) / full
            continue
        if isinstance(state, StateVector):
            flat = iso.reshape(full, mult * dim)
            amps = (state.vec.real @ flat + 1j * (state.vec.imag @ flat)).reshape(mult, dim)
            rho = amps.T @ amps.conj() / mult
        else:
            rho = compress(state.mat, iso)
        total = total + mult * np.einsum("...ij,ji->...", a, rho)
    return total


def _witness_value(witness: WitnessSpec, state) -> float:
    """``Tr(W rho)`` by :func:`_block_expectation`; refuses an imaginary residue."""
    val = complex(_block_expectation(witness.blocks, state))
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation value has imaginary residue {val.imag:.3e}")
    return val.real


def expectation(witness: WitnessSpec, rho: DenseOperator) -> float:
    """``Tr(W rho)`` for a unit-trace ``rho``, as ``sum_j mult_j Tr(W_j rho_j)`` over the blocks."""
    if abs(rho.trace() - 1.0) > 1e-8:
        raise ValueError(f"rho has trace {rho.trace()!r}, expected 1")
    return _witness_value(witness, rho)


def noise_tolerance(
    witness: WitnessSpec, noise: NoiseModel, rho: DenseOperator | None = None
) -> float:
    """Largest noise fraction ``p*`` below which the witness value stays negative.

    For ``rho(p) = (1-p) rho + p rho_noise`` the witness detects the state
    for all ``p < p* = Tr(W rho) / (Tr(W rho) - Tr(W rho_noise))``, capped at 1.
    ``rho`` defaults to the pure target, which is read in the spin blocks.
    """
    value = _witness_value(witness, witness.target) if rho is None else expectation(witness, rho)
    if value >= 0:
        raise ValueError(f"witness value {value!r} on rho is not negative")
    return _critical_noise(value, _witness_value(witness, noise))


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
    value_target = _witness_value(witness, witness.target)
    value_noise = _witness_value(witness, noise)
    projector = [(iso, stack[0])
                 for iso, stack in _basis_blocks((BasisTerm("projector"),), witness.target)]
    fid_noise = float(np.real(_block_expectation(projector, noise)))
    fid = (1.0 - grid) + grid * fid_noise
    values = (1.0 - grid) * value_target + grid * value_noise
    bound = np.array([fidelity_bound(witness, v) for v in values])
    return np.column_stack([grid, fid, bound])
