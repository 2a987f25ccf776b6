"""Cavity QND photon-counting model with realistic detector imperfections.

A microwave cavity mode, truncated at ``n_max`` photons, is probed
dispersively: each step, 0, 1 or 2 two-level atoms (probabilities
``p_atom``) cross the cavity, pick up a photon-number-dependent phase and
collapse to ground/excited, weakly measuring the photon number without
destroying it. The detector misses atoms (efficiency ``detection_efficiency``)
and misassigns states (rates ``assign_error_g``/``assign_error_e``). Between
probes the field suffers weak damping/thermal excitation (``decoherence_strength``,
``thermal_occupation``) and an optional coherent displacement drive of
amplitude alpha (the control input).

This yields 7 atom jumps x 3 cavity jumps = 21 composite Kraus operators per
step and 6 possible detector readings (nothing, g, e, gg, ge, ee), linked by
a 6 x 21 left-stochastic error matrix whose columns depend only on the atom
jump. The atom sector is exactly complete; the cavity sector is complete to
second order in the decoherence strength, so the family carries a measured
completeness tolerance.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errormodel import ErrorModel
from .errors import TruncationWarning, ValidationError
from .kraus import KrausFamily, _gram

__all__ = [
    "ATOM_JUMPS",
    "CAVITY_JUMPS",
    "DETECTIONS",
    "PhotonBoxParams",
    "fock_operators",
    "displacement",
    "l_operators",
    "composite_kraus",
    "detection_error_model",
    "atom_completeness_residual",
    "cavity_completeness_deficit",
]

ATOM_JUMPS: Tuple[str, ...] = ("no", "g", "e", "gg", "ge", "eg", "ee")
CAVITY_JUMPS: Tuple[str, ...] = ("o", "+", "-")
DETECTIONS: Tuple[str, ...] = ("no", "g", "e", "gg", "ge", "ee")


@dataclass(frozen=True)
class PhotonBoxParams:
    """Experimental parameters of the photon-box probe.

    Defaults are desk-scale working values chosen for tests and demos, not
    measured values from any particular apparatus. ``p_atom`` is stored as a
    tuple, so a JSON list yields a hashable (cacheable) parameter set.
    """

    n_max: int = 10
    p_atom: Tuple[float, float, float] = (0.2, 0.7, 0.1)
    detection_efficiency: float = 0.8
    assign_error_g: float = 0.1
    assign_error_e: float = 0.1
    decoherence_strength: float = 1e-2
    thermal_occupation: float = 5e-2
    phase_per_photon: float = math.pi / 5
    reference_phase: float = math.pi / 4

    def __post_init__(self):
        object.__setattr__(self, "p_atom", tuple(self.p_atom))
        if self.n_max < 1:
            raise ValidationError(f"n_max must be >= 1, got {self.n_max}")
        if len(self.p_atom) != 3:
            raise ValidationError("p_atom needs exactly three probabilities")
        if any(p < 0.0 or p > 1.0 for p in self.p_atom):
            raise ValidationError(f"p_atom entries must lie in [0, 1]: {self.p_atom}")
        total = self.p_atom[0] + self.p_atom[1] + self.p_atom[2]
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(
                f"p_atom must sum to 1 within 1e-12, got {total!r}"
            )
        for name in ("detection_efficiency", "assign_error_g", "assign_error_e"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")
        if not self.decoherence_strength > 0.0:
            raise ValidationError("decoherence_strength must be positive")
        if not self.thermal_occupation > 0.0:
            raise ValidationError("thermal_occupation must be positive")

    @property
    def dim(self) -> int:
        return self.n_max + 1


def fock_operators(n_max: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Annihilation, creation and number operators on the truncated Fock space.

    a|n> = sqrt(n)|n-1>, adag|n> = sqrt(n+1)|n+1> (adag|n_max> = 0 under
    truncation), n_op = adag a = diag(0..n_max). The commutator [a, adag]
    equals I except in the (n_max, n_max) corner, a truncation artifact.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    d = n_max + 1
    a = np.zeros((d, d), dtype=np.complex128)
    for n in range(1, d):
        a[n - 1, n] = math.sqrt(n)
    a_dag = a.conj().T.copy()
    n_op = np.diag(np.arange(d, dtype=np.float64)).astype(np.complex128)
    return a, a_dag, n_op


def displacement(alpha: complex, n_max: int) -> np.ndarray:
    """Coherent displacement exp(alpha adag - alpha* a) on the truncated space.

    The anti-Hermitian generator is diagonalized as i * (Hermitian) and
    exponentiated on its eigenvalues, so the result is unitary to
    eigensolver accuracy. For |alpha|^2 approaching the cutoff the operator
    no longer matches the infinite-dimensional displacement; a warning is
    emitted when |alpha|^2 > n_max / 4.
    """
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValidationError(f"displacement amplitude must be finite, got {alpha}")
    if abs(alpha) ** 2 > n_max / 4.0:
        warnings.warn(
            f"|alpha|^2 = {abs(alpha) ** 2:.3f} exceeds n_max/4 = {n_max / 4.0:.3f}; "
            "displacement leaks significant amplitude above the photon cutoff",
            TruncationWarning,
            stacklevel=2,
        )
    a, a_dag, _ = fock_operators(n_max)
    generator = alpha * a_dag - np.conj(alpha) * a
    hermitian = -1j * generator
    w, v = np.linalg.eigh(hermitian)
    return (v * np.exp(1j * w)) @ v.conj().T


def _probe_phases(params: PhotonBoxParams) -> np.ndarray:
    """Per-photon-number phase picked up by one probe atom."""
    n = np.arange(params.dim, dtype=np.float64)
    return (params.phase_per_photon * (n + 0.5) + params.reference_phase) / 2.0


def l_operators(params: PhotonBoxParams) -> Dict[str, np.ndarray]:
    """The ten elementary jump operators, keyed by jump label.

    Atom jumps (diagonal in the Fock basis, so photon-number eigenstates are
    fixed points of the probe): "no" (empty sample), "g"/"e" (one atom
    collapsed to ground/excited), "gg"/"ge"/"eg"/"ee" (two atoms; "ge" and
    "eg" carry equal matrices but are distinct jumps). Cavity jumps:
    "o" (no photon exchange), "+" (thermal photon captured), "-" (photon
    lost). The atom sector satisfies sum L^dag L = I exactly; the cavity
    sector does so up to O(decoherence_strength^2) plus a truncation-corner
    artifact, see ``cavity_completeness_deficit``.
    """
    d = params.dim
    a, a_dag, n_op = fock_operators(params.n_max)
    eye = np.eye(d, dtype=np.complex128)
    phases = _probe_phases(params)
    cos_phi = np.diag(np.cos(phases)).astype(np.complex128)
    sin_phi = np.diag(np.sin(phases)).astype(np.complex128)

    p0, p1, p2 = params.p_atom
    eps = params.decoherence_strength
    n_th = params.thermal_occupation

    two_atom_cross = math.sqrt(p2) * cos_phi @ sin_phi
    ops = {
        "no": math.sqrt(p0) * eye,
        "g": math.sqrt(p1) * cos_phi,
        "e": math.sqrt(p1) * sin_phi,
        "gg": math.sqrt(p2) * cos_phi @ cos_phi,
        "ge": two_atom_cross,
        "eg": two_atom_cross.copy(),
        "ee": math.sqrt(p2) * sin_phi @ sin_phi,
        "o": eye - (eps * (1.0 + 2.0 * n_th) / 2.0) * n_op - (eps * n_th / 2.0) * eye,
        "+": math.sqrt(eps * (1.0 + n_th)) * a,
        "-": math.sqrt(eps * n_th) * a_dag,
    }
    return ops


def atom_completeness_residual(params: PhotonBoxParams) -> float:
    """Max-norm of the atom-sector completeness defect (zero up to rounding)."""
    ops = l_operators(params)
    total = sum(ops[k].conj().T @ ops[k] for k in ATOM_JUMPS)
    return float(np.abs(total - np.eye(params.dim)).max())


def cavity_completeness_deficit(
    params: PhotonBoxParams, *, include_boundary: bool = False
) -> float:
    """Max-norm of the cavity-sector completeness defect.

    By default the last row/column is excluded: the creation operator
    annihilates |n_max> under truncation, which plants an
    O(decoherence_strength * thermal_occupation * n_max) artifact in the
    (n_max, n_max) corner. Below the boundary every defect entry is exactly
    quadratic in the decoherence strength, which is the physical statement
    being checked. Pass ``include_boundary=True`` for the raw full-matrix
    defect (the number that matters for probability accounting).
    """
    ops = l_operators(params)
    total = sum(ops[k].conj().T @ ops[k] for k in CAVITY_JUMPS)
    defect = np.abs(total - np.eye(params.dim))
    if not include_boundary:
        defect = defect[: params.n_max, : params.n_max]
    return float(defect.max())


@functools.lru_cache(maxsize=128)
def composite_kraus(params: PhotonBoxParams, alpha: complex = 0.0) -> KrausFamily:
    """The 21 composite Kraus operators L_cavity @ D_alpha @ L_atom.

    Ordered atom-major, cavity-minor, with labels like "(g,-)". The family's
    completeness tolerance is set to its measured spectral-norm defect
    (dominated by the cavity sector's second-order deficit plus truncation
    leakage), so downstream probability checks stay honest.

    Results are cached per (params, alpha); operators are immutable.
    """
    alpha = complex(alpha)
    elementary = l_operators(params)
    d_alpha = displacement(alpha, params.n_max)
    cavity_displaced = {qc: elementary[qc] @ d_alpha for qc in CAVITY_JUMPS}

    ops = []
    labels = []
    for qa in ATOM_JUMPS:
        for qc in CAVITY_JUMPS:
            ops.append(cavity_displaced[qc] @ elementary[qa])
            labels.append(f"({qa},{qc})")

    stacked = np.asarray(ops)
    defect_spectrum = np.linalg.eigvalsh(_gram(stacked) - np.eye(params.dim))
    tolerance = float(np.abs(defect_spectrum).max()) * (1.0 + 1e-9) + 1e-14
    return KrausFamily(stacked, completeness_tolerance=tolerance, labels=labels)


def _atom_detection_column(
    qa: str, eps_d: float, eta_g: float, eta_e: float
) -> np.ndarray:
    """Detection distribution (over DETECTIONS) for one atom jump.

    Each atom is independently detected with probability eps_d; a detected
    ground-state atom is misread as excited with probability eta_g and vice
    versa with eta_e. A double detection does not resolve atom order, so
    "ge" and "eg" share a column.
    """
    miss = 1.0 - eps_d
    g_ok = 1.0 - eta_g
    e_ok = 1.0 - eta_e
    if qa == "no":
        col = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    elif qa == "g":
        col = [miss, eps_d * g_ok, eps_d * eta_g, 0.0, 0.0, 0.0]
    elif qa == "e":
        col = [miss, eps_d * eta_e, eps_d * e_ok, 0.0, 0.0, 0.0]
    elif qa == "gg":
        col = [
            miss * miss,
            2.0 * eps_d * miss * g_ok,
            2.0 * eps_d * miss * eta_g,
            eps_d * eps_d * g_ok * g_ok,
            2.0 * eps_d * eps_d * eta_g * g_ok,
            eps_d * eps_d * eta_g * eta_g,
        ]
    elif qa == "ee":
        col = [
            miss * miss,
            2.0 * eps_d * miss * eta_e,
            2.0 * eps_d * miss * e_ok,
            eps_d * eps_d * eta_e * eta_e,
            2.0 * eps_d * eps_d * eta_e * e_ok,
            eps_d * eps_d * e_ok * e_ok,
        ]
    elif qa in ("ge", "eg"):
        col = [
            miss * miss,
            eps_d * miss * (g_ok + eta_e),
            eps_d * miss * (e_ok + eta_g),
            eps_d * eps_d * eta_e * g_ok,
            eps_d * eps_d * (g_ok * e_ok + eta_g * eta_e),
            eps_d * eps_d * eta_g * e_ok,
        ]
    else:
        raise ValidationError(f"unknown atom jump {qa!r}")
    return np.asarray(col, dtype=np.float64)


def detection_error_model(params: PhotonBoxParams) -> ErrorModel:
    """6 x 21 left-stochastic matrix mapping composite jumps to detections.

    Columns follow the composite_kraus ordering and depend only on the atom
    jump (cavity jumps and the displacement drive are invisible to the atom
    detector). Every column sums to 1 exactly in exact arithmetic.
    """
    eps_d = params.detection_efficiency
    eta_g = params.assign_error_g
    eta_e = params.assign_error_e
    columns = []
    for qa in ATOM_JUMPS:
        col = _atom_detection_column(qa, eps_d, eta_g, eta_e)
        for _ in CAVITY_JUMPS:
            columns.append(col)
    return ErrorModel(np.column_stack(columns))
