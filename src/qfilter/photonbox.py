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
step, stored as the two sectors they factor into, and 6 possible
detector readings (nothing, g, e, gg, ge, ee), linked by a 6 x 21
left-stochastic error matrix whose columns depend only on the atom jump: each
is the distribution of the unordered reading of the jump's 0, 1 or 2 atoms,
read independently through one atom's readout table. The atom sector is
exactly complete; the cavity sector is complete to second order in the
decoherence strength, so the family carries a measured completeness tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errormodel import ErrorModel
from .errors import TruncationWarning, ValidationError
from .kraus import KrausFamily

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
        if isinstance(self.n_max, bool) or not isinstance(self.n_max, numbers.Integral):
            raise ValidationError(f"n_max must be an integer, got {self.n_max!r}")
        if self.n_max < 1:
            raise ValidationError(f"n_max must be >= 1, got {self.n_max}")
        if len(self.p_atom) != 3:
            raise ValidationError("p_atom needs exactly three probabilities")
        for name, value in vars(self).items():
            if name != "n_max" and not np.all(np.isfinite(value)):
                raise ValidationError(f"{name} must be finite, got {value}")
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
        for name in ("decoherence_strength", "thermal_occupation"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be positive")
        # Smallest diagonal entry of the no-jump cavity operator "o", at n_max:
        # at or below zero the first-order damping model no longer applies.
        eps, n_th = self.decoherence_strength, self.thermal_occupation
        o_min = 1.0 - eps * ((1.0 + 2.0 * n_th) * self.n_max + n_th) / 2.0
        if not o_min > 0.0:
            raise ValidationError(
                f"decoherence_strength {eps} too strong for n_max={self.n_max}: the "
                f"no-jump cavity operator has diagonal entry {o_min:.3g} <= 0"
            )

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


@functools.lru_cache(maxsize=None)
def _generator_eigh(n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Spectrum and eigenvectors of the Hermitian generator i(adag - a)."""
    a, a_dag, _ = fock_operators(n_max)
    return np.linalg.eigh(1j * (a_dag - a))


def displacement(alpha: complex, n_max: int) -> np.ndarray:
    """Coherent displacement exp(alpha adag - alpha* a) on the truncated space.

    D(r e^(i theta)) = R D(r) R^dag with R = exp(i theta n) diagonal and
    D(r) = exp(-i r H), exponentiated on the spectrum of H = i(adag - a),
    which is diagonalized once per ``n_max``; R V and its adjoint are kept
    per (n_max, theta). D is unitary to eigensolver accuracy, and exactly I
    at alpha = 0. For real alpha, D = exp(alpha (adag - a)) is real
    orthogonal, and is returned as float64 (the eigensolver's imaginary
    noise, about 1e-17, is dropped), so a real drive keeps the model real;
    otherwise it is complex128. For |alpha|^2 approaching the cutoff the
    operator no longer matches the infinite-dimensional displacement; a
    warning is emitted when |alpha|^2 > n_max / 4.
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
    if alpha == 0:
        return np.eye(n_max + 1)
    w, _ = _generator_eigh(n_max)
    rotated, adjoint = _rotated_eigenvectors(n_max, float(np.angle(alpha)))
    d = (rotated * np.exp(-1j * abs(alpha) * w)) @ adjoint
    return np.ascontiguousarray(d.real) if alpha.imag == 0 else d


@functools.lru_cache(maxsize=16)
def _rotated_eigenvectors(n_max: int, theta: float) -> Tuple[np.ndarray, np.ndarray]:
    """R V and its adjoint, R = exp(i theta n), for the generator's eigenvectors V.

    Shared by every amplitude of phase theta (0 or pi under a real drive).
    """
    _, v = _generator_eigh(n_max)
    rotated = np.exp(1j * theta * np.arange(n_max + 1))[:, None] * v
    adjoint = rotated.conj().T
    rotated.flags.writeable = adjoint.flags.writeable = False
    return rotated, adjoint


def l_operators(params: PhotonBoxParams) -> Dict[str, np.ndarray]:
    """The ten elementary jump operators, keyed by jump label.

    Atom jumps (diagonal in the Fock basis, so photon-number eigenstates are
    fixed points of the probe): "no" (empty sample), "g"/"e" (one atom
    collapsed to ground/excited), "gg"/"ge"/"eg"/"ee" (two atoms; "ge" and
    "eg" carry equal matrices but are distinct jumps). Cavity jumps:
    "o" (no photon exchange), "+" (a photon lost to the environment,
    sqrt(eps (1 + n_th)) a) and "-" (a thermal photon gained from it,
    sqrt(eps n_th) adag). The atom sector satisfies sum L^dag L = I
    exactly; the cavity sector does so up to O(decoherence_strength^2) plus
    a truncation-corner artifact, see ``cavity_completeness_deficit``.
    """
    d = params.dim
    a, a_dag, n_op = fock_operators(params.n_max)
    eye = np.eye(d, dtype=np.complex128)
    # per-photon-number phase picked up by one probe atom
    n = np.arange(d, dtype=np.float64)
    phases = (params.phase_per_photon * (n + 0.5) + params.reference_phase) / 2.0
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


def cavity_completeness_deficit(params: PhotonBoxParams) -> float:
    """Max-norm of the cavity-sector completeness defect below the boundary.

    The last row/column is excluded: the creation operator annihilates
    |n_max> under truncation, which plants an
    O(decoherence_strength * thermal_occupation * n_max) artifact in the
    (n_max, n_max) corner. Below the boundary every defect entry is exactly
    quadratic in the decoherence strength, which is the physical statement
    being checked.
    """
    ops = l_operators(params)
    total = sum(ops[k].conj().T @ ops[k] for k in CAVITY_JUMPS)
    defect = np.abs(total - np.eye(params.dim))[: params.n_max, : params.n_max]
    return float(defect.max())


@functools.lru_cache(maxsize=128)
def _sectors(params: PhotonBoxParams) -> Tuple[np.ndarray, np.ndarray]:
    """The atom diagonals (7, d) and the cavity stack (3, d, d), both real."""
    elementary = l_operators(params)
    atoms = np.stack([np.diagonal(elementary[qa]).real for qa in ATOM_JUMPS])
    return atoms, np.stack([elementary[qc].real for qc in CAVITY_JUMPS])


_LABELS = tuple(f"({qa},{qc})" for qa in ATOM_JUMPS for qc in CAVITY_JUMPS)


@functools.lru_cache(maxsize=128)
def composite_kraus(params: PhotonBoxParams, alpha: complex = 0.0) -> KrausFamily:
    """The 21 composite Kraus operators L_cavity @ D_alpha @ L_atom.

    Ordered atom-major, cavity-minor, with labels like "(g,-)". The family
    stores its sectors, not the 21 products: the atom diagonals are its
    inner stack, L_cavity @ D_alpha its outer stack. Its completeness
    tolerance is the measured spectral-norm defect (dominated by the cavity
    sector's second-order deficit plus truncation leakage), so downstream
    probability checks stay honest; the family forms the completeness Gram
    once, for both. Results are cached per (params, alpha), the sectors per
    params.

    Both sectors are real, so for real alpha (a real displacement) the
    family's factors are real and the step engine runs in float64.

    Only the outer stack is built per alpha. Every alpha shares the atom
    diagonals, and through them the read-only arrays that depend only on
    the atom sector: the products of ``kraus._effects`` and, per error
    matrix, the factorization of ``kraus._factor_rows``.
    """
    atoms, cavity = _sectors(params)
    outer = cavity @ displacement(alpha, params.n_max)
    return KrausFamily._factored(atoms, outer, labels=_LABELS)


def detection_error_model(params: PhotonBoxParams) -> ErrorModel:
    """6 x 21 left-stochastic matrix mapping composite jumps to detections.

    Columns follow the composite_kraus ordering and depend only on the atom
    jump (cavity jumps and the displacement drive are invisible to the atom
    detector). Each atom of the jump is independently detected with
    probability ``detection_efficiency``; a detected ground-state atom is
    misread as excited with probability ``assign_error_g`` and vice versa
    with ``assign_error_e``. A double detection does not resolve atom
    order, so "ge" and "eg" share a column. Every column sums to 1 in exact
    arithmetic.
    """
    eps_d = params.detection_efficiency
    eta_g = params.assign_error_g
    eta_e = params.assign_error_e
    # P(reading | atom state); a missed atom reads "" and adds no letter.
    readout = {
        "g": (("", 1.0 - eps_d), ("g", eps_d * (1.0 - eta_g)), ("e", eps_d * eta_g)),
        "e": (("", 1.0 - eps_d), ("g", eps_d * eta_e), ("e", eps_d * (1.0 - eta_e))),
    }
    columns = []
    for qa in ATOM_JUMPS:
        col = dict.fromkeys(DETECTIONS, 0.0)
        atoms = qa.replace("no", "")  # the empty sample has no atom to read
        for reads in itertools.product(*(readout[atom] for atom in atoms)):
            # unordered: "g" before "e", as in DETECTIONS
            reading = "".join(sorted((r for r, _ in reads), reverse=True)) or "no"
            col[reading] += math.prod(p for _, p in reads)
        columns += [list(col.values())] * len(CAVITY_JUMPS)
    return ErrorModel(np.column_stack(columns))
