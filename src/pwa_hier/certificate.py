"""Simulation-function certificates: verification, synthesis, values, gain slopes.

A certificate for a joint mode is a positive-definite matrix ``M`` (extended
by a positive scalar ``m`` in homogeneous coordinates for affine cells)
satisfying three matrix-inequality margins: it dominates the squared output
map, stays positive definite against the cell-bounding relaxation, and
decays at rate ``lambda`` along the closed loop.  The simulation function
``V = sqrt(quadratic form)/kappa`` then bounds the output error by
``kappa V``, and linear gain slopes translate input/disturbance magnitudes
into the invariant-level threshold ``b`` that the simulator evaluates per
sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateStateError,
    DimensionMismatchError,
    InfeasibleCertificateError,
    NegativeQuadFormError,
    SynthesisFailedError,
)
from .linalg import as_matrix, as_vector, sym_eigen
from .polytope import AFFINE, CONIC, ContinuityMatrix
from .relation import JointMode, JointSystem
from .systems import hurwitz_margin

#: Eigenvalue-margin tolerance used by all three feasibility conditions.
LMI_TOL = 1e-9

#: Diagonal loading of the decay equation during synthesis.
SYNTH_EPSILON = 1e-6

#: Number of decay-rate candidates in the default synthesis grid.
LAMBDA_GRID_POINTS = 16

_FACTORIZATION_TOL = 1e-8


@dataclass(frozen=True)
class ModeCertificate:
    """Certificate data of one joint mode.

    ``m_scalar`` is the homogeneous-block entry for affine cells and None
    for conic cells.  ``U``/``W`` are the symmetric nonnegative-entry
    relaxation weights (None means zero).
    """

    M: np.ndarray
    m_scalar: Optional[float] = None
    U: Optional[np.ndarray] = None
    W: Optional[np.ndarray] = None

    def __post_init__(self):
        M = as_matrix(self.M, "M")
        if M.shape[0] != M.shape[1]:
            raise DimensionMismatchError(f"M must be square, got {M.shape}")
        if float(sym_eigen(M).eigenvalues[0]) < 1e-10:
            raise InfeasibleCertificateError(
                "M must be positive definite (smallest eigenvalue >= 1e-10)"
            )
        object.__setattr__(self, "M", M)
        if self.m_scalar is not None:
            if not self.m_scalar > 0.0:
                raise InfeasibleCertificateError(
                    f"m_scalar must be positive, got {self.m_scalar}"
                )
            object.__setattr__(self, "m_scalar", float(self.m_scalar))
        for name in ("U", "W"):
            val = getattr(self, name)
            if val is not None:
                val = as_matrix(val, name)
                if np.any(val < 0.0):
                    raise InfeasibleCertificateError(f"{name} must have nonnegative entries")
                object.__setattr__(self, name, val)

    def extended(self) -> np.ndarray:
        """Homogeneous block matrix ``diag(M, m_scalar)``."""
        if self.m_scalar is None:
            return self.M
        d = self.M.shape[0]
        out = np.zeros((d + 1, d + 1))
        out[:d, :d] = self.M
        out[d, d] = self.m_scalar
        return out


@dataclass(frozen=True)
class Certificate:
    """Per-mode certificates sharing one decay rate and error scaling."""

    kappa: float
    lam: float
    entries: tuple[ModeCertificate, ...]
    T: Optional[np.ndarray] = None
    jbars: Optional[tuple[ContinuityMatrix, ...]] = None

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise InfeasibleCertificateError(f"kappa must be positive, got {self.kappa}")
        if not self.lam > 0.0:
            raise InfeasibleCertificateError(f"lambda must be positive, got {self.lam}")
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.jbars is not None and len(self.jbars) != len(self.entries):
            raise DimensionMismatchError("need one continuity matrix per mode")
        if self.T is not None:
            T = as_matrix(self.T, "T")
            object.__setattr__(self, "T", T)
            if self.jbars is not None:
                for idx, (entry, jbar) in enumerate(zip(self.entries, self.jbars)):
                    rebuilt = jbar.Jbar.T @ T @ jbar.Jbar
                    target = entry.extended()
                    err = np.linalg.norm(rebuilt - target)
                    if err > _FACTORIZATION_TOL * (1.0 + np.linalg.norm(target)):
                        raise InfeasibleCertificateError(
                            f"entry {idx}: continuity factorization off by {err:.3e}"
                        )


@dataclass(frozen=True)
class LmiReport:
    """Eigenvalue margins of the three certificate conditions.

    ``margins[0]`` = smallest eigenvalue of the output-domination condition
    (feasible at >= -LMI_TOL); ``margins[1]`` = smallest eigenvalue of the
    relaxed positivity condition (feasible at >= +LMI_TOL); ``margins[2]`` =
    largest eigenvalue of the decay condition (feasible at <= +LMI_TOL).
    """

    margins: tuple[float, float, float]
    feasible: bool


def lmi_margins(M, A, C, E, U, W, lam: float, affine: bool) -> tuple[float, float, float]:
    """Raw eigenvalue margins of the three conditions for given blocks.

    For affine cells the decay weight applies only to the state block
    (``diag(lam I, 0)``); conic cells scale all of ``M``.
    """
    M = as_matrix(M, "M")
    d = M.shape[0]
    C = as_matrix(C, "C")
    E = as_matrix(E, "E")
    A = as_matrix(A, "A")
    if A.shape != (d, d) or C.shape[1] != d or E.shape[1] != d:
        raise DimensionMismatchError("certificate blocks disagree on dimension")
    U = np.zeros((E.shape[0], E.shape[0])) if U is None else as_matrix(U, "U")
    W = np.zeros((E.shape[0], E.shape[0])) if W is None else as_matrix(W, "W")
    if U.shape != (E.shape[0], E.shape[0]) or W.shape != (E.shape[0], E.shape[0]):
        raise DimensionMismatchError("U/W must be square over the bounding rows")

    S1 = M - C.T @ C
    S2 = M - E.T @ U @ E
    lam_weights = np.full(d, lam)
    if affine:
        lam_weights[-1] = 0.0
    S3 = A.T @ M + M @ A + E.T @ W @ E + lam_weights[:, None] * M
    S3 = 0.5 * (S3 + S3.T)
    m1 = float(sym_eigen(0.5 * (S1 + S1.T)).eigenvalues[0])
    m2 = float(sym_eigen(0.5 * (S2 + S2.T)).eigenvalues[0])
    m3 = float(sym_eigen(S3).eigenvalues[-1])
    return m1, m2, m3


def _mode_blocks(entry: ModeCertificate, jm: JointMode):
    """(M, A, C, E, affine) blocks for one joint mode, in the coordinates
    its cell kind dictates."""
    if jm.kind == CONIC:
        return entry.M, jm.Aprime, jm.Cprime, jm.cell.E, False
    if entry.m_scalar is None:
        raise InfeasibleCertificateError(
            f"mode {jm.label}: affine cell requires a homogeneous block entry"
        )
    return entry.extended(), jm.Abar, jm.Cbar, jm.bounding.Ebar, True


def verify_lmi(cert: Certificate, joint: JointSystem, idx: int) -> LmiReport:
    """Eigenvalue margins of the certificate conditions for one mode."""
    entry = cert.entries[idx]
    jm = joint.modes[idx]
    M, A, C, E, affine = _mode_blocks(entry, jm)
    m1, m2, m3 = lmi_margins(M, A, C, E, entry.U, entry.W, cert.lam, affine)
    feasible = (m1 >= -LMI_TOL) and (m2 >= LMI_TOL) and (m3 <= LMI_TOL)
    return LmiReport((m1, m2, m3), feasible)


def verify_all(cert: Certificate, joint: JointSystem) -> tuple[LmiReport, ...]:
    return tuple(verify_lmi(cert, joint, idx) for idx in range(len(joint.modes)))


def _solve_decay_equation(A: np.ndarray, lam: float) -> Optional[np.ndarray]:
    """Solve ``A^T M + M A + lam M = -SYNTH_EPSILON I`` by vectorization
    (one LU solve of the ``d^2 x d^2`` operator); None when the operator is
    (near-)singular at this decay rate."""
    d = A.shape[0]
    I = np.eye(d)
    coeff = np.kron(I, A.T) + np.kron(A.T, I) + lam * np.eye(d * d)
    rhs = (-SYNTH_EPSILON * I).reshape(-1, order="F")
    try:
        sol = np.linalg.solve(coeff, rhs)
    except np.linalg.LinAlgError:
        return None
    if np.linalg.norm(coeff @ sol - rhs) > 1e-6 * SYNTH_EPSILON * np.sqrt(d):
        return None
    M = sol.reshape((d, d), order="F")
    return 0.5 * (M + M.T)


def default_lambda_grid(joint: JointSystem) -> np.ndarray:
    """Descending log-spaced decay-rate candidates below twice the slowest
    closed-loop eigenvalue."""
    slowest = min(-hurwitz_margin(jm.Aprime) for jm in joint.modes)
    if slowest <= 0.0:
        raise SynthesisFailedError("joint closed loop is not Hurwitz")
    top = 2.0 * slowest
    lo = min(1e-3, top / 10.0)
    return np.geomspace(top, lo, LAMBDA_GRID_POINTS)


def synthesize_certificate(
    joint: JointSystem,
    kappa: float,
    lambda_grid: Optional[Sequence[float]] = None,
    m_scalar: float = 1.0,
) -> Certificate:
    """Heuristic certificate construction checked by the exact verifier.

    For each candidate decay rate (descending, so the first hit is the
    fastest certified decay): solve the loaded decay equation per mode, scale
    the solution until it dominates the squared output map, attach the
    homogeneous entry for affine cells, and accept the first rate at which
    every mode verifies.  Relaxation weights stay zero, which only
    strengthens the verified conditions.  Deterministic given its inputs.
    """
    grid = default_lambda_grid(joint) if lambda_grid is None else np.asarray(
        lambda_grid, dtype=float
    )
    for lam in sorted(grid, reverse=True):
        if lam <= 0.0:
            continue
        entries = []
        for jm in joint.modes:
            M = _solve_decay_equation(jm.Aprime, lam)
            if M is None:
                break
            eig = sym_eigen(M)
            min_eig = float(eig.eigenvalues[0])
            if min_eig <= 0.0:
                break
            # scale so M dominates C'^T C' (generalized top eigenvalue)
            inv_sqrt = (eig.eigenvectors / np.sqrt(eig.eigenvalues)) @ eig.eigenvectors.T
            CtC = jm.Cprime.T @ jm.Cprime
            ratio = inv_sqrt @ CtC @ inv_sqrt
            alpha = max(1.0, float(sym_eigen(0.5 * (ratio + ratio.T)).eigenvalues[-1]))
            if alpha * min_eig < 1e-10:
                break
            entries.append(ModeCertificate(
                M=alpha * M,
                m_scalar=m_scalar if jm.kind == AFFINE else None,
            ))
        else:
            cert = Certificate(kappa=kappa, lam=float(lam), entries=tuple(entries))
            if all(r.feasible for r in verify_all(cert, joint)):
                return cert
    raise SynthesisFailedError(
        "no decay rate in the grid produced a feasible certificate"
    )


def _quad_forms(entry: ModeCertificate, omega: np.ndarray, kind: str) -> np.ndarray:
    """Quadratic form of each row of ``omega``, plus ``m_scalar`` (the
    implicit trailing 1) on affine cells."""
    quad = np.einsum("ij,jk,ik->i", omega, entry.M, omega)
    if kind == AFFINE:
        quad = quad + entry.m_scalar
    return quad


def sim_fn_values(cert: Certificate, idx: int, omega: np.ndarray, kind: str) -> np.ndarray:
    """Simulation-function values ``sqrt(quadratic form)/kappa``, one per row
    of ``omega`` (homogeneous coordinate excluded); forms that round below
    zero count as zero."""
    quad = _quad_forms(cert.entries[idx], omega, kind)
    return np.sqrt(np.clip(quad, 0.0, None)) / cert.kappa


def sim_fn_value(cert: Certificate, idx: int, omega, kind: str) -> float:
    """Simulation-function value at one state ``omega``: the one-row view of
    :func:`sim_fn_values` with its inputs checked."""
    entry = cert.entries[idx]
    omega = as_vector(omega, "omega")
    if omega.shape[0] != entry.M.shape[0]:
        raise DimensionMismatchError(
            f"omega has length {omega.shape[0]}, M is {entry.M.shape[0]}x"
        )
    if kind == AFFINE and entry.m_scalar is None:
        raise InfeasibleCertificateError("affine cell without homogeneous entry")
    q = float(_quad_forms(entry, omega[None, :], kind)[0])
    if q < -1e-12:
        raise NegativeQuadFormError(f"quadratic form evaluated to {q:.3e}")
    return float(sim_fn_values(cert, idx, omega[None, :], kind)[0])


def _root_norm(M: np.ndarray, X: np.ndarray) -> float:
    """``||M^(1/2) X||_2`` of a PSD ``M``, as ``sqrt(lambda_max(X^T M X))``."""
    if X.size == 0:
        return 0.0
    S = X.T @ M @ X
    return float(np.sqrt(max(np.linalg.eigvalsh(0.5 * (S + S.T))[-1], 0.0)))


def gain_slopes(
    cert: Certificate, joint: JointSystem, idx: int
) -> tuple[float, float, float, float]:
    """Raw gain slopes ``(gamma1, gamma2, gamma3, sqrt_m)`` of one mode.

    gamma1 scales the transformed input, gamma2 the disturbance, gamma3 the
    abstraction state; all are ``2 ||sqrt(M) X||_2 / lambda`` with the
    blocks matching the cell kind (``X = I`` for gamma2).  ``sqrt_m`` is
    zero for conic cells.
    """
    entry = cert.entries[idx]
    jm = joint.modes[idx]
    if jm.kind == CONIC:
        M = entry.M
        B1, B2 = jm.B1prime, jm.B2prime
        sqrt_m = 0.0
    else:
        M = entry.extended()
        B1, B2 = jm.B1bar, jm.B2bar
        if entry.m_scalar is None:
            raise InfeasibleCertificateError("affine cell without homogeneous entry")
        sqrt_m = float(np.sqrt(entry.m_scalar))
    g1 = 2.0 * _root_norm(M, B2) / cert.lam
    g2 = 2.0 * _root_norm(M, np.eye(M.shape[0])) / cert.lam
    g3 = 2.0 * _root_norm(M, B1) / cert.lam
    return g1, g2, g3, sqrt_m


def sim_fn_derivative(
    cert: Certificate,
    joint: JointSystem,
    idx: int,
    omega,
    x2,
    u2bar,
    c_t,
) -> float:
    """Analytic directional derivative of the simulation function along the
    closed loop, at the given state and exogenous values."""
    entry = cert.entries[idx]
    jm = joint.modes[idx]
    omega = as_vector(omega, "omega")
    x2 = as_vector(x2, "x2")
    u2bar = as_vector(u2bar, "u2bar")
    c_t = as_vector(c_t, "c_t")
    n = joint.n
    m = joint.m
    if c_t.shape[0] != n:
        raise DimensionMismatchError(f"c_t has length {c_t.shape[0]}, expected {n}")
    cprime = np.concatenate([c_t, np.zeros(m)])
    omega_dot = jm.Aprime @ omega + jm.B1prime @ x2 + jm.B2prime @ u2bar + cprime
    v = sim_fn_value(cert, idx, omega, jm.kind)
    if v <= 1e-12:
        raise DegenerateStateError("simulation function too small for a derivative")
    numerator = float(omega @ entry.M @ omega_dot)
    return numerator / (cert.kappa ** 2 * v)
