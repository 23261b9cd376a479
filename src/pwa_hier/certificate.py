"""Simulation-function certificates: verification, synthesis, values, gain slopes.

A certificate for a joint mode is a symmetric matrix ``M`` over the plain
joint coordinates, on conic and affine cells alike, satisfying three
matrix-inequality margins: it dominates the squared output map, is positive
definite (margin 2 of :func:`verify_all` alone tests it), and decays at
rate ``lambda`` along the closed loop.  An affine cell adds the fixed
constant ``AFFINE_M`` to the quadratic form ``omega^T M omega`` and its
square root to the threshold; no condition reads it.  ``V = sqrt(quadratic
form)/kappa`` then bounds the output error by ``kappa V``, and linear gain
slopes translate input/disturbance magnitudes into the invariant-level
threshold ``b`` that the simulator evaluates per sample.  A certificate is
``(kappa, lambda, M)`` and nothing more: it carries no cell relaxation
weights, no continuity factorization of ``M`` and no per-cell constant.
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
    NotSymmetricError,
    PwaHierError,
    SynthesisFailedError,
)
from .linalg import as_matrix, as_positive, as_vector, frobenius
from .polytope import AFFINE
from .relation import JointSystem
from .systems import hurwitz_margin

#: Eigenvalue-margin tolerance used by all three feasibility conditions.
LMI_TOL = 1e-9

#: Diagonal loading of the decay equation during synthesis.
SYNTH_EPSILON = 1e-6

#: Relative margin of a synthesized ``M`` past tight output domination, so
#: that domination holds exactly, not only to within rounding.
SYNTH_MARGIN = 1e-9

#: Constant an affine cell adds to V's quadratic form (its square root to b).
AFFINE_M = 1.0

#: Number of decay-rate candidates in the default synthesis grid.
LAMBDA_GRID_POINTS = 15

#: Relative asymmetry tolerated in a supplied ``M`` before it is rejected.
SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class ModeCertificate:
    """Certificate data of one joint mode: a finite, square, symmetric ``M``
    (``sim_fn_derivative`` assumes the symmetry) that need not be positive
    definite, since margin 2 of :func:`verify_all` decides that.
    """

    M: np.ndarray
    # not fields: perfbench/checks.py still reads these, as zero relaxation
    # weights and as no homogeneous entry (every cell on its plain blocks)
    U = W = m_scalar = None

    def __post_init__(self):
        M = as_matrix(self.M, "M")
        if M.shape[0] != M.shape[1]:
            raise DimensionMismatchError(f"M must be square, got {M.shape}")
        if not (M == M.T).all():  # a synthesized M is symmetric bit for bit
            scale = max(1.0, float(frobenius(M)))
            half = 0.5 * M  # a difference of halves cannot overflow
            asym = 2.0 * float(frobenius(half - half.T))
            if not asym <= SYMMETRY_RTOL * scale:
                raise NotSymmetricError(
                    f"M: relative asymmetry {asym / scale:.3e} exceeds {SYMMETRY_RTOL:.0e}"
                )
        object.__setattr__(self, "M", M)


@dataclass(frozen=True)
class Certificate:
    """Per-mode certificates sharing one decay rate and error scaling, and
    nothing else: no relaxation weights, no continuity factorization."""

    kappa: float
    lam: float
    entries: tuple[ModeCertificate, ...]

    def __post_init__(self):
        as_positive(self.kappa, "kappa", InfeasibleCertificateError)
        as_positive(self.lam, "lambda", InfeasibleCertificateError)
        object.__setattr__(self, "entries", tuple(self.entries))
        if len({entry.M.shape for entry in self.entries}) > 1:
            raise DimensionMismatchError("every mode's M must have the same size")


@dataclass(frozen=True)
class LmiReport:
    """Eigenvalue margins of the three certificate conditions.

    ``margins[0]`` = smallest eigenvalue of the output-domination condition
    (feasible at >= -LMI_TOL); ``margins[1]`` = that of ``M``, the only
    test of its positivity (feasible at >= +LMI_TOL); ``margins[2]`` =
    largest eigenvalue of the decay condition (<= +LMI_TOL).  All three are
    of the state blocks, on affine cells as on conic ones.
    """

    margins: tuple[float, float, float]
    feasible: bool


def _condition_matrices(M, A, C, lam: float) -> np.ndarray:
    """The three symmetrized condition matrices ``(S1, S2, S3)`` of one
    mode, stacked, or of each mode of blocks stacked along a leading axis,
    after checking the blocks' shapes."""
    d = M.shape[-1]
    if A.shape[-2:] != (d, d) or C.shape[-1] != d:
        raise DimensionMismatchError("certificate blocks disagree on dimension")

    S = np.empty(M.shape[:-2] + (3, d, d))
    S[..., 0, :, :] = M - np.swapaxes(C, -1, -2) @ C
    S[..., 1, :, :] = M
    S[..., 2, :, :] = np.swapaxes(A, -1, -2) @ M + M @ A + lam * M
    return 0.5 * (S + np.swapaxes(S, -1, -2))


def verify_all(cert: Certificate, joint: JointSystem) -> tuple[LmiReport, ...]:
    """Eigenvalue margins of the certificate conditions for every mode.

    Every cell, conic or affine, is certified on the mode's state blocks
    ``(M, A', C')``: an affine cell's ``AFFINE_M`` enters ``V`` and ``b``
    only.  The condition matrices of all modes are built in
    one stacked expression and go through one eigenvalue call.  A mode
    whose condition matrices are not finite (an extreme supplied number
    overflowed) gets NaN margins, which are infeasible, and no eigenvalue
    call.
    """
    M = np.array([entry.M for entry in cert.entries])
    with np.errstate(over="ignore", invalid="ignore"):
        S = _condition_matrices(M, joint.Aprime, joint.Cprime, cert.lam)
    finite = np.isfinite(S).all(axis=(-3, -2, -1))
    w = np.full(S.shape[:-1], np.nan)
    w[finite] = np.linalg.eigvalsh(S[finite])
    margins = zip(w[:, 0, 0].tolist(), w[:, 1, 0].tolist(), w[:, 2, -1].tolist())
    return tuple(LmiReport((m1, m2, m3), m1 >= -LMI_TOL and m2 >= LMI_TOL and m3 <= LMI_TOL)
                 for m1, m2, m3 in margins)


def _solve_decay_equation(A: np.ndarray, lam: float) -> Optional[np.ndarray]:
    """Solve ``A^T M + M A + lam M = -SYNTH_EPSILON I`` for symmetric ``M``,
    or one such equation per matrix of a stack ``A``: Newton's iteration for
    the sign function of ``[[S^T, Q], [0, -S]]``, ``S = A + (lam/2) I``, ``Q
    = SYNTH_EPSILON I``, takes a Hurwitz ``S`` to ``-I`` and ``Q`` to ``2 M``
    (J. D. Roberts, Int. J. Control 32(4), 1980); each step is one stacked
    inverse, scaled by ``|det S_k|^(1/d)``, and needs no eigenvectors.  None
    when any ``S_k`` is singular or has not settled to a relative change of
    1e-10 within 50 steps, or a solution misses the residual bound."""
    d = A.shape[-1]
    S = A + 0.5 * lam * np.eye(d)
    Q = np.broadcast_to(SYNTH_EPSILON * np.eye(d), A.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(50):
            try:
                S_inv = np.linalg.inv(S)
            except np.linalg.LinAlgError:
                return None
            c = np.exp(np.linalg.slogdet(S)[1] / d)[..., None, None]
            step = 0.5 * (S / c + c * S_inv)
            Q = 0.5 * (Q / c + c * (np.swapaxes(S_inv, -1, -2) @ Q @ S_inv))
            settled = frobenius(step - S) <= 1e-10 * frobenius(step)
            S = step
            if settled.all():
                break
        else:
            return None
        M = 0.25 * (Q + np.swapaxes(Q, -1, -2))
        residual = np.swapaxes(A, -1, -2) @ M + M @ A + lam * M + SYNTH_EPSILON * np.eye(d)
    if not (frobenius(residual) <= 1e-6 * SYNTH_EPSILON * np.sqrt(d)).all():
        return None
    return M


def default_lambda_grid(joint: JointSystem) -> np.ndarray:
    """Descending log-spaced decay-rate candidates strictly below twice the
    slowest closed-loop decay rate (one stacked eigenvalue call over the
    modes): the log spacing from ``top`` down to ``lo`` without ``top``
    itself.  At ``lam = top`` the decay equation has no solution: for the
    slowest eigenpair ``(mu, v)`` of ``A'``, ``v^H (A'^T M + M A' + lam M) v
    = (2 Re mu + lam) v^H M v = 0``, while the right side gives
    ``-SYNTH_EPSILON |v|^2``."""
    slowest = -np.max(hurwitz_margin(joint.Aprime))
    if slowest <= 0.0:
        raise SynthesisFailedError("joint closed loop is not Hurwitz")
    top = 2.0 * slowest
    lo = min(1e-3, top / 10.0)
    return np.geomspace(top, lo, LAMBDA_GRID_POINTS + 1)[1:]


def synthesize_certificate(
    joint: JointSystem,
    kappa: float,
    lambda_grid: Optional[Sequence[float]] = None,
    m_scalar: Optional[float] = None,
) -> Certificate:
    """Heuristic certificate construction checked by the exact verifier.

    For each candidate decay rate (descending, so the first hit is the
    fastest certified decay): solve the loaded decay equation of every mode
    in one stacked solve, scale each solution until it dominates the squared
    output map and then by ``1 + SYNTH_MARGIN``, and accept the first rate
    at which every mode verifies; a rate at which any mode fails is skipped.
    ``m_scalar`` must be None: an affine cell's constant is ``AFFINE_M``.
    Deterministic given its inputs.
    """
    if m_scalar is not None:
        raise PwaHierError(f"m_scalar: the affine-cell constant is fixed at {AFFINE_M:g}, "
                           f"got {m_scalar!r}")
    grid = default_lambda_grid(joint) if lambda_grid is None else np.asarray(lambda_grid, float)
    # an extreme finite output map may overflow C^T C and the scaling matrix;
    # a rate whose scaling matrix is not finite is skipped below
    with np.errstate(over="ignore", invalid="ignore"):
        CtC = np.swapaxes(joint.Cprime, -1, -2) @ joint.Cprime
    for lam in sorted(grid, reverse=True):
        if lam <= 0.0:
            continue
        M = _solve_decay_equation(joint.Aprime, lam)
        if M is None:
            continue
        w, Qm = np.linalg.eigh(M)
        if np.any(w[:, 0] <= 0.0):
            continue
        # scale so M dominates C'^T C' (generalized top eigenvalue), from
        # eigh: eigvalsh's can differ in the last bit and move alpha
        inv_sqrt = (Qm / np.sqrt(w)[:, None, :]) @ np.swapaxes(Qm, -1, -2)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = inv_sqrt @ CtC @ inv_sqrt
        if not np.isfinite(ratio).all():
            continue
        alpha = (1.0 + SYNTH_MARGIN) * np.maximum(
            1.0, np.linalg.eigh(0.5 * (ratio + ratio.swapaxes(-1, -2)))[0][:, -1])
        cert = Certificate(kappa=kappa, lam=float(lam), entries=tuple(
            ModeCertificate(M=alpha_i * M_i) for alpha_i, M_i in zip(alpha.tolist(), M)))
        if all(r.feasible for r in verify_all(cert, joint)):
            return cert
    raise SynthesisFailedError(
        "no decay rate in the grid produced a feasible certificate"
    )


def _quad_forms(M, add, omega: np.ndarray) -> np.ndarray:
    """Quadratic form of each row of ``omega`` under ``M``, plus ``add``;
    ``M`` and ``add`` may be one per row."""
    return np.einsum("...j,...jk,...k->...", omega, M, omega) + add


def sim_fn_values(M, add, omega: np.ndarray, kappa: float) -> np.ndarray:
    """Simulation-function values ``sqrt(quadratic form)/kappa``, one per row
    of ``omega``: the form under a mode's ``M`` plus ``add``, ``AFFINE_M``
    on an affine cell and 0 on a conic one, with one ``M`` and ``add`` or
    one per row; forms that round below zero count as zero."""
    quad = _quad_forms(M, add, omega)
    with np.errstate(over="ignore"):
        return np.sqrt(np.clip(quad, 0.0, None)) / kappa


def sim_fn_value(cert: Certificate, idx: int, omega, kind: str) -> float:
    """Simulation-function value at one state ``omega``: the one-row view of
    :func:`sim_fn_values` with its inputs checked."""
    entry = cert.entries[idx]
    omega = as_vector(omega, "omega")
    if omega.shape[0] != entry.M.shape[0]:
        raise DimensionMismatchError(
            f"omega has length {omega.shape[0]}, M is {entry.M.shape[0]}x"
        )
    add = AFFINE_M if kind == AFFINE else 0.0
    q = float(_quad_forms(entry.M, add, omega[None, :])[0])
    if q < -1e-12:
        raise NegativeQuadFormError(f"quadratic form evaluated to {q:.3e}")
    return float(sim_fn_values(entry.M, add, omega[None, :], cert.kappa)[0])


def gain_slopes_all(cert: Certificate, joint: JointSystem) -> np.ndarray:
    """Raw gain slopes of every mode, one row ``(gamma1, gamma2, gamma3,
    sqrt_m)`` per mode.

    gamma1 scales the transformed input, gamma2 the disturbance, gamma3 the
    abstraction state; all are ``2 ||sqrt(M) X||_2 / lambda`` on the state
    blocks (``X = B2'``, ``I`` and ``B1'``), where ``||sqrt(M) X||_2 =
    sqrt(lambda_max(X^T M X))``.  ``sqrt_m`` is ``sqrt(AFFINE_M)`` on an
    affine cell and zero on a conic one.  The ``X^T M X`` forms of all
    modes are built and solved stacked.  A slope that overflows, or whose
    form does, is inf, and no eigenvalue call runs on a form that is not
    finite.
    """
    out = np.zeros((len(joint.modes), 4))
    out[[jm.kind == AFFINE for jm in joint.modes], 3] = np.sqrt(AFFINE_M)
    M = np.array([entry.M for entry in cert.entries])
    B1, B2 = joint.B1prime, joint.B2prime
    with np.errstate(over="ignore", invalid="ignore"):
        XtMX = (np.swapaxes(B2, -1, -2) @ M @ B2, M, np.swapaxes(B1, -1, -2) @ M @ B1)
        for col, S in enumerate(XtMX):
            if S.shape[-1]:  # an empty block has slope zero
                S = 0.5 * (S + np.swapaxes(S, -1, -2))
                finite = np.isfinite(S).all(axis=(-2, -1))
                w = np.full(len(S), np.inf)
                w[finite] = np.linalg.eigvalsh(S[finite])[..., -1]
                out[:, col] = 2.0 * np.sqrt(np.maximum(w, 0.0)) / cert.lam
    return out


def gain_slopes(
    cert: Certificate, joint: JointSystem, idx: int
) -> tuple[float, float, float, float]:
    """Raw gain slopes ``(gamma1, gamma2, gamma3, sqrt_m)`` of one mode: the
    one-mode view of :func:`gain_slopes_all`."""
    return tuple(gain_slopes_all(cert, joint)[idx].tolist())


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
