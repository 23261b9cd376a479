"""Simulation-function certificates: verification, synthesis, values, gain slopes.

A certificate for a joint mode is a positive-definite matrix ``M`` (extended
by a positive scalar ``m`` in homogeneous coordinates for affine cells)
satisfying three matrix-inequality margins: it dominates the squared output
map, is positive definite, and decays at rate ``lambda`` along the closed
loop.  The simulation function ``V = sqrt(quadratic form)/kappa`` then
bounds the output error by ``kappa V``, and linear gain slopes translate
input/disturbance magnitudes into the invariant-level threshold ``b`` that
the simulator evaluates per sample.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateStateError,
    DimensionMismatchError,
    InfeasibleCertificateError,
    NegativeQuadFormError,
    NotSymmetricError,
    SynthesisFailedError,
)
from .linalg import as_matrix, as_positive, as_vector, frobenius
from .polytope import AFFINE, CONIC
from .relation import JointSystem
from .systems import hurwitz_margin, stack_blocks

#: Eigenvalue-margin tolerance used by all three feasibility conditions.
LMI_TOL = 1e-9

#: Diagonal loading of the decay equation during synthesis.
SYNTH_EPSILON = 1e-6

#: Number of decay-rate candidates in the default synthesis grid.
LAMBDA_GRID_POINTS = 16

_FACTORIZATION_TOL = 1e-8

#: Relative asymmetry tolerated in a supplied ``M`` before it is rejected.
SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class ModeCertificate:
    """Certificate data of one joint mode.

    ``m_scalar`` is the homogeneous-block entry for affine cells and None
    for conic cells.
    """

    M: np.ndarray
    m_scalar: Optional[float] = None
    # not fields: perfbench/checks.py still reads these as zero relaxation weights
    U = W = None

    def __post_init__(self):
        M = as_matrix(self.M, "M")
        if M.shape[0] != M.shape[1]:
            raise DimensionMismatchError(f"M must be square, got {M.shape}")
        scale = max(1.0, float(frobenius(M)))
        half = 0.5 * M  # sums and differences of halves cannot overflow
        asym = 2.0 * float(frobenius(half - half.T))
        if not asym <= SYMMETRY_RTOL * scale:
            raise NotSymmetricError(
                f"M: relative asymmetry {asym / scale:.3e} exceeds {SYMMETRY_RTOL:.0e}"
            )
        if not float(np.linalg.eigvalsh(half + half.T)[0]) >= 1e-10:
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
    jbars: Optional[tuple[np.ndarray, ...]] = None

    def __post_init__(self):
        as_positive(self.kappa, "kappa", InfeasibleCertificateError)
        as_positive(self.lam, "lambda", InfeasibleCertificateError)
        object.__setattr__(self, "entries", tuple(self.entries))
        if len({entry.M.shape for entry in self.entries}) > 1:
            raise DimensionMismatchError("every mode's M must have the same size")
        if self.jbars is not None:
            object.__setattr__(self, "jbars", tuple(as_matrix(J, "Jbar") for J in self.jbars))
            if len(self.jbars) != len(self.entries):
                raise DimensionMismatchError("need one continuity matrix per mode")
        if self.T is not None:
            T = as_matrix(self.T, "T")
            object.__setattr__(self, "T", T)
            if T.shape[0] != T.shape[1]:
                raise DimensionMismatchError(f"T must be square, got shape {T.shape}")
            if self.jbars is not None:
                for idx, (entry, J) in enumerate(zip(self.entries, self.jbars)):
                    target = entry.extended()
                    if J.shape != (T.shape[0], target.shape[0]):
                        raise DimensionMismatchError(
                            f"entry {idx}: Jbar has shape {J.shape}, expected "
                            f"{(T.shape[0], target.shape[0])} (T's rows by the "
                            f"extended M's size)"
                        )
                    with np.errstate(over="ignore", invalid="ignore"):  # NaN fails
                        err = frobenius(J.T @ T @ J - target)
                    if not err <= _FACTORIZATION_TOL * (1.0 + frobenius(target)):
                        raise InfeasibleCertificateError(
                            f"entry {idx}: continuity factorization off by {err:.3e}"
                        )


@dataclass(frozen=True)
class LmiReport:
    """Eigenvalue margins of the three certificate conditions.

    ``margins[0]`` = smallest eigenvalue of the output-domination condition
    (feasible at >= -LMI_TOL); ``margins[1]`` = smallest eigenvalue of the
    positivity condition (feasible at >= +LMI_TOL); ``margins[2]`` =
    largest eigenvalue of the decay condition (feasible at <= +LMI_TOL).
    """

    margins: tuple[float, float, float]
    feasible: bool


def _condition_matrices(M, A, C, lam: float, affine: bool) -> np.ndarray:
    """The three symmetrized condition matrices ``(S1, S2, S3)`` of one
    mode, stacked, or of each mode of blocks stacked along a leading axis,
    after checking the blocks' shapes.

    For affine cells the decay weight applies only to the state block
    (``diag(lam I, 0)``); conic cells scale all of ``M``.
    """
    d = M.shape[-1]
    if A.shape[-2:] != (d, d) or C.shape[-1] != d:
        raise DimensionMismatchError("certificate blocks disagree on dimension")

    S = np.empty(M.shape[:-2] + (3, d, d))
    S[..., 0, :, :] = M - np.swapaxes(C, -1, -2) @ C
    S[..., 1, :, :] = M
    lam_weights = np.full(d, lam)
    if affine:
        lam_weights[-1] = 0.0
    S[..., 2, :, :] = np.swapaxes(A, -1, -2) @ M + M @ A + lam_weights[:, None] * M
    return 0.5 * (S + np.swapaxes(S, -1, -2))


def _margins(w: np.ndarray) -> np.ndarray:
    """``(m1, m2, m3)`` along the last axis from condition-matrix eigenvalues."""
    return np.stack([w[..., 0, 0], w[..., 1, 0], w[..., 2, -1]], axis=-1)


def _stacked_blocks(cert: Certificate, joint: JointSystem):
    """The modes in groups whose blocks share their shapes (cell kind and
    size).  Yields per group the indices of its modes, its blocks ``(M, A,
    B1, B2, C)`` stacked along a leading axis, and whether its cells are
    affine: then the blocks are in homogeneous coordinates, else in plain
    joint ones."""
    groups: dict = {}
    for idx, jm in enumerate(joint.modes):
        entry = cert.entries[idx]
        affine = jm.kind != CONIC
        if affine and entry.m_scalar is None:
            raise InfeasibleCertificateError(
                f"mode {jm.label}: affine cell requires a homogeneous block entry")
        blocks = ((entry.extended(), jm.Abar, jm.B1bar, jm.B2bar, jm.Cbar) if affine
                  else (entry.M, jm.Aprime, jm.B1prime, jm.B2prime, jm.Cprime))
        key = (affine, *(X.shape for X in blocks))
        positions, members = groups.setdefault(key, ([], []))
        positions.append(idx)
        members.append(blocks)
    for (affine, *_), (positions, members) in groups.items():
        yield positions, [np.array(col) for col in zip(*members)], affine


def verify_all(cert: Certificate, joint: JointSystem) -> tuple[LmiReport, ...]:
    """Eigenvalue margins of the certificate conditions for every mode.

    The modes are grouped by block shape (``_stacked_blocks``); each
    group's condition matrices are built in one stacked expression and go
    through one eigenvalue call.  A mode whose condition matrices are not
    finite (an extreme supplied number overflowed) gets NaN margins, which
    are infeasible, and no eigenvalue call.
    """
    margins = np.empty((len(joint.modes), 3))
    for positions, (M, A, _, _, C), affine in _stacked_blocks(cert, joint):
        with np.errstate(over="ignore", invalid="ignore"):
            S = _condition_matrices(M, A, C, cert.lam, affine)
        finite = np.isfinite(S).all(axis=(-3, -2, -1))
        w = np.full(S.shape[:-1], np.nan)
        w[finite] = np.linalg.eigvalsh(S[finite])
        margins[positions] = _margins(w)
    return tuple(LmiReport((m1, m2, m3), m1 >= -LMI_TOL and m2 >= LMI_TOL and m3 <= LMI_TOL)
                 for m1, m2, m3 in margins.tolist())


@functools.lru_cache(maxsize=None)
def _upper_triangle(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices ``(a, b)`` of the upper triangle of a ``d x d``
    matrix in row-major order, and the ``d x d`` map from each entry to the
    position of its upper-triangle mirror in that order (read-only)."""
    a, b = np.triu_indices(d)
    tri = np.empty((d, d), dtype=np.intp)
    tri[a, b] = tri[b, a] = np.arange(a.size)
    for arr in (a, b, tri):
        arr.flags.writeable = False
    return a, b, tri


def _decay_operator(A: np.ndarray) -> np.ndarray:
    """Matrix of ``M -> A^T M + M A`` on symmetric ``M``, over the
    ``s = d(d+1)/2`` upper-triangle coordinates of both ``M`` and its
    (symmetric) image; for a stack of matrices, one operator per matrix.

    Entry ``(a, b)`` of the image is ``sum_k A[k, a] M[k, b] + M[a, k]
    A[k, b]``; its ``2d`` terms are scattered onto the coordinates of the
    ``M`` entries they read, by one ``np.add.at`` over the whole stack, so
    no ``d^2 x d^2`` Kronecker sum is formed.
    """
    a, b, tri = _upper_triangle(A.shape[-1])
    At = np.swapaxes(A.reshape((-1,) + A.shape[-2:]), -1, -2)
    op = np.zeros((len(At), a.size, a.size))
    with np.errstate(over="ignore"):  # an overflowed entry fails the decay solve
        np.add.at(op, (np.arange(len(At))[:, None, None], np.arange(a.size)[:, None],
                       np.hstack([tri[:, b].T, tri[a]])),
                  np.concatenate([At[:, a], At[:, b]], axis=-1))
    return op.reshape(A.shape[:-2] + op.shape[1:])


def _solve_decay_equation(A: np.ndarray, op: np.ndarray, lam: float) -> Optional[np.ndarray]:
    """Solve ``A^T M + M A + lam M = -SYNTH_EPSILON I`` for symmetric ``M``,
    given ``op = _decay_operator(A)``: one LU solve of size ``d(d+1)/2``, or
    one stacked solve for a stack of matrices ``A``.  None when the shifted
    operator of any of them is (near-)singular at this rate, or a solution
    misses the residual bound.  ``op`` is shifted in place and restored, so
    a stack is not copied (``op`` holds no ``-0.0``, so shifting only the
    diagonal gives the bits of ``op + lam I``)."""
    d = A.shape[-1]
    a, b, _ = _upper_triangle(d)
    rhs = np.broadcast_to(np.where(a == b, -SYNTH_EPSILON, 0.0)[:, None], op.shape[:-1] + (1,))
    diag = np.arange(a.size)
    unshifted = op[..., diag, diag]
    op[..., diag, diag] += lam
    try:
        x = np.linalg.solve(op, rhs)[..., 0]
    except np.linalg.LinAlgError:
        return None
    finally:
        op[..., diag, diag] = unshifted
    M = np.empty(A.shape)
    M[..., a, b] = M[..., b, a] = x
    residual = np.swapaxes(A, -1, -2) @ M + M @ A + lam * M + SYNTH_EPSILON * np.eye(d)
    if not np.all(frobenius(residual) <= 1e-6 * SYNTH_EPSILON * np.sqrt(d)):
        return None
    return M


def default_lambda_grid(joint: JointSystem) -> np.ndarray:
    """Descending log-spaced decay-rate candidates below twice the slowest
    closed-loop eigenvalue (one stacked eigenvalue call over the modes)."""
    slowest = -np.max(hurwitz_margin(np.array([jm.Aprime for jm in joint.modes])))
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
    fastest certified decay): solve the loaded decay equation of every mode
    in one stacked solve (the operators are built once, stacked, and
    shifted per rate), scale each solution until it dominates the squared
    output map, attach the homogeneous entry for affine cells, and accept
    the first rate at which every mode verifies.  A rate at which any mode
    fails is skipped.  Deterministic given its inputs.
    """
    grid = default_lambda_grid(joint) if lambda_grid is None else np.asarray(lambda_grid, float)
    A, C = stack_blocks(joint.modes, ("Aprime", "Cprime"))
    ops = _decay_operator(A)
    # an extreme finite output map may overflow C^T C and the scaling matrix;
    # a rate whose scaling matrix is not finite is skipped below
    with np.errstate(over="ignore", invalid="ignore"):
        CtC = np.swapaxes(C, -1, -2) @ C
    m = [m_scalar if jm.kind == AFFINE else None for jm in joint.modes]
    for lam in sorted(grid, reverse=True):
        if lam <= 0.0:
            continue
        M = _solve_decay_equation(A, ops, lam)
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
        alpha = np.maximum(1.0, np.linalg.eigh(0.5 * (ratio + ratio.swapaxes(-1, -2)))[0][:, -1])
        if np.any(alpha * w[:, 0] < 1e-10):
            continue
        cert = Certificate(kappa=kappa, lam=float(lam), entries=tuple(
            ModeCertificate(M=alpha_i * M_i, m_scalar=m_i)
            for alpha_i, M_i, m_i in zip(alpha.tolist(), M, m)))
        if all(r.feasible for r in verify_all(cert, joint)):
            return cert
    raise SynthesisFailedError(
        "no decay rate in the grid produced a feasible certificate"
    )


def _quad_forms(cert: Certificate, idx, omega: np.ndarray, kind) -> np.ndarray:
    """Quadratic form of each row of ``omega`` under the ``M`` of mode
    ``idx``, plus ``m_scalar`` (the implicit trailing 1) where the cell is
    affine; ``idx`` and ``kind`` may give one mode and cell kind per row."""
    M = np.array([e.M for e in cert.entries])[idx]
    m = np.array([e.m_scalar for e in cert.entries], float)[idx]  # NaN for None
    quad = np.einsum("...j,...jk,...k->...", omega, M, omega)
    return quad + np.where(np.asarray(kind) == AFFINE, m, 0.0)


def sim_fn_values(cert: Certificate, idx, omega: np.ndarray, kind) -> np.ndarray:
    """Simulation-function values ``sqrt(quadratic form)/kappa``, one per row
    of ``omega`` (homogeneous coordinate excluded), with one mode and cell
    kind, or one per row; forms that round below zero count as zero."""
    quad = _quad_forms(cert, idx, omega, kind)
    with np.errstate(over="ignore"):
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
    q = float(_quad_forms(cert, idx, omega[None, :], kind)[0])
    if q < -1e-12:
        raise NegativeQuadFormError(f"quadratic form evaluated to {q:.3e}")
    return float(sim_fn_values(cert, idx, omega[None, :], kind)[0])


def gain_slopes_all(cert: Certificate, joint: JointSystem) -> np.ndarray:
    """Raw gain slopes of every mode, one row ``(gamma1, gamma2, gamma3,
    sqrt_m)`` per mode.

    gamma1 scales the transformed input, gamma2 the disturbance, gamma3 the
    abstraction state; all are ``2 ||sqrt(M) X||_2 / lambda`` with the
    blocks matching the cell kind (``X = I`` for gamma2), where
    ``||sqrt(M) X||_2 = sqrt(lambda_max(X^T M X))``.  ``sqrt_m`` is zero
    for conic cells.  The ``X^T M X`` forms of each group of modes with one
    block shape (``_stacked_blocks``) are built and solved stacked.  A slope
    that overflows, or whose form does, is inf, and no eigenvalue call runs
    on a form that is not finite.
    """
    out = np.zeros((len(joint.modes), 4))
    with np.errstate(over="ignore", invalid="ignore"):
        for positions, (M, _, B1, B2, _), affine in _stacked_blocks(cert, joint):
            XtMX = (np.swapaxes(B2, -1, -2) @ M @ B2, M, np.swapaxes(B1, -1, -2) @ M @ B1)
            for col, S in enumerate(XtMX):
                if S.shape[-1]:  # an empty block has slope zero
                    S = 0.5 * (S + np.swapaxes(S, -1, -2))
                    finite = np.isfinite(S).all(axis=(-2, -1))
                    w = np.full(len(S), np.inf)
                    w[finite] = np.linalg.eigvalsh(S[finite])[..., -1]
                    out[positions, col] = 2.0 * np.sqrt(np.maximum(w, 0.0)) / cert.lam
            if affine:
                out[positions, 3] = np.sqrt(M[:, -1, -1])
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
