"""Abstraction-relation solving, interface synthesis, and joint assembly.

A relation between a concrete mode ``(A, B, C)`` and an abstraction
``(F, H)`` is a pair ``(P, Q)`` with ``H = C P`` and ``P F = A P + B Q``.
Both equations are vectorized into one stacked linear system and solved for
the minimum-norm least-squares pair; the residual certifies the relation.
The interface feeds the abstraction state, transformed input, and tracking
error back into the concrete input, and the closed loop is assembled as a
block joint system over ``omega = (xtilde, x2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoFeasiblePairingError,
    SingularBBtError,
    UncertifiedRelationError,
)
from .linalg import as_matrix
from .polytope import (
    CellBounding,
    Polyhedron,
    cell_bounding,
    classify_cell,
    joint_partition,
)
from .systems import (
    AbstractionMode,
    LinearAbstraction,
    PwaAbstraction,
    PwaMode,
    PwaSystem,
    assert_hurwitz,
    paired_modes,
)

#: Residuals are tied for pairing purposes when within this scaled quantum.
_PAIRING_TIE_RTOL = 1e-12

#: Smallest singular value an injective state map must exceed.
INJECTIVITY_TOL = 1e-8


def _tolerance(norm_A: float, norm_H: float) -> float:
    """Certification threshold from the spectral norms of ``A`` and ``H``."""
    return 1e-8 * (1.0 + norm_H + norm_A)


def relation_tolerance(A, H) -> float:
    """Certification threshold for a relation residual."""
    return _tolerance(np.linalg.norm(A, 2), np.linalg.norm(H, 2))


def _injective(P: np.ndarray) -> bool:
    if P.shape[0] < P.shape[1]:
        return False
    return float(np.linalg.svd(P, compute_uv=False)[-1]) >= INJECTIVITY_TOL


def _vec(M: np.ndarray) -> np.ndarray:
    return M.reshape(-1, order="F")


def relation_residual(A, B, C, F, H, P, Q) -> float:
    """Residual ``sqrt(||H - C P||^2 + ||P F - A P - B Q||^2)`` (Frobenius)
    of the relation equations at ``(P, Q)``."""
    return float(np.sqrt(
        np.linalg.norm(H - C @ P) ** 2 + np.linalg.norm(P @ F - A @ P - B @ Q) ** 2
    ))


def _relation_operator(A, B, C, F) -> np.ndarray:
    """Stacked operator of the relation equations on ``(vec P, vec Q)``
    (column-major vec): rows ``vec(C P)`` over rows ``vec(P F - A P - B Q)``.

    Each Kronecker-structured block is written into 4-D views (block row,
    row, block column, column) of one zeroed array, so no Kronecker product
    is formed.  Blocks are copied or subtracted from zero, so the operator
    holds no ``-0.0`` unless ``C`` or ``F`` does (a Kronecker product puts
    one wherever ``0.0`` multiplies a negative entry).
    """
    n, p, k, m = A.shape[0], B.shape[1], C.shape[0], F.shape[0]
    coeff = np.zeros((k * m + n * m, n * m + p * m))
    blk, diag = np.arange(m), np.arange(n)
    # (I_m kron C) vec P
    coeff[:k * m, :n * m].reshape(m, k, m, n)[blk, :, blk, :] = C
    # (F^T kron I_n - I_m kron A) vec P: F[j, i] I_n - [i == j] A in block (i, j)
    dyn = coeff[k * m:, :n * m].reshape(m, n, m, n)
    dyn[:, diag, :, diag] = F.T
    dyn[blk, :, blk, :] -= A
    # -(I_m kron B) vec Q
    coeff[k * m:, n * m:].reshape(m, n, m, p)[blk, :, blk, :] -= B
    return coeff


def solve_relation(A, B, C, F, H) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimum-norm least-squares ``(P, Q, residual)`` for the relation
    equations ``H = C P`` and ``P F = A P + B Q``.

    Both matrix equations are stacked as one linear system in
    ``(vec P, vec Q)`` (column-major vec) and solved by the SVD-based
    ``numpy.linalg.lstsq``, which works on the stacked operator itself (its
    condition number is not squared) and returns the minimum-norm solution
    on rank-deficient systems, so the result is deterministic even when the
    relation is underdetermined.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    C = as_matrix(C, "C")
    F = as_matrix(F, "F")
    H = as_matrix(H, "H")
    n = A.shape[0]
    if A.shape[1] != n:
        raise DimensionMismatchError(f"A must be square, got {A.shape}")
    p = B.shape[1]
    k = C.shape[0]
    m = F.shape[0]
    if B.shape[0] != n or C.shape[1] != n:
        raise DimensionMismatchError("B/C do not match the state dimension")
    if F.shape[1] != m or H.shape != (k, m):
        raise DimensionMismatchError("F/H do not match the abstraction dimension")

    rhs = np.concatenate([_vec(H), np.zeros(n * m)])
    sol = np.linalg.lstsq(_relation_operator(A, B, C, F), rhs, rcond=None)[0]
    P = sol[: n * m].reshape((n, m), order="F")
    Q = sol[n * m:].reshape((p, m), order="F")
    return P, Q, relation_residual(A, B, C, F, H, P, Q)


@dataclass(frozen=True)
class RelationMaps:
    """Per-mode relation solution.  ``pairing[i]``, set for PWA abstractions
    only, is the abstraction mode concrete mode i is related to; interface,
    joint assembly and simulation all read the pairing from here."""

    P: tuple[np.ndarray, ...]
    Q: tuple[np.ndarray, ...]
    residuals: tuple[float, ...]
    pairing: Optional[tuple[int, ...]] = None


def solve_system_relation(system: PwaSystem, abstraction: LinearAbstraction) -> RelationMaps:
    """Relation maps of every concrete mode against one linear abstraction."""
    Ps, Qs, residuals = [], [], []
    for mode in system.modes:
        P, Q, r = solve_relation(mode.A, mode.B, mode.C, abstraction.F, abstraction.H)
        Ps.append(P)
        Qs.append(Q)
        residuals.append(r)
    return RelationMaps(tuple(Ps), tuple(Qs), tuple(residuals))


def solve_relation_pairing(
    concrete_modes: Sequence[PwaMode],
    abstraction_modes: Sequence[AbstractionMode],
) -> tuple[tuple[int, ...], RelationMaps]:
    """Best abstraction mode per concrete mode, with its relation maps.

    Every ``(F_j, H_j)`` is tried; candidates above the certification
    tolerance or with a non-injective state map are discarded.  Residuals
    within a small scaled quantum count as tied, and ties break by the
    smaller solution norm ``||(vec P, vec Q)||_2`` (several abstraction
    modes often solve a given concrete mode exactly; the leanest certified
    relation wins), then by the lower index.
    """
    if not abstraction_modes:
        raise DimensionMismatchError("need at least one abstraction mode")
    norms_H = [np.linalg.norm(am.H, 2) for am in abstraction_modes]
    pairing, Ps, Qs, residuals = [], [], [], []
    for i, mode in enumerate(concrete_modes):
        candidates = []
        norm_A = np.linalg.norm(mode.A, 2)
        scale = 1.0 + max(norms_H) + norm_A
        for j, (am, norm_H) in enumerate(zip(abstraction_modes, norms_H)):
            P, Q, r = solve_relation(mode.A, mode.B, mode.C, am.F, am.H)
            tol = _tolerance(norm_A, norm_H)
            if r <= tol and _injective(P):
                norm = float(np.sqrt(np.sum(P * P) + np.sum(Q * Q)))
                candidates.append((j, P, Q, r, norm))
        if not candidates:
            raise NoFeasiblePairingError(
                f"concrete mode {i} admits no certified relation"
            )
        r_min = min(c[3] for c in candidates)
        tied = [c for c in candidates if c[3] <= r_min + _PAIRING_TIE_RTOL * scale]
        j, P, Q, r, _ = min(tied, key=lambda c: (c[4], c[0]))
        pairing.append(j)
        Ps.append(P)
        Qs.append(Q)
        residuals.append(r)
    maps = RelationMaps(tuple(Ps), tuple(Qs), tuple(residuals), tuple(pairing))
    return tuple(pairing), maps


def default_R(B, P, G) -> np.ndarray:
    """Default interface feedthrough ``B^+ P G``.

    ``B^+`` is the Moore-Penrose pseudo-inverse (``numpy.linalg.pinv``,
    SVD-based), which equals ``B^T (B B^T)^+`` without forming ``B B^T``.
    It makes this the least-squares feedthrough (``B R`` is the projection
    of ``P G`` onto the range of ``B``).  Raises SingularBBtError only when
    ``B`` is numerically zero (``||B||_2^2 <= 1e-10``).
    """
    B = as_matrix(B, "B")
    P = as_matrix(P, "P")
    G = as_matrix(G, "G")
    if P.shape[0] != B.shape[0] or P.shape[1] != G.shape[0]:
        raise DimensionMismatchError("B/P/G shapes are inconsistent")
    if np.linalg.norm(B, 2) ** 2 <= 1e-10:
        raise SingularBBtError("B is numerically zero; no feedthrough exists")
    return np.linalg.pinv(B) @ P @ G


@dataclass(frozen=True)
class Interface:
    """Per-concrete-mode interface gains, resolved against the pairing.

    ``K[i]`` stabilizes ``A_i + B_i K[i]``; ``R[i]`` is the feedthrough for
    mode i (paired abstraction mode for PWA abstractions); ``Q[i]`` and
    ``L[i]`` are the relation map and input transformation it closes over.
    """

    K: tuple[np.ndarray, ...]
    R: tuple[np.ndarray, ...]
    Q: tuple[np.ndarray, ...]
    L: tuple[np.ndarray, ...]

    def stacked_gains(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every mode's ``R``, ``Q + R L`` and ``K``, stacked by mode."""
        R = np.array(self.R)
        return R, np.array(self.Q) + R @ np.array(self.L), np.array(self.K)

    def u1(self, i, xtilde, x2, u2bar) -> np.ndarray:
        """Concrete input ``u1 = R u2bar + (Q + R L) x2 + K xtilde`` of mode
        ``i``, or of each row's mode when ``i`` is an array: one row per row
        of the row-stacked arguments, or one input from vectors."""
        terms = zip(self.stacked_gains(), (u2bar, x2, xtilde))
        return sum(np.einsum("...ij,...j->...i", G[i], x) for G, x in terms)


def build_interface(
    system: PwaSystem,
    abstraction: Union[LinearAbstraction, PwaAbstraction],
    relation: RelationMaps,
    K: Sequence[np.ndarray],
    R: Optional[Sequence[np.ndarray]] = None,
) -> Interface:
    """Assemble and validate the interface for every concrete mode, each
    against the abstraction mode the relation pairs it with.

    ``R`` entries default to the pseudo-inverse feedthrough.  Every
    ``A_i + B_i K_i`` must be Hurwitz.
    """
    if len(K) != system.n_modes:
        raise DimensionMismatchError("need one K gain per concrete mode")
    if R is not None and len(R) != system.n_modes:
        raise DimensionMismatchError("need one R per concrete mode when overriding")
    paired = paired_modes(abstraction, relation.pairing, system.n_modes)
    Ks, Rs, Qs, Ls = [], [], [], []
    for i, (mode, pm) in enumerate(zip(system.modes, paired)):
        Ki = as_matrix(K[i], f"K[{i}]")
        if Ki.shape != (mode.p, mode.n):
            raise DimensionMismatchError(
                f"K[{i}] has shape {Ki.shape}, expected {(mode.p, mode.n)}"
            )
        assert_hurwitz(mode.A + mode.B @ Ki, f"closed loop of mode {i}")
        if R is None:
            Ri = default_R(mode.B, relation.P[i], pm.mode.G)
        else:
            Ri = as_matrix(R[i], f"R[{i}]")
            if Ri.shape != (mode.p, pm.mode.q):
                raise DimensionMismatchError(
                    f"R[{i}] has shape {Ri.shape}, expected {(mode.p, pm.mode.q)}"
                )
        Ks.append(Ki)
        Rs.append(Ri)
        Qs.append(relation.Q[i])
        Ls.append(pm.mode.L)
    return Interface(tuple(Ks), tuple(Rs), tuple(Qs), tuple(Ls))


@dataclass(frozen=True)
class JointMode:
    """Closed-loop joint dynamics of one mode (or pair) over
    ``omega = (xtilde, x2)`` plus the homogeneous extension over
    ``omegabar = (omega, 1)``.

    The drift splits as ``omega' = Aprime omega + B1prime x2 + B2prime u2bar
    + (c(t), 0)``; the abstraction state appears both inside ``omega`` and
    as the separately-bounded input ``x2``.
    """

    label: tuple
    kind: str
    Aprime: np.ndarray
    B1prime: np.ndarray
    B2prime: np.ndarray
    Cprime: np.ndarray
    cell: Polyhedron
    bounding: CellBounding
    Abar: np.ndarray
    B1bar: np.ndarray
    B2bar: np.ndarray
    Cbar: np.ndarray


@dataclass(frozen=True)
class JointSystem:
    """Per-mode (or per-pair) closed-loop joint blocks and joint partition."""

    modes: tuple[JointMode, ...]
    n: int
    m: int

    def __len__(self) -> int:
        return len(self.modes)


def _joint_mode(label, mode, K, R, P, G, L, closed_abs, cell) -> JointMode:
    n, m = mode.n, P.shape[1]
    closed = mode.A + mode.B @ K
    Aprime = np.block([
        [closed, np.zeros((n, m))],
        [np.zeros((m, n)), closed_abs],
    ])
    feed = mode.B @ R - P @ G
    B1prime = np.vstack([feed @ L, np.zeros((m, m))])
    B2prime = np.vstack([feed, G])
    Cprime = np.hstack([mode.C, np.zeros((mode.k, m))])
    d = n + m
    Abar = np.zeros((d + 1, d + 1))
    Abar[:d, :d] = Aprime
    B1bar = np.vstack([B1prime, np.zeros((1, m))])
    B2bar = np.vstack([B2prime, np.zeros((1, B2prime.shape[1]))])
    Cbar = np.hstack([Cprime, np.zeros((mode.k, 1))])
    return JointMode(
        label=label,
        kind=classify_cell(cell),
        Aprime=Aprime,
        B1prime=B1prime,
        B2prime=B2prime,
        Cprime=Cprime,
        cell=cell,
        bounding=cell_bounding(cell),
        Abar=Abar,
        B1bar=B1bar,
        B2bar=B2bar,
        Cbar=Cbar,
    )


def _check_certified(residual: float, tol: float, P: np.ndarray, what: str) -> None:
    if residual > tol:
        raise UncertifiedRelationError(
            f"{what}: relation residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    if not _injective(P):
        raise UncertifiedRelationError(
            f"{what}: state map is not injective (singular value below "
            f"{INJECTIVITY_TOL:.0e})"
        )


def assemble_joint(
    system: PwaSystem,
    abstraction: Union[LinearAbstraction, PwaAbstraction],
    relation: RelationMaps,
    interface: Interface,
) -> JointSystem:
    """Closed-loop joint system, one entry per concrete mode i and the
    abstraction mode the relation pairs it with: labelled ``(i,)`` for a
    linear abstraction and ``(i, relation.pairing[i])`` for a PWA one.
    Each pair is certified as assembled: its relation residual is
    recomputed for that pair, not read from ``relation.residuals``.  Joint
    cells lift the concrete cell, with the paired region's rows stacked
    under it for a PWA abstraction."""
    paired = paired_modes(abstraction, relation.pairing, system.n_modes)
    joint_cells = joint_partition(system.partition, relation.P,
                                  [pm.region for pm in paired])
    modes = []
    for i, (mode, pm) in enumerate(zip(system.modes, paired)):
        label = (i,) if pm.j is None else (i, pm.j)
        _check_certified(
            relation_residual(mode.A, mode.B, mode.C, pm.mode.F, pm.mode.H,
                              relation.P[i], relation.Q[i]),
            relation_tolerance(mode.A, pm.mode.H),
            relation.P[i],
            f"mode {i}" if pm.j is None else f"pair {label}",
        )
        modes.append(_joint_mode(
            label, mode, interface.K[i], interface.R[i], relation.P[i],
            pm.mode.G, interface.L[i], pm.mode.transformed(), joint_cells.cells[i],
        ))
    return JointSystem(tuple(modes), n=system.n, m=abstraction.m)
