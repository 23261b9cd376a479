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
from .linalg import as_matrix, as_vector, spectral_norm
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


def relation_tolerance(A, H) -> float:
    """Certification threshold for a relation residual."""
    return 1e-8 * (1.0 + spectral_norm(H) + spectral_norm(A))


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

    Im = np.eye(m)
    In = np.eye(n)
    # rows: vec(C P) = vec(H) ; vec(P F - A P - B Q) = 0
    output_rows = np.hstack([np.kron(Im, C), np.zeros((k * m, p * m))])
    dynamics_rows = np.hstack([
        np.kron(F.T, In) - np.kron(Im, A),
        -np.kron(Im, B),
    ])
    coeff = np.vstack([output_rows, dynamics_rows])
    rhs = np.concatenate([_vec(H), np.zeros(n * m)])
    sol = np.linalg.lstsq(coeff, rhs, rcond=None)[0]
    P = sol[: n * m].reshape((n, m), order="F")
    Q = sol[n * m:].reshape((p, m), order="F")
    return P, Q, relation_residual(A, B, C, F, H, P, Q)


@dataclass(frozen=True)
class RelationMaps:
    """Per-mode relation solution; ``pairing`` is set for PWA abstractions."""

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
    pairing, Ps, Qs, residuals = [], [], [], []
    for i, mode in enumerate(concrete_modes):
        candidates = []
        scale = 1.0 + spectral_norm(mode.A)
        for j, am in enumerate(abstraction_modes):
            P, Q, r = solve_relation(mode.A, mode.B, mode.C, am.F, am.H)
            tol = relation_tolerance(mode.A, am.H)
            scale = max(scale, 1.0 + spectral_norm(am.H) + spectral_norm(mode.A))
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
    if spectral_norm(B) ** 2 <= 1e-10:
        raise SingularBBtError("B is numerically zero; no feedthrough exists")
    return np.linalg.pinv(B) @ P @ G


def interface_linear(xtilde, x2, u2bar, R, Q, L, K) -> np.ndarray:
    """Concrete input ``u1 = R u2bar + (Q + R L) x2 + K xtilde``."""
    xtilde = as_vector(xtilde, "xtilde")
    x2 = as_vector(x2, "x2")
    u2bar = as_vector(u2bar, "u2bar")
    R = as_matrix(R, "R")
    Q = as_matrix(Q, "Q")
    L = as_matrix(L, "L")
    K = as_matrix(K, "K")
    if (K.shape[1] != xtilde.shape[0] or Q.shape[1] != x2.shape[0]
            or R.shape[1] != u2bar.shape[0] or L.shape[0] != u2bar.shape[0]
            or L.shape[1] != x2.shape[0]):
        raise DimensionMismatchError("interface operand shapes are inconsistent")
    return R @ u2bar + (Q + R @ L) @ x2 + K @ xtilde


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


def build_interface(
    system: PwaSystem,
    abstraction: Union[LinearAbstraction, PwaAbstraction],
    relation: RelationMaps,
    K: Sequence[np.ndarray],
    R: Optional[Sequence[np.ndarray]] = None,
    pairing: Optional[Sequence[int]] = None,
) -> Interface:
    """Assemble and validate the interface for every concrete mode.

    ``R`` entries default to the pseudo-inverse feedthrough.  Every
    ``A_i + B_i K_i`` must be Hurwitz.
    """
    if len(K) != system.n_modes:
        raise DimensionMismatchError("need one K gain per concrete mode")
    if R is not None and len(R) != system.n_modes:
        raise DimensionMismatchError("need one R per concrete mode when overriding")
    paired = paired_modes(abstraction, relation.pairing if pairing is None else pairing,
                          system.n_modes)
    Ks, Rs, Qs, Ls = [], [], [], []
    for i, (mode, pm) in enumerate(zip(system.modes, paired)):
        Ki = as_matrix(K[i], f"K[{i}]")
        if Ki.shape != (mode.p, mode.n):
            raise DimensionMismatchError(
                f"K[{i}] has shape {Ki.shape}, expected {(mode.p, mode.n)}"
            )
        assert_hurwitz(mode.A + mode.B @ Ki, f"closed loop of mode {i}")
        Ri = as_matrix(R[i], f"R[{i}]") if R is not None else default_R(
            mode.B, relation.P[i], pm.mode.G
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
    pairing: Optional[Sequence[int]] = None,
) -> JointSystem:
    """Closed-loop joint system, one entry per concrete mode i and the
    abstraction mode it is paired with: labelled ``(i,)`` for a linear
    abstraction and ``(i, pairing[i])`` for a PWA one, which needs the
    pairing.  Joint cells lift the concrete cell, with the paired region's
    rows stacked under it for a PWA abstraction."""
    paired = paired_modes(abstraction, pairing, system.n_modes)
    joint_cells = joint_partition(system.partition, relation.P,
                                  [pm.region for pm in paired])
    modes = []
    for i, (mode, pm) in enumerate(zip(system.modes, paired)):
        label = (i,) if pm.j is None else (i, pm.j)
        _check_certified(
            relation.residuals[i],
            relation_tolerance(mode.A, pm.mode.H),
            relation.P[i],
            f"mode {i}" if pm.j is None else f"pair {label}",
        )
        modes.append(_joint_mode(
            label, mode, interface.K[i], interface.R[i], relation.P[i],
            pm.mode.G, interface.L[i], pm.mode.transformed(), joint_cells.cells[i],
        ))
    return JointSystem(tuple(modes), n=system.n, m=abstraction.m)
