"""Abstraction-relation solving, interface synthesis, and joint assembly.

A relation between a concrete mode ``(A, B, C)`` and an abstraction
``(F, H)`` is a pair ``(P, Q)`` with ``H = C P`` and ``P F = A P + B Q``.
Both equations are vectorized into one linear system, solved by Householder
QR for the minimum-norm least-squares pair; the residual certifies it.
The interface feeds the abstraction state, transformed input, and tracking
error back into the concrete input, and the closed loop is assembled as a
block joint system over ``omega = (xtilde, x2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoFeasiblePairingError,
    NonFiniteInputError,
    SingularBBtError,
    UncertifiedRelationError,
)
from .linalg import as_matrix, frobenius
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
    stack_blocks,
)

#: Residuals are tied for pairing purposes when within this scaled quantum.
_PAIRING_TIE_RTOL = 1e-12

#: Smallest singular value an injective state map must exceed.
INJECTIVITY_TOL = 1e-8

#: Pairs whose relation operators are formed and factored at a time.
_SOLVE_PAIRS = 8


def _tolerance(norm_A, norm_H):
    """Certification threshold from the spectral norms of ``A`` and ``H``."""
    return 1e-8 * (1.0 + norm_H + norm_A)


def _norm2(X) -> np.ndarray:
    """Spectral norm of a matrix, or of each matrix of a stack."""
    return np.linalg.norm(X, 2, axis=(-2, -1))


def relation_tolerance(A, H):
    """Certification threshold for a relation residual (or each of a stack)."""
    return _tolerance(_norm2(A), _norm2(H))


def _injective(P) -> np.ndarray:
    """Whether a state map (or each of a stack) has no more columns than
    rows and a smallest singular value of at least INJECTIVITY_TOL."""
    if P.shape[-2] < P.shape[-1]:
        return np.zeros(P.shape[:-2], dtype=bool)
    return np.linalg.svd(P, compute_uv=False)[..., -1] >= INJECTIVITY_TOL


def relation_residual(A, B, C, F, H, P, Q):
    """Residual ``sqrt(||H - C P||^2 + ||P F - A P - B Q||^2)`` (Frobenius)
    of the relation equations at ``(P, Q)``: a float for one mode, an array
    for each mode (or pair) of stacked blocks.  Each norm is squared by
    ``float_power``, as a float's ``**`` squares it; an array's ``**`` takes
    the product instead, which rounds differently.  Blocks whose products
    overflow give an ``inf`` or NaN residual, which no tolerance admits."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.sqrt(np.float_power(frobenius(H - C @ P), 2)
                    + np.float_power(frobenius(P @ F - A @ P - B @ Q), 2))
    return float(r) if np.ndim(r) == 0 else r


def _relation_operator(A, B, C, F) -> np.ndarray:
    """Stacked operator of the relation equations on ``(vec P, vec Q)``
    (column-major vec): rows ``vec(C P)`` over rows ``vec(P F - A P - B Q)``,
    one per pair of blocks over their broadcast leading axes.

    Each Kronecker-structured block is written into 4-D views (block row,
    row, block column, column) of one zeroed array, so no Kronecker product
    is formed.  Blocks are copied or subtracted from zero, so the operator
    holds no ``-0.0`` unless ``C`` or ``F`` does (a Kronecker product puts
    one wherever ``0.0`` multiplies a negative entry).
    """
    n, p, k, m = A.shape[-1], B.shape[-1], C.shape[-2], F.shape[-1]
    batch = np.broadcast_shapes(A.shape[:-2], B.shape[:-2], C.shape[:-2], F.shape[:-2])
    coeff = np.zeros(batch + (k * m + n * m, n * m + p * m))
    blk, diag = np.arange(m), np.arange(n)
    # (I_m kron C) vec P
    coeff[..., :k * m, :n * m].reshape(batch + (m, k, m, n))[..., blk, :, blk, :] = C
    # (F^T kron I_n - I_m kron A) vec P: F[j, i] I_n - [i == j] A in block (i, j)
    dyn = coeff[..., k * m:, :n * m].reshape(batch + (m, n, m, n))
    dyn[..., :, diag, :, diag] = np.swapaxes(F, -1, -2)
    dyn[..., blk, :, blk, :] -= A
    # -(I_m kron B) vec Q
    coeff[..., k * m:, n * m:].reshape(batch + (m, n, m, p))[..., blk, :, blk, :] -= B
    return coeff


def _min_norm_solve(coeff, rhs) -> np.ndarray:
    """Minimum-norm least-squares solution of each system of a stack by
    Householder QR: ``x = Q R^-T rhs`` from ``coeff^T = Q R`` with no more
    rows than columns, else ``x = R^-1 Q^T rhs`` from ``coeff = Q R``.  A
    rank-deficient ``R`` (a diagonal entry not finite or at most
    ``eps * max(rows, cols) * max|R_ii|``) falls back to ``numpy.linalg.lstsq``."""
    rows, cols = coeff.shape[-2:]
    q, r = np.linalg.qr(np.swapaxes(coeff, -1, -2) if rows <= cols else coeff)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    full = np.isfinite(diag).all(-1) & (
        diag > np.finfo(float).eps * max(rows, cols) * diag.max(-1, keepdims=True)).all(-1)
    r[~full] = np.eye(r.shape[-1])  # a stand-in: lstsq solves these below
    x = (q @ np.linalg.solve(np.swapaxes(r, -1, -2), rhs[..., None]) if rows <= cols
         else np.linalg.solve(r, np.swapaxes(q, -1, -2) @ rhs[..., None]))[..., 0]
    for i in np.flatnonzero(~full):
        x[i] = np.linalg.lstsq(coeff[i], rhs[i], rcond=None)[0]
    return x


def _relation_solutions(A, B, C, F, H) -> np.ndarray:
    """Minimum-norm least-squares ``(vec P, vec Q)`` of the relation
    equations, per pair of blocks over their broadcast leading axes, by
    ``_min_norm_solve`` on the operators of ``_SOLVE_PAIRS`` pairs at a time
    (no normal equations; deterministic even where it is underdetermined)."""
    n, p, k, m = A.shape[-1], B.shape[-1], C.shape[-2], F.shape[-1]
    if F.shape[-2] != m or H.shape[-2:] != (k, m):
        raise DimensionMismatchError("F/H do not match the abstraction dimension")
    batch = np.broadcast_shapes(*(X.shape[:-2] for X in (A, B, C, F, H)))
    A, B, C, F, H = (np.broadcast_to(X, batch + X.shape[-2:]).reshape((-1,) + X.shape[-2:])
                     for X in (A, B, C, F, H))
    sols = np.empty((len(A), n * m + p * m))
    for start in range(0, len(A), _SOLVE_PAIRS):
        run = slice(start, start + _SOLVE_PAIRS)
        coeff = _relation_operator(A[run], B[run], C[run], F[run])
        rhs = np.zeros(coeff.shape[:-1])
        rhs[:, :k * m] = np.swapaxes(H[run], -1, -2).reshape(-1, k * m)
        sols[run] = _min_norm_solve(coeff, rhs)
    return sols.reshape(batch + (-1,))


def _unvec(sol: np.ndarray, n: int, m: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``(P, Q)`` from ``(vec P, vec Q)`` along the last axis: column-major
    views (a product's last bits depend on the order BLAS reads it in)."""
    lead = sol.shape[:-1]
    return (np.swapaxes(sol[..., :n * m].reshape(lead + (m, n)), -1, -2),
            np.swapaxes(sol[..., n * m:].reshape(lead + (m, p)), -1, -2))


def solve_relation(A, B, C, F, H) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimum-norm least-squares ``(P, Q, residual)`` for the relation
    equations ``H = C P`` and ``P F = A P + B Q`` (see
    ``_relation_solutions``)."""
    A, B, C, F, H = (as_matrix(X, name) for X, name in zip((A, B, C, F, H), "ABCFH"))
    n = A.shape[0]
    if A.shape[1] != n:
        raise DimensionMismatchError(f"A must be square, got {A.shape}")
    if B.shape[0] != n or C.shape[1] != n:
        raise DimensionMismatchError("B/C do not match the state dimension")
    P, Q = _unvec(_relation_solutions(A, B, C, F, H), n, F.shape[0], B.shape[1])
    return P, Q, relation_residual(A, B, C, F, H, P, Q)


@dataclass(frozen=True)
class RelationMaps:
    """Per-mode relation solution: ``P`` and ``Q`` hold one matrix per
    concrete mode (the solvers stack them along a leading axis).
    ``pairing[i]``, set for PWA abstractions only, is the abstraction mode
    concrete mode i is related to; the interface and the joint system read
    the pairing from here, and the joint keeps it per mode."""

    P: Sequence[np.ndarray]
    Q: Sequence[np.ndarray]
    residuals: tuple[float, ...]
    pairing: Optional[tuple[int, ...]] = None


def solve_system_relation(system: PwaSystem, abstraction: LinearAbstraction) -> RelationMaps:
    """Relation maps of every concrete mode against one linear abstraction."""
    A, B, C = stack_blocks(system.modes, "ABC")
    F, H = abstraction.F, abstraction.H
    P, Q = _unvec(_relation_solutions(A, B, C, F, H), system.n, abstraction.m, system.p)
    return RelationMaps(P, Q, tuple(relation_residual(A, B, C, F, H, P, Q).tolist()))


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
    relation wins), then by the lower index.  Operators, residuals,
    tolerances and norms are stacked over all pairs.
    """
    if not abstraction_modes:
        raise DimensionMismatchError("need at least one abstraction mode")
    A, B, C = (X[:, None] for X in stack_blocks(concrete_modes, "ABC"))
    F, H = stack_blocks(abstraction_modes, "FH")
    n, p, m = A.shape[-1], B.shape[-1], F.shape[-1]
    sol = _relation_solutions(A, B, C, F, H)
    P, Q = _unvec(sol, n, m, p)
    r = relation_residual(A, B, C, F, H, P, Q)
    norm_A, norm_H = _norm2(A), _norm2(H)
    ok = (r <= _tolerance(norm_A, norm_H)) & _injective(P)
    if not ok.any(axis=1).all():
        raise NoFeasiblePairingError(
            f"concrete mode {np.argmin(ok.any(axis=1))} admits no certified relation"
        )
    r_min = np.where(ok, r, np.inf).min(axis=1, keepdims=True)
    tied = ok & (r <= r_min + _PAIRING_TIE_RTOL * (1.0 + np.max(norm_H) + norm_A))
    with np.errstate(over="ignore"):  # an overflowed norm is inf, the last of a tie
        norms = np.sqrt(np.sum(P * P, axis=(-2, -1)) + np.sum(Q * Q, axis=(-2, -1)))
    pairing = np.where(tied, norms, np.inf).argmin(axis=1)
    rows = np.arange(len(pairing))
    maps = RelationMaps(*_unvec(sol[rows, pairing], n, m, p),
                        tuple(r[rows, pairing].tolist()), tuple(pairing.tolist()))
    return maps.pairing, maps


def default_R(B, P, G) -> np.ndarray:
    """Default interface feedthrough ``B^+ P G``, of one mode or of each mode
    of stacked blocks.

    ``B^+`` is the Moore-Penrose pseudo-inverse (``numpy.linalg.pinv``,
    SVD-based), which equals ``B^T (B B^T)^+`` without forming ``B B^T``.
    It makes this the least-squares feedthrough (``B R`` is the projection
    of ``P G`` onto the range of ``B``).  Raises SingularBBtError only when
    ``B`` is numerically zero (``||B||_2^2 <= 1e-10``), naming the lowest
    such mode of a stack.
    """
    B, P, G = (np.asarray(X, dtype=float) for X in (B, P, G))
    if not all(np.isfinite(X).all() for X in (B, P, G)):
        raise NonFiniteInputError("B/P/G have non-finite entries")
    if min(B.ndim, P.ndim, G.ndim) < 2 or P.shape[-2] != B.shape[-2] \
            or P.shape[-1] != G.shape[-2]:
        raise DimensionMismatchError("B/P/G shapes are inconsistent")
    zero = np.flatnonzero(_norm2(B) ** 2 <= 1e-10)
    if zero.size:
        where = "" if B.ndim == 2 else f"mode {zero[0]}: "
        raise SingularBBtError(f"{where}B is numerically zero; no feedthrough exists")
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.pinv(B) @ P @ G


@dataclass(frozen=True)
class Interface:
    """Per-concrete-mode interface gains, resolved against the pairing, one
    matrix per mode (:func:`build_interface` stacks them by mode).

    ``K[i]`` stabilizes ``A_i + B_i K[i]``; ``R[i]`` is the feedthrough for
    mode i (paired abstraction mode for PWA abstractions).  The x2 gain
    ``Q_i + R_i L_j`` is the joint system's (``JointSystem.QRL``).
    """

    K: Sequence[np.ndarray]
    R: Sequence[np.ndarray]


def _shaped(X, name: str, shape: tuple) -> np.ndarray:
    X = as_matrix(X, name)
    if X.shape != shape:
        raise DimensionMismatchError(f"{name} has shape {X.shape}, expected {shape}")
    return X


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
    ``A_i + B_i K_i`` must be Hurwitz.  Shapes are checked first; then the
    closed loops (one stacked eigenvalue call) and the default feedthroughs
    each name their lowest failing mode.
    """
    if len(K) != system.n_modes:
        raise DimensionMismatchError("need one K gain per concrete mode")
    if R is not None and len(R) != system.n_modes:
        raise DimensionMismatchError("need one R per concrete mode when overriding")
    K = np.array([_shaped(Ki, f"K[{i}]", (system.p, system.n)) for i, Ki in enumerate(K)])
    if R is not None:
        R = np.array([_shaped(Ri, f"R[{i}]", (system.p, abstraction.q))
                      for i, Ri in enumerate(R)])
    paired = paired_modes(abstraction, relation.pairing, system.n_modes)
    A, B = stack_blocks(system.modes, "AB")
    # a gain or closed loop that is not finite is refused as such, here or by the joint
    with np.errstate(over="ignore", invalid="ignore"):
        assert_hurwitz(A + B @ K, "closed loop of mode {}")
    if R is None:
        R = default_R(B, np.asarray(relation.P), stack_blocks([pm.mode for pm in paired], "G")[0])
    return Interface(K, R)


@dataclass(frozen=True)
class JointMode:
    """Closed-loop joint dynamics of one mode (or pair) over
    ``omega = (xtilde, x2)``, the coordinates every cell is certified in.

    The drift splits as ``omega' = Aprime omega + B1prime x2 + B2prime u2bar
    + (c(t), 0)``; the abstraction state appears both inside ``omega`` and
    as the separately-bounded input ``x2``.  ``Abar``, ``Cbar`` and
    ``bounding``, the homogeneous forms over ``(omega, 1)`` that
    perfbench/checks.py reads, derive from the plain blocks and the cell.
    """

    label: tuple
    kind: str
    Aprime: np.ndarray
    B1prime: np.ndarray
    B2prime: np.ndarray
    Cprime: np.ndarray
    cell: Polyhedron

    @property
    def Abar(self) -> np.ndarray:
        """``Aprime`` with a zero homogeneous row and column."""
        return np.pad(self.Aprime, ((0, 1), (0, 1)))

    @property
    def Cbar(self) -> np.ndarray:
        """``Cprime`` with a zero homogeneous column."""
        return np.pad(self.Cprime, ((0, 0), (0, 1)))

    @property
    def bounding(self) -> CellBounding:
        return cell_bounding(self.cell)


@dataclass(frozen=True, eq=False)
class JointSystem:
    """Closed-loop joint system of a plant, an abstraction, their relation
    maps and an interface, built with them: one entry of ``modes`` per
    concrete mode i and the abstraction mode the relation pairs it with,
    labelled ``(i,)`` for a linear abstraction and ``(i, relation.pairing[i])``
    for a PWA one.  Each pair is certified as built: its relation residual is
    recomputed for that pair, not read from ``relation.residuals``; the
    lowest failing pair is named, its residual checked before injectivity.
    Joint cells lift the concrete cell, with the paired region's rows
    stacked under it for a PWA abstraction.  Every block is built here once,
    for all modes at once, and kept stacked by mode and read-only: the joint
    blocks ``Aprime``, ``B1prime``, ``B2prime`` and ``Cprime`` (the entries
    of ``modes`` hold views of them), the plant's ``B`` and ``C``, the paired
    abstraction modes' ``G`` and ``H``, and ``QRL``, the x2 gain ``Q + R L``
    of each pair.  ``mode_j`` holds each concrete mode's abstraction-mode
    index, 0 for a linear abstraction.  Nothing else is settable, so a
    ``dataclasses.replace`` of any part is built and certified anew.
    Compared and hashed by identity (array fields have no single truth value
    for a generated ``__eq__``).
    """

    system: PwaSystem
    abstraction: Union[LinearAbstraction, PwaAbstraction]
    relation: RelationMaps
    interface: Interface
    modes: tuple[JointMode, ...] = field(init=False, repr=False)
    mode_j: tuple[int, ...] = field(init=False, repr=False)
    QRL: np.ndarray = field(init=False, repr=False)
    Aprime: np.ndarray = field(init=False, repr=False)
    B1prime: np.ndarray = field(init=False, repr=False)
    B2prime: np.ndarray = field(init=False, repr=False)
    Cprime: np.ndarray = field(init=False, repr=False)
    B: np.ndarray = field(init=False, repr=False)
    C: np.ndarray = field(init=False, repr=False)
    G: np.ndarray = field(init=False, repr=False)
    H: np.ndarray = field(init=False, repr=False)

    n = property(attrgetter("system.n"))
    m = property(attrgetter("abstraction.m"))

    def __len__(self) -> int:
        return len(self.modes)

    def __post_init__(self):
        system, abstraction, relation = self.system, self.abstraction, self.relation
        paired = paired_modes(abstraction, relation.pairing, system.n_modes)
        labels = [(i,) if pm.j is None else (i, pm.j) for i, pm in enumerate(paired)]
        A, B, C = stack_blocks(system.modes, "ABC")
        F, G, H, L = stack_blocks([pm.mode for pm in paired], "FGHL")
        P, Q = np.asarray(relation.P), np.asarray(relation.Q)
        residual = relation_residual(A, B, C, F, H, P, Q)
        tol = relation_tolerance(A, H)
        injective = _injective(P)
        failing = np.flatnonzero(~(residual <= tol) | ~injective)
        if failing.size:
            i = failing[0]
            what = f"mode {i}" if paired[i].j is None else f"pair {labels[i]}"
            if not residual[i] <= tol[i]:
                detail = (f"{residual[i]:.3e} exceeds tolerance {tol[i]:.3e}"
                          if np.isfinite(residual[i]) else "is not finite")
                raise UncertifiedRelationError(f"{what}: relation residual {detail}")
            raise UncertifiedRelationError(f"{what}: state map is not injective (singular "
                                           f"value below {INJECTIVITY_TOL:.0e})")

        K, R = np.asarray(self.interface.K), np.asarray(self.interface.R)
        with np.errstate(over="ignore", invalid="ignore"):
            QRL = Q + R @ L
        n, m = system.n, abstraction.m
        feed = B @ R - P @ G
        Aprime = np.zeros((len(A), n + m, n + m))
        Aprime[:, :n, :n] = A + B @ K
        Aprime[:, n:, n:] = F + G @ L
        B1prime = np.zeros((len(A), n + m, m))
        B1prime[:, :n] = feed @ L
        B2prime = np.concatenate([feed, G], axis=1)
        Cprime = np.concatenate([C, np.zeros((len(A), system.k, m))], axis=2)
        stacks = dict(QRL=QRL, Aprime=Aprime, B1prime=B1prime, B2prime=B2prime,
                      Cprime=Cprime, B=B, C=C, G=G, H=H)
        for name, X in stacks.items():
            X.flags.writeable = False
            object.__setattr__(self, name, X)
        object.__setattr__(self, "mode_j", tuple(pm.j or 0 for pm in paired))
        joint_cells = joint_partition(system.partition, P, [pm.region for pm in paired])
        object.__setattr__(self, "modes", tuple(
            JointMode(label=labels[i], kind=classify_cell(cell), Aprime=Aprime[i],
                      B1prime=B1prime[i], B2prime=B2prime[i], Cprime=Cprime[i], cell=cell)
            for i, cell in enumerate(joint_cells.cells)
        ))

    def u1(self, i, xtilde, x2, u2bar) -> np.ndarray:
        """Concrete input ``u1 = R u2bar + QRL x2 + K xtilde`` of mode ``i``,
        or of each row's mode when ``i`` is an array: one row per row of the
        row-stacked arguments, or one input from vectors."""
        terms = ((self.interface.R, u2bar), (self.QRL, x2), (self.interface.K, xtilde))
        return sum(np.einsum("...ij,...j->...i", np.asarray(G)[i], x) for G, x in terms)
