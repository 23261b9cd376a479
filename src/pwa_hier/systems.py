"""Concrete piecewise-affine plant, abstractions, and disturbance signals.

The concrete plant switches affine dynamics over a polyhedral partition and
is driven through an interface; the abstraction is either one linear system
or a smaller piecewise-affine one, always used under the input
transformation ``u2 = L x2 + u2bar`` that renders it internally stable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, ModelError, NonFiniteInputError, NotHurwitzError
from .linalg import as_matrix, as_vector
from .polytope import Partition, Polyhedron

#: Eigenvalue real parts must sit below minus this margin to count as stable.
HURWITZ_MARGIN = 1e-8


def hurwitz_margin(M):
    """Largest eigenvalue real part (negative for stable matrices) of a
    square matrix, or of each matrix of a stack ``(..., d, d)``."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise DimensionMismatchError(f"expected square matrix, got {M.shape}")
    if not np.isfinite(M).all():
        raise NonFiniteInputError("M has non-finite entries")
    margin = np.linalg.eigvals(M).real.max(axis=-1)
    return float(margin) if M.ndim == 2 else margin


def assert_hurwitz(M, what: str = "matrix") -> None:
    """Raise NotHurwitzError unless ``M`` is Hurwitz (NonFiniteInputError if
    it has a non-finite entry); for a stack, name the lowest failing matrix
    by formatting its index into ``what``."""
    M = np.asarray(M, dtype=float)
    nonfinite = np.flatnonzero(~np.isfinite(M).all(axis=(-2, -1))) if M.ndim > 1 else []
    if len(nonfinite):
        raise NonFiniteInputError(f"{what.format(nonfinite[0])} has non-finite entries")
    margin = np.atleast_1d(hurwitz_margin(M))
    failing = np.flatnonzero(~(margin < -HURWITZ_MARGIN))
    if failing.size:
        raise NotHurwitzError(
            f"{what.format(failing[0])} has eigenvalue real part "
            f"{margin[failing[0]]:.3e} >= -{HURWITZ_MARGIN:.0e}"
        )


def stack_blocks(objs, names: Sequence[str]) -> tuple[np.ndarray, ...]:
    """The attributes ``names`` of each of ``objs`` (a string names one per
    letter), each stacked along a new leading axis."""
    return tuple(np.array([getattr(obj, X) for obj in objs]) for X in names)


def transformed_abstraction_matrix(F, G, L) -> np.ndarray:
    """Closed abstraction matrix ``F + G L``; raises NotHurwitzError if the
    transformation fails to stabilize it."""
    F = as_matrix(F, "F")
    G = as_matrix(G, "G")
    L = as_matrix(L, "L")
    if F.shape[0] != F.shape[1]:
        raise DimensionMismatchError(f"F must be square, got {F.shape}")
    if G.shape[0] != F.shape[0] or L.shape[1] != F.shape[0] or G.shape[1] != L.shape[0]:
        raise DimensionMismatchError(
            f"inconsistent shapes F{F.shape} G{G.shape} L{L.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: refused as such
        M = F + G @ L
    assert_hurwitz(M, "transformed abstraction")
    return M


@dataclass(frozen=True)
class PwaMode:
    """One affine regime of the concrete plant, with its disturbance bound."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    c_bound: float = 0.0

    def __post_init__(self):
        for name in "ABC":
            object.__setattr__(self, name, as_matrix(getattr(self, name), name))
        A, B, C = self.A, self.B, self.C
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionMismatchError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise DimensionMismatchError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise DimensionMismatchError(f"C has {C.shape[1]} columns, expected {n}")
        if not self.c_bound >= 0.0:
            raise ModelError(f"c_bound must be nonnegative, got {self.c_bound}")
        object.__setattr__(self, "c_bound", float(self.c_bound))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def k(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class PwaSystem:
    """Concrete plant: one PwaMode per partition cell."""

    modes: tuple[PwaMode, ...]
    partition: Partition

    def __post_init__(self):
        modes = tuple(self.modes)
        object.__setattr__(self, "modes", modes)
        if len(modes) != len(self.partition.cells):
            raise DimensionMismatchError(
                f"{len(modes)} modes but {len(self.partition.cells)} cells"
            )
        n = modes[0].n
        for m in modes:
            if (m.n, m.p, m.k) != (n, modes[0].p, modes[0].k):
                raise DimensionMismatchError("modes disagree on dimensions")
        if self.partition.dim != n:
            raise DimensionMismatchError(
                f"partition dimension {self.partition.dim} != state dimension {n}"
            )

    @property
    def n(self) -> int:
        return self.modes[0].n

    @property
    def p(self) -> int:
        return self.modes[0].p

    @property
    def k(self) -> int:
        return self.modes[0].k

    @property
    def n_modes(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class LinearAbstraction:
    """Low-dimensional linear abstraction with its input transformation."""

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        for name in "FGHL":
            object.__setattr__(self, name, as_matrix(getattr(self, name), name))
        if self.H.shape[1] != self.F.shape[0]:
            raise DimensionMismatchError(
                f"H has {self.H.shape[1]} columns, expected {self.F.shape[0]}"
            )
        transformed_abstraction_matrix(self.F, self.G, self.L)  # validates shapes + stability

    @property
    def m(self) -> int:
        return self.F.shape[0]

    @property
    def q(self) -> int:
        return self.G.shape[1]

    @property
    def k(self) -> int:
        return self.H.shape[0]


class AbstractionMode(LinearAbstraction):
    """One regime of a piecewise-affine abstraction; same data and checks as
    a linear abstraction."""


@dataclass(frozen=True)
class PwaAbstraction:
    """Piecewise-affine abstraction plus its cells described in the concrete
    state space (``E_c x1 >= f_c`` per abstraction mode)."""

    modes: tuple[AbstractionMode, ...]
    concrete_cells: tuple

    def __post_init__(self):
        modes = tuple(self.modes)
        cells = tuple(self.concrete_cells)
        if not modes:
            raise DimensionMismatchError("abstraction needs at least one mode")
        if len(cells) != len(modes):
            raise DimensionMismatchError("need one concrete-space cell per mode")
        for mode in modes:
            if (mode.m, mode.q, mode.k) != (modes[0].m, modes[0].q, modes[0].k):
                raise DimensionMismatchError("abstraction modes disagree on dimensions")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "concrete_cells", cells)

    @property
    def m(self) -> int:
        return self.modes[0].m

    @property
    def q(self) -> int:
        return self.modes[0].q

    @property
    def n_modes(self) -> int:
        return len(self.modes)


class PairedMode(NamedTuple):
    """The abstraction mode one concrete mode is related to: its index
    ``j`` and its region in the concrete state space, both None for a
    linear abstraction (one mode, no region to check)."""

    j: Optional[int]
    mode: LinearAbstraction
    region: Optional[Polyhedron]


def paired_modes(
    abstraction: Union[LinearAbstraction, PwaAbstraction],
    pairing: Optional[Sequence[int]],
    n_modes: int,
) -> tuple[PairedMode, ...]:
    """Abstraction mode of each of ``n_modes`` concrete modes.

    Concrete mode i gets ``abstraction.modes[pairing[i]]`` and its region for
    a PWA abstraction, which needs a pairing of every concrete mode; for a
    linear abstraction it gets the abstraction itself and the pairing is not
    read.
    """
    if not isinstance(abstraction, PwaAbstraction):
        return (PairedMode(None, abstraction, None),) * n_modes
    if (pairing is None or len(pairing) != n_modes
            or not all(0 <= j < abstraction.n_modes for j in pairing)):
        raise DimensionMismatchError(
            f"PWA abstraction requires a pairing of each of the {n_modes} concrete "
            f"modes with one of its {abstraction.n_modes} modes"
        )
    return tuple(PairedMode(j, abstraction.modes[j], abstraction.concrete_cells[j])
                 for j in pairing)


ZERO = "zero"
CONSTANT = "constant"
SINUSOID = "sinusoid"

#: Waveform terms each disturbance kind takes; the others stay zero.
DISTURBANCE_TERMS = {ZERO: (), CONSTANT: ("offset",), SINUSOID: ("offset", "amplitude")}


@dataclass(frozen=True)
class DisturbanceSignal:
    """Matched disturbance entering the concrete dynamics, ``value(t) =
    scale(t) * mask`` with ``scale(t) = offset + amplitude * sin t``; the
    zero kind has no offset or amplitude, the constant kind no amplitude."""

    kind: str
    mask: np.ndarray
    offset: float = 0.0
    amplitude: float = 0.0

    def __post_init__(self):
        if self.kind not in DISTURBANCE_TERMS:
            raise ModelError(f"unknown disturbance kind {self.kind!r}")
        object.__setattr__(self, "mask", as_vector(self.mask, "mask"))
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        for name in ("offset", "amplitude"):
            if name not in DISTURBANCE_TERMS[self.kind] and getattr(self, name) != 0.0:
                raise ModelError(f"a {self.kind} disturbance takes no {name}, "
                                 f"got {getattr(self, name)}")

    @classmethod
    def zero(cls, dim: int) -> "DisturbanceSignal":
        return cls(ZERO, np.zeros(dim))

    @classmethod
    def constant(cls, offset: float, dim: int) -> "DisturbanceSignal":
        return cls(CONSTANT, np.ones(dim), offset=offset)

    @classmethod
    def sinusoid(cls, offset: float, amplitude: float, dim: int) -> "DisturbanceSignal":
        return cls(SINUSOID, np.ones(dim), offset=offset, amplitude=amplitude)

    @property
    def dim(self) -> int:
        return self.mask.shape[0]

    def scale(self, t):
        """Scalar waveform ``offset + amplitude * sin t``, elementwise over
        an array of times."""
        return self.offset + self.amplitude * np.sin(t)

    def value(self, t: float) -> np.ndarray:
        return self.scale(t) * self.mask

    def sup_norm(self) -> float:
        """Analytic supremum of ``||value(t)||_inf`` over all t >= 0."""
        peak = float(np.max(np.abs(self.mask))) if self.mask.size else 0.0
        return (abs(self.offset) + abs(self.amplitude)) * peak

    def scaled_to(self, sup: float) -> "DisturbanceSignal":
        """Same waveform rescaled so the sup-norm equals ``sup``, a finite
        target >= 0 (a negative factor would flip the waveform instead)."""
        if not (sup >= 0.0 and np.isfinite(sup)):
            raise ModelError(f"disturbance sup-norm target must be finite and >= 0, got {sup}")
        if sup == 0.0:
            return DisturbanceSignal.zero(self.dim)
        current = self.sup_norm()
        if current == 0.0:
            raise ModelError("cannot scale an identically-zero disturbance upward")
        factor = sup / current
        return replace(self, offset=self.offset * factor, amplitude=self.amplitude * factor)


def check_disturbance_bound(system: PwaSystem, disturbance: DisturbanceSignal) -> None:
    """Raise ModelError unless the disturbance supremum stays within the
    smallest ``c_bound`` the plant's modes declare."""
    declared = min(mode.c_bound for mode in system.modes)
    if not disturbance.sup_norm() <= declared + 1e-12:
        raise ModelError(f"supremum {disturbance.sup_norm():.6g} exceeds "
                         f"the declared mode bound {declared:.6g}")
