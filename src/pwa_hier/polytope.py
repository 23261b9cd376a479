"""Polyhedral cells, partitions, and the joint-space constructions over them.

Cells are half-space intersections written as ``E x >= f``.  A cell whose
offset vector is exactly zero is a cone ("conic"); any other cell is
"affine".  Both kinds are certified in plain coordinates; an affine cell's
certificate adds a constant to its quadratic form.
Membership checks carry a small componentwise slack so integrator states
that land numerically on a facet still resolve to a cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyError,
    NoCellError,
    NotTwoDError,
    UnboundedError,
)
from .linalg import as_matrix, as_vector

CONIC = "conic"
AFFINE = "affine"

#: Componentwise slack for cell membership (RK4 states land on facets).
MEMBERSHIP_SLACK = 1e-9

_DEGENERATE_ROW_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """Region ``{x : E x >= f}``, compared and hashed by identity (array
    fields have no single truth value for a generated ``__eq__``)."""

    E: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        E = as_matrix(self.E, "E")
        f = as_vector(self.f, "f")
        if E.shape[0] < 1:
            raise DimensionMismatchError("polyhedron needs at least one row")
        if E.shape[0] != f.shape[0]:
            raise DimensionMismatchError(
                f"E has {E.shape[0]} rows but f has length {f.shape[0]}"
            )
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "f", f)

    @property
    def dim(self) -> int:
        return self.E.shape[1]

    def contains(self, x, slack: float = MEMBERSHIP_SLACK) -> bool:
        """Whether no constraint slack at ``x`` is below ``-slack``."""
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(np.min(self.E @ x - self.f)) >= -slack


def classify_cell(p: Polyhedron) -> str:
    """CONIC iff the offset vector is exactly zero, AFFINE otherwise."""
    return CONIC if np.all(p.f == 0.0) else AFFINE


@dataclass(frozen=True)
class CellBounding:
    """Homogeneous form of a cell: rows satisfy ``Ebar [x;1] >= 0`` on it.

    Conic cells keep ``Ebar = E``; affine cells append the negated offset
    column, ``Ebar = [E, -f]``.
    """

    Ebar: np.ndarray
    kind: str


def cell_bounding(p: Polyhedron) -> CellBounding:
    kind = classify_cell(p)
    if kind == CONIC:
        return CellBounding(p.E.copy(), CONIC)
    return CellBounding(np.hstack([p.E, -p.f[:, None]]), AFFINE)


@dataclass(frozen=True)
class Partition:
    """Ordered list of cells over one state space.

    ``E``/``f`` stack every cell's rows in order, and ``starts`` holds the
    index of each cell's first row, so all membership margins come from one
    matrix-vector product.
    """

    cells: tuple[Polyhedron, ...]
    E: np.ndarray = field(init=False, repr=False, compare=False)
    f: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = tuple(self.cells)
        if not cells:
            raise DimensionMismatchError("partition needs at least one cell")
        dim = cells[0].dim
        for c in cells:
            if c.dim != dim:
                raise DimensionMismatchError("partition cells differ in dimension")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "E", np.vstack([c.E for c in cells]))
        object.__setattr__(self, "f", np.concatenate([c.f for c in cells]))
        object.__setattr__(self, "starts",
                           np.cumsum([0] + [c.E.shape[0] for c in cells[:-1]]))

    @property
    def dim(self) -> int:
        return self.cells[0].dim

    def __len__(self) -> int:
        return len(self.cells)


def locate_mode(part: Partition, x, previous: Optional[int] = None) -> int:
    """Index of a cell containing ``x`` within slack.

    Ties break by keeping ``previous`` whenever it still qualifies
    (hysteresis, so boundary chatter does not flip modes), else by lowest
    index.  Raises NoCellError when no cell qualifies.  Every cell's margin
    comes from the partition's stacked rows in one matrix-vector product.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != part.dim:
        raise DimensionMismatchError(
            f"state has dimension {x.shape[0]}, partition expects {part.dim}"
        )
    inside = np.minimum.reduceat(part.E @ x - part.f, part.starts) >= -MEMBERSHIP_SLACK
    if previous is not None and 0 <= previous < len(part.cells) and inside[previous]:
        return previous
    first = int(inside.argmax())  # the lowest qualifying cell, if any qualifies
    if not inside[first]:
        raise NoCellError(f"state {x.tolist()} lies in no partition cell")
    return first


def joint_partition(
    part: Partition,
    P_per_mode: Sequence[np.ndarray],
    regions: Optional[Sequence[Optional[Polyhedron]]] = None,
) -> Partition:
    """Lift a concrete partition to the joint (tracking-error, abstraction)
    space: cell i becomes ``{(xt, x2) : [E_i, E_i P_i] (xt, x2) >= f_i}``.

    ``regions[i]``, when given and not None, is the region of the
    abstraction mode paired with concrete mode i, in the concrete state
    space (``E_c x1 >= f_c``); its rows, lifted by the same ``P_i``, are
    stacked under the cell's.
    """
    if regions is None:
        regions = (None,) * len(part.cells)
    if len(P_per_mode) != len(part.cells) or len(regions) != len(part.cells):
        raise DimensionMismatchError("need one P matrix and one region entry per cell")
    cells = []
    for cell, P, reg in zip(part.cells, P_per_mode, regions):
        P = as_matrix(P, "P")
        if P.shape[0] != cell.dim:
            raise DimensionMismatchError(
                f"P has {P.shape[0]} rows, cell dimension is {cell.dim}"
            )
        if reg is not None and reg.dim != cell.dim:
            raise DimensionMismatchError(
                "abstraction regions must live in the concrete state space"
            )
        lifted = [cell] if reg is None else [cell, reg]
        E = np.vstack([np.hstack([c.E, c.E @ P]) for c in lifted])
        cells.append(Polyhedron(E, np.concatenate([c.f for c in lifted])))
    return Partition(tuple(cells))


def _rot90(v: np.ndarray) -> np.ndarray:
    return np.array([-v[1], v[0]])


def vertices_2d(p: Polyhedron) -> np.ndarray:
    """Counter-clockwise vertices of a bounded 2-D polyhedron.

    Vertices come from pairwise facet intersections filtered by feasibility.
    Boundedness is checked first by looking for a recession direction among
    the rotated constraint normals (any nontrivial recession cone in the
    plane has an extreme ray orthogonal to some constraint normal).
    """
    if p.dim != 2:
        raise NotTwoDError(f"polyhedron is {p.dim}-D")
    row_norms = np.max(np.abs(p.E), axis=1)
    live = row_norms > _DEGENERATE_ROW_TOL
    # zero rows: 0 >= f is vacuous for f <= 0, infeasible otherwise
    if np.any(p.f[~live] > MEMBERSHIP_SLACK):
        raise EmptyError("zero constraint row with positive offset")
    E, f = p.E[live], p.f[live]
    if E.shape[0] == 0:
        raise UnboundedError("no effective constraints: region is the plane")

    scale = float(np.max(np.abs(E)))
    for row in E:
        for d in (_rot90(row), -_rot90(row)):
            if np.all(E @ d >= -1e-12 * scale * np.linalg.norm(d)):
                raise UnboundedError(
                    f"recession direction {d.tolist()} detected"
                )

    f_scale = max(1.0, float(np.max(np.abs(f))) if f.size else 1.0)
    verts: list[np.ndarray] = []
    for i, j in itertools.combinations(range(E.shape[0]), 2):
        M = np.vstack([E[i], E[j]])
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        if abs(det) <= 1e-12 * scale * scale:
            continue
        v = np.linalg.solve(M, np.array([f[i], f[j]]))
        tol = MEMBERSHIP_SLACK * max(f_scale, float(np.max(np.abs(v))), 1.0)
        if np.min(E @ v - f) >= -tol:
            verts.append(v)
    if not verts:
        raise EmptyError("no feasible vertex: polyhedron is empty")

    # deduplicate
    unique: list[np.ndarray] = []
    span = max(1.0, max(float(np.max(np.abs(v))) for v in verts))
    for v in verts:
        if all(np.max(np.abs(v - u)) > 1e-9 * span for u in unique):
            unique.append(v)
    if len(unique) <= 2:
        return np.array(unique)
    centroid = np.mean(unique, axis=0)
    angles = [np.arctan2(v[1] - centroid[1], v[0] - centroid[0]) for v in unique]
    order = np.argsort(angles)
    return np.array([unique[k] for k in order])


def contains_mapped(Z: Polyhedron, P, yhat, X: Polyhedron) -> bool:
    """Whether the affine image ``P Z + yhat`` lies inside ``X``.

    For a bounded polytope the image is the convex hull of the mapped
    vertices, so checking every vertex of ``Z`` against ``X`` (within the
    membership slack) is equivalent to the nonnegative-multiplier condition
    for set inclusion.
    """
    P = as_matrix(P, "P")
    yhat = as_vector(yhat, "yhat")
    if P.shape[1] != Z.dim:
        raise DimensionMismatchError("P columns must match Z dimension")
    if P.shape[0] != X.dim or yhat.shape[0] != X.dim:
        raise DimensionMismatchError("P rows and yhat must match X dimension")
    for v in vertices_2d(Z):
        if not X.contains(P @ v + yhat):
            return False
    return True
