"""Cell classification, membership, joint lifts, vertices, containment."""

import numpy as np
import pytest

from pwa_hier.errors import (
    DimensionMismatchError,
    EmptyError,
    NoCellError,
    UnboundedError,
)
from pwa_hier.polytope import (
    AFFINE,
    CONIC,
    Partition,
    Polyhedron,
    cell_bounding,
    classify_cell,
    contains_mapped,
    joint_partition,
    locate_mode,
    vertices_2d,
)

from helpers import containment_instance, fan_scenario, grid_oracle, random_polygon

UNIT_SQUARE = Polyhedron(
    np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
    np.array([0.0, 0.0, -1.0, -1.0]),
)


class TestClassify:
    def test_conic_cone(self):
        p = Polyhedron([[-1.0, 1.0], [-1.0, -1.0]], [0.0, 0.0])
        assert classify_cell(p) == CONIC

    def test_affine_segment(self):
        p = Polyhedron([[-1.0, 0.0]], [1.5])
        assert classify_cell(p) == AFFINE

    def test_identity_zero(self):
        assert classify_cell(Polyhedron(np.eye(2), [0.0, 0.0])) == CONIC

    def test_bounding_forms(self):
        conic = cell_bounding(Polyhedron(np.eye(2), [0.0, 0.0]))
        np.testing.assert_allclose(conic.Ebar, np.eye(2))
        affine = cell_bounding(Polyhedron([[2.0, 0.0]], [3.0]))
        np.testing.assert_allclose(affine.Ebar, [[2.0, 0.0, -3.0]])
        assert affine.kind == AFFINE


class TestCellIdentity:
    def test_cells_compare_and_hash_by_identity(self):
        """A cell is found in its partition and usable as a key; an equal
        copy is a different cell."""
        a = Polyhedron(np.eye(2), np.zeros(2))
        b = Polyhedron(np.eye(2), np.zeros(2))
        part = Partition((a, UNIT_SQUARE))
        assert a in part.cells and b not in part.cells
        assert a == a and a != b
        assert {a: 0, b: 1}[b] == 1
        assert hash(part) == hash(Partition((a, UNIT_SQUARE)))


class TestLocateMode:
    def test_case1_left_cone(self, case1):
        x = np.array([-2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert locate_mode(case1.system.partition, x) == 0

    def test_origin_hysteresis(self, case1):
        x = np.zeros(6)
        assert locate_mode(case1.system.partition, x, previous=1) == 1

    def test_case2_second_segment(self, case2):
        x = np.array([-1.0, 0.7, 0.0, 0.0])
        assert locate_mode(case2.system.partition, x) == 1

    def test_no_cell(self, case1):
        x = np.array([0.0, -5.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(NoCellError):
            locate_mode(case1.system.partition, x)

    def test_hysteresis_determinism(self, case1):
        rng = np.random.default_rng(23)
        part = case1.system.partition
        for _ in range(200):
            x = np.zeros(6)
            x[:2] = rng.normal(scale=2.0, size=2)
            try:
                first = locate_mode(part, x)
            except NoCellError:
                continue
            # whenever `previous` still qualifies it must be kept
            for prev in range(3):
                got = locate_mode(part, x, previous=prev)
                if part.cells[prev].contains(x):
                    assert got == prev
                else:
                    assert got == first


def loop_locate(part, x, previous=None):
    """Per-cell ``contains`` loop with the documented hysteresis and
    lowest-index rule; None where no cell qualifies."""
    if previous is not None and 0 <= previous < len(part.cells):
        if part.cells[previous].contains(x):
            return previous
    for idx, cell in enumerate(part.cells):
        if cell.contains(x):
            return idx
    return None


def _facet_points(part, rng, count):
    """Points on the boundary hyperplane of random cell rows (random
    component along the row's null space)."""
    pts = []
    for _ in range(count):
        cell = part.cells[rng.integers(len(part.cells))]
        r = rng.integers(cell.E.shape[0])
        a, b = cell.E[r], cell.f[r]
        if not np.any(a):
            continue
        x = rng.normal(scale=2.0, size=part.dim)
        pts.append(x - (a @ x - b) / (a @ a) * a)
    return pts


class TestStackedLocate:
    @pytest.mark.parametrize("which", ["case1", "case2", "fan"])
    def test_matches_per_cell_loop(self, which, case1, case2):
        """The stacked lookup agrees with the per-cell loop, with and
        without ``previous``, on random points and on facet points, and
        raises NoCellError exactly where the loop finds no cell."""
        part = {"case1": lambda: case1.system.partition,
                "case2": lambda: case2.system.partition,
                "fan": lambda: fan_scenario(32, seed=3, t_end=0.05).joint.system.partition}[which]()
        rng = np.random.default_rng(7)
        points = [rng.normal(scale=2.0, size=part.dim) for _ in range(150)]
        points += _facet_points(part, rng, 150)
        points.append(np.zeros(part.dim))  # on every facet of a fan or cone
        missed = 0
        for x in points:
            for prev in (None, -1, len(part.cells), *range(len(part.cells))):
                want = loop_locate(part, x, prev)
                if want is None:
                    missed += 1
                    with pytest.raises(NoCellError):
                        locate_mode(part, x, previous=prev)
                else:
                    assert locate_mode(part, x, previous=prev) == want
        if which == "case1":
            assert missed > 0  # the road leaves a gap cone

    def test_stacked_rows(self, case2):
        part = case2.system.partition
        assert part.E.shape[0] == sum(c.E.shape[0] for c in part.cells)
        for cell, start in zip(part.cells, part.starts):
            np.testing.assert_array_equal(part.E[start: start + len(cell.f)], cell.E)
            np.testing.assert_array_equal(part.f[start: start + len(cell.f)], cell.f)


class TestJointPartitionLinear:
    def test_case1_block_layout(self, case1):
        P = case1.relation.P
        joint = joint_partition(case1.system.partition, P)
        cell = joint.cells[0]
        E = case1.system.partition.cells[0].E
        np.testing.assert_allclose(cell.E[:, :6], E)
        np.testing.assert_allclose(cell.E[:, 6:], E @ P[0])
        # lifted offsets unchanged, block product keeps the position rows
        np.testing.assert_allclose(cell.E[:2, 6:], E[:2, :2])

    def test_identity_lift(self):
        part = Partition((Polyhedron(np.eye(2), np.zeros(2)),))
        joint = joint_partition(part, [np.eye(2)])
        np.testing.assert_allclose(joint.cells[0].E, np.hstack([np.eye(2), np.eye(2)]))
        np.testing.assert_allclose(joint.cells[0].f, np.zeros(2))

    def test_vacuous_cell(self):
        part = Partition((Polyhedron(np.zeros((1, 3)), np.zeros(1)),))
        joint = joint_partition(part, [np.ones((3, 2))])
        assert joint.cells[0].dim == 5
        assert joint.cells[0].contains(np.ones(5))

    def test_feasible_set_equivalence(self, case1):
        rng = np.random.default_rng(31)
        part = case1.system.partition
        joint = joint_partition(part, case1.relation.P)
        for _ in range(500):
            xt = rng.normal(scale=2.0, size=6)
            x2 = rng.normal(scale=2.0, size=2)
            omega = np.concatenate([xt, x2])
            x1 = xt + case1.relation.P[0] @ x2
            for i in range(3):
                assert joint.cells[i].contains(omega) == part.cells[i].contains(x1)


class TestJointPartitionPwa:
    def test_case2_pair_layout(self, case2):
        regions = [case2.abstraction.concrete_cells[j] for j in case2.relation.pairing]
        joint = joint_partition(case2.system.partition, case2.relation.P, regions)
        cell = joint.cells[0]
        conc = case2.system.partition.cells[0]
        reg = case2.abstraction.concrete_cells[0]
        P0 = case2.relation.P[0]
        np.testing.assert_allclose(cell.E[:2, :4], conc.E)
        np.testing.assert_allclose(cell.E[:2, 4:], conc.E @ P0)
        np.testing.assert_allclose(cell.E[2:, :4], reg.E)
        np.testing.assert_allclose(cell.E[2:, 4:], reg.E @ P0)
        np.testing.assert_allclose(cell.f, np.concatenate([conc.f, reg.f]))
        # homogeneous form carries the negated offsets in its last column
        bound = cell_bounding(cell)
        np.testing.assert_allclose(bound.Ebar[:, -1], -cell.f)

    def test_vacuous_region_matches_linear(self, case1):
        part = case1.system.partition
        P = case1.relation.P
        vac = Polyhedron(np.zeros((1, 6)), np.zeros(1))
        joint_pwa = joint_partition(part, P, [vac] * len(part))
        joint_lin = joint_partition(part, P)
        for cp, cl in zip(joint_pwa.cells, joint_lin.cells):
            np.testing.assert_allclose(cp.E[:-1], cl.E)
            np.testing.assert_allclose(cp.E[-1], np.zeros(8))
            np.testing.assert_allclose(cp.f, np.append(cl.f, 0.0))

    def test_duplicated_rows_same_set(self, case1):
        part = case1.system.partition
        P = case1.relation.P
        dup = part.cells[0]
        joint = joint_partition(part, P, [dup, None, None])
        rng = np.random.default_rng(5)
        lin = joint_partition(part, P)
        # a mode without a region gains no rows
        np.testing.assert_array_equal(joint.cells[1].E, lin.cells[1].E)
        for _ in range(100):
            omega = rng.normal(scale=3.0, size=8)
            assert joint.cells[0].contains(omega) == lin.cells[0].contains(omega)


class TestVertices2d:
    def test_unit_square_ccw(self):
        v = vertices_2d(UNIT_SQUARE)
        np.testing.assert_allclose(
            v, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], atol=1e-12
        )

    def test_triangle(self):
        tri = Polyhedron(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.0, 0.0, -1.0]
        )
        v = vertices_2d(tri)
        np.testing.assert_allclose(
            v, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], atol=1e-12
        )

    def test_half_plane_unbounded(self):
        with pytest.raises(UnboundedError):
            vertices_2d(Polyhedron([[1.0, 0.0]], [0.0]))

    def test_empty(self):
        p = Polyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                       [1.0, 1.0, 0.0, -1.0])
        with pytest.raises(EmptyError):
            vertices_2d(p)

    def test_every_vertex_feasible(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            poly = random_polygon(rng)
            for v in vertices_2d(poly):
                assert poly.contains(v, slack=1e-7)


class TestContainsMapped:
    def test_square_in_big_box(self):
        X = Polyhedron(np.eye(2), [-1.0, -1.0])
        assert contains_mapped(UNIT_SQUARE, np.eye(2), np.zeros(2), X)

    def test_scaled_square_escapes(self):
        assert not contains_mapped(UNIT_SQUARE, 2 * np.eye(2), np.zeros(2), UNIT_SQUARE)

    def test_collapsed_point_inside(self):
        assert contains_mapped(UNIT_SQUARE, np.zeros((2, 2)), [0.5, 0.5], UNIT_SQUARE)

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(41)
        verdicts = set()
        for _ in range(50):
            Z, P, yhat, X = containment_instance(rng)
            got = contains_mapped(Z, P, yhat, X)
            assert got == grid_oracle(Z, P, yhat, X)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_case2_segment_inside_region(self, case2):
        # concrete segment 2 maps into abstraction region 1 under the
        # position projection (pairing geometry), restricted to the plane
        seg = Polyhedron(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            [-1.5, 0.5, -5.0, -5.0],
        )
        region1 = Polyhedron([[-1.0, 0.0]], [0.5])
        assert contains_mapped(seg, np.eye(2), np.zeros(2), region1)


def test_case1_road_coverage(case1):
    """The three cones cover the on-road half of the plane; strictly inside
    the fourth cone no cell matches (states leaving the road terminate)."""
    part = case1.system.partition
    grid = np.linspace(-5.0, 5.0, 200)
    x = np.zeros(6)
    for px in grid:
        for py in grid:
            x[0], x[1] = px, py
            on_road = py >= -abs(px)
            if on_road:
                locate_mode(part, x)  # must not raise
            elif py < -abs(px) - 1e-6:
                with pytest.raises(NoCellError):
                    locate_mode(part, x)
