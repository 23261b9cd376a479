"""Relation equations, pairing, interface law, joint assembly."""

import numpy as np
import pytest

from pwa_hier.errors import (
    DimensionMismatchError,
    NoFeasiblePairingError,
    SingularBBtError,
    UncertifiedRelationError,
)
from pwa_hier.relation import (
    RelationMaps,
    assemble_joint,
    default_R,
    interface_linear,
    relation_tolerance,
    solve_relation,
    solve_relation_pairing,
)
from pwa_hier.systems import AbstractionMode, PwaMode
from pwa_hier.simulator import step_rk4

I2 = np.eye(2)
Z2 = np.zeros((2, 2))


def _residual_norms(A, B, C, F, H, P, Q):
    return (
        np.linalg.norm(H - C @ P),
        np.linalg.norm(P @ F - A @ P - B @ Q),
    )


class TestSolveRelation:
    def test_case1_recovers_injection(self, case1):
        mode = case1.system.modes[0]
        F, H = case1.abstraction.F, case1.abstraction.H
        P, Q, res = solve_relation(mode.A, mode.B, mode.C, F, H)
        assert res <= 1e-10
        np.testing.assert_allclose(P, np.vstack([I2, Z2, Z2]), atol=1e-10)
        np.testing.assert_allclose(Q, Z2, atol=1e-10)
        r1, r2 = _residual_norms(mode.A, mode.B, mode.C, F, H, P, Q)
        assert r1 <= 1e-10 and r2 <= 1e-10

    def test_identity_relation(self):
        A = -np.eye(3)
        B = np.eye(3)
        P, Q, res = solve_relation(A, B, np.eye(3), A, np.eye(3))
        assert res <= 1e-12
        r1, r2 = _residual_norms(A, B, np.eye(3), A, np.eye(3), P, Q)
        assert r1 <= 1e-12 and r2 <= 1e-12

    def test_plant_and_recover(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, min(n, 3) + 1))
            p = int(rng.integers(1, 4))
            k = int(rng.integers(1, 3))
            A, B, C, F, H = plant_relation_instance(rng, n, m, p, k)
            P, Q, res = solve_relation(A, B, C, F, H)
            assert res <= 1e-9
            r1, r2 = _residual_norms(A, B, C, F, H, P, Q)
            assert r1 <= 1e-9 and r2 <= 1e-9

    def test_ill_conditioned_planted_relation_certified(self):
        """A solve that squares the condition number loses the Q direction
        here (sigma_min^2 / sigma_max^2 is about 1e-12)."""
        n, m, p, k = 4, 2, 2, 2
        A, B, C, F, H = plant_relation_instance(
            np.random.default_rng(0), n, m, p, k, b_scale=4e-5
        )
        stacked = np.vstack([
            np.hstack([np.kron(np.eye(m), C), np.zeros((k * m, p * m))]),
            np.hstack([np.kron(F.T, np.eye(n)) - np.kron(np.eye(m), A),
                       -np.kron(np.eye(m), B)]),
        ])
        sv = np.linalg.svd(stacked, compute_uv=False)
        assert 1e-7 <= sv[-1] / sv[0] <= 1e-5
        P, Q, res = solve_relation(A, B, C, F, H)
        assert res <= relation_tolerance(A, H)
        r1, r2 = _residual_norms(A, B, C, F, H, P, Q)
        assert r1 <= 1e-12 and r2 <= 1e-12


class TestPairing:
    def test_case2_reproduces_segment_assignment(self, case2):
        pairing, maps = solve_relation_pairing(
            case2.system.modes, case2.abstraction.modes
        )
        assert pairing == (0, 0, 1, 2, 2)
        assert all(r <= 1e-8 for r in maps.residuals)
        for i in range(5):
            np.testing.assert_allclose(maps.P[i], np.vstack([I2, Z2]), atol=1e-9)
            np.testing.assert_allclose(maps.Q[i], Z2, atol=1e-9)

    def test_single_mode_catch_all(self):
        mode = PwaMode(A=-I2, B=I2, C=I2)
        am = AbstractionMode(F=-I2, G=I2, H=I2, L=Z2)
        pairing, maps = solve_relation_pairing([mode, mode], [am])
        assert pairing == (0, 0)
        assert all(r <= 1e-12 for r in maps.residuals)

    def test_incompatible_mode_never_selected(self):
        # C = I pins P = H, and the zero input path leaves nothing to absorb
        # a spectrum mismatch, so the mismatched F is never certifiable
        mode = PwaMode(A=-I2, B=np.zeros((2, 1)), C=I2)
        bad = AbstractionMode(F=-2 * I2, G=I2, H=I2, L=Z2)
        good = AbstractionMode(F=-I2, G=I2, H=I2, L=Z2)
        pairing, maps = solve_relation_pairing([mode], [bad, good])
        assert pairing == (1,)
        assert maps.residuals[0] <= 1e-12

    def test_exact_tie_breaks_by_smaller_norm(self):
        """A similarity-transformed copy relates exactly too, with P and Q
        scaled by T; the leaner relation wins even at the higher index."""
        mode = PwaMode(A=-I2, B=I2, C=I2)
        F = np.array([[-1.0, 0.5], [0.0, -2.0]])
        T = np.array([[2.0, 1.0], [0.0, 1.0]])
        copy = AbstractionMode(F=np.linalg.solve(T, F @ T), G=I2, H=T, L=Z2)
        lean = AbstractionMode(F=F, G=I2, H=I2, L=Z2)
        pairing, maps = solve_relation_pairing([mode], [copy, lean])
        assert pairing == (1,)
        np.testing.assert_allclose(maps.P[0], I2, atol=1e-12)
        np.testing.assert_allclose(maps.Q[0], F + I2, atol=1e-12)
        _, copy_maps = solve_relation_pairing([mode], [copy])
        assert copy_maps.residuals[0] <= 1e-12

    def test_no_feasible_pairing(self):
        mode = PwaMode(A=-I2, B=np.zeros((2, 1)), C=np.zeros((1, 2)))
        bad = AbstractionMode(F=-I2, G=I2, H=np.ones((1, 2)), L=Z2)
        with pytest.raises(NoFeasiblePairingError):
            solve_relation_pairing([mode], [bad])


class TestDefaultR:
    def test_case1_vanishes(self, case1):
        mode = case1.system.modes[0]
        R = default_R(mode.B, case1.relation.P[0], case1.abstraction.G)
        np.testing.assert_allclose(R, Z2, atol=1e-12)

    def test_identity_chain(self):
        np.testing.assert_allclose(default_R(np.eye(3), np.eye(3), np.eye(3)), np.eye(3))

    def test_case2_vanishes(self, case2):
        mode = case2.system.modes[0]
        R = default_R(mode.B, case2.relation.P[0], case2.abstraction.modes[0].G)
        np.testing.assert_allclose(R, Z2, atol=1e-12)

    def test_zero_B_rejected(self):
        with pytest.raises(SingularBBtError):
            default_R(np.zeros((2, 2)), I2, I2)

    def test_least_squares_feedthrough(self):
        # default R minimizes ||B R - P G||_F over R
        rng = np.random.default_rng(13)
        B = rng.normal(size=(4, 2))
        P = rng.normal(size=(4, 3))
        G = rng.normal(size=(3, 2))
        R = default_R(B, P, G)
        best = np.linalg.norm(B @ R - P @ G)
        for _ in range(100):
            cand = R + rng.normal(scale=0.1, size=R.shape)
            assert best <= np.linalg.norm(B @ cand - P @ G) + 1e-12


class TestInterface:
    def test_feedthrough_only(self):
        u = interface_linear(np.zeros(3), np.zeros(2), [1.0, 2.0],
                             R=np.eye(2), Q=np.zeros((2, 2)), L=-I2,
                             K=np.zeros((2, 3)))
        np.testing.assert_allclose(u, [1.0, 2.0])

    def test_case1_error_feedback_column(self, case1):
        e1 = np.zeros(6)
        e1[0] = 1.0
        u = interface_linear(e1, np.zeros(2), np.zeros(2),
                             R=case1.interface.R[0], Q=case1.relation.Q[0],
                             L=case1.abstraction.L, K=case1.interface.K[0])
        np.testing.assert_allclose(u, [-52.0, 0.0])

    def test_case2_error_feedback_column(self, case2):
        e1 = np.zeros(4)
        e1[0] = 1.0
        u = interface_linear(e1, np.zeros(2), np.zeros(2),
                             R=case2.interface.R[0], Q=case2.relation.Q[0],
                             L=case2.abstraction.modes[0].L, K=case2.interface.K[0])
        np.testing.assert_allclose(u, [-50.0, 0.0])

    def test_zero_everything(self):
        u = interface_linear(np.zeros(2), np.zeros(2), np.zeros(2),
                             R=Z2, Q=Z2, L=-5 * I2, K=Z2)
        np.testing.assert_allclose(u, np.zeros(2))

    def test_affine_in_arguments(self):
        rng = np.random.default_rng(37)
        R, Q, L, K = (rng.normal(size=(2, 2)) for _ in range(4))
        def u(args):
            return interface_linear(args[:2], args[2:4], args[4:], R=R, Q=Q, L=L, K=K)
        a, b = rng.normal(size=6), rng.normal(size=6)
        al, be = 0.7, -1.3
        np.testing.assert_allclose(
            u(al * a + be * b), al * u(a) + be * u(b), atol=1e-12
        )


class TestJointAssembly:
    def test_case1_blocks(self, case1):
        jm = case1.joint.modes[0]
        mode = case1.system.modes[0]
        closed = mode.A + mode.B @ case1.interface.K[0]
        np.testing.assert_allclose(jm.Aprime[:6, :6], closed)
        np.testing.assert_allclose(jm.Aprime[6:, 6:], -I2)
        np.testing.assert_allclose(jm.Aprime[:6, 6:], np.zeros((6, 2)))
        # with R = 0 the transformed-input block is [-P G; G]
        np.testing.assert_allclose(
            jm.B2prime, np.vstack([-case1.relation.P[0], I2])
        )
        np.testing.assert_allclose(jm.B1prime, np.vstack([I2, Z2, Z2, Z2]))
        # homogeneous padding: zero last row and column
        np.testing.assert_allclose(jm.Abar[-1], np.zeros(9))
        np.testing.assert_allclose(jm.Abar[:, -1], np.zeros(9))
        np.testing.assert_allclose(jm.B2bar[-1], np.zeros(2))

    def test_case2_pair_blocks(self, case2):
        jm = case2.joint.modes[0]
        assert jm.label == (0, 0)
        mode = case2.system.modes[0]
        closed = mode.A + mode.B @ case2.interface.K[0]
        np.testing.assert_allclose(jm.Aprime[:4, :4], closed)
        np.testing.assert_allclose(jm.Aprime[4:, 4:], -2 * I2)

    def test_zero_gain_template(self):
        mode = PwaMode(A=-np.eye(3), B=np.eye(3), C=np.eye(3)[:1])
        from pwa_hier import (LinearAbstraction, Partition, Polyhedron,
                              PwaSystem, build_interface)
        from pwa_hier.relation import solve_system_relation
        system = PwaSystem(
            (mode,), Partition((Polyhedron(np.zeros((1, 3)), np.zeros(1)),))
        )
        absn = LinearAbstraction(F=-np.eye(1), G=np.eye(1), H=np.eye(1)[:1],
                                 L=np.zeros((1, 1)))
        rel = solve_system_relation(system, absn)
        iface = build_interface(system, absn, rel, [np.zeros((3, 3))],
                                R=[np.zeros((3, 1))])
        joint = assemble_joint(system, absn, rel, iface)
        jm = joint.modes[0]
        np.testing.assert_allclose(jm.Aprime[:3, :3], mode.A)
        np.testing.assert_allclose(jm.Aprime[3:, 3:], -np.eye(1))
        np.testing.assert_allclose(jm.B2prime, np.vstack([-rel.P[0], np.eye(1)]))

    def test_uncertified_rejected(self, case1):
        bad = RelationMaps(case1.relation.P, case1.relation.Q, (1.0, 0.0, 0.0))
        with pytest.raises(UncertifiedRelationError):
            assemble_joint(case1.system, case1.abstraction, bad, case1.interface)

    @pytest.mark.parametrize("pairing", [None, (0, 0, 1, 2), (0, 0, 1, 2, -1),
                                         (0, 0, 1, 2, 3)],
                             ids=["missing", "short", "negative", "past-end"])
    def test_pwa_pairing_required(self, case2, pairing):
        """A PWA abstraction needs an in-range abstraction mode for every
        concrete mode; a negative index is not read from the end."""
        with pytest.raises(DimensionMismatchError):
            assemble_joint(case2.system, case2.abstraction, case2.relation,
                           case2.interface, pairing)

    def test_single_mode_pwa_reduces_to_linear(self, case1):
        """A one-mode PWA abstraction with a vacuous region reproduces the
        linear assembly block for block."""
        from pwa_hier import Polyhedron, PwaAbstraction
        a = case1.abstraction
        vac = Polyhedron(np.zeros((1, 6)), np.zeros(1))
        single = PwaAbstraction(
            (AbstractionMode(F=a.F, G=a.G, H=a.H, L=a.L),), (vac,)
        )
        joint_pwa = assemble_joint(
            case1.system, single, case1.relation, case1.interface, (0, 0, 0)
        )
        joint_lin = case1.joint
        for i, (jp, jl) in enumerate(zip(joint_pwa.modes, joint_lin.modes)):
            assert (jp.label, jl.label) == ((i, 0), (i,))
            np.testing.assert_allclose(jp.Aprime, jl.Aprime)
            np.testing.assert_allclose(jp.B1prime, jl.B1prime)
            np.testing.assert_allclose(jp.B2prime, jl.B2prime)
            np.testing.assert_allclose(jp.Cprime, jl.Cprime)
            # joint cell only gains the region's vacuous row
            np.testing.assert_allclose(jp.cell.E[:-1], jl.cell.E)
            np.testing.assert_allclose(jp.cell.E[-1], np.zeros(8))

    def test_closed_loop_consistency(self, case1):
        """Joint-space integration agrees with plant+abstraction integration
        through xtilde = x1 - P x2 (zero disturbance, fixed mode)."""
        mode = case1.system.modes[0]
        P = case1.relation.P[0]
        jm = case1.joint.modes[0]
        K, R, Q = case1.interface.K[0], case1.interface.R[0], case1.relation.Q[0]
        L, G, F = case1.abstraction.L, case1.abstraction.G, case1.abstraction.F
        u2bar = np.array([0.3, -0.4])
        m = 2

        def joint_field(omega, t):
            x2 = omega[6:]
            return jm.Aprime @ omega + jm.B1prime @ x2 + jm.B2prime @ u2bar

        def physical_field(z, t):
            x1, x2 = z[:6], z[6:]
            u1 = interface_linear(x1 - P @ x2, x2, u2bar, R=R, Q=Q, L=L, K=K)
            dx1 = mode.A @ x1 + mode.B @ u1
            dx2 = (F + G @ L) @ x2 + G @ u2bar
            return np.concatenate([dx1, dx2])

        xt0 = np.array([0.05, -0.02, 0.0, 0.01, 0.0, 0.0])
        x20 = np.array([-1.0, 0.5])
        omega = np.concatenate([xt0, x20])
        z = np.concatenate([xt0 + P @ x20, x20])
        h = 1e-3
        for k in range(10_000):
            omega = step_rk4(joint_field, omega, k * h, h)
            z = step_rk4(physical_field, z, k * h, h)
        xt_joint = omega[:6]
        xt_physical = z[:6] - P @ z[6:]
        assert np.linalg.norm(xt_joint - xt_physical) <= 1e-6

    def test_output_matching_from_zero_error(self, case1):
        """Exact relation, feedthrough-matched B, zero disturbance, zero
        initial error: the outputs coincide for all time."""
        # square invertible B so the feedthrough matches exactly (B R = P G)
        A = case1.system.modes[0].A
        B = np.eye(6)
        C = case1.system.modes[0].C
        from pwa_hier import (LinearAbstraction, Partition, Polyhedron,
                              PwaSystem, build_interface)
        from pwa_hier.relation import solve_system_relation
        system = PwaSystem(
            (PwaMode(A, B, C),),
            Partition((Polyhedron(np.zeros((1, 6)), np.zeros(1)),)),
        )
        absn = case1.abstraction
        rel = solve_system_relation(system, absn)
        K = -3 * np.eye(6) - A  # A + B K = -3I
        iface = build_interface(system, absn, rel, [K])
        np.testing.assert_allclose(B @ iface.R[0], rel.P[0] @ absn.G, atol=1e-10)
        joint = assemble_joint(system, absn, rel, iface)
        jm = joint.modes[0]
        u2bar = np.array([1.0, -2.0])
        omega = np.concatenate([np.zeros(6), np.array([0.7, 0.1])])

        def joint_field(w, t):
            return jm.Aprime @ w + jm.B1prime @ w[6:] + jm.B2prime @ u2bar

        h = 1e-3
        for k in range(10_000):
            omega = step_rk4(joint_field, omega, k * h, h)
            assert np.linalg.norm(C @ omega[:6]) <= 1e-9


def plant_relation_instance(rng, n, m, p, k, b_scale=1.0):
    """Random (A, B, C, F, H) admitting an exact relation by construction;
    ``b_scale`` shrinks B, and with it the stacked operator's smallest
    singular values."""
    while True:
        P0 = rng.normal(size=(n, m))
        if np.linalg.matrix_rank(P0) == m:
            break
    Q0 = rng.normal(size=(p, m))
    F = rng.normal(size=(m, m))
    B = b_scale * rng.normal(size=(n, p))
    C = rng.normal(size=(k, n))
    H = C @ P0
    rhs = P0 @ F - B @ Q0
    pinv = np.linalg.pinv(P0)
    A = rhs @ pinv + rng.normal(size=(n, n)) @ (np.eye(n) - P0 @ pinv)
    return A, B, C, F, H
