"""Relation equations, pairing, interface law, joint assembly."""

import dataclasses

import numpy as np
import pytest

from pwa_hier import (
    LinearAbstraction,
    Partition,
    Polyhedron,
    PwaAbstraction,
    PwaSystem,
    build_interface,
    solve_relation_pairing as pair_relations,
    synthesize_certificate,
)
from pwa_hier.errors import (
    DimensionMismatchError,
    NoFeasiblePairingError,
    NotHurwitzError,
    SingularBBtError,
    UncertifiedRelationError,
)
from pwa_hier.relation import (
    INJECTIVITY_TOL,
    Interface,
    JointSystem,
    RelationMaps,
    _min_norm_solve,
    _relation_operator,
    default_R,
    relation_residual,
    relation_tolerance,
    solve_relation,
    solve_relation_pairing,
    solve_system_relation,
)
from pwa_hier.certificate import default_lambda_grid
from pwa_hier.systems import AbstractionMode, PwaMode, hurwitz_margin

from helpers import (
    fan_scenario,
    kron_relation_operator,
    kron_relation_solve,
    reference_synthesis,
    step_rk4,
    synth_pool_pipelines,
)

I2 = np.eye(2)
Z2 = np.zeros((2, 2))


def _residual_norms(A, B, C, F, H, P, Q):
    return (
        np.linalg.norm(H - C @ P),
        np.linalg.norm(P @ F - A @ P - B @ Q),
    )


def _count_lstsq(monkeypatch) -> list:
    """The arguments of each ``numpy.linalg.lstsq`` call made until
    ``monkeypatch.undo()``."""
    calls, lstsq = [], np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return calls


def _vec(P, Q) -> np.ndarray:
    return np.concatenate([P.reshape(-1, order="F"), Q.reshape(-1, order="F")])


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
        sv = np.linalg.svd(kron_relation_operator(A, B, C, F), compute_uv=False)
        assert 1e-7 <= sv[-1] / sv[0] <= 1e-5
        P, Q, res = solve_relation(A, B, C, F, H)
        assert res <= relation_tolerance(A, H)
        r1, r2 = _residual_norms(A, B, C, F, H, P, Q)
        assert r1 <= 1e-12 and r2 <= 1e-12


class TestRelationOperator:
    """``solve_relation`` assembles the stacked system without Kronecker
    products: the operator must equal the Kronecker-built one entry for
    entry, with no ``-0.0`` (a Householder reflector reads the sign of a
    zero), so the QR solve gives the same bits on either.  The solve must
    not fall back to ``lstsq`` on these full-rank operators, wide (k < p),
    square (k = p) or tall (k > p), and must agree with the ``lstsq``
    oracle to within ``100 eps cond(operator) ||x||``."""

    @staticmethod
    def _assert_matches_oracle(A, B, C, F, H, monkeypatch):
        op = _relation_operator(A, B, C, F)
        kron_op = kron_relation_operator(A, B, C, F) + 0.0
        np.testing.assert_array_equal(op, kron_op)
        assert not np.signbit(op[op == 0.0]).any()
        rhs = np.zeros((1, len(op)))
        rhs[0, :H.size] = H.reshape(-1, order="F")
        assert (_min_norm_solve(op[None], rhs).tobytes()
                == _min_norm_solve(kron_op[None], rhs).tobytes())
        calls = _count_lstsq(monkeypatch)
        P, Q, _ = solve_relation(A, B, C, F, H)
        assert not calls
        monkeypatch.undo()
        x_ref = _vec(*kron_relation_solve(A, B, C, F, H))
        bound = 100 * np.finfo(float).eps * np.linalg.cond(op) * np.linalg.norm(x_ref)
        assert np.linalg.norm(_vec(P, Q) - x_ref) <= bound

    @pytest.mark.parametrize("n, m, p, k", [
        (3, 1, 2, 2),   # one abstraction state
        (4, 2, 1, 2),   # one concrete input
        (5, 2, 2, 3),   # several outputs
        (6, 3, 3, 1),
        (1, 1, 1, 1),
    ])
    def test_planted_instances(self, n, m, p, k, monkeypatch):
        rng = np.random.default_rng(7 * n + m)
        for _ in range(5):
            self._assert_matches_oracle(*plant_relation_instance(rng, n, m, p, k), monkeypatch)

    def test_non_symmetric_F_and_sparse_blocks(self, monkeypatch):
        """A transposed F would swap the off-diagonal blocks; zeros in A,
        B and F exercise the signed-zero arithmetic of the block writes."""
        rng = np.random.default_rng(3)
        n, m, p, k = 4, 3, 2, 2

        def sparse(*shape):
            return np.where(rng.random(shape) < 0.5, 0.0, rng.normal(size=shape))

        A, B, C, H = sparse(n, n), sparse(n, p), sparse(k, n), rng.normal(size=(k, m))
        F = np.triu(rng.normal(size=(m, m)), 1) - np.eye(m)
        assert not np.array_equal(F, F.T)
        self._assert_matches_oracle(A, B, C, F, H, monkeypatch)

    @pytest.mark.parametrize("deficient", ["zero-B-column", "zero-C"])
    def test_rank_deficient_operator_takes_lstsq(self, deficient, monkeypatch):
        """A zero column of ``B`` leaves a zero column in the operator, and
        ``C = 0`` zero rows; either one takes ``lstsq``'s truncated
        minimum-norm solution, which the oracle's equals bit for bit."""
        A, B, C, F, H = plant_relation_instance(np.random.default_rng(5), 4, 2, 2, 2)
        if deficient == "zero-B-column":
            B[:, 1] = 0.0
        else:
            C, H = np.zeros_like(C), np.zeros_like(H)
        calls = _count_lstsq(monkeypatch)
        P, Q, _ = solve_relation(A, B, C, F, H)
        assert len(calls) == 1
        monkeypatch.undo()
        P_ref, Q_ref = kron_relation_solve(A, B, C, F, H)
        assert P.tobytes() == P_ref.tobytes() and Q.tobytes() == Q_ref.tobytes()

    def test_pool_models_never_take_lstsq(self, tmp_path, monkeypatch):
        """The benchmark's planted models (both abstraction kinds, both cell
        kinds, joint dimensions 4 and 6) are all solved by QR."""
        calls = _count_lstsq(monkeypatch)
        built = list(synth_pool_pipelines(tmp_path, [0, 1, 7, 8, 14, 15, 21, 22]))
        assert len(built) == 8 and not calls

    def test_case2_pairing_matches_per_pair_tolerances(self, case2):
        """The pairing computes each spectral norm once; it must select
        what per-pair ``relation_tolerance`` calls and Kronecker solves
        select, with the same residuals."""
        pairing, maps = solve_relation_pairing(case2.system.modes, case2.abstraction.modes)
        expected = []
        for i, mode in enumerate(case2.system.modes):
            certified = []
            for j, am in enumerate(case2.abstraction.modes):
                P, Q = kron_relation_solve(mode.A, mode.B, mode.C, am.F, am.H)
                r = relation_residual(mode.A, mode.B, mode.C, am.F, am.H, P, Q)
                if r <= relation_tolerance(mode.A, am.H):
                    certified.append((r, np.sqrt(np.sum(P * P) + np.sum(Q * Q)), j))
            r_min = min(c[0] for c in certified)
            scale = max(1.0 + np.linalg.norm(am.H, 2) + np.linalg.norm(mode.A, 2)
                        for am in case2.abstraction.modes)
            tied = [c for c in certified if c[0] <= r_min + 1e-12 * scale]
            r, _, j = min(tied, key=lambda c: (c[1], c[2]))
            expected.append(j)
            assert maps.residuals[i] == r
        assert pairing == tuple(expected) == (0, 0, 1, 2, 2)


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


def _one_mode_joint(R, Q, L, K) -> JointSystem:
    """A one-mode joint of interface gains ``R`` and ``K`` over a certified
    relation whose map is ``Q``: ``P = B = [I; 0]``, ``C = P^T``, ``A P =
    P F - B Q`` and ``F + G L = -I``."""
    (p, n), (q, m) = np.shape(K), np.shape(L)
    P, B, G = np.eye(n, m), np.eye(n, p), np.eye(m, q)
    F = -G @ L - np.eye(m)
    A = np.zeros((n, n))
    A[:, :m] = P @ F - B @ Q
    system = PwaSystem((PwaMode(A, B, P.T),),
                       Partition((Polyhedron(np.zeros((1, n)), np.zeros(1)),)))
    absn = LinearAbstraction(F=F, G=G, H=np.eye(m), L=L)
    return JointSystem(system, absn, RelationMaps((P,), (Q,), (0.0,)), Interface((K,), (R,)))


class TestInterface:
    def test_feedthrough_only(self):
        joint = _one_mode_joint(R=np.eye(2), Q=np.zeros((2, 2)), L=-I2, K=np.zeros((2, 3)))
        u = joint.u1(0, np.zeros(3), np.zeros(2), [1.0, 2.0])
        np.testing.assert_allclose(u, [1.0, 2.0])

    def test_case1_error_feedback_column(self, case1):
        e1 = np.zeros(6)
        e1[0] = 1.0
        # the x2 gain of every mode is its relation map Q plus R times the abstraction's L
        for i, (Q, R) in enumerate(zip(case1.relation.Q, case1.interface.R)):
            np.testing.assert_array_equal(case1.joint.QRL[i], Q + R @ case1.abstraction.L)
        u = case1.joint.u1(0, e1, np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(u, [-52.0, 0.0])

    def test_case2_error_feedback_column(self, case2):
        e1 = np.zeros(4)
        e1[0] = 1.0
        # ... with L the paired abstraction mode's
        for i, (Q, R, j) in enumerate(zip(case2.relation.Q, case2.interface.R,
                                          case2.relation.pairing, strict=True)):
            np.testing.assert_array_equal(case2.joint.QRL[i],
                                          Q + R @ case2.abstraction.modes[j].L)
        u = case2.joint.u1(0, e1, np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(u, [-50.0, 0.0])

    def test_zero_everything(self):
        joint = _one_mode_joint(R=Z2, Q=Z2, L=-5 * I2, K=Z2)
        u = joint.u1(0, np.zeros(2), np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(u, np.zeros(2))

    def test_affine_in_arguments(self):
        rng = np.random.default_rng(37)
        R, Q, L, K = (rng.normal(size=(2, 2)) for _ in range(4))
        joint = _one_mode_joint(R=R, Q=Q, L=L, K=K)
        def u(args):
            return joint.u1(0, args[:2], args[2:4], args[4:])
        a, b = rng.normal(size=6), rng.normal(size=6)
        al, be = 0.7, -1.3
        np.testing.assert_allclose(
            u(al * a + be * b), al * u(a) + be * u(b), atol=1e-12
        )
        # each argument enters through its own gain, x2 through Q + R L
        np.testing.assert_allclose(u(np.arange(6.0)),
                                   K @ [0, 1] + (Q + R @ L) @ [2, 3] + R @ [4, 5], atol=1e-12)

    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_one_row_matches_stacked_rows(self, which, case1, case2):
        """Each row of a many-row call equals the call on that row alone, as
        a vector or as a one-row stack, in every mode.  Equal to rounding,
        not bit for bit: BLAS takes a one-row product through its
        matrix-vector kernel and a stack through its matrix-matrix kernel,
        and the two round differently (about half the rows of case1 differ
        in the last bit)."""
        joint = (case1 if which == "case1" else case2).joint
        rng = np.random.default_rng(41)
        xt, x2, u2 = (rng.normal(size=(64, d)) for d in (joint.n, joint.m,
                                                         joint.abstraction.q))
        for i, K in enumerate(joint.interface.K):
            many = joint.u1(i, xt, x2, u2)
            assert many.shape == (64, K.shape[0])
            tol = 1e-13 * (1.0 + np.max(np.abs(many)))
            for k in range(64):
                np.testing.assert_allclose(joint.u1(i, xt[k], x2[k], u2[k]), many[k],
                                           rtol=0.0, atol=tol)
                np.testing.assert_allclose(
                    joint.u1(i, xt[k:k + 1], x2[k:k + 1], u2[k:k + 1]), many[k:k + 1],
                    rtol=0.0, atol=tol)


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
        joint = JointSystem(system, absn, rel, iface)
        jm = joint.modes[0]
        np.testing.assert_allclose(jm.Aprime[:3, :3], mode.A)
        np.testing.assert_allclose(jm.Aprime[3:, 3:], -np.eye(1))
        np.testing.assert_allclose(jm.B2prime, np.vstack([-rel.P[0], np.eye(1)]))

    def test_uncertified_rejected(self, case1):
        """A perturbed state map fails the residual recomputed at assembly,
        whatever residuals the relation records."""
        P0 = case1.relation.P[0].copy()
        P0[0, 0] += 1.0
        bad = RelationMaps((P0, *case1.relation.P[1:]), case1.relation.Q,
                           case1.relation.residuals)
        with pytest.raises(UncertifiedRelationError, match="mode 0"):
            JointSystem(case1.system, case1.abstraction, bad, case1.interface)

    def test_joint_is_its_four_parts(self, case1):
        """A joint's only settable values are its four parts; its blocks, its
        dimensions and its x2 gain are derived from them when it is built."""
        assert [f.name for f in dataclasses.fields(JointSystem) if f.init] == [
            "system", "abstraction", "relation", "interface"]
        assert (case1.joint.n, case1.joint.m) == (case1.system.n, case1.abstraction.m)
        with pytest.raises(TypeError):
            JointSystem(case1.joint.modes, n=6, m=2)

    def test_replaced_relation_is_certified_anew(self, case1):
        """A relation replaced in a built joint is certified as that joint is
        built again, not carried over from the joint it replaced."""
        P = [np.array(Pi) for Pi in case1.relation.P]
        P[0][0, 0] += 1.0
        with pytest.raises(UncertifiedRelationError, match="mode 0: relation residual"):
            dataclasses.replace(case1.joint,
                                relation=dataclasses.replace(case1.relation, P=tuple(P)))

    def test_pairing_certified_as_assembled(self, case2):
        """A pairing other than the solved one is checked against the pair
        it assembles, not the residuals recorded for the solved pairing."""
        repaired = dataclasses.replace(case2.relation, pairing=(0,) * 5)
        with pytest.raises(UncertifiedRelationError, match=r"pair \(2, 0\)"):
            JointSystem(case2.system, case2.abstraction, repaired, case2.interface)

    @pytest.mark.parametrize("pairing", [None, (0, 0, 1, 2), (0, 0, 1, 2, -1),
                                         (0, 0, 1, 2, 3)],
                             ids=["missing", "short", "negative", "past-end"])
    def test_pwa_pairing_required(self, case2, pairing):
        """A PWA abstraction needs an in-range abstraction mode for every
        concrete mode; a negative index is not read from the end."""
        with pytest.raises(DimensionMismatchError):
            JointSystem(case2.system, case2.abstraction,
                           dataclasses.replace(case2.relation, pairing=pairing),
                           case2.interface)

    def test_single_mode_pwa_reduces_to_linear(self, case1):
        """A one-mode PWA abstraction with a vacuous region reproduces the
        linear assembly block for block."""
        from pwa_hier import Polyhedron, PwaAbstraction
        a = case1.abstraction
        vac = Polyhedron(np.zeros((1, 6)), np.zeros(1))
        single = PwaAbstraction(
            (AbstractionMode(F=a.F, G=a.G, H=a.H, L=a.L),), (vac,)
        )
        joint_pwa = JointSystem(
            case1.system, single, dataclasses.replace(case1.relation, pairing=(0, 0, 0)),
            case1.interface,
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
        L, G, F = case1.abstraction.L, case1.abstraction.G, case1.abstraction.F
        u2bar = np.array([0.3, -0.4])
        m = 2

        def joint_field(omega, t):
            x2 = omega[6:]
            return jm.Aprime @ omega + jm.B1prime @ x2 + jm.B2prime @ u2bar

        def physical_field(z, t):
            x1, x2 = z[:6], z[6:]
            u1 = case1.joint.u1(0, x1 - P @ x2, x2, u2bar)
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
        joint = JointSystem(system, absn, rel, iface)
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


def _minus_identity_system(Bs, C) -> PwaSystem:
    """Modes with ``A = -I`` and the given input matrices over one vacuous
    cell each, so every relation and closed loop is explicit."""
    n = C.shape[1]
    vac = Polyhedron(np.zeros((1, n)), np.zeros(1))
    return PwaSystem(tuple(PwaMode(-np.eye(n), B, C) for B in Bs), Partition((vac,) * len(Bs)))


class TestFailureOrder:
    """The stacked checks name the lowest failing mode.  The closed loops are
    checked before the default feedthroughs; within one mode the relation
    residual is checked before injectivity."""

    ABSN = LinearAbstraction(F=-I2, G=I2, H=I2, L=Z2)

    def _interface(self, Bs, K):
        system = _minus_identity_system(Bs, I2)
        relation = solve_system_relation(system, self.ABSN)
        return build_interface(system, self.ABSN, relation, K)

    def test_lowest_unstable_closed_loop(self):
        with pytest.raises(NotHurwitzError, match="closed loop of mode 1 "):
            self._interface([I2] * 3, [Z2, 2 * I2, 3 * I2])

    def test_lowest_zero_input_matrix(self):
        with pytest.raises(SingularBBtError, match="mode 1:"):
            self._interface([I2, Z2, Z2], [Z2] * 3)

    def test_closed_loops_before_feedthroughs(self):
        with pytest.raises(NotHurwitzError, match="closed loop of mode 1 "):
            self._interface([Z2, I2, I2], [Z2, 2 * I2, Z2])

    @pytest.mark.parametrize("middle, last, message", [
        ("flat", "off", "mode 1: state map is not injective"),
        ("off", "flat", "mode 1: relation residual"),
        ("zero", "off", "mode 1: relation residual"),
    ])
    def test_lowest_uncertified_mode(self, middle, last, message):
        """With ``C = H = [1, 0]`` the identity is a certified relation,
        ``flat`` a relation (residual 0) that is not injective, ``off`` an
        injective map off the relation, and ``zero`` fails both checks."""
        C = np.array([[1.0, 0.0]])
        system = _minus_identity_system([I2] * 3, C)
        absn = LinearAbstraction(F=-I2, G=I2, H=C, L=Z2)
        maps = {"flat": np.diag([1.0, 0.0]), "off": I2 + 0.1, "zero": Z2}
        relation = RelationMaps((I2, maps[middle], maps[last]), (Z2,) * 3, (0.0,) * 3)
        interface = build_interface(system, absn, relation, [Z2] * 3)
        with pytest.raises(UncertifiedRelationError, match=message):
            JointSystem(system, absn, relation, interface)


@pytest.mark.parametrize("side, scale", [("inside", 1.0 + 1e-3), ("outside", 1.0 - 1e-3)])
def test_injectivity_boundary(side, scale):
    """``P = diag(1, s)``, with ``s`` ``INJECTIVITY_TOL`` scaled by 1 +- 1e-3,
    is an exact relation of ``A = F = -I``, ``C = H = [1, 0]`` (residual 0)
    whose smallest singular value is ``s`` exactly: the joint system is
    built only when ``s`` reaches the tolerance."""
    s = INJECTIVITY_TOL * scale
    C = np.array([[1.0, 0.0]])
    system = _minus_identity_system([I2], C)
    absn = LinearAbstraction(F=-I2, G=I2, H=C, L=Z2)
    P = np.diag([1.0, s])
    assert np.linalg.svd(P, compute_uv=False)[-1] == s
    relation = RelationMaps((P,), (Z2,), (0.0,))
    interface = build_interface(system, absn, relation, [Z2])
    if side == "inside":
        assert len(JointSystem(system, absn, relation, interface)) == 1
    else:
        with pytest.raises(UncertifiedRelationError, match="mode 0: state map is not injective"):
            JointSystem(system, absn, relation, interface)


def _planted_pwa(rng, modes, n, m, k):
    """A PWA plant whose every mode admits an exact relation with its own
    abstraction mode (``plant_relation_instance``), with square ``B`` so
    that ``K = -B^-1 (A + 3 I)`` closes each loop at ``-3 I``.  A square
    ``B`` relates every pair exactly, so the pairing is decided by the
    solution norms; every cell and region is vacuous."""
    insts = [plant_relation_instance(rng, n, m, n, k) for _ in range(modes)]
    vac = Polyhedron(np.zeros((1, n)), np.zeros(1))
    system = PwaSystem(tuple(PwaMode(A, B, C) for A, B, C, _, _ in insts),
                       Partition((vac,) * modes))
    absn = PwaAbstraction(tuple(AbstractionMode(F=F, G=np.eye(m), H=H, L=-F - 2 * np.eye(m))
                                for *_, F, H in insts), (vac,) * modes)
    pairing, relation = pair_relations(system.modes, absn.modes)
    K = [-np.linalg.solve(B, A + 3 * np.eye(n)) for A, B, *_ in insts]
    interface = build_interface(system, absn, relation, K)
    joint = JointSystem(system, absn, relation, interface)
    return system, absn, relation, interface, joint, synthesize_certificate(joint, kappa=2.0)


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * max(1.0, np.abs(want).max()))


class TestStackedEqualsOneModeViews:
    """Relation, interface, joint assembly and synthesis run once over all
    modes; each result equals its one-mode view, mode by mode."""

    @staticmethod
    def _assert_one_mode_views(system, absn, relation, interface, joint, cert):
        paired = ([absn.modes[j] for j in relation.pairing] if relation.pairing
                  else [absn] * system.n_modes)
        for i, (mode, am, jm) in enumerate(zip(system.modes, paired, joint.modes, strict=True)):
            P, K, R = relation.P[i], interface.K[i], interface.R[i]
            _close(R, default_R(mode.B, P, am.G))
            n, m = P.shape
            feed = mode.B @ R - P @ am.G
            blocks = {
                "Aprime": np.block([[mode.A + mode.B @ K, np.zeros((n, m))],
                                    [np.zeros((m, n)), am.F + am.G @ am.L]]),
                "B1prime": np.vstack([feed @ am.L, np.zeros((m, m))]),
                "B2prime": np.vstack([feed, am.G]),
                "Cprime": np.hstack([mode.C, np.zeros((mode.k, m))]),
            }
            for name, want in blocks.items():
                _close(getattr(jm, name), want)
        A, H = np.array([mode.A for mode in system.modes]), np.array([am.H for am in paired])
        _close(relation_tolerance(A, H), [relation_tolerance(a, h) for a, h in zip(A, H)])
        grid = default_lambda_grid(joint)
        top = 2.0 * min(-hurwitz_margin(jm.Aprime) for jm in joint.modes)
        _close(grid[0], top * (min(1e-3, top / 10.0) / top) ** (1.0 / 15.0))
        ref = reference_synthesis(joint, cert.kappa, grid)
        assert ref is not None and ref.lam == cert.lam
        for got, want in zip(cert.entries, ref.entries, strict=True):
            _close(got.M, want.M)

    @pytest.mark.parametrize("cones, seed", [(8, 0), (48, 1)])
    def test_fan(self, cones, seed):
        scen = fan_scenario(cones, seed=seed)
        joint = scen.joint
        self._assert_one_mode_views(joint.system, joint.abstraction, joint.relation,
                                    joint.interface, joint, scen.certificate)

    @pytest.mark.parametrize("modes, n, m, k", [(3, 4, 2, 2), (5, 6, 3, 1)])
    def test_planted_pwa(self, modes, n, m, k):
        self._assert_one_mode_views(*_planted_pwa(np.random.default_rng(modes * n),
                                                  modes, n, m, k))


class TestSliceIndependence:
    """Pairs are solved a few at a time; each pair's ``(P, Q)`` equals its
    one-pair ``solve_relation`` bit for bit wherever it falls in a run.  The
    CI workflow also runs these with two BLAS threads (blocked QR goes
    through GEMM)."""

    @staticmethod
    def _assert_one_pair_bits(relation, modes, abstraction_modes):
        for P, Q, mode, am in zip(relation.P, relation.Q, modes, abstraction_modes, strict=True):
            P1, Q1, _ = solve_relation(mode.A, mode.B, mode.C, am.F, am.H)
            assert P.tobytes() == P1.tobytes() and Q.tobytes() == Q1.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_system_relation_of_48_modes(self, seed):
        joint = fan_scenario(48, seed=seed).joint
        self._assert_one_pair_bits(joint.relation, joint.system.modes, [joint.abstraction] * 48)

    def test_pairing_of_12_by_12_modes(self):
        system, absn, relation, *_ = _planted_pwa(np.random.default_rng(12), 12, 4, 2, 2)
        self._assert_one_pair_bits(relation, system.modes,
                                   [absn.modes[j] for j in relation.pairing])


class TestKeptStacks:
    """The joint keeps the stacks it builds, read-only, and its modes view
    them: each stack is the array of its per-mode blocks bit for bit, and
    each mode's abstraction-mode index is the pairing."""

    _JOINT = ("Aprime", "B1prime", "B2prime", "Cprime")

    @pytest.fixture(params=["case1", "case2", "pwa-fan"])
    def joint(self, request, tmp_path):
        if request.param == "pwa-fan":  # a synth-check fan of 5 cones, 2 abstraction modes
            (_, pipe), = synth_pool_pipelines(tmp_path, [8])
            assert isinstance(pipe.joint.abstraction, PwaAbstraction)
            return pipe.joint
        return request.getfixturevalue(request.param).joint

    def test_stacks_are_the_per_mode_blocks(self, joint):
        pairing = joint.relation.pairing
        paired = ([joint.abstraction.modes[j] for j in pairing] if pairing is not None
                  else [joint.abstraction] * len(joint))
        views = {name: [getattr(jm, name) for jm in joint.modes] for name in self._JOINT}
        views.update({name: [getattr(mode, name) for mode in joint.system.modes]
                      for name in "BC"})
        views.update({name: [getattr(am, name) for am in paired] for name in "GH"})
        for name, blocks in views.items():
            stack = getattr(joint, name)
            assert stack.shape == (len(joint),) + blocks[0].shape, name
            assert stack.tobytes() == np.array(blocks).tobytes(), name
        for i, jm in enumerate(joint.modes):
            for name in self._JOINT:
                assert np.shares_memory(getattr(jm, name), getattr(joint, name)[i]), name

    def test_writes_raise(self, joint):
        for name in self._JOINT + ("B", "C", "G", "H", "QRL"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(joint, name)[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            joint.modes[0].Aprime[0, 0] = 1.0

    def test_mode_j_is_the_pairing(self, joint):
        pairing = joint.relation.pairing
        assert joint.mode_j == (pairing if pairing is not None else (0,) * len(joint))
        assert all(type(j) is int for j in joint.mode_j)
        assert [jm.label[1:] for jm in joint.modes] == (
            [(j,) for j in pairing] if pairing is not None else [()] * len(joint))
