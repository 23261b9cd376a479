"""Certificate verification, synthesis, gain slopes, thresholds, derivatives."""

import dataclasses

import numpy as np
import pytest

from pwa_hier.certificate import (
    Certificate,
    ModeCertificate,
    gain_slopes,
    lmi_margins,
    sim_fn_derivative,
    sim_fn_value,
    synthesize_certificate,
    verify_all,
    verify_lmi,
)
from pwa_hier.errors import (
    DegenerateStateError,
    DimensionMismatchError,
    InfeasibleCertificateError,
    SynthesisFailedError,
    UncertifiedModeError,
)
from pwa_hier.polytope import AFFINE, CONIC, ContinuityMatrix, Polyhedron, cell_bounding
from pwa_hier.relation import JointMode, JointSystem
from pwa_hier.simulator import reference_schedule, run_scenario
from pwa_hier.systems import DisturbanceSignal

I2 = np.eye(2)


def _toy_joint(Aprime, B1, B2, C, cell, n, m) -> JointSystem:
    d = Aprime.shape[0]
    Abar = np.zeros((d + 1, d + 1))
    Abar[:d, :d] = Aprime
    jm = JointMode(
        label=(0,),
        kind="conic" if np.all(cell.f == 0.0) else "affine",
        Aprime=Aprime,
        B1prime=B1,
        B2prime=B2,
        Cprime=C,
        cell=cell,
        bounding=cell_bounding(cell),
        Abar=Abar,
        B1bar=np.vstack([B1, np.zeros((1, B1.shape[1]))]),
        B2bar=np.vstack([B2, np.zeros((1, B2.shape[1]))]),
        Cbar=np.hstack([C, np.zeros((C.shape[0], 1))]),
    )
    return JointSystem((jm,), n=n, m=m)


def _conic_cell(d):
    return Polyhedron(np.zeros((1, d)), np.zeros(1))


def _affine_cell(d):
    E = np.zeros((1, d))
    E[0, 0] = 1.0
    return Polyhedron(E, np.array([-10.0]))


@pytest.fixture(scope="module")
def trajs(case1, case2):
    """Shipped runs (V stays below b throughout) plus case1 with zero
    reference, disturbance and abstraction state, where b is zero and V is
    not."""
    quiet = dataclasses.replace(
        case1.scenario, schedule=reference_schedule([(0.0, [0.0, 0.0])]),
        disturbance=DisturbanceSignal.zero(6), x2_0=np.zeros(2), t_end=0.5,
    )
    return {"case1": run_scenario(case1.scenario), "case2": run_scenario(case2.scenario),
            "quiet": run_scenario(quiet)}


class TestSimFnValue:
    def test_euclidean_norm(self):
        cert = Certificate(1.0, 1.0, (ModeCertificate(np.eye(4)),))
        v = sim_fn_value(cert, 0, [3.0, 4.0, 0.0, 0.0], CONIC)
        assert v == pytest.approx(5.0)

    def test_zero_state_conic(self):
        cert = Certificate(2.0, 1.0, (ModeCertificate(np.eye(3)),))
        assert sim_fn_value(cert, 0, np.zeros(3), CONIC) == 0.0

    def test_homogeneous_floor(self):
        cert = Certificate(2.0, 1.0, (ModeCertificate(np.eye(2), m_scalar=4.0),))
        assert sim_fn_value(cert, 0, np.zeros(2), AFFINE) == pytest.approx(1.0)

    def test_affine_lower_bound_everywhere(self):
        rng = np.random.default_rng(3)
        cert = Certificate(2.0, 1.0, (ModeCertificate(np.eye(2), m_scalar=4.0),))
        for _ in range(100):
            v = sim_fn_value(cert, 0, rng.normal(size=2), AFFINE)
            assert v >= np.sqrt(4.0) / 2.0 - 1e-12

    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_matches_trajectory_column(self, which, case1, case2, trajs):
        """The scalar view agrees with the simulator's V column."""
        bundle, traj = (case1 if which == "case1" else case2), trajs[which]
        for k in range(0, len(traj), 100):
            idx = int(traj.mode_i[k])
            omega = np.concatenate([traj.xtilde[k], traj.x2[k]])
            v = sim_fn_value(bundle.certificate, idx, omega, bundle.joint.modes[idx].kind)
            assert abs(v - traj.V[k]) <= 1e-14 * abs(traj.V[k])


class TestLmiMargins:
    def test_stable_block_feasible(self):
        # state block -I2 with a homogeneous zero row; decay weight skips it
        M = np.eye(3)
        A = np.diag([-1.0, -1.0, 0.0])
        C = np.zeros((1, 3))
        E = np.zeros((1, 3))
        m1, m2, m3 = lmi_margins(M, A, C, E, None, None, lam=1.0, affine=True)
        assert m1 == pytest.approx(1.0)
        assert m2 == pytest.approx(1.0)
        # state block contributes -2 + 1 = -1; the homogeneous row pins the
        # largest eigenvalue at exactly zero
        assert m3 == pytest.approx(0.0, abs=1e-12)

    def test_excessive_decay_infeasible(self):
        M = np.eye(3)
        A = np.diag([-1.0, -1.0, 0.0])
        C = np.zeros((1, 3))
        E = np.zeros((1, 3))
        _, _, m3 = lmi_margins(M, A, C, E, None, None, lam=3.0, affine=True)
        assert m3 == pytest.approx(1.0)

    def test_output_equality_boundary(self):
        # M equals C^T C exactly: first margin sits at zero, still feasible
        m1, _, _ = lmi_margins(np.eye(2), -np.eye(2), np.eye(2),
                               np.zeros((1, 2)), None, None, 1.0, affine=False)
        assert m1 == pytest.approx(0.0, abs=1e-12)

    def test_congruence_invariance(self, case1):
        rng = np.random.default_rng(7)
        cert, joint = case1.certificate, case1.joint
        jm = joint.modes[0]
        M = cert.entries[0].M
        base = lmi_margins(M, jm.Aprime, jm.Cprime, jm.cell.E, None, None,
                           cert.lam, affine=False)
        base_feasible = verify_lmi(cert, joint, 0).feasible
        for _ in range(20):
            Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
            got = lmi_margins(Q.T @ M @ Q, Q.T @ jm.Aprime @ Q, jm.Cprime @ Q,
                              jm.cell.E @ Q, None, None, cert.lam, affine=False)
            np.testing.assert_allclose(got[:2], base[:2], atol=1e-8)
            np.testing.assert_allclose(got[2], base[2], atol=1e-6)
            feasible = (got[0] >= -1e-9 and got[1] >= 1e-9 and got[2] <= 1e-9)
            assert feasible == base_feasible


class TestSynthesis:
    def test_scalar_joint_system(self):
        joint = _toy_joint(
            Aprime=-np.eye(2), B1=np.zeros((2, 1)), B2=np.zeros((2, 1)),
            C=np.array([[1.0, 0.0]]), cell=_conic_cell(2), n=1, m=1,
        )
        cert = synthesize_certificate(joint, kappa=1.0)
        assert verify_lmi(cert, joint, 0).feasible
        assert cert.lam <= 2.0

    def test_case1_modes_feasible(self, case1):
        for report in verify_all(case1.certificate, case1.joint):
            m1, m2, m3 = report.margins
            assert m1 >= -1e-9 and m2 >= 1e-9 and m3 <= 1e-9
            assert report.feasible

    def test_case2_pairs_feasible(self, case2):
        for report in verify_all(case2.certificate, case2.joint):
            m1, m2, m3 = report.margins
            assert m1 >= -1e-9 and m2 >= 1e-9 and m3 <= 1e-9
            assert report.feasible

    def test_singular_decay_operator_skips_lambda(self):
        """With Aprime = -I and lambda = 2 the decay operator is zero."""
        joint = _toy_joint(
            Aprime=-np.eye(2), B1=np.zeros((2, 1)), B2=np.zeros((2, 1)),
            C=np.array([[1.0, 0.0]]), cell=_conic_cell(2), n=1, m=1,
        )
        assert synthesize_certificate(joint, kappa=1.0, lambda_grid=[2.0, 1.0]).lam == 1.0
        with pytest.raises(SynthesisFailedError):
            synthesize_certificate(joint, kappa=1.0, lambda_grid=[2.0])

    def test_unstable_block_fails(self):
        joint = _toy_joint(
            Aprime=np.diag([1.0, -1.0]), B1=np.zeros((2, 1)),
            B2=np.zeros((2, 1)), C=np.array([[1.0, 0.0]]),
            cell=_conic_cell(2), n=1, m=1,
        )
        with pytest.raises(SynthesisFailedError):
            synthesize_certificate(joint, kappa=1.0)

    def test_output_domination(self, case1, case2):
        rng = np.random.default_rng(11)
        for bundle in (case1, case2):
            cert, joint = bundle.certificate, bundle.joint
            for idx, jm in enumerate(joint.modes):
                M = cert.entries[idx].M
                d = M.shape[0]
                for _ in range(1000 // len(joint.modes)):
                    omega = rng.normal(size=d)
                    v = sim_fn_value(cert, idx, omega, jm.kind)
                    err = np.linalg.norm(jm.Cprime @ omega)
                    assert err / cert.kappa <= v + 1e-9


class TestGains:
    def test_zero_inputs_conic(self, trajs):
        """Zero reference, disturbance and abstraction state leave b at zero
        on conic cells."""
        assert np.all(trajs["quiet"].b == 0.0)

    def test_zero_inputs_affine_sqrt_m(self):
        cert = Certificate(1.0, 2.0, (ModeCertificate(np.eye(2), m_scalar=4.0),))
        joint = _toy_joint(
            Aprime=-np.eye(2), B1=np.zeros((2, 1)), B2=np.zeros((2, 1)),
            C=np.zeros((1, 2)), cell=_affine_cell(2), n=1, m=1,
        )
        g1, _, g3, sqrt_m = gain_slopes(cert, joint, 0)
        assert (g1, g3) == (0.0, 0.0)
        assert sqrt_m == pytest.approx(2.0)

    def test_unit_slope(self):
        cert = Certificate(1.0, 2.0, (ModeCertificate(np.eye(2)),))
        joint = _toy_joint(
            Aprime=-2.0 * np.eye(2), B1=np.zeros((2, 2)), B2=np.eye(2),
            C=np.zeros((1, 2)), cell=_conic_cell(2), n=1, m=1,
        )
        g1, _, _, sqrt_m = gain_slopes(cert, joint, 0)
        assert g1 == pytest.approx(1.0)
        assert sqrt_m == 0.0

    def test_slopes_scale_as_sqrt(self, case1):
        cert, joint = case1.certificate, case1.joint
        g = gain_slopes(cert, joint, 0)
        doubled = Certificate(
            cert.kappa, cert.lam,
            tuple(ModeCertificate(2.0 * e.M, e.m_scalar) for e in cert.entries),
        )
        g2 = gain_slopes(doubled, joint, 0)
        for a, b in zip(g[:3], g2[:3]):
            assert b == pytest.approx(np.sqrt(2.0) * a, rel=1e-9)

    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_matches_sqrt_oracle(self, which, case1, case2):
        """Slopes equal ``2 ||sqrt(M) X||_2 / lambda`` with the square root
        taken by eigendecomposition (case1 cells are conic, case2 affine)."""
        bundle = {"case1": case1, "case2": case2}[which]
        cert, joint = bundle.certificate, bundle.joint
        for idx, jm in enumerate(joint.modes):
            entry = cert.entries[idx]
            if jm.kind == CONIC:
                M, B1, B2 = entry.M, jm.B1prime, jm.B2prime
            else:
                M, B1, B2 = entry.extended(), jm.B1bar, jm.B2bar
            w, V = np.linalg.eigh(M)
            root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
            assert np.linalg.norm(root @ root - M) <= 1e-12 * np.linalg.norm(M)
            want = [2.0 * np.linalg.norm(root @ X, 2) / cert.lam
                    for X in (B2, np.eye(len(M)), B1)]
            got = gain_slopes(cert, joint, idx)
            np.testing.assert_allclose(got[:3], want, rtol=1e-12)
            assert got[3] == (0.0 if jm.kind == CONIC else np.sqrt(entry.m_scalar))

    def test_infeasible_certificate_rejected(self, case1):
        bad = Certificate(
            8.0, 1e6,  # absurd decay rate can't verify
            case1.certificate.entries,
        )
        scen = dataclasses.replace(case1.scenario, certificate=bad, t_end=0.01)
        with pytest.raises(UncertifiedModeError):
            run_scenario(scen)


class TestErrorBound:
    """``delta = kappa * max(V, b)`` sample by sample."""

    def test_above_threshold(self, trajs):
        traj = trajs["quiet"]
        above = traj.V > traj.b
        assert np.any(above)
        np.testing.assert_array_equal(traj.delta[above], traj.kappa * traj.V[above])

    def test_below_threshold(self, trajs):
        traj = trajs["case1"]
        below = traj.V <= traj.b
        assert np.any(below)
        np.testing.assert_array_equal(traj.delta[below], traj.kappa * traj.b[below])

    def test_boundary_continuity(self, trajs):
        """Both branches meet at V = b, so delta is exactly kappa max(V, b),
        also on affine cells where b carries the sqrt(m) term."""
        for traj in trajs.values():
            np.testing.assert_array_equal(
                traj.delta, traj.kappa * np.maximum(traj.V, traj.b)
            )


class TestSimFnDerivative:
    def test_pure_decay(self):
        cert = Certificate(1.0, 1.0, (ModeCertificate(np.eye(2)),))
        joint = _toy_joint(
            Aprime=-np.eye(2), B1=np.zeros((2, 1)), B2=np.zeros((2, 1)),
            C=np.zeros((1, 2)), cell=_conic_cell(2), n=1, m=1,
        )
        vd = sim_fn_derivative(cert, joint, 0, [1.0, 0.0], [0.0], [0.0], [0.0])
        assert vd == pytest.approx(-1.0)

    def test_drift_homogeneity(self):
        cert = Certificate(1.0, 1.0, (ModeCertificate(np.diag([2.0, 0.5])),))
        joint = _toy_joint(
            Aprime=np.array([[-1.0, 0.3], [0.0, -2.0]]),
            B1=np.zeros((2, 1)), B2=np.zeros((2, 1)),
            C=np.zeros((1, 2)), cell=_conic_cell(2), n=1, m=1,
        )
        rng = np.random.default_rng(5)
        for _ in range(50):
            omega = rng.normal(size=2)
            base = sim_fn_derivative(cert, joint, 0, omega, [0.0], [0.0], [0.0])
            for alpha in (0.5, 2.0, 7.5):
                scaled = sim_fn_derivative(cert, joint, 0, alpha * omega,
                                           [0.0], [0.0], [0.0])
                assert scaled == pytest.approx(alpha * base, rel=1e-9)

    def test_degenerate_state(self):
        cert = Certificate(1.0, 1.0, (ModeCertificate(np.eye(2)),))
        joint = _toy_joint(
            Aprime=-np.eye(2), B1=np.zeros((2, 1)), B2=np.zeros((2, 1)),
            C=np.zeros((1, 2)), cell=_conic_cell(2), n=1, m=1,
        )
        with pytest.raises(DegenerateStateError):
            sim_fn_derivative(cert, joint, 0, np.zeros(2), [0.0], [0.0], [0.0])

    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_finite_difference_oracle(self, which, case1, case2):
        bundle = case1 if which == "case1" else case2
        cert, joint = bundle.certificate, bundle.joint
        rng = np.random.default_rng(43)
        step = 1e-6
        for _ in range(200):
            idx = int(rng.integers(len(joint.modes)))
            jm = joint.modes[idx]
            d = jm.Aprime.shape[0]
            m = joint.m
            omega = rng.normal(size=d)
            if np.linalg.norm(omega) < 0.5:
                omega = omega / np.linalg.norm(omega)
            x2 = omega[-m:]
            u2bar = rng.normal(size=jm.B2prime.shape[1])
            c_t = rng.normal(scale=0.1, size=joint.n)
            vd = sim_fn_derivative(cert, joint, idx, omega, x2, u2bar, c_t)
            cprime = np.concatenate([c_t, np.zeros(m)])
            omega_dot = (jm.Aprime @ omega + jm.B1prime @ x2
                         + jm.B2prime @ u2bar + cprime)
            plus = sim_fn_value(cert, idx, omega + step * omega_dot, jm.kind)
            minus = sim_fn_value(cert, idx, omega - step * omega_dot, jm.kind)
            assert vd == pytest.approx((plus - minus) / (2 * step), abs=1e-5)


class TestCertificateValidation:
    def test_non_pd_rejected(self):
        with pytest.raises(InfeasibleCertificateError):
            ModeCertificate(np.diag([1.0, 0.0]))

    def test_negative_relaxation_rejected(self):
        with pytest.raises(ValueError):
            ModeCertificate(np.eye(2), U=np.array([[-1.0]]))

    def test_continuity_factorization_accepted(self):
        T = np.diag([2.0, 3.0, 5.0])
        jbar = ContinuityMatrix(np.eye(3))
        cert = Certificate(
            1.0, 1.0,
            (ModeCertificate(np.diag([2.0, 3.0]), m_scalar=5.0),),
            T=T, jbars=(jbar,),
        )
        assert cert.T is not None

    def test_continuity_factorization_mismatch(self):
        T = np.eye(3)
        jbar = ContinuityMatrix(np.eye(3))
        with pytest.raises(InfeasibleCertificateError):
            Certificate(
                1.0, 1.0,
                (ModeCertificate(np.diag([2.0, 3.0]), m_scalar=5.0),),
                T=T, jbars=(jbar,),
            )

    def test_continuity_matrix_per_mode_required(self):
        """A short continuity list is rejected, not cut to the first modes."""
        entry = ModeCertificate(np.diag([2.0, 3.0]), m_scalar=5.0)
        with pytest.raises(DimensionMismatchError):
            Certificate(1.0, 1.0, (entry, entry), T=np.diag([2.0, 3.0, 5.0]),
                        jbars=(ContinuityMatrix(np.eye(3)),))
