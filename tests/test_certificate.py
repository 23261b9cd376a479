"""Certificate verification, synthesis, gain slopes, thresholds, derivatives."""

import dataclasses
import warnings

import numpy as np
import pytest

from pwa_hier.certificate import (
    LMI_TOL,
    SYNTH_MARGIN,
    _solve_decay_equation,
    Certificate,
    ModeCertificate,
    default_lambda_grid,
    gain_slopes,
    gain_slopes_all,
    sim_fn_derivative,
    sim_fn_value,
    synthesize_certificate,
    verify_all,
)
from pwa_hier.errors import (
    DegenerateStateError,
    DimensionMismatchError,
    InfeasibleCertificateError,
    NotSymmetricError,
    SynthesisFailedError,
    UncertifiedModeError,
)
from pwa_hier.polytope import AFFINE, CONIC, Polyhedron
from pwa_hier.modelfile import build_pipeline, builtin_model_path, load_model
from pwa_hier.relation import JointMode
from pwa_hier.simulator import reference_schedule, run_scenario
from pwa_hier.systems import DisturbanceSignal, hurwitz_margin

from helpers import (
    exact_certificate_holds,
    exact_inertia,
    fan_scenario,
    kron_decay_solve,
    lmi_margins,
    reference_synthesis,
    synth_pool_failures,
)

I2 = np.eye(2)


@dataclasses.dataclass(frozen=True)
class _Blocks:
    """A joint system given by its blocks alone, with no loop: the modes,
    their blocks stacked by mode (built from the modes, as ``JointSystem``
    keeps them) and the dimensions ``n`` and ``m`` are all the certificate
    layer reads."""

    modes: tuple
    n: int
    m: int

    def __post_init__(self):
        for name in ("Aprime", "B1prime", "B2prime", "Cprime"):
            object.__setattr__(self, name, np.array([getattr(jm, name) for jm in self.modes]))


def _toy_joint(Aprime, B1, B2, C, cell, n, m) -> _Blocks:
    jm = JointMode(
        label=(0,),
        kind="conic" if np.all(cell.f == 0.0) else "affine",
        Aprime=Aprime,
        B1prime=B1,
        B2prime=B2,
        Cprime=C,
        cell=cell,
    )
    return _Blocks((jm,), n=n, m=m)


def _verified(Aprime, C, cell, entry, lam):
    """``verify_all``'s margins for a one-mode joint with zero inputs."""
    d = Aprime.shape[0]
    joint = _toy_joint(Aprime, np.zeros((d, 1)), np.zeros((d, 1)), C, cell, n=C.shape[0], m=1)
    return verify_all(Certificate(1.0, lam, (entry,)), joint)[0].margins


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
    """Hand-worked margins, each asserted on the raw-block oracle and on
    ``verify_all`` for the same blocks as a one-mode joint."""

    def test_stable_block_feasible(self):
        # an affine cell is certified on its state block -I2: -2 + 1 = -1
        for m1, m2, m3 in (lmi_margins(I2, -I2, np.zeros((1, 2)), lam=1.0),
                           _verified(-I2, np.zeros((1, 2)), _affine_cell(2),
                                     ModeCertificate(I2, m_scalar=1.0), lam=1.0)):
            assert m1 == pytest.approx(1.0)
            assert m2 == pytest.approx(1.0)
            assert m3 == pytest.approx(-1.0)

    def test_homogeneous_entry_enters_no_margin(self):
        """Margin 2 is the smallest eigenvalue of M alone: a tiny positive
        homogeneous entry leaves every margin and the verdict as they are."""
        want = _verified(-I2, np.zeros((1, 2)), _affine_cell(2),
                         ModeCertificate(I2, m_scalar=1.0), lam=1.0)
        for m in (1e-12, 1e12):
            assert _verified(-I2, np.zeros((1, 2)), _affine_cell(2),
                             ModeCertificate(I2, m_scalar=m), lam=1.0) == want

    def test_excessive_decay_infeasible(self):
        for _, _, m3 in (lmi_margins(I2, -I2, np.zeros((1, 2)), lam=3.0),
                         _verified(-I2, np.zeros((1, 2)), _affine_cell(2),
                                   ModeCertificate(I2, m_scalar=1.0), lam=3.0)):
            assert m3 == pytest.approx(1.0)

    def test_output_equality_boundary(self):
        # M equals C^T C exactly: first margin sits at zero, still feasible
        for m1, _, _ in (lmi_margins(np.eye(2), -np.eye(2), np.eye(2), 1.0),
                         _verified(-I2, I2, _conic_cell(2), ModeCertificate(I2), lam=1.0)):
            assert m1 == pytest.approx(0.0, abs=1e-12)

    def test_case2_decay_margin_is_the_state_block(self, case2):
        """On case2's affine cells m3 is the top eigenvalue of the state
        block's decay condition, bit for bit, and below zero: no zero
        homogeneous row pins it at 0."""
        cert, joint = case2.certificate, case2.joint
        for entry, jm, report in zip(cert.entries, joint.modes, verify_all(cert, joint)):
            assert jm.kind == AFFINE
            S = jm.Aprime.T @ entry.M + entry.M @ jm.Aprime + cert.lam * entry.M
            top = np.linalg.eigvalsh(0.5 * (S + S.T))[-1]
            assert _bits(report.margins[2]) == _bits(top)
            assert top < 0.0

    def test_congruence_invariance(self, case1):
        rng = np.random.default_rng(7)
        cert, joint = case1.certificate, case1.joint
        jm = joint.modes[0]
        M = cert.entries[0].M
        base = lmi_margins(M, jm.Aprime, jm.Cprime, cert.lam)
        report = verify_all(cert, joint)[0]
        assert base == pytest.approx(report.margins, rel=0.0, abs=1e-12)
        base_feasible = report.feasible
        for _ in range(20):
            Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
            got = lmi_margins(Q.T @ M @ Q, Q.T @ jm.Aprime @ Q, jm.Cprime @ Q, cert.lam)
            np.testing.assert_allclose(got[:2], base[:2], atol=1e-8)
            np.testing.assert_allclose(got[2], base[2], atol=1e-6)
            feasible = (got[0] >= -1e-9 and got[1] >= 1e-9 and got[2] <= 1e-9)
            assert feasible == base_feasible


class TestMarginBoundaries:
    """Each of ``verify_all``'s three decisions from both sides, on a
    one-mode joint built so that the margin reads ``+-1e-6`` past its
    threshold and the other two hold by a wide margin."""

    @pytest.mark.parametrize("s", [1e-6, -1e-6])
    def test_domination_margin(self, s):
        """``M = C^T C + s I`` with ``C = I``: margin 1 is ``s``, and the
        mode is feasible exactly when ``s >= -LMI_TOL``."""
        M = I2 + s * I2
        report = verify_all(Certificate(1.0, 1.0, (ModeCertificate(M),)),
                            _toy_joint(-I2, np.zeros((2, 1)), np.zeros((2, 1)), I2,
                                       _conic_cell(2), n=2, m=1))[0]
        m1, m2, m3 = report.margins
        assert m1 == pytest.approx(s, rel=1e-9)
        assert m2 > 0.5 and m3 < -0.5
        assert report.feasible == (s > 0.0)

    @pytest.mark.parametrize("low", [2.0 * LMI_TOL, 0.5 * LMI_TOL])
    def test_positivity_margin(self, low):
        """``M = diag(1, low)`` with zero output map and ``A = -I`` at
        ``lam = 1``: margin 2 is ``low``, margin 1 too (well above
        ``-LMI_TOL``), margin 3 is ``-low``, and the mode is feasible
        exactly when ``low >= LMI_TOL``."""
        M = np.diag([1.0, low])
        report = verify_all(Certificate(1.0, 1.0, (ModeCertificate(M),)),
                            _toy_joint(-I2, np.zeros((2, 1)), np.zeros((2, 1)),
                                       np.zeros((1, 2)), _conic_cell(2), n=1, m=1))[0]
        assert report.margins == (low, low, -low)
        assert report.feasible == (low > LMI_TOL)

    @pytest.mark.parametrize("s", [1e-6, -1e-6])
    def test_decay_margin(self, s):
        """``M = I`` and ``A = -I`` at ``lam = 2 + s``: margin 3 is ``s``,
        and the mode is feasible exactly when ``s <= LMI_TOL``."""
        report = verify_all(Certificate(1.0, 2.0 + s, (ModeCertificate(I2),)),
                            _toy_joint(-I2, np.zeros((2, 1)), np.zeros((2, 1)),
                                       np.zeros((1, 2)), _conic_cell(2), n=1, m=1))[0]
        m1, m2, m3 = report.margins
        assert m1 == m2 == 1.0
        assert m3 == pytest.approx(s, rel=1e-9)
        assert report.feasible == (s < 0.0)


class TestSynthesis:
    def test_scalar_joint_system(self):
        joint = _toy_joint(
            Aprime=-np.eye(2), B1=np.zeros((2, 1)), B2=np.zeros((2, 1)),
            C=np.array([[1.0, 0.0]]), cell=_conic_cell(2), n=1, m=1,
        )
        cert = synthesize_certificate(joint, kappa=1.0)
        assert verify_all(cert, joint)[0].feasible
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
        """With Aprime = -I and lambda = 2 the shifted matrix ``A + (lambda/2) I``
        of the decay solve is zero."""
        joint = _toy_joint(
            Aprime=-np.eye(2), B1=np.zeros((2, 1)), B2=np.zeros((2, 1)),
            C=np.array([[1.0, 0.0]]), cell=_conic_cell(2), n=1, m=1,
        )
        A = joint.modes[0].Aprime
        assert _solve_decay_equation(A, 2.0) is None
        assert kron_decay_solve(A, 2.0) is None
        assert synthesize_certificate(joint, kappa=1.0, lambda_grid=[2.0, 1.0]).lam == 1.0
        with pytest.raises(SynthesisFailedError):
            synthesize_certificate(joint, kappa=1.0, lambda_grid=[2.0])

    @pytest.mark.parametrize("which, lam", [("case1", 1.2049286456050499),
                                            ("case2", 2.3010320011342635)])
    def test_shipped_lambda(self, which, lam, case1, case2):
        """The first feasible grid point of each shipped model; a change
        that flips a grid decision moves it by a whole grid step."""
        bundle = {"case1": case1, "case2": case2}[which]
        assert bundle.certificate.lam == pytest.approx(lam, rel=1e-12, abs=0.0)
        config = load_model(builtin_model_path(which))
        assert build_pipeline(config).certificate.lam == pytest.approx(lam, rel=1e-12, abs=0.0)

    @pytest.fixture(params=["case1", "case2", "fan48"])
    def shipped_or_fan(self, request, case1, case2):
        """A joint system and its certificate's kappa."""
        if request.param == "fan48":
            scen = fan_scenario(cones=48, seed=0)
            return scen.joint, scen.certificate.kappa
        bundle = {"case1": case1, "case2": case2}[request.param]
        return bundle.joint, bundle.certificate.kappa

    def test_default_grid_is_the_log_spacing_without_its_top(self, shipped_or_fan):
        """The default grid is the 16-point log spacing from twice the
        slowest decay rate down, without that first point, bit for bit; at
        that point the stacked decay solve has no solution."""
        joint, _ = shipped_or_fan
        A = np.array([jm.Aprime for jm in joint.modes])
        top = 2.0 * -np.max(hurwitz_margin(A))
        want = np.geomspace(top, min(1e-3, top / 10.0), 16)[1:]
        np.testing.assert_array_equal(_bits(default_lambda_grid(joint)), _bits(want))
        assert _solve_decay_equation(A, top) is None

    def test_default_grid_certifies_at_its_first_rate(self, shipped_or_fan, monkeypatch):
        """Synthesis on the default grid runs one stacked decay solve: its
        first rate certifies every mode."""
        from pwa_hier import certificate

        joint, kappa = shipped_or_fan
        real, solves = certificate._solve_decay_equation, []

        def counting(*args):
            solves.append(args[1])
            return real(*args)

        monkeypatch.setattr(certificate, "_solve_decay_equation", counting)
        cert = synthesize_certificate(joint, kappa=kappa)
        assert solves == [cert.lam] == [default_lambda_grid(joint)[0]]

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


def _jordan_block(d, eig=-1.0):
    return eig * np.eye(d) + np.diag(np.ones(d - 1), 1)


class TestDecayEquation:
    """The sign-iteration decay solve against the full Kronecker LU."""

    @staticmethod
    def _relative_gap(A, lam):
        M = _solve_decay_equation(A, lam)
        ref = kron_decay_solve(A, lam)
        assert M is not None and ref is not None
        np.testing.assert_array_equal(M, M.T)
        return np.linalg.norm(M - ref) / np.linalg.norm(ref)

    @pytest.mark.parametrize("d", [*range(1, 17), 24, 32])
    def test_random_stable_matches_kronecker(self, d):
        rng = np.random.default_rng(100 + d)
        X = rng.normal(size=(d, d))
        A = X - (np.max(np.linalg.eigvals(X).real) + rng.uniform(0.2, 2.0)) * np.eye(d)
        lam = float(rng.uniform(0.1, 1.9)) * -np.max(np.linalg.eigvals(A).real)
        assert self._relative_gap(A, lam) <= 1e-12

    def test_defective_jordan_block(self):
        """A defective A has no eigenvector basis (a solve through
        ``np.linalg.eig`` is off by O(1) here); the sign iteration needs
        none.  Both solves reject the rate at which the equation is too
        ill-conditioned to meet the residual bound."""
        A = _jordan_block(8)
        S = np.linalg.eig(A)[1]
        assert np.linalg.cond(S) > 1e12
        for lam in (0.1, 0.5, 1.0):
            assert self._relative_gap(A, lam) <= 1e-12
        assert _solve_decay_equation(A, 1.9) is None
        assert kron_decay_solve(A, 1.9) is None

    def test_defective_mode_synthesizes(self):
        joint = _toy_joint(
            Aprime=_jordan_block(4), B1=np.zeros((4, 1)), B2=np.zeros((4, 1)),
            C=np.array([[1.0, 0.0, 0.0, 0.0]]), cell=_conic_cell(4), n=3, m=1,
        )
        cert = synthesize_certificate(joint, kappa=1.0)
        assert verify_all(cert, joint)[0].feasible


def _stable(rng, d, slowest):
    """Random ``d x d`` matrix whose eigenvalue real parts are at most
    ``-slowest``."""
    X = rng.normal(size=(d, d))
    return X - (np.max(np.linalg.eigvals(X).real) + slowest) * np.eye(d)


def _joint_of(As) -> _Blocks:
    """Conic joint modes with the given closed loops, each observed through
    its first coordinate."""
    modes = []
    for i, A in enumerate(As):
        d = A.shape[0]
        C = np.eye(1, d)
        jm = _toy_joint(A, np.zeros((d, 1)), np.zeros((d, 1)), C, _conic_cell(d),
                        n=d - 1, m=1).modes[0]
        modes.append(dataclasses.replace(jm, label=(i,)))
    return _Blocks(tuple(modes), n=As[0].shape[0] - 1, m=1)


def _assert_same_certificate(cert, ref):
    assert ref is not None and cert.lam == ref.lam
    for got, want in zip(cert.entries, ref.entries, strict=True):
        np.testing.assert_allclose(got.M, want.M, rtol=1e-12, atol=0.0)
        assert got.m_scalar == want.m_scalar


class TestStackedSynthesis:
    """One stacked solve decides a rate for every mode: a rate at which any
    single mode fails is skipped, as the mode-by-mode reference skips it."""

    def test_one_singular_mode_skips_the_rate(self):
        """With Aprime = -I and lambda = 2 the shifted matrix ``A + (lambda/2)
        I`` of the middle mode is zero; the other two solve at that rate."""
        rng = np.random.default_rng(17)
        As = [_stable(rng, 2, 1.5), -np.eye(2), _stable(rng, 2, 1.2)]
        joint = _joint_of(As)
        assert [_solve_decay_equation(A, 2.0) is None for A in As] == [
            False, True, False]
        stack = np.array(As)
        assert _solve_decay_equation(stack, 2.0) is None
        cert = synthesize_certificate(joint, kappa=1.0, lambda_grid=[2.0, 1.0])
        assert cert.lam == 1.0
        _assert_same_certificate(cert, reference_synthesis(joint, 1.0, [2.0, 1.0]))

    def test_one_mode_missing_the_residual_bound_skips_the_rate(self):
        """The defective block solves at 1.9 but misses the residual bound;
        the stable modes around it meet it."""
        rng = np.random.default_rng(19)
        As = [_stable(rng, 8, 1.5), _jordan_block(8), _stable(rng, 8, 1.2), _stable(rng, 8, 2.0)]
        joint = _joint_of(As)
        assert [_solve_decay_equation(A, 1.9) is None for A in As] == [
            False, True, False, False]
        stack = np.array(As)
        assert _solve_decay_equation(stack, 1.9) is None
        cert = synthesize_certificate(joint, kappa=1.0, lambda_grid=[1.9, 1.0])
        assert cert.lam == 1.0
        _assert_same_certificate(cert, reference_synthesis(joint, 1.0, [1.9, 1.0]))

    def test_stacked_solve_equals_one_mode_solves(self):
        rng = np.random.default_rng(23)
        As = np.array([_stable(rng, 5, 0.8) for _ in range(6)])
        M = _solve_decay_equation(As, 1.0)
        for A, Mi in zip(As, M):
            np.testing.assert_allclose(Mi, _solve_decay_equation(A, 1.0),
                                       rtol=1e-12, atol=0.0)


class TestExactAudit:
    """Synthesized certificates hold in exact rational arithmetic, not only
    to within ``LMI_TOL``."""

    @pytest.mark.parametrize("S, inertia", [
        ([[2.0, 1.0], [1.0, 2.0]], (2, 0, 0)),
        ([[0.0, 1.0], [1.0, 0.0]], (1, 1, 0)),
        ([[1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 0.0]], (1, 1, 1)),
        ([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], (2, 1, 0)),
        ([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -52]], (2, 0, 0)),
        ([[1.0, 1.0], [1.0, 1.0 - 2.0 ** -53]], (1, 1, 0)),
        ([[1.0, 2.0], [2.0, 4.0]], (1, 0, 1)),
    ])
    def test_inertia(self, S, inertia):
        assert exact_inertia(S) == inertia

    def test_shipped_cases_hold_exactly(self, case1, case2):
        for bundle in (case1, case2):
            assert exact_certificate_holds(bundle.certificate, bundle.joint)

    def test_synth_pool_models_hold_exactly(self, tmp_path):
        """The four kinds of model (linear or PWA abstraction, conic or
        affine cells) at joint dimensions 4 and 6; the CI workflow audits
        the whole pool."""
        assert synth_pool_failures(tmp_path, [0, 1, 7, 8, 14, 15, 21, 22]) == []

    def test_audit_rejects_what_the_tolerance_forgives(self, case1):
        """Scaled from its synthesis margin to a relative 1e-12 short of
        dominating the output map, case1's M passes ``verify_all``, whose
        tolerance forgives that, and fails the audit."""
        cert = case1.certificate
        short = (1.0 - 1e-12) / (1.0 + SYNTH_MARGIN)
        tight = dataclasses.replace(cert, entries=tuple(
            ModeCertificate(short * e.M, e.m_scalar) for e in cert.entries))
        assert all(r.feasible for r in verify_all(tight, case1.joint))
        assert not exact_certificate_holds(tight, case1.joint)


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
        g1, g2, g3, sqrt_m = gain_slopes(cert, joint, 0)
        assert (g1, g3) == (0.0, 0.0)
        assert sqrt_m == pytest.approx(2.0)
        # the disturbance enters the state block: gamma2 reads lambda_max(M) = 1, not m = 4
        assert g2 == pytest.approx(1.0)

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
        """Slopes equal ``2 ||sqrt(M) X||_2 / lambda`` on the state blocks,
        with the square root taken by eigendecomposition (case1 cells are
        conic, case2 affine)."""
        bundle = {"case1": case1, "case2": case2}[which]
        cert, joint = bundle.certificate, bundle.joint
        for idx, jm in enumerate(joint.modes):
            entry = cert.entries[idx]
            M, B1, B2 = entry.M, jm.B1prime, jm.B2prime
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


def _mixed_joint(rng, kinds, d=4, n=2, m=2, p=2, lam=0.3, rows=None):
    """Joint system whose modes have conic or affine cells as ``kinds``
    says, with random Hurwitz drift, and ``rows[k]`` cell rows in mode
    ``k`` (2 in every mode by default).  The certificate is feasible by
    construction on even modes (decay-equation ``M`` scaled over ``C^T C``)
    and random on odd ones."""
    modes, entries = [], []
    I = np.eye(d)
    for k, kind in enumerate(kinds):
        r = 2 if rows is None else rows[k]
        skew = rng.normal(size=(d, d))
        A = -np.diag(rng.uniform(0.5, 3.0, d)) + 0.5 * (skew - skew.T)
        E = rng.normal(size=(r, d))
        cell = Polyhedron(E, np.zeros(r) if kind == CONIC else rng.normal(size=r))
        B1, B2 = rng.normal(size=(d, m)), rng.normal(size=(d, p))
        C = 0.3 * rng.normal(size=(n, d))
        if k % 2 == 0:
            vec = np.linalg.solve(np.kron(I, A.T) + np.kron(A.T, I) + lam * np.eye(d * d),
                                  -I.reshape(-1))
            M = vec.reshape(d, d)
            M = 0.5 * (M + M.T)
            M *= 1.0 + 2.0 * np.linalg.eigvalsh(C.T @ C)[-1] / np.linalg.eigvalsh(M)[0]
        else:
            root = rng.normal(size=(d, d))
            M = root @ root.T + 0.2 * I
        modes.append(JointMode(label=(k,), kind=kind, Aprime=A, B1prime=B1, B2prime=B2,
                               Cprime=C, cell=cell))
        m_scalar = None if kind == CONIC else float(rng.uniform(0.5, 2.0))
        entries.append(ModeCertificate(M, m_scalar=m_scalar))
    return Certificate(2.0, lam, tuple(entries)), _Blocks(tuple(modes), n=n, m=m)


def _reference_margins(cert, joint, idx):
    """The per-mode margin formulas, one mode at a time (``lmi_margins`` on
    the mode's state blocks, whatever its cell kind)."""
    entry, jm = cert.entries[idx], joint.modes[idx]
    return lmi_margins(entry.M, jm.Aprime, jm.Cprime, cert.lam)


def _reference_slopes(cert, joint, idx):
    """``2 sqrt(lambda_max(X^T M X)) / lambda`` per state block, then
    sqrt(m) on an affine cell."""
    entry, jm = cert.entries[idx], joint.modes[idx]
    M, B1, B2 = entry.M, jm.B1prime, jm.B2prime
    tail = 0.0 if jm.kind == CONIC else np.sqrt(entry.m_scalar)
    out = []
    for X in (B2, np.eye(len(M)), B1):
        S = X.T @ M @ X
        out.append(2.0 * np.sqrt(max(np.linalg.eigvalsh(0.5 * (S + S.T))[-1], 0.0)) / cert.lam)
    return out + [tail]


class TestStackedChecks:
    KINDS = (CONIC, AFFINE, AFFINE, CONIC, AFFINE, CONIC, CONIC, AFFINE)

    def test_margins_match_per_mode_formulas(self):
        """One stacked eigenvalue call over conic and affine modes gives
        the per-mode margins within 1e-12 and the same feasibility."""
        cert, joint = _mixed_joint(np.random.default_rng(5), self.KINDS)
        reports = verify_all(cert, joint)
        feasible = []
        for idx, report in enumerate(reports):
            want = _reference_margins(cert, joint, idx)
            np.testing.assert_allclose(report.margins, want, rtol=0.0, atol=1e-12)
            m1, m2, m3 = want
            assert report.feasible == (m1 >= -LMI_TOL and m2 >= LMI_TOL and m3 <= LMI_TOL)
            feasible.append(report.feasible)
        assert feasible == [k % 2 == 0 for k in range(len(self.KINDS))]

    def test_slopes_match_per_mode_formulas(self):
        cert, joint = _mixed_joint(np.random.default_rng(8), self.KINDS)
        slopes = gain_slopes_all(cert, joint)
        assert slopes.shape == (len(self.KINDS), 4)
        for idx in range(len(self.KINDS)):
            np.testing.assert_allclose(slopes[idx], _reference_slopes(cert, joint, idx),
                                       rtol=1e-12, atol=0.0)
            assert gain_slopes(cert, joint, idx) == tuple(slopes[idx])

    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_shipped_margins_and_feasibility(self, which, case1, case2):
        bundle = {"case1": case1, "case2": case2}[which]
        cert, joint = bundle.certificate, bundle.joint
        for idx, report in enumerate(verify_all(cert, joint)):
            np.testing.assert_allclose(report.margins, _reference_margins(cert, joint, idx),
                                       rtol=0.0, atol=1e-12)
            assert report.feasible


def _ragged_joint():
    """Supplied certificate over modes of both cell kinds with 2 to 4 cell
    rows: neither the kind nor the rows enter the conditions, so every mode
    has blocks of one shape."""
    kinds = (CONIC, AFFINE) * 2 + (AFFINE, CONIC) * 2 + (CONIC, AFFINE) * 3
    rows = (2, 3, 2, 3, 2, 3, 2, 3, 4, 3, 4, 3, 2, 3)
    return _mixed_joint(np.random.default_rng(11), kinds, rows=rows)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestStackedEqualsPerMode:
    """``verify_all`` and ``gain_slopes_all`` stack every mode; their
    results equal the one-mode-at-a-time formulas bit for bit."""

    @pytest.fixture(params=["case1", "case2", "fan48", "ragged"])
    def cert_joint(self, request, case1, case2):
        if request.param == "fan48":
            scen = fan_scenario(cones=48, seed=0)
            return scen.certificate, scen.joint
        if request.param == "ragged":
            return _ragged_joint()
        bundle = {"case1": case1, "case2": case2}[request.param]
        return bundle.certificate, bundle.joint

    def test_margins_and_feasibility(self, cert_joint):
        cert, joint = cert_joint
        want = np.array([_reference_margins(cert, joint, idx) for idx in range(len(joint.modes))])
        reports = verify_all(cert, joint)
        np.testing.assert_array_equal(_bits([r.margins for r in reports]), _bits(want))
        assert [r.feasible for r in reports] == [
            bool(m1 >= -LMI_TOL and m2 >= LMI_TOL and m3 <= LMI_TOL) for m1, m2, m3 in want]

    def test_gain_slopes(self, cert_joint):
        cert, joint = cert_joint
        want = [_reference_slopes(cert, joint, idx) for idx in range(len(joint.modes))]
        np.testing.assert_array_equal(_bits(gain_slopes_all(cert, joint)), _bits(want))

    def test_overflowing_mode_leaves_the_others(self, case2):
        """An entry of 1e308 in one mode's M overflows that mode's condition
        matrices and gain-slope forms: its margins are NaN and infeasible and
        its overflowed slopes inf, with no warning and no eigenvalue failure,
        while the other modes of the stack keep their bits."""
        cert, joint = case2.certificate, case2.joint
        entries = list(cert.entries)
        M = entries[3].M.copy()
        M[0, 0] = 1e308
        entries[3] = dataclasses.replace(entries[3], M=M)
        huge = dataclasses.replace(cert, entries=tuple(entries))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reports, slopes = verify_all(huge, joint), gain_slopes_all(huge, joint)
        assert np.isnan(reports[3].margins).all() and not reports[3].feasible
        assert np.isinf(slopes[3]).any()
        others = [0, 1, 2, 4]
        want = verify_all(cert, joint)
        assert [reports[k] for k in others] == [want[k] for k in others]
        np.testing.assert_array_equal(_bits(slopes[others]),
                                      _bits(gain_slopes_all(cert, joint)[others]))


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
    @pytest.mark.parametrize("low", [0.0, 5e-11, 5e-10, -1.0])
    def test_positivity_is_decided_by_margin_two(self, low):
        """An ``M`` that is not positive definite builds; ``verify_all``
        reports its smallest eigenvalue as margin 2, and the mode as
        infeasible.  With zero output map and ``A = -I`` at ``lam = 1`` the
        other margins pass whenever ``low`` is within ``LMI_TOL`` of zero,
        so margin 2 alone decides there."""
        M = np.diag([1.0, low])
        joint = _toy_joint(-I2, np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((1, 2)),
                           _conic_cell(2), n=1, m=1)
        report = verify_all(Certificate(1.0, 1.0, (ModeCertificate(M),)), joint)[0]
        assert report.margins[1] == np.linalg.eigvalsh(M)[0]
        assert not report.feasible

    def test_relaxation_weights_are_not_fields(self):
        """A certificate is ``M`` and ``m_scalar`` only; ``U``/``W`` read None."""
        assert [f.name for f in dataclasses.fields(ModeCertificate)] == ["M", "m_scalar"]
        assert ModeCertificate(np.eye(2)).U is None and ModeCertificate(np.eye(2)).W is None
        with pytest.raises(TypeError):
            ModeCertificate(np.eye(2), U=np.zeros((1, 1)))

    @pytest.mark.parametrize("kappa", [np.inf, np.nan, 0.0, -1.0])
    def test_kappa_positive_and_finite(self, kappa):
        with pytest.raises(InfeasibleCertificateError, match="kappa"):
            Certificate(kappa, 1.0, (ModeCertificate(np.eye(2)),))

    @pytest.mark.parametrize("lam", [np.inf, np.nan, 0.0, -1.0])
    def test_lambda_positive_and_finite(self, lam):
        with pytest.raises(InfeasibleCertificateError, match="lambda"):
            Certificate(1.0, lam, (ModeCertificate(np.eye(2)),))

    def test_asymmetry_beyond_double_range_rejected(self):
        """An asymmetry beyond the double range reads inf, with no
        RuntimeWarning, and is rejected."""
        with pytest.raises(NotSymmetricError, match="inf"):
            ModeCertificate(np.array([[1.0, 1e308], [-1e308, 1.0]]))

    def test_mode_sizes_must_agree(self):
        with pytest.raises(DimensionMismatchError):
            Certificate(1.0, 1.0, (ModeCertificate(np.eye(2)), ModeCertificate(np.eye(3))))

    def test_continuity_factorization_is_not_a_field(self):
        """A certificate is ``kappa``, ``lam`` and its entries; it carries no
        continuity factorization ``T``/``Jbar``."""
        assert [f.name for f in dataclasses.fields(Certificate)] == ["kappa", "lam", "entries"]
        with pytest.raises(TypeError):
            Certificate(1.0, 1.0, (ModeCertificate(np.eye(2)),), T=np.eye(2))
