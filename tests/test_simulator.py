"""Integration, mode switching, bound bookkeeping, verdict, trajectory export."""

import dataclasses

import numpy as np
import pytest

from pwa_hier import (
    DisturbanceSignal,
    LinearAbstraction,
    Partition,
    Polyhedron,
    PwaMode,
    PwaSystem,
    Scenario,
    Trajectory,
    build_interface,
    export_trajectory,
    reference_schedule,
    run_scenario,
    step_rk4,
    synthesize_certificate,
    verdict,
)
from pwa_hier.certificate import sim_fn_derivative
from pwa_hier.errors import (
    EmptyScheduleError,
    EmptyTrajectoryError,
    NoCellError,
    NonFiniteStateError,
    NonMonotoneTimesError,
)
from pwa_hier.polytope import locate_mode
from pwa_hier.relation import assemble_joint, solve_system_relation
from pwa_hier.simulator import _BLOCK, CHAIN_TOL, _Runner
from pwa_hier.systems import paired_modes

I2 = np.eye(2)


class TestStepRk4:
    def test_constant_state(self):
        out = step_rk4(lambda x, t: np.zeros(3), np.array([1.0, -2.0, 0.5]), 0.0, 0.1)
        np.testing.assert_allclose(out, [1.0, -2.0, 0.5])

    def test_exponential_decay_polynomial(self):
        # single step reproduces the degree-4 Taylor truncation of e^{-h}
        out = step_rk4(lambda x, t: -x, np.array([1.0]), 0.0, 0.1)
        assert out[0] == pytest.approx(0.9048375, abs=1e-12)

    def test_constant_field_exact(self):
        out = step_rk4(lambda x, t: np.ones(1), np.array([0.0]), 0.0, 0.25)
        assert out[0] == pytest.approx(0.25, abs=1e-15)

    def test_order_four_convergence(self, case1):
        """Halving the step shrinks the terminal error by 8x..32x on a
        smooth single-mode segment."""
        scen = case1.scenario
        sched = reference_schedule([(0.0, [-3.0, 0.5])])

        def terminal(h):
            s = Scenario(scen.system, scen.abstraction, scen.relation,
                         scen.interface, scen.certificate, sched,
                         scen.disturbance, x1_0=scen.x1_0, x2_0=scen.x2_0,
                         t_end=1.0, h=h, joint=scen.joint)
            traj = run_scenario(s)
            assert len(np.unique(traj.mode_i)) == 1
            return np.concatenate([traj.x1[-1], traj.x2[-1]])

        ref = terminal(2e-3 / 16.0)
        err_h = np.linalg.norm(terminal(2e-3) - ref)
        err_h2 = np.linalg.norm(terminal(1e-3) - ref)
        assert 8.0 <= err_h / err_h2 <= 32.0


class TestReferenceSchedule:
    def test_constant(self):
        s = reference_schedule([(0.0, [1.0, 2.0])])
        np.testing.assert_allclose(s.value(0.0), [1.0, 2.0])
        np.testing.assert_allclose(s.value(123.0), [1.0, 2.0])

    def test_right_continuous(self):
        s = reference_schedule([(0.0, [1.0]), (5.0, [2.0])])
        assert s.value(5.0)[0] == 2.0
        assert s.value(4.999999)[0] == 1.0

    def test_sup_norm(self):
        s = reference_schedule([(0.0, [1.0, -3.0]), (5.0, [2.0, 0.0])])
        assert s.sup_norm() == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyScheduleError):
            reference_schedule([])

    def test_nonmonotone_rejected(self):
        with pytest.raises(NonMonotoneTimesError):
            reference_schedule([(0.0, [1.0]), (2.0, [2.0]), (2.0, [3.0])])
        with pytest.raises(NonMonotoneTimesError):
            reference_schedule([(1.0, [1.0])])

    def test_nan_time_rejected(self):
        with pytest.raises(NonMonotoneTimesError):
            reference_schedule([(0.0, [1.0]), (float("nan"), [2.0])])


def _matched_single_mode_scenario(case1, x1_offset=0.0, disturbance=None):
    """Single-mode plant with invertible input map: the feedthrough matches
    exactly, so zero initial error implies exact output matching."""
    A = case1.system.modes[0].A
    C = case1.system.modes[0].C
    system = PwaSystem(
        (PwaMode(A, np.eye(6), C, 0.15),),
        Partition((Polyhedron(np.zeros((1, 6)), np.zeros(1)),)),
    )
    absn = case1.abstraction
    rel = solve_system_relation(system, absn)
    K = -3 * np.eye(6) - A
    iface = build_interface(system, absn, rel, [K])
    joint = assemble_joint(system, absn, rel, iface)
    cert = synthesize_certificate(joint, kappa=8.0)
    sched = reference_schedule([(0.0, [1.0, -0.5]), (3.0, [-2.0, 1.0])])
    dist = disturbance or DisturbanceSignal.zero(6)
    x2_0 = np.array([0.5, 0.25])
    x1_0 = rel.P[0] @ x2_0
    x1_0[0] += x1_offset
    return Scenario(system, absn, rel, iface, cert, sched, dist,
                    x1_0=x1_0, x2_0=x2_0, t_end=10.0, h=1e-3, joint=joint)


class TestRunScenario:
    def test_output_matching_zero_initial_error(self, case1):
        traj = run_scenario(_matched_single_mode_scenario(case1))
        assert float(np.max(traj.err)) <= 1e-9

    def test_case1_bound_chain(self, case1):
        traj = run_scenario(case1.scenario)
        assert np.all(traj.err <= traj.kappa * traj.V + 1e-6)
        assert np.all(traj.kappa * traj.V <= traj.delta + 1e-6)

    def test_case2_bound_chain(self, case2):
        traj = run_scenario(case2.scenario)
        assert np.all(traj.err <= traj.kappa * traj.V + 1e-6)
        assert np.all(traj.V <= traj.delta / traj.kappa + 1e-6)

    def test_sample_count_and_modes(self, case1):
        traj = run_scenario(case1.scenario)
        assert len(traj) == int(np.floor(12.0 / 1e-3)) + 1
        assert set(np.unique(traj.mode_i)) == {0, 1, 2}
        # stored error column matches its definition exactly
        recomputed = np.linalg.norm(
            traj.x1 @ case1.system.modes[0].C.T - traj.x2, axis=1
        )
        np.testing.assert_allclose(traj.err, recomputed, atol=1e-12)

    def test_case2_visits_all_segments(self, case2):
        traj = run_scenario(case2.scenario)
        assert set(np.unique(traj.mode_i)) == {0, 1, 2, 3, 4}
        assert set(np.unique(traj.mode_j)) == {0, 1, 2}
        # abstraction region always matches the pairing of the active mode
        for i, j in zip(traj.mode_i, traj.mode_j):
            assert j == case2.pairing[i]
        # stored error column matches the pairwise output maps
        C = case2.system.modes[0].C
        for jdx in (0, 1, 2):
            rows = traj.mode_j == jdx
            H = case2.abstraction.modes[jdx].H
            recomputed = np.linalg.norm(
                traj.x1[rows] @ C.T - traj.x2[rows] @ H.T, axis=1
            )
            np.testing.assert_allclose(traj.err[rows], recomputed, atol=1e-12)

    def test_crossing_brackets(self, case1, case2):
        for bundle in (case1, case2):
            traj = run_scenario(bundle.scenario)
            assert traj.crossings, "expected boundary crossings"
            for ev in traj.crossings:
                assert ev.width <= 1e-10
                assert ev.margin_inside >= -1e-9
                assert ev.margin_outside < -1e-9

    def test_off_road_terminates(self, case1):
        scen = case1.scenario
        sched = reference_schedule([(0.0, [0.0, -6.0])])  # into the gap cone
        bad = Scenario(scen.system, scen.abstraction, scen.relation,
                       scen.interface, scen.certificate, sched,
                       scen.disturbance, x1_0=scen.x1_0, x2_0=scen.x2_0,
                       t_end=12.0, h=1e-3, joint=scen.joint)
        with pytest.raises(NoCellError):
            run_scenario(bad)

    def test_zero_horizon_rejected(self, case1):
        scen = case1.scenario
        with pytest.raises(EmptyTrajectoryError):
            Scenario(scen.system, scen.abstraction, scen.relation,
                     scen.interface, scen.certificate, scen.schedule,
                     scen.disturbance, x1_0=scen.x1_0, x2_0=scen.x2_0,
                     t_end=0.0, h=1e-3, joint=scen.joint)

    def test_region_pairing_mismatch_rejected(self, case2):
        """Regions rearranged against the dynamics-derived pairing put the
        initial state in an uncertified pair."""
        from pwa_hier import PwaAbstraction
        from pwa_hier.errors import UncertifiedModeError
        scen = case2.scenario
        shuffled = PwaAbstraction(
            case2.abstraction.modes,
            tuple(reversed(case2.abstraction.concrete_cells)),
        )
        bad = Scenario(scen.system, shuffled, scen.relation, scen.interface,
                       scen.certificate, scen.schedule, scen.disturbance,
                       x1_0=scen.x1_0, x2_0=scen.x2_0, t_end=1.0, h=1e-3,
                       pairing=scen.pairing)
        with pytest.raises(UncertifiedModeError):
            run_scenario(bad)


def _switch_adjacent(traj):
    """Sample indices within one step of any boundary crossing."""
    out = set()
    h = float(traj.t[1] - traj.t[0])
    for ev in traj.crossings:
        k = int(ev.t_outside / h)
        out.update((k - 1, k, k + 1, k + 2))
    return out


class TestDecreaseAndInvariance:
    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_decrease_outside_threshold(self, which, case1, case2):
        bundle = case1 if which == "case1" else case2
        traj = run_scenario(bundle.scenario)
        skip = _switch_adjacent(traj)
        checked = 0
        for k in range(len(traj)):
            if k in skip or traj.V[k] <= traj.b[k]:
                continue
            idx = int(traj.mode_i[k])
            omega = np.concatenate([traj.xtilde[k], traj.x2[k]])
            vd = sim_fn_derivative(
                bundle.certificate, bundle.joint, idx, omega, traj.x2[k],
                traj.u2bar[k], bundle.disturbance.value(float(traj.t[k])),
            )
            assert vd <= 1e-6
            checked += 1
        # the shipped runs start inside the invariant set; the branch is
        # exercised separately from an out-of-set start below

    def test_decrease_branch_from_outside(self, case1):
        """Start far outside the invariant set: V > b initially and the
        analytic derivative stays negative until the level is reached."""
        scen = case1.scenario
        x1_0 = np.array(scen.x1_0, copy=True)
        x1_0[0] += 1000.0  # into the rightmost cone, huge tracking error
        far = Scenario(scen.system, scen.abstraction, scen.relation,
                       scen.interface, scen.certificate, scen.schedule,
                       scen.disturbance, x1_0=x1_0, x2_0=scen.x2_0,
                       t_end=12.0, h=1e-3, joint=scen.joint)
        traj = run_scenario(far)
        skip = _switch_adjacent(traj)
        above = 0
        for k in range(len(traj)):
            if k in skip or traj.V[k] <= traj.b[k]:
                continue
            above += 1
            idx = int(traj.mode_i[k])
            omega = np.concatenate([traj.xtilde[k], traj.x2[k]])
            vd = sim_fn_derivative(
                case1.certificate, case1.joint, idx, omega, traj.x2[k],
                traj.u2bar[k], case1.disturbance.value(float(traj.t[k])),
            )
            assert vd <= 1e-6
        assert above > 10  # the branch is genuinely exercised

    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_forward_invariance_frozen_threshold(self, which, case1, case2):
        bundle = case1 if which == "case1" else case2
        traj = run_scenario(bundle.scenario)
        switch_at = sorted({int(ev.t_outside / 1e-3) + 1 for ev in traj.crossings})
        segments = np.split(np.arange(len(traj)), switch_at)
        dipped = 0
        for seg in segments:
            if len(seg) < 2:
                continue
            inside = np.nonzero(traj.V[seg] <= traj.b[seg])[0]
            if len(inside) == 0:
                continue
            dipped += 1
            start = inside[0]
            frozen = traj.b[seg[start]]
            assert np.all(traj.V[seg[start:]] <= frozen + 1e-6)
        assert dipped > 0


def _frozen_field(scen, runner, i, u2val):
    """Stacked closed-loop field of mode ``i`` with the reference frozen."""
    pad = np.zeros(runner.m)

    def field(z, tau):
        dist = np.concatenate([scen.disturbance.value(tau), pad])
        return runner.Z[i] @ z + runner.BU[i] @ u2val + dist
    return field


class TestPropagator:
    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_one_step_matches_rk4(self, which, case1, case2):
        """The precomputed step map and the bisection sub-step both equal a
        classical RK4 step of the frozen field, in every mode."""
        scen = (case1 if which == "case1" else case2).scenario
        runner = _Runner(scen)
        rng = np.random.default_rng(11)
        for i in range(len(scen.system.modes)):
            z = rng.normal(size=runner.n + runner.m)
            u2val = rng.normal(size=scen.schedule.values.shape[1])
            t = float(rng.uniform(0.0, 12.0))
            field = _frozen_field(scen, runner, i, u2val)
            Phi, Gu, Ws = runner.maps(i)[3:]
            got = Phi @ z + Gu @ u2val + runner.stages(t, scen.h) @ Ws
            want = step_rk4(field, z, t, scen.h)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            tau = 0.37 * scen.h
            Zk, ZkB, Zkm = runner.maps(i)[:3]
            got = runner.sub_step(np.concatenate([Zk @ z, ZkB @ u2val, Zkm]), t, tau)
            want = step_rk4(field, z, t, tau)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("row", [0, _BLOCK - 1])
    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_first_crossing_at_block_edge(self, which, row, case1, case2):
        """The step width is chosen so the first crossing falls on the first
        or last row of a block; modes and crossing labels match stepping
        the frozen field one RK4 step at a time and relocating the mode
        after each step."""
        scen = (case1 if which == "case1" else case2).scenario
        t_cross = run_scenario(dataclasses.replace(scen, t_end=3.0)).crossings[0].t_outside
        block = int(t_cross / (_BLOCK * scen.h))
        k_cross = block * _BLOCK + row
        h = t_cross / (k_cross + 0.5)
        short = dataclasses.replace(scen, h=h, t_end=(k_cross + 8) * h)
        traj = run_scenario(short)
        assert int(traj.crossings[0].t_outside / h) == k_cross

        runner = _Runner(short)
        paired = paired_modes(short.abstraction, short.pairing, short.system.n_modes)
        z = np.concatenate([short.x1_0, short.x2_0])
        i, j = int(traj.mode_i[0]), int(traj.mode_j[0])
        modes, labels = [(i, j)], []
        for k in range(len(traj) - 1):
            field = _frozen_field(short, runner, i, traj.u2bar[k])
            z = step_rk4(field, z, float(traj.t[k]), h)
            new_i = locate_mode(short.system.partition, z[: runner.n], previous=i)
            # the state stays in the region of the abstraction mode it is paired with
            region = paired[new_i].region
            assert region is None or region.contains(z[: runner.n])
            new_j = paired[new_i].j or 0
            if (new_i, new_j) != (i, j):
                labels.append(((i, j), (new_i, new_j)))
            i, j = new_i, new_j
            modes.append((i, j))
        np.testing.assert_array_equal(traj.mode_i, [m[0] for m in modes])
        np.testing.assert_array_equal(traj.mode_j, [m[1] for m in modes])
        assert [(ev.old_label, ev.new_label) for ev in traj.crossings] == labels

    def test_divergence_mid_block_is_non_finite(self, case1):
        """A state that overflows inside a block is reported as non-finite,
        not as having left the (single, all-space) cell."""
        scen = _matched_single_mode_scenario(case1)
        mode = scen.system.modes[0]
        hot = PwaSystem((PwaMode(mode.A + 1e5 * np.eye(6), mode.B, mode.C, mode.c_bound),),
                        scen.system.partition)
        bad = dataclasses.replace(scen, system=hot)
        runner = _Runner(bad)
        z = np.concatenate([bad.x1_0, bad.x2_0])
        diverged_at = 0
        with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError):
            while True:
                t = diverged_at * bad.h
                field = _frozen_field(bad, runner, 0, bad.schedule.value(t))
                z = step_rk4(field, z, t, bad.h)
                diverged_at += 1
        assert 0 < diverged_at % _BLOCK < _BLOCK - 1
        with pytest.raises(NonFiniteStateError):
            run_scenario(bad)


class TestNonzeroFeedforward:
    def test_matches_reference_integration(self):
        """Double integrator whose relation needs Q != 0 and R != 0: the
        fused closed-loop matrices agree with stepping the raw plant and
        abstraction through the interface formula."""
        from pwa_hier import LinearAbstraction
        from pwa_hier.relation import (assemble_joint, interface_linear,
                                       solve_system_relation)
        system = PwaSystem(
            (PwaMode(np.array([[0.0, 1.0], [0.0, 0.0]]),
                     np.array([[0.0], [1.0]]),
                     np.array([[1.0, 0.0]]), 0.15),),
            Partition((Polyhedron(np.zeros((1, 2)), np.zeros(1)),)),
        )
        absn = LinearAbstraction(F=[[-1.0]], G=[[1.0]], H=[[1.0]], L=[[0.0]])
        rel = solve_system_relation(system, absn)
        np.testing.assert_allclose(rel.P[0], [[1.0], [-1.0]], atol=1e-10)
        np.testing.assert_allclose(rel.Q[0], [[1.0]], atol=1e-10)
        K = np.array([[-2.0, -3.0]])
        iface = build_interface(system, absn, rel, [K])
        np.testing.assert_allclose(iface.R[0], [[-1.0]], atol=1e-10)
        joint = assemble_joint(system, absn, rel, iface)
        cert = synthesize_certificate(joint, kappa=4.0)
        sched = reference_schedule([(0.0, [0.8]), (2.0, [-0.4])])
        dist = DisturbanceSignal.sinusoid(-0.05, 0.05, 2)
        scen = Scenario(system, absn, rel, iface, cert, sched, dist,
                        x1_0=[0.5, 0.0], x2_0=[0.3], t_end=4.0, h=1e-3,
                        joint=joint)
        traj = run_scenario(scen)

        mode = system.modes[0]
        P = rel.P[0]
        FGL = absn.transformed()
        z = np.concatenate([scen.x1_0, scen.x2_0])
        for k in range(len(traj) - 1):
            u2bar = sched.value(float(traj.t[k]))

            def field(state, tau):
                x1, x2 = state[:2], state[2:]
                u1 = interface_linear(x1 - P @ x2, x2, u2bar,
                                      R=iface.R[0], Q=rel.Q[0],
                                      L=absn.L, K=K)
                dx1 = mode.A @ x1 + mode.B @ u1 + dist.value(tau)
                dx2 = FGL @ x2 + absn.G @ u2bar
                return np.concatenate([dx1, dx2])

            z = step_rk4(field, z, float(traj.t[k]), 1e-3)
            np.testing.assert_allclose(z[:2], traj.x1[k + 1], atol=1e-9)
            np.testing.assert_allclose(z[2:], traj.x2[k + 1], atol=1e-9)


class TestRobustnessSweep:
    def test_bound_chain_at_five_amplitudes(self, case1):
        """The certified chain survives any admissible disturbance level,
        and the initial output gap sits inside the initial precision."""
        scen = case1.scenario
        for amp in (0.0, 0.0375, 0.075, 0.1125, 0.15):
            dist = case1.disturbance.scaled_to(amp)
            s = Scenario(scen.system, scen.abstraction, scen.relation,
                         scen.interface, scen.certificate, scen.schedule,
                         dist, x1_0=scen.x1_0, x2_0=scen.x2_0,
                         t_end=12.0, h=1e-3, joint=scen.joint)
            traj = run_scenario(s)
            assert np.all(traj.err <= traj.kappa * traj.V + 1e-6)
            assert np.all(traj.kappa * traj.V <= traj.delta + 1e-6)
            # initial sample satisfies the certified precision directly
            assert traj.err[0] <= traj.delta[0] + 1e-6


class TestVerdict:
    def test_one_sample_above_kappa_v_fails(self, case1):
        traj = run_scenario(dataclasses.replace(case1.scenario, t_end=0.1))
        assert verdict(traj) == "PASS"
        err = traj.err.copy()
        err[50] = traj.kappa * traj.V[50] + 0.5 * CHAIN_TOL
        assert verdict(dataclasses.replace(traj, err=err)) == "PASS"
        err[50] = traj.kappa * traj.V[50] + 2.0 * CHAIN_TOL
        assert verdict(dataclasses.replace(traj, err=err)) == "FAIL"


class TestExport:
    def test_three_samples_four_lines(self, case1, tmp_path):
        scen = case1.scenario
        tiny = Scenario(scen.system, scen.abstraction, scen.relation,
                        scen.interface, scen.certificate, scen.schedule,
                        scen.disturbance, x1_0=scen.x1_0, x2_0=scen.x2_0,
                        t_end=0.002, h=1e-3, joint=scen.joint)
        traj = run_scenario(tiny)
        assert len(traj) == 3
        path = tmp_path / "tiny.csv"
        export_trajectory(traj, path)
        assert len(path.read_text().strip().split("\n")) == 4

    def test_round_trip_exact(self, case1, tmp_path):
        scen = case1.scenario
        short = Scenario(scen.system, scen.abstraction, scen.relation,
                         scen.interface, scen.certificate, scen.schedule,
                         scen.disturbance, x1_0=scen.x1_0, x2_0=scen.x2_0,
                         t_end=0.05, h=1e-3, joint=scen.joint)
        traj = run_scenario(short)
        path = tmp_path / "traj.csv"
        export_trajectory(traj, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("t,x1_0,")
        assert len(lines) == len(traj) + 1
        data = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_array_equal(np.asarray(data["t"]), traj.t)
        np.testing.assert_array_equal(np.asarray(data["V"]), traj.V)
        np.testing.assert_array_equal(np.asarray(data["x1_0"]), traj.x1[:, 0])
        assert np.all(np.asarray(data["mode_i"]) == traj.mode_i + 1)

    def test_header_only_for_empty(self, tmp_path):
        empty = Trajectory(
            t=np.empty(0), x1=np.empty((0, 2)), x2=np.empty((0, 1)),
            xtilde=np.empty((0, 2)), u1=np.empty((0, 1)), u2bar=np.empty((0, 1)),
            mode_i=np.empty(0, dtype=int), mode_j=np.empty(0, dtype=int),
            err=np.empty(0), V=np.empty(0), b=np.empty(0), delta=np.empty(0),
            kappa=1.0, u2_sup=0.0, c_sup=0.0,
        )
        path = tmp_path / "empty.csv"
        export_trajectory(empty, path)
        assert path.read_text() == (
            "t,x1_0,x1_1,x2_0,u1_0,mode_i,mode_j,err,V,b,delta\n"
        )

    def test_determinism(self, case1, tmp_path):
        scen = case1.scenario
        short = Scenario(scen.system, scen.abstraction, scen.relation,
                         scen.interface, scen.certificate, scen.schedule,
                         scen.disturbance, x1_0=scen.x1_0, x2_0=scen.x2_0,
                         t_end=1.0, h=1e-3, joint=scen.joint)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trajectory(run_scenario(short), a)
        export_trajectory(run_scenario(short), b)
        assert a.read_bytes() == b.read_bytes()
