"""Integration, mode switching, bound bookkeeping, verdict, trajectory export."""

import dataclasses
import math
import os
import signal
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

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
    export_run,
    reference_schedule,
    run_scenario,
    synthesize_certificate,
    verdict,
)
from pwa_hier.certificate import AFFINE_M, ModeCertificate, sim_fn_derivative, verify_all
from pwa_hier.errors import (
    DimensionMismatchError,
    EmptyScheduleError,
    EmptyTrajectoryError,
    InfeasibleCertificateError,
    NoCellError,
    NonFiniteInputError,
    NonFiniteStateError,
    NonMonotoneTimesError,
    UncertifiedModeError,
)
from pwa_hier import simulator
from pwa_hier.polytope import locate_mode
from pwa_hier.relation import Interface, JointSystem, solve_system_relation
from pwa_hier.simulator import (_BLOCK, _BLOCK_MAX, _WRITE_BLOCK, CHAIN_TOL,
                                 CROSSING_BRACKET, _Runner, rk4_weights, write_tables)
from pwa_hier.systems import paired_modes, transformed_abstraction_matrix

from helpers import (assert_matches_scalar_run, fan_scenario, margins, scalar_bisect,
                     step_rk4)

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

    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan])
    def test_non_positive_width_rejected(self, h):
        with pytest.raises(EmptyTrajectoryError):
            step_rk4(lambda x, t: -x, np.array([1.0]), 0.0, h)

    def test_order_four_convergence(self, case1):
        """Halving the step shrinks the terminal error by 8x..32x on a
        smooth single-mode segment."""
        scen = case1.scenario
        sched = reference_schedule([(0.0, [-3.0, 0.5])])

        def terminal(h):
            s = Scenario(scen.joint, scen.certificate, sched,
                         scen.disturbance, x1_0=scen.x1_0, x2_0=scen.x2_0,
                         t_end=1.0, h=h)
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

    def test_array_lookup_matches_scalar(self):
        """An array of times gives the per-time lookups row by row, at t = 0,
        exactly at each waypoint, just before one and past the last."""
        s = reference_schedule([(0.0, [1.0, -1.0]), (0.25, [2.0, 0.5]),
                                (3.0, [-4.0, 7.0])])
        t = np.array([0.0, 0.1, 0.25, np.nextafter(3.0, 0.0), 3.0, 9.5, 0.25, 0.0])
        got = s.value(t)
        assert got.shape == (len(t), 2)
        np.testing.assert_array_equal(got, np.array([s.value(float(x)) for x in t]))
        np.testing.assert_array_equal(got[[0, 2, 4]], s.values)


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
    joint = JointSystem(system, absn, rel, iface)
    cert = synthesize_certificate(joint, kappa=8.0)
    sched = reference_schedule([(0.0, [1.0, -0.5]), (3.0, [-2.0, 1.0])])
    dist = disturbance or DisturbanceSignal.zero(6)
    x2_0 = np.array([0.5, 0.25])
    x1_0 = rel.P[0] @ x2_0
    x1_0[0] += x1_offset
    return Scenario(joint, cert, sched, dist, x1_0=x1_0, x2_0=x2_0, t_end=10.0, h=1e-3)


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
            assert j == case2.relation.pairing[i]
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
        bad = Scenario(scen.joint, scen.certificate, sched,
                       scen.disturbance, x1_0=scen.x1_0, x2_0=scen.x2_0,
                       t_end=12.0, h=1e-3)
        with pytest.raises(NoCellError):
            run_scenario(bad)

    def test_zero_horizon_rejected(self, case1):
        scen = case1.scenario
        with pytest.raises(EmptyTrajectoryError):
            Scenario(scen.joint, scen.certificate, scen.schedule,
                     scen.disturbance, x1_0=scen.x1_0, x2_0=scen.x2_0,
                     t_end=0.0, h=1e-3)

    @pytest.mark.parametrize("field", ["x1_0", "x2_0"])
    def test_non_finite_initial_state_rejected(self, field, case1):
        """A library caller's NaN start is a package error, not a bare
        ValueError."""
        start = np.array(getattr(case1.scenario, field), dtype=float)
        start[0] = np.nan
        with pytest.raises(NonFiniteInputError, match=field):
            dataclasses.replace(case1.scenario, **{field: start})

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
        joint = JointSystem(case2.system, shuffled, case2.relation, case2.interface)
        bad = dataclasses.replace(scen, joint=joint, t_end=1.0)
        with pytest.raises(UncertifiedModeError):
            run_scenario(bad)

    def test_replaced_joint_is_checked_and_run(self, case1):
        """A loop changed by replacing a part of its joint is the loop the
        scenario checks its certificate on and the loop it runs: here every
        K doubled, which the shipped certificate still certifies."""
        K = [2.0 * np.asarray(Ki) for Ki in case1.interface.K]
        doubled = build_interface(case1.system, case1.abstraction, case1.relation, K)
        joint = dataclasses.replace(case1.joint, interface=doubled)
        variant = dataclasses.replace(case1.scenario, joint=joint, t_end=1.0)
        assert variant.reports == verify_all(case1.certificate, joint)
        assert variant.reports != case1.scenario.reports
        traj = run_scenario(variant)
        args = (traj.mode_i, traj.xtilde, traj.x2, traj.u2bar)
        u1 = joint.u1(*args)
        np.testing.assert_allclose(traj.u1, u1, rtol=0.0, atol=1e-12 * np.abs(u1).max())
        assert np.abs(traj.u1 - case1.joint.u1(*args)).max() > 1.0

    def test_replaced_interface_is_certified_anew(self, tmp_path, monkeypatch):
        """case1's gains halved in a copy of its joint: the copy is built and
        certified anew, so its scenario's reports are the new loop's, which
        the shipped certificate does not certify, and ``run`` refuses it
        (exit 1, nothing written) instead of simulating it to PASS."""
        from pwa_hier import cli
        from pwa_hier.modelfile import Pipeline, builtin_model_path, load_pipeline

        pipe = load_pipeline(builtin_model_path("case1"))
        j = pipe.joint
        halved = build_interface(j.system, j.abstraction, j.relation,
                                 [0.5 * np.asarray(K) for K in j.interface.K])
        joint = dataclasses.replace(j, interface=halved)
        variant = dataclasses.replace(pipe.scenario, joint=joint)
        assert variant.reports == verify_all(pipe.certificate, joint)
        assert not all(r.feasible for r in variant.reports)
        with pytest.raises(UncertifiedModeError):
            run_scenario(variant)
        monkeypatch.setattr(cli, "build_pipeline",
                            lambda config: Pipeline(config, variant))
        assert cli.main(["run", "case1", "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_experiment_of_another_loop_is_refused(self, case1, case2):
        """case2's loop and certificate under case1's experiment (its 6-D
        start) are refused when the scenario is built, not mid-run."""
        with pytest.raises(DimensionMismatchError, match="x1_0"):
            dataclasses.replace(case1.scenario, joint=case2.joint,
                                certificate=case2.certificate)

    def test_horizon_beyond_physical_memory_is_refused(self, case1, monkeypatch):
        """A run whose sample arrays exceed physical memory (1 MB here) is
        refused before any is allocated: writing them would get the process
        killed, where numpy raises no MemoryError."""
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        with pytest.raises(EmptyTrajectoryError, match="more than can be allocated"):
            run_scenario(case1.scenario)

    def test_bookkeeping_counts_towards_physical_memory(self, case1, monkeypatch):
        """The estimate covers the per-sample columns the bookkeeping adds
        after integrating, not only the arrays allocated before: physical
        memory just above the latter still refuses the run."""
        scen = case1.scenario
        before = 8 * (scen.steps + 1) * (6 + scen.schedule.values.shape[1] + scen.joint.n
                                         + scen.joint.m)
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": before // 4096 + 1}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        with pytest.raises(EmptyTrajectoryError, match="more than can be allocated"):
            run_scenario(scen)

    def test_memory_error_in_bookkeeping_is_refused(self, case1, monkeypatch):
        """A MemoryError after integrating, in the bookkeeping, is refused
        like one before it."""
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(simulator, "sim_fn_values", no_memory)
        with pytest.raises(EmptyTrajectoryError, match="more than can be allocated"):
            run_scenario(dataclasses.replace(case1.scenario, t_end=0.1))

    @pytest.mark.parametrize("pages", [None, -1], ids=["no-such-name", "indeterminate"])
    def test_unknown_physical_memory_refuses_nothing(self, pages, case1, monkeypatch):
        """Where sysconf lacks either name, or gives no page count, no horizon
        is refused for memory."""
        def sysconf(name):
            if pages is None:
                raise ValueError(f"unrecognized configuration name {name!r}")
            return {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}[name]

        monkeypatch.setattr(os, "sysconf", sysconf)
        assert len(run_scenario(dataclasses.replace(case1.scenario, t_end=0.1))) == 101

    def test_mode_crossed_between_samples_is_verified(self):
        """A mode the state passes through between two samples has its
        certificate checked too: on a coarse step, some crossed modes never
        hold a sample, and an infeasible certificate for one of them stops
        the run."""
        scen = fan_scenario(48, seed=0, h=0.02)
        traj = run_scenario(scen)
        crossed = {label[0] for ev in traj.crossings for label in (ev.old_label, ev.new_label)}
        unsampled = sorted(crossed - set(traj.mode_i.tolist()))
        assert unsampled
        entries = list(scen.certificate.entries)
        d = entries[unsampled[0]].M.shape[0]
        entries[unsampled[0]] = ModeCertificate(1e-6 * np.eye(d))  # fails domination
        bad = dataclasses.replace(
            scen, certificate=dataclasses.replace(scen.certificate, entries=tuple(entries)))
        with pytest.raises(UncertifiedModeError, match="infeasible"):
            run_scenario(bad)

    def test_unvisited_infeasible_mode_refused_before_integrating(self, case2, monkeypatch):
        """A certificate that fails only on a mode the run never enters is
        refused all the same, naming that mode, before any step is taken:
        the runner is never built."""
        short = dataclasses.replace(case2.scenario, t_end=0.5)
        traj = run_scenario(short)
        last = len(short.joint) - 1
        entered = set(traj.mode_i.tolist()) | {
            label[0] for ev in traj.crossings for label in (ev.old_label, ev.new_label)}
        assert last not in entered
        entries = list(short.certificate.entries)
        entries[last] = ModeCertificate(1e-6 * np.eye(entries[last].M.shape[0]))
        bad = dataclasses.replace(
            short, certificate=dataclasses.replace(short.certificate, entries=tuple(entries)))
        assert not bad.reports[last].feasible
        assert all(r.feasible for r in bad.reports[:last])

        def no_runner(_):
            raise AssertionError("the runner was built")

        monkeypatch.setattr(simulator, "_Runner", no_runner)
        with pytest.raises(UncertifiedModeError,
                           match=rf"mode \({last}, {short.joint.modes[last].label[1]}\)"):
            run_scenario(bad)

    def test_overflowed_gain_slope_refused_before_integrating(self, case1, monkeypatch):
        """A library scenario whose gain slopes overflowed (a tiny lambda) is
        refused before the runner is built, not bookkept into ``inf * 0``
        under a zero disturbance."""
        scen = case1.scenario
        bad = dataclasses.replace(
            scen, certificate=dataclasses.replace(scen.certificate, lam=1e-310),
            disturbance=DisturbanceSignal.zero(scen.disturbance.dim), t_end=0.1)
        assert all(r.feasible for r in bad.reports)
        assert not np.isfinite(bad.slopes).all()

        def no_runner(_):
            raise AssertionError("the runner was built")

        monkeypatch.setattr(simulator, "_Runner", no_runner)
        with pytest.raises(InfeasibleCertificateError, match=r"1e-310 makes a gain slope"):
            run_scenario(bad)

    def test_run_reads_the_scenario_check(self, case1, case2, monkeypatch):
        """The certificate is checked once, when the scenario is built: a run
        verifies nothing and computes no gain slope, and its levels ``b``
        come from the scenario's stored slopes."""
        scenarios = [dataclasses.replace(b.scenario, t_end=0.2) for b in (case1, case2)]
        calls = []
        for name in ("verify_all", "gain_slopes_all"):
            real = getattr(simulator, name)
            monkeypatch.setattr(simulator, name, lambda *a, _n=name, _f=real, **k:
                                (calls.append(_n), _f(*a, **k))[1])
        for scen in scenarios:
            traj = run_scenario(scen)
            g = scen.slopes[traj.mode_i]
            b = (g[:, 0] * scen.schedule.sup_norm() + g[:, 1] * scen.disturbance.sup_norm()
                 + g[:, 2] * np.maximum.accumulate(np.abs(traj.x2).max(axis=1)) + g[:, 3])
            np.testing.assert_array_equal(traj.b, b)
        assert calls == []
        # the counters do see a build that checks a new certificate object
        dataclasses.replace(scenarios[0], certificate=dataclasses.replace(case1.certificate))
        assert calls == ["verify_all", "gain_slopes_all"]

    @pytest.mark.parametrize("count", [2, 6], ids=["too-few", "too-many"])
    def test_certificate_entry_count_must_match_modes(self, count, case2):
        """A certificate with other than one entry per joint mode is refused
        when the scenario is built, not with an IndexError after the run."""
        entries = case2.certificate.entries
        entries = (entries * 2)[:count]
        cert = dataclasses.replace(case2.certificate, entries=entries)
        with pytest.raises(DimensionMismatchError, match=f"{count} entries.*5 modes"):
            dataclasses.replace(case2.scenario, certificate=cert)

    def test_bookkeeping_memory_is_bounded(self, case1):
        """The per-sample columns gather each mode's matrices a chunk of
        samples at a time: the traced peak of a case1 run stays under twice
        the bytes of the arrays it returns (gathering the whole horizon at
        once takes it to about 3.7 times)."""
        run_scenario(case1.scenario)  # first-call allocations out of the count
        tracemalloc.start()
        try:
            traj = run_scenario(case1.scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(v.nbytes for v in vars(traj).values() if isinstance(v, np.ndarray))
        assert peak <= 2 * size

    def test_columns_match_per_mode_bookkeeping(self, case2, fans):
        """Every per-sample column of a run equals the one-mode-at-a-time
        formulas on the rows of each mode: bit for bit, apart from u1, which
        sums its three terms in another order (1e-13 relative)."""
        for scen in (case2.scenario, fans[1]):
            traj = run_scenario(scen)
            runner = _Runner(scen)
            for idx in np.unique(traj.mode_i):
                rows = np.nonzero(traj.mode_i == idx)[0]
                x1, x2 = traj.x1[rows], traj.x2[rows]
                xt = x1 - x2 @ scen.joint.relation.P[idx].T
                np.testing.assert_array_equal(traj.xtilde[rows], xt)
                np.testing.assert_array_equal(traj.y1[rows],
                                              x1 @ scen.joint.system.modes[idx].C.T)
                paired = paired_modes(scen.joint.abstraction, scen.joint.relation.pairing,
                                      len(scen.joint))
                np.testing.assert_array_equal(traj.y2[rows], x2 @ paired[idx].mode.H.T)
                iface = scen.joint.interface
                u1 = (traj.u2bar[rows] @ iface.R[idx].T + x2 @ scen.joint.QRL[idx].T
                      + xt @ iface.K[idx].T)
                np.testing.assert_allclose(traj.u1[rows], u1, rtol=0.0,
                                           atol=1e-13 * (1.0 + np.abs(u1).max()))
                omega = np.hstack([xt, x2])
                quad = np.einsum("ij,jk,ik->i", omega, scen.certificate.entries[idx].M, omega)
                if scen.joint.modes[idx].kind == "affine":
                    quad = quad + AFFINE_M
                np.testing.assert_array_equal(
                    traj.V[rows], np.sqrt(np.clip(quad, 0.0, None)) / scen.certificate.kappa)

    def test_columns_do_not_depend_on_chunking(self, case2, fans, monkeypatch):
        """A chunk of samples in one mode indexes that mode's matrices, and
        one with several modes gathers them per sample: chunks of 1024, 7
        and 1 samples, which put the samples next to a crossing in one kind
        or the other, give the same columns bit for bit."""
        for scen in (case2.scenario, fans[0]):
            runs = []
            for rows in (1024, 7, 1):
                monkeypatch.setattr(simulator, "_GATHER_ROWS", rows)
                runs.append(run_scenario(scen))
            assert len(runs[0].crossings) > 0
            for traj in runs[1:]:
                for name in ("xtilde", "u1", "y1", "y2", "V", "b", "delta"):
                    assert getattr(traj, name).tobytes() == getattr(runs[0], name).tobytes()

    def test_rerun_is_identical_and_leaves_the_joint_as_built(self, fans):
        """The runner writes the x1-x2 coupling into its own copy of the
        joint's ``Aprime``: a second run of one scenario gives the first's
        trajectory, and the joint's coupling blocks stay zero."""
        scen = fans[0]
        n = scen.joint.n
        first, second = run_scenario(scen), run_scenario(scen)
        assert len(first.crossings) > 0 and first.crossings == second.crossings
        for name, col in vars(first).items():
            if isinstance(col, np.ndarray):
                assert col.tobytes() == getattr(second, name).tobytes(), name
        assert not scen.joint.Aprime[:, :n, n:].any()
        assert _Runner(scen).Z[:, :n, n:].any()


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
        far = Scenario(scen.joint, scen.certificate, scen.schedule,
                       scen.disturbance, x1_0=x1_0, x2_0=scen.x2_0,
                       t_end=12.0, h=1e-3)
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
        for i in range(len(scen.joint)):
            z = rng.normal(size=runner.n + runner.m)
            u2val = rng.normal(size=scen.schedule.values.shape[1])
            t = float(rng.uniform(0.0, 12.0))
            field = _frozen_field(scen, runner, i, u2val)
            Phi, Gu, Ws = runner.Phi[i], runner.Gu[i], runner.Ws[i]
            got = Phi @ z + Gu @ u2val + runner.stages(t, scen.h) @ Ws
            want = step_rk4(field, z, t, scen.h)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            tau = 0.37 * scen.h
            Zk, ZkB, Zkm = runner.Zk[i], runner.ZkB[i], runner.Zkm[i]
            got = runner.coefficients(t, tau) @ np.concatenate([Zk @ z, ZkB @ u2val, Zkm])
            want = step_rk4(field, z, t, tau)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("dist", [DisturbanceSignal.sinusoid(-0.1, 0.05, 6),
                                      DisturbanceSignal.constant(0.07, 6),
                                      DisturbanceSignal.zero(6)],
                             ids=["sinusoid", "constant", "zero"])
    def test_stages_are_the_waveform(self, dist, case1):
        """The RK4 stage scales are the disturbance waveform at t, t + h/2 and
        t + h, bit for bit, for an array of starts and for an array of widths."""
        runner = _Runner(dataclasses.replace(case1.scenario, disturbance=dist))
        t = np.linspace(0.0, 12.0, 37)
        h = case1.scenario.h
        got = runner.stages(t, h)
        assert got.shape == (len(t), 3)
        for col, times in enumerate((t, t + 0.5 * h, t + h)):
            np.testing.assert_array_equal(got[:, col], dist.scale(times))
        widths = np.array([0.0, 0.3, 1.0]) * h
        got = runner.stages(2.5, widths)
        for col, frac in enumerate((0.0, 0.5, 1.0)):
            np.testing.assert_array_equal(got[:, col], dist.scale(2.5 + widths * frac))

    def test_rows_are_cell_over_region(self, case2):
        """The runner's x1-space rows of each mode are its cell's rows over
        its paired region's, bit for bit."""
        scen = case2.scenario
        runner = _Runner(scen)
        joint = scen.joint
        for i, pm in enumerate(paired_modes(joint.abstraction, joint.relation.pairing,
                                            len(joint))):
            cell = joint.system.partition.cells[i]
            E, f = runner.rows[i]
            np.testing.assert_array_equal(E, np.vstack([cell.E, pm.region.E]))
            np.testing.assert_array_equal(f, np.concatenate([cell.f, pm.region.f]))
            assert E.flags.c_contiguous

    def test_batched_coefficients_match_scalar(self, case1):
        """RK4 weights and sub-step coefficients for an array of widths
        equal the one-width results row by row, bit for bit: ``advance``
        commits states from the rows of ``bisect``'s batches.  So do rows
        with starts of their own, like the remainder sub-step a batch
        holds, from which ``advance`` steps on in the new mode."""
        runner = _Runner(case1.scenario)
        taus = np.array([1e-3, 3.7e-4, 2.5e-7, 1.0])
        got_w = rk4_weights(taus)
        got_c = runner.coefficients(1.3, taus)
        assert got_w.shape == (4, 4, 5) and got_c.shape == (4, 15)
        for k, tau in enumerate(taus):
            np.testing.assert_array_equal(got_w[k], rk4_weights(float(tau)))
            np.testing.assert_array_equal(got_c[k], runner.coefficients(1.3, float(tau)))
        hi = 0.6180339887
        starts = [1.3, 1.3, 1.3, 1.3 + hi * 1e-3, 0.0]
        widths = [1e-3, hi * 1e-3, 5e-4, 1e-3 - hi * 1e-3, 0.0]
        got_c = runner.coefficients(np.array(starts), np.array(widths))
        assert got_c.shape == (5, 15)
        for row, t, tau in zip(got_c, starts, widths):
            np.testing.assert_array_equal(row, runner.coefficients(t, tau))

    @pytest.mark.parametrize("which", ["case1", "case2", "fan"])
    def test_block_scan_matches_recurrence(self, which, case1, case2, fans):
        """A block of every length from 1 to ``_BLOCK_MAX``, filled by the
        doubling scan, equals the step-by-step recurrence ``z+ = Phi z +
        Gu u2bar + stages @ Ws`` in every mode, row by row."""
        scen = {"case1": case1.scenario, "case2": case2.scenario, "fan": fans[0]}[which]
        runner = _Runner(scen)
        rng = np.random.default_rng(5)
        d = runner.n + runner.m
        for i in range(len(scen.joint)):
            Phi, Gu, Ws = runner.Phi[i], runner.Gu[i], runner.Ws[i]
            u2bar = rng.normal(size=(_BLOCK_MAX, Gu.shape[1]))
            stages = rng.normal(size=(_BLOCK_MAX, 3))
            z0 = rng.normal(size=d)
            want = [z0]
            for k in range(_BLOCK_MAX):
                want.append(Phi @ want[-1] + Gu @ u2bar[k] + stages[k] @ Ws)
            want = np.array(want)
            for length in range(1, _BLOCK_MAX + 1):
                zs = np.empty((length + 1, d))
                zs[0] = z0
                runner.propagate(zs, 0, length, i, u2bar, stages)
                err = np.linalg.norm(zs[1:] - want[1: length + 1], axis=1)
                assert np.all(err <= 1e-12 * np.linalg.norm(want[1: length + 1], axis=1))

    def test_rk4_weights_are_exact_at_dyadic_widths(self):
        """At dyadic widths the weights equal the classical RK4 step on
        ``z' = Z z + v(t)`` expanded exactly in rationals, to one rounding."""
        def times_z(poly):  # multiply a polynomial in Z by Z
            return [Fraction(0)] + poly[:-1]

        def axpy(a, x, y):  # a x + y, per source
            return {src: [a * p + q for p, q in zip(x[src], y[src])] for src in x}

        def exact(h):
            """Coefficients of Z^0 .. Z^4 on z, v(t), v(t + h/2), v(t + h)."""
            unit = [Fraction(1)] + [Fraction(0)] * 4
            zero = [Fraction(0)] * 5
            z = {"z": unit, 0: zero, 1: zero, 2: zero}
            drive = [{**{src: zero for src in z}, v: unit} for v in (0, 1, 1, 2)]
            stages, prev = [], None
            for a, v in zip((0, h / 2, h / 2, h), drive):
                x = z if prev is None else axpy(a, prev, z)
                prev = axpy(1, {src: times_z(p) for src, p in x.items()}, v)
                stages.append(prev)
            step = z
            for weight, k in zip((1, 2, 2, 1), stages):
                step = axpy(h / 6 * weight, k, step)
            return [step[src] for src in ("z", 0, 1, 2)]

        widths = [Fraction(1), Fraction(1, 8), Fraction(3, 1 << 12), Fraction(1, 1 << 20),
                  Fraction(5, 1 << 33)]
        got = rk4_weights(np.array([float(h) for h in widths]))
        for h, w in zip(widths, got):
            want = np.array([[float(c) for c in row] for row in exact(h)])
            np.testing.assert_allclose(w, want, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(rk4_weights(float(h)), want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("row", [0, -1])
    @pytest.mark.parametrize("which", ["case1", "case2"])
    def test_first_crossing_at_block_edge(self, which, row, case1, case2):
        """The step width is chosen so the first crossing falls on the first
        (``row`` 0) or last (-1) row of a block, of the blocks that grow
        while the run stays in its mode; modes and crossing labels match
        stepping the frozen field one RK4 step at a time and relocating the
        mode after each step."""
        scen = (case1 if which == "case1" else case2).scenario
        t_cross = run_scenario(dataclasses.replace(scen, t_end=3.0)).crossings[0].t_outside
        start, stop = _block_around(int(t_cross / scen.h))
        assert stop - start > _BLOCK  # a grown block
        k_cross = range(start, stop)[row]
        h = t_cross / (k_cross + 0.5)
        short = dataclasses.replace(scen, h=h, t_end=(k_cross + 8) * h)
        traj = run_scenario(short)
        assert int(traj.crossings[0].t_outside / h) == k_cross

        runner = _Runner(short)
        joint = short.joint
        paired = paired_modes(joint.abstraction, joint.relation.pairing, len(joint))
        z = np.concatenate([short.x1_0, short.x2_0])
        i, j = int(traj.mode_i[0]), int(traj.mode_j[0])
        modes, labels = [(i, j)], []
        for k in range(len(traj) - 1):
            field = _frozen_field(short, runner, i, traj.u2bar[k])
            z = step_rk4(field, z, float(traj.t[k]), h)
            new_i = locate_mode(joint.system.partition, z[: runner.n], previous=i)
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
        joint = scen.joint
        mode = joint.system.modes[0]
        hot = PwaSystem((PwaMode(mode.A + 1e5 * np.eye(6), mode.B, mode.C, mode.c_bound),),
                        joint.system.partition)
        rel = solve_system_relation(hot, joint.abstraction)
        # the old gains, which build_interface refuses: they no longer
        # stabilize the plant
        iface = Interface(joint.interface.K, joint.interface.R)
        bad = dataclasses.replace(scen, joint=JointSystem(hot, joint.abstraction, rel, iface))
        # no certificate holds on an unstable loop: let the run through anyway
        object.__setattr__(bad, "reports", scen.reports)
        runner = _Runner(bad)
        z = np.concatenate([bad.x1_0, bad.x2_0])
        diverged_at = 0
        with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError):
            while True:
                t = diverged_at * bad.h
                field = _frozen_field(bad, runner, 0, bad.schedule.value(t))
                z = step_rk4(field, z, t, bad.h)
                diverged_at += 1
        start, stop = _block_around(diverged_at)
        assert start < diverged_at < stop - 1
        with pytest.raises(NonFiniteStateError):
            run_scenario(bad)

    def test_block_grows_while_the_run_stays_in_its_mode(self, case1, case2, fans,
                                                         monkeypatch):
        """The shipped cases, which cross 2 and 4 times in 12,001 samples,
        take at most 60 and 65 block scans, 377 each with fixed blocks of
        ``_BLOCK``; the 32-cone fan, which crosses every dozen steps, takes
        as many as with fixed blocks.  Fixed blocks give the same modes and
        crossings (times and labels), and states within 1e-12 relative."""
        real = _Runner.propagate
        calls = [0]

        def counting(self, *args):
            calls[0] += 1
            return real(self, *args)

        def runs():
            for scen in (case1.scenario, case2.scenario, fans[0]):
                calls[0] = 0
                yield run_scenario(scen), calls[0]

        def events(traj):
            return [(ev.t_inside, ev.t_outside, ev.old_label, ev.new_label)
                    for ev in traj.crossings]

        monkeypatch.setattr(_Runner, "propagate", counting)
        grown = list(runs())
        monkeypatch.setattr(simulator, "_BLOCK_MAX", _BLOCK)
        monkeypatch.setattr(simulator, "_SHIFTS",
                            tuple(s for s in simulator._SHIFTS if s < _BLOCK))
        fixed = list(runs())
        assert grown[0][1] <= 60 and grown[1][1] <= 65
        assert [n for _, n in fixed[:2]] == [377, 377]
        assert grown[2][1] == fixed[2][1]
        for (got, _), (want, _) in zip(grown, fixed):
            np.testing.assert_array_equal(got.mode_i, want.mode_i)
            np.testing.assert_array_equal(got.mode_j, want.mode_j)
            assert events(got) == events(want)
            for a, b in ((got.x1, want.x1), (got.x2, want.x2)):
                assert np.all(np.linalg.norm(a - b, axis=1)
                              <= 1e-12 * np.linalg.norm(b, axis=1))


def _block_around(step: int) -> tuple[int, int]:
    """``(start, stop)`` of the block holding ``step`` when a run stays in
    one mode from step 0: blocks of ``_BLOCK`` steps, doubling each time up
    to ``_BLOCK_MAX``, so they start at 0, 32, 96, 224, 480, ..."""
    start, length = 0, _BLOCK
    while start + length <= step:
        start, length = start + length, min(2 * length, _BLOCK_MAX)
    return start, start + length


def end_margins(runner, basis, t, width, i):
    """Row margins of mode ``i`` at the end of a sub-step of ``width``:
    what ``advance`` passes ``bisect`` as ``end``."""
    return margins(runner, (runner.coefficients(t, width) @ basis)[: runner.n], i)


def assert_same_bisection(got, want):
    """Equal brackets, equal coefficient rows bit for bit (or both None),
    and, where the batched remainder sub-step is the one after the bracket,
    its row bit for bit."""
    assert len(got) == len(want) and got[:2] == want[:2]
    for a, b in zip(got[2:5], want[2:5]):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)
    if got[5][0] == want[5][0]:
        np.testing.assert_array_equal(got[5][1], want[5][1])


@pytest.fixture(scope="module")
def fans():
    """Two cone fans (32 and 48 cones) whose reference circles the vertex."""
    return [fan_scenario(32, seed=0), fan_scenario(48, seed=1)]


def _crossing_starts(scen, traj, runner):
    """``(basis, t, i)`` of the step start before each crossing of ``traj``."""
    z = np.hstack([traj.x1, traj.x2])
    for ev in traj.crossings:
        k = int(np.searchsorted(traj.t, ev.t_inside, side="right")) - 1
        i = int(traj.mode_i[k])
        Zk, ZkB, Zkm = runner.Zk[i], runner.ZkB[i], runner.Zkm[i]
        yield np.concatenate([Zk @ z[k], ZkB @ traj.u2bar[k], Zkm]), float(traj.t[k]), i


def _redone_steps(scen):
    """``(runner, basis, t, i, predicted)`` of each step ``advance`` redoes in
    a run of ``scen``, with the margins ``propagate`` passed it: six sample
    rows around the step, or the failing row's alone."""
    steps = []
    advance = _Runner.advance

    def recording(self, z, t, h, i, u2val, events, predicted):
        basis = np.concatenate([self.Zk[i] @ z, self.ZkB[i] @ u2val, self.Zkm[i]])
        steps.append((self, basis, t, i, predicted))
        return advance(self, z, t, h, i, u2val, events, predicted)

    with mock.patch.object(_Runner, "advance", recording):
        run_scenario(scen)
    return steps


class TestBatchedBisection:
    def test_fan_crosses_often(self, fans):
        for scen in fans:
            traj = run_scenario(scen)
            assert len(traj.crossings) >= 25
            assert len(np.unique(traj.mode_i)) >= 25

    def test_run_matches_scalar_bisection(self, fans, monkeypatch):
        """States, modes and every crossing event equal those of a run whose
        crossings are localized by plain scalar bisection."""
        assert_matches_scalar_run(fans)

    def test_coarse_step_run_matches_scalar_bisection(self, monkeypatch):
        """The same on a step of 0.02: modes are entered and left within one
        step, and each crossing takes 28 levels."""
        scen = fan_scenario(48, seed=0, h=0.02)
        traj = run_scenario(scen)
        assert {ev.new_label[0] for ev in traj.crossings} - set(traj.mode_i.tolist())
        assert_matches_scalar_run([scen])

    @pytest.mark.parametrize("cap", [simulator.BISECTION_CAP, 10])
    def test_bracket_matches_scalar_bisection(self, fans, cap, monkeypatch):
        """From the step start before each crossing, the batched bracket is
        the scalar one for widths needing 24, 22 and 3 levels, and with a
        level cap below the first two, whatever the guess: the chord guess,
        NaN, the bracket's ends, its exact midpoint (the walk's first
        midpoint equals the guess) or a random point in it.  So are the
        coefficient rows at its ends and, with the full width riding in
        the first batch and the end margins only predicted, its row.  From
        the six sample rows ``propagate`` passes each redone step, the same
        holds whatever the fit guess: its own, 0, 1, NaN (the chord then
        guesses) or one final cell off the crossing."""
        monkeypatch.setattr(simulator, "BISECTION_CAP", cap)
        rng = np.random.default_rng(0)
        chord = simulator._exit_guess
        guesses = [chord,
                   lambda lo, hi, *_: math.nan,
                   lambda lo, hi, *_: lo,
                   lambda lo, hi, *_: hi,
                   lambda lo, hi, *_: 0.5 * (lo + hi),
                   lambda lo, hi, *_: rng.uniform(lo, hi)]
        scen = fans[0]
        traj = run_scenario(scen)
        runner = _Runner(scen)
        for basis, t, i in _crossing_starts(scen, traj, runner):
            for width in (scen.h, 0.37 * scen.h, 5e-10):
                want = scalar_bisect(runner, basis, t, width, i)
                assert want[1] - want[0] == 0.5 ** min(
                    cap, max(0, int(np.ceil(np.log2(width / CROSSING_BRACKET)))))
                end = end_margins(runner, basis, t, width, i)
                for guess in guesses:
                    monkeypatch.setattr(simulator, "_exit_guess", guess)
                    assert_same_bisection(runner.bisect(basis, t, width, i, end), want)
                assert_same_bisection(
                    runner.bisect(basis, t, width, i, end * (1.0 + 1e-3), trial=True),
                    scalar_bisect(runner, basis, t, width, i, trial=True))
        monkeypatch.setattr(simulator, "_exit_guess", chord)
        fit = simulator._fit_guess
        steps = _redone_steps(scen)
        assert sum(around.ndim == 2 for *_, around in steps) >= 25
        for runner, basis, t, i, around in steps:
            want = scalar_bisect(runner, basis, t, scen.h, i, trial=True)
            for guess in (fit(around) if around.ndim == 2 else math.nan, 0.0, 1.0, math.nan,
                          _cell_off(want)):
                monkeypatch.setattr(simulator, "_fit_guess", lambda rows: guess)
                assert_same_bisection(runner.bisect(basis, t, scen.h, i, around, trial=True),
                                      want)

    @pytest.mark.parametrize("wrong", ["zero", "one", "nan", "next-cell"])
    def test_wrong_guesses_keep_the_bracket(self, fans, wrong, monkeypatch):
        """Guesses that are always 0, always 1, never available (NaN, so
        every path heads towards ``lo``) or one final cell off the crossing
        cost batches but never change the bracket, for the chord guess from
        the end margins and for the fit guess from six sample rows."""
        cases = [case for scen in fans for case in _redone_steps(scen)]
        guess = [0.0]
        monkeypatch.setattr(simulator, "_exit_guess", lambda *args: guess[0])
        monkeypatch.setattr(simulator, "_fit_guess", lambda rows: guess[0])
        for runner, basis, t, i, around in cases:
            width = runner.h
            want = scalar_bisect(runner, basis, t, width, i)
            guess[0] = {"zero": 0.0, "one": 1.0, "nan": float("nan"),
                        "next-cell": _cell_off(want)}[wrong]
            end = end_margins(runner, basis, t, width, i)
            assert_same_bisection(runner.bisect(basis, t, width, i, end), want)
            assert_same_bisection(runner.bisect(basis, t, width, i, around), want)

    @pytest.mark.parametrize("before, after", [(0, 8), (1, 8), (2, 8), (3, 8),
                                               (8, 2), (8, 1), (8, 0)])
    def test_margins_around_a_failing_row(self, fans, before, after, monkeypatch):
        """A block whose failing row has ``before`` rows above it and
        ``after`` below: ``propagate`` returns the margins of the six
        samples from two before the failing step's start to two after its
        end, the block's start state counting as a sample, where the block
        holds them, and the failing row's alone otherwise.  The bisection
        then takes no fit guess, and its bracket is the scalar one."""
        scen = fans[0]
        traj = run_scenario(scen)
        runner = _Runner(scen)
        # the step start before the first crossing after 8 steps in one mode
        k = next(k for k in (np.searchsorted(traj.t, [ev.t_inside for ev in traj.crossings],
                                             side="right") - 1).tolist()
                 if k >= 8 and (traj.mode_i[k - 8: k + 1] == traj.mode_i[k]).all())
        i, t = int(traj.mode_i[k]), float(traj.t[k])
        zs = np.hstack([traj.x1, traj.x2])
        stages = runner.stages(traj.t[:-1], scen.h)
        kept, around = runner.propagate(zs, k - before, k + 1 + after, i, traj.u2bar, stages)
        assert kept == before
        # zs now holds the block's rows, the failing step's end zs[k + 1]
        E, f = runner.rows[i]
        samples = zs[k - 2: k + 4, : runner.n] @ E.T - f
        if 2 <= before and 2 <= after:
            assert around.shape == (6, len(f))
            np.testing.assert_allclose(around, samples, rtol=1e-12, atol=1e-12)
            return
        np.testing.assert_allclose(around, samples[3], rtol=1e-12, atol=1e-12)

        def no_fit(rows):
            raise AssertionError("a fit guess from one row")

        monkeypatch.setattr(simulator, "_fit_guess", no_fit)
        basis = np.concatenate([runner.Zk[i] @ zs[k], runner.ZkB[i] @ traj.u2bar[k],
                                runner.Zkm[i]])
        assert_same_bisection(runner.bisect(basis, t, scen.h, i, around, trial=True),
                              scalar_bisect(runner, basis, t, scen.h, i, trial=True))

    def test_about_one_batch_per_crossing(self, fans, monkeypatch):
        """The predicted path settles a crossing of the 32-cone fan, 24
        levels, in at most 1.5 batched evaluations on average."""
        calls = {"bisect": 0, "coefficients": 0}
        in_bisect = [False]
        coefficients, bisect = _Runner.coefficients, _Runner.bisect

        def counted_coefficients(self, t, tau):
            calls["coefficients"] += in_bisect[0]
            return coefficients(self, t, tau)

        def counted_bisect(self, *args, **kwargs):
            calls["bisect"] += 1
            in_bisect[0] = True
            try:
                return bisect(self, *args, **kwargs)
            finally:
                in_bisect[0] = False

        monkeypatch.setattr(_Runner, "coefficients", counted_coefficients)
        monkeypatch.setattr(_Runner, "bisect", counted_bisect)
        traj = run_scenario(fans[0])
        assert calls["bisect"] == len(traj.crossings) >= 25
        assert calls["coefficients"] / calls["bisect"] <= 1.5

    def test_about_one_evaluation_per_crossing(self, fans, monkeypatch):
        """A crossing of the 32-cone fan costs at most 1.5 ``coefficients``
        evaluations on average: the first batch holds the full-width trial
        and the remainder sub-step in the new mode, and the committed
        states come from the batch rows."""
        calls = [0]
        coefficients = _Runner.coefficients

        def counted(self, *args):
            calls[0] += 1
            return coefficients(self, *args)

        monkeypatch.setattr(_Runner, "coefficients", counted)
        traj = run_scenario(fans[0])
        assert calls[0] / len(traj.crossings) <= 1.5


def _cell_off(want) -> float:
    """A guess one final bracket cell past the bracket ``want[:2]``."""
    cell = want[1] - want[0]
    return want[1] + 0.5 * cell if want[1] < 1.0 else want[0] - 0.5 * cell


class TestNonzeroFeedforward:
    def test_matches_reference_integration(self):
        """Double integrator whose relation needs Q != 0 and R != 0: the
        fused closed-loop matrices agree with stepping the raw plant and
        abstraction through the interface formula."""
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
        joint = JointSystem(system, absn, rel, iface)
        cert = synthesize_certificate(joint, kappa=4.0)
        sched = reference_schedule([(0.0, [0.8]), (2.0, [-0.4])])
        dist = DisturbanceSignal.sinusoid(-0.05, 0.05, 2)
        scen = Scenario(joint, cert, sched, dist, x1_0=[0.5, 0.0], x2_0=[0.3], t_end=4.0,
                        h=1e-3)
        traj = run_scenario(scen)

        mode = system.modes[0]
        P = rel.P[0]
        FGL = transformed_abstraction_matrix(absn.F, absn.G, absn.L)
        z = np.concatenate([scen.x1_0, scen.x2_0])
        for k in range(len(traj) - 1):
            u2bar = sched.value(float(traj.t[k]))

            def field(state, tau):
                x1, x2 = state[:2], state[2:]
                u1 = joint.u1(0, x1 - P @ x2, x2, u2bar)
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
            s = Scenario(scen.joint, scen.certificate, scen.schedule,
                         dist, x1_0=scen.x1_0, x2_0=scen.x2_0,
                         t_end=12.0, h=1e-3)
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

    @pytest.mark.parametrize("column", ["err", "V", "delta"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_sample_fails(self, column, value, case1):
        """An inf (or NaN) err, V or delta fails, though ``inf <= inf``
        would pass the chain: a level that overflowed bounds nothing."""
        traj = run_scenario(dataclasses.replace(case1.scenario, t_end=0.1))
        col = getattr(traj, column).copy()
        col[50] = value
        if column == "V":
            delta = traj.delta.copy()
            delta[50] = value
            traj = dataclasses.replace(traj, delta=delta)
        assert verdict(dataclasses.replace(traj, **{column: col})) == "FAIL"


#: Smallest margins just inside and just outside ``MEMBERSHIP_SLACK`` = 1e-9,
#: written out, so that a moved threshold does not move them too.
AT_SLACK = {"inside": -1e-9 * (1.0 - 1e-3), "outside": -1e-9 * (1.0 + 1e-3)}

#: The quadrant ``x[0] >= 0, x[1] >= 0`` of a fan's 4-D state space: its
#: margins at a state are the state's first two entries, exactly.
QUADRANT = (np.eye(2, 4), np.zeros(2))


def _on_quadrant(fan, margin):
    """A runner of ``fan`` whose mode 0 has the rows ``QUADRANT``, and a
    joint state whose smallest margin there is ``margin``."""
    runner = _Runner(fan)
    runner.rows[0] = QUADRANT
    z = np.zeros(runner.n + runner.m)
    z[:2] = margin, 0.5
    return runner, z


@pytest.mark.parametrize("side", ["inside", "outside"])
class TestSlackBoundaries:
    """Each membership decision, and the verdict's chain, from both sides
    of its threshold, 1e-3 of it away."""

    def test_locate_mode(self, side):
        """A state 0.999e-9 left of the axis is in the right quadrant, one
        1.001e-9 left of it only in the left one."""
        right = Polyhedron(np.eye(2), np.zeros(2))
        left = Polyhedron(np.array([[-1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        x = np.array([AT_SLACK[side], 0.5])
        assert locate_mode(Partition((right, left)), x) == {"inside": 0, "outside": 1}[side]

    def test_label(self, side, fans):
        """Inside, the state gets mode 0's label; outside, it is refused."""
        runner, z = _on_quadrant(fans[0], AT_SLACK[side])
        if side == "inside":
            assert runner.label(z[: runner.n], 0) == (0, 0)
        else:
            with pytest.raises(UncertifiedModeError):
                runner.label(z[: runner.n], 0)

    def test_propagate_block(self, side, fans):
        """A one-step block that keeps the state (identity step map, no
        drive) keeps its row inside, or fails it."""
        runner, z = _on_quadrant(fans[0], AT_SLACK[side])
        runner.Phi[0] = np.eye(len(z))
        zs = np.vstack([z, z])
        kept, _ = runner.propagate(zs, 0, 1, 0, np.zeros((1, 2)), np.zeros((1, 3)))
        np.testing.assert_array_equal(zs[1], z)
        assert kept == {"inside": 1, "outside": 0}[side]

    def test_bisect_decision(self, side, fans):
        """Over a basis that holds the state at every width, every midpoint
        decides alike: inside, the bracket closes on the full width, and
        outside on the start."""
        runner, z = _on_quadrant(fans[0], AT_SLACK[side])
        basis = np.zeros((15, len(z)))
        basis[0] = z  # Z^0 z, weighted 1 at every width
        lo, hi, *_ = runner.bisect(basis, 0.0, 1e-3, 0, z[:2])
        cell = 0.5 ** 24  # levels from 1e-3 to CROSSING_BRACKET
        assert (lo, hi) == {"inside": (1.0 - cell, 1.0), "outside": (0.0, cell)}[side]

    def test_chain_tol(self, side, case1):
        """An error 1e-3 of CHAIN_TOL = 1e-6 inside its level passes the
        chain, one 1e-3 of it outside fails."""
        traj = run_scenario(dataclasses.replace(case1.scenario, t_end=0.1))
        err = np.zeros_like(traj.err)
        err[50] = {"inside": 1e-6 * (1.0 - 1e-3), "outside": 1e-6 * (1.0 + 1e-3)}[side]
        traj = dataclasses.replace(traj, err=err, V=np.zeros_like(traj.V))
        assert verdict(traj) == {"inside": "PASS", "outside": "FAIL"}[side]


class TestAtomicWrite:
    def test_error_in_block_keeps_old_file(self, tmp_path):
        """A write that fails part-way leaves the old file as it was and
        removes the temp file."""
        path = tmp_path / "f.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with simulator.atomic_write(path) as fh:
                fh.write("half")
                raise RuntimeError
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_foreign_temp_file_is_untouched(self, tmp_path):
        """Another writer's temp file next to the path keeps its bytes and
        its name: the temp name is this process's own."""
        path, foreign = tmp_path / "f.txt", tmp_path / "f.txt.tmp"
        path.write_text("old\n")
        foreign.write_bytes(b"another writer's half\n")
        with simulator.atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert foreign.read_bytes() == b"another writer's half\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt", "f.txt.tmp"]

    def test_missing_target_and_symlink_get_replace(self, tmp_path):
        """A new path is created, and a symlink is replaced by the file, not
        followed, as ``os.replace`` does."""
        new, target, link = tmp_path / "new.txt", tmp_path / "target.txt", tmp_path / "link"
        target.write_text("target\n")
        link.symlink_to(target)
        for path in (new, link):
            with simulator.atomic_write(path) as fh:
                fh.write("written\n")
        assert new.read_text() == "written\n"
        assert not link.is_symlink() and link.read_text() == "written\n"
        assert target.read_text() == "target\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "new.txt", "target.txt"]

    @pytest.mark.skipif(simulator._renameat2() is None, reason="libc has no renameat2")
    def test_exchange_swaps_regular_files_only(self, tmp_path):
        a, b, d = tmp_path / "a", tmp_path / "b", tmp_path / "d"
        a.write_text("A")
        b.write_text("B")
        d.mkdir()
        assert simulator._exchange(str(a), b)
        assert (a.read_text(), b.read_text()) == ("B", "A")
        assert not simulator._exchange(str(a), d)
        assert not simulator._exchange(str(a), tmp_path / "missing")
        assert d.is_dir() and a.read_text() == "B"

    def test_failed_exchange_falls_back_to_replace(self, tmp_path, monkeypatch):
        """An exchange that fails with any error (here, as a policy that
        blocks ``renameat2`` would) moves nothing, and ``os.replace`` places
        the file."""
        monkeypatch.setattr(simulator, "_renameat2", lambda: lambda *args: -1)
        path = tmp_path / "f.txt"
        path.write_text("old\n")
        with simulator.atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]


def _writer_columns(rows):
    """Columns of ``rows`` values that exercise the writer's dedup: signed
    zeros, NaN payloads, infinities, subnormals, repeated values, constant,
    twin and strided columns and ints; a run across a block edge, a column
    that is another's twin in its first block only, adjacent NaNs with
    other payloads, alternating runs of -0.0 and 0.0, and ints with a float
    column's bytes."""
    rng = np.random.default_rng(rows)
    nan_payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    special = np.array([-0.0, 0.0, np.nan, nan_payload, np.inf, -np.inf, 5e-324])
    x = np.where(rng.random(rows) < 0.3, rng.choice(special, rows),
                 rng.standard_normal(rows))
    x[:min(rows, len(special))] = special[:rows]
    stacked = rng.standard_normal((rows, 3))
    return {
        "x": x,
        "twin": x.copy(),
        "const": np.full(rows, 0.1),
        "zero": np.zeros(rows),
        "negzero": -np.zeros(rows),
        "mode": rng.integers(1, 4, rows),
        "strided": stacked.T[1],
        "straddle": np.where(abs(np.arange(rows) - _WRITE_BLOCK) < 5, 2.5, x),
        "first_twin": np.where(np.arange(rows) < _WRITE_BLOCK, x, -x),
        "nans": np.resize([np.nan, nan_payload, nan_payload, -np.nan, 1.0], rows),
        "zeros": np.where(np.arange(rows) // 3 % 2, -0.0, 0.0),
        "bits": x.view(np.int64),
    }


def _can_fork():
    """Whether this machine lets the writer format in a forked child."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _assert_same_lines(written, expected, what):
    """Fail on the first line where ``written`` and ``expected`` (text or
    bytes) differ, naming its index and both versions: pytest's diff of two
    whole tables of thousands of lines takes minutes."""
    got, want = written.splitlines(keepends=True), expected.splitlines(keepends=True)
    if got != want:
        i = next(i for i, pair in enumerate(zip(got + [None], want + [None]))
                 if pair[0] != pair[1])
        end = "<end of table>"
        pytest.fail(f"{what}: line {i} differs: expected {want[i] if i < len(want) else end!r},"
                    f" written {got[i] if i < len(got) else end!r}", pytrace=False)


def _record_spans(monkeypatch):
    """The ``(start, stop)`` row spans this process formats (a child's are
    not seen), recorded in the returned list."""
    spans, real = [], simulator._write_rows

    def recording(handles, columns, files, used, start, stop):
        spans.append((start, stop))
        real(handles, columns, files, used, start, stop)

    monkeypatch.setattr(simulator, "_write_rows", recording)
    return spans


class TestExport:
    def test_three_samples_four_lines(self, case1, tmp_path):
        scen = case1.scenario
        tiny = Scenario(scen.joint, scen.certificate, scen.schedule,
                        scen.disturbance, x1_0=scen.x1_0, x2_0=scen.x2_0,
                        t_end=0.002, h=1e-3)
        traj = run_scenario(tiny)
        assert len(traj) == 3
        assert export_run(traj, tmp_path) == [tmp_path / "trajectory.csv",
                                              tmp_path / "bounds.csv"]
        assert len((tmp_path / "trajectory.csv").read_text().strip().split("\n")) == 4

    def test_round_trip_exact(self, case1, tmp_path):
        scen = case1.scenario
        short = Scenario(scen.joint, scen.certificate, scen.schedule,
                         scen.disturbance, x1_0=scen.x1_0, x2_0=scen.x2_0,
                         t_end=0.05, h=1e-3)
        traj = run_scenario(short)
        path = tmp_path / "trajectory.csv"
        export_run(traj, tmp_path)
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
            y1=np.empty((0, 1)), y2=np.empty((0, 1)), err=np.empty(0), V=np.empty(0), b=np.empty(0), delta=np.empty(0),
            kappa=1.0,
        )
        export_run(empty, tmp_path)
        assert (tmp_path / "trajectory.csv").read_text() == (
            "t,x1_0,x1_1,x2_0,u1_0,mode_i,mode_j,err,V,b,delta\n"
        )

    def test_determinism(self, case1, tmp_path):
        scen = case1.scenario
        short = Scenario(scen.joint, scen.certificate, scen.schedule,
                         scen.disturbance, x1_0=scen.x1_0, x2_0=scen.x2_0,
                         t_end=1.0, h=1e-3)
        a, b = tmp_path / "a", tmp_path / "b"
        export_run(run_scenario(short), a)
        export_run(run_scenario(short), b)
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("rows, cpus", [
        *(pytest.param(rows, None, id=str(rows))
          for rows in (0, 1, _WRITE_BLOCK, 2 * _WRITE_BLOCK + 3)),
        pytest.param(2 * _WRITE_BLOCK + 3, 1, id=f"{2 * _WRITE_BLOCK + 3}-one-cpu"),
    ])
    def test_writer_matches_per_value_repr(self, rows, cpus, tmp_path, monkeypatch):
        """The writer's bytes equal formatting every value on its own, for
        signed zeros, NaN payloads, infinities, subnormals, repeated values,
        constant, twin and strided columns and ints, across block edges:
        from two processes where the machine has two CPUs, and from one on
        one CPU, where they equal the two-process bytes."""
        columns = _writer_columns(rows)
        files = [(tmp_path / "all.csv", tuple(columns), ",", True),
                 (tmp_path / "some.dat", ("strided", "x", "negzero", "mode"), " ", False)]
        if cpus is not None:
            (tmp_path / "default").mkdir()
            default = [(tmp_path / "default" / path.name, *rest) for path, *rest in files]
            write_tables(columns, default)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        spans = _record_spans(monkeypatch)
        write_tables(columns, files)
        two = cpus is None and rows >= 2 * _WRITE_BLOCK and _can_fork()
        assert spans == [(0, _WRITE_BLOCK if two else rows)]
        for path, names, sep, header in files:
            lines = [sep.join(names)] if header else []
            lines += [sep.join(repr(columns[name][i].item()) for name in names)
                      for i in range(rows)]
            _assert_same_lines(path.read_text(), "".join(line + "\n" for line in lines),
                               path.name)
        if cpus is not None:
            for (path, *_), (twin, *_) in zip(files, default):
                _assert_same_lines(path.read_bytes(), twin.read_bytes(), path.name)

    @pytest.mark.parametrize("failure, raised", [(RuntimeError, OSError),
                                                 (KeyboardInterrupt, KeyboardInterrupt)],
                             ids=["child-fails", "parent-interrupted"])
    def test_writer_failure_leaves_no_child_or_file(self, failure, raised, tmp_path,
                                                    monkeypatch):
        """A child that fails its half (rows from the split on) fails the
        write; an interrupt in this process's half kills the child.  Either
        way no table, temp file or child process is left."""
        if not _can_fork():
            pytest.skip("the writer forks only with os.fork and two CPUs")
        real = simulator._write_rows
        child = failure is RuntimeError

        def failing(handles, columns, files, used, start, stop):
            if (start >= _WRITE_BLOCK) == child:
                raise failure("formatting failed")
            real(handles, columns, files, used, start, stop)

        monkeypatch.setattr(simulator, "_write_rows", failing)
        columns = _writer_columns(2 * _WRITE_BLOCK + 3)
        with pytest.raises(raised, match="ended with status 1" if child else "formatting failed"):
            write_tables(columns, [(tmp_path / "all.csv", tuple(columns), ",", True),
                                   (tmp_path / "x.dat", ("x",), " ", False)])
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("hazard", ["thread", "sigchld-ignored"])
    def test_writer_forks_only_when_safe(self, hazard, tmp_path, monkeypatch):
        """A fork copies a lock another thread holds, and an ignored SIGCHLD
        loses the child's exit status: with a second thread alive, or
        SIGCHLD ignored, every row is formatted here, to the same bytes."""
        columns = _writer_columns(2 * _WRITE_BLOCK + 3)
        files = [(tmp_path / "all.csv", tuple(columns), ",", True)]
        write_tables(columns, [(tmp_path / "before.csv", *files[0][1:])])
        spans = _record_spans(monkeypatch)
        if hazard == "thread":
            release = threading.Event()
            thread = threading.Thread(target=release.wait, args=(30,))
            thread.start()
            try:
                write_tables(columns, files)
            finally:
                release.set()
                thread.join(timeout=30)
            assert not thread.is_alive()
        else:
            if not hasattr(signal, "SIGCHLD"):
                pytest.skip("no SIGCHLD on this platform")
            previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
            try:
                write_tables(columns, files)
            finally:
                signal.signal(signal.SIGCHLD, previous)
        assert spans == [(0, 2 * _WRITE_BLOCK + 3)]
        _assert_same_lines((tmp_path / "all.csv").read_bytes(),
                           (tmp_path / "before.csv").read_bytes(), "all.csv")

    @pytest.mark.parametrize("bad", [np.arange(3.0), np.zeros((5, 1))],
                             ids=["short", "two-d"])
    def test_writer_rejects_misshapen_column(self, bad, tmp_path):
        """A column that is not 1-D of the first column's length is
        rejected by name, not cut to the shortest column."""
        path = tmp_path / "t.dat"
        with pytest.raises(DimensionMismatchError, match="'z'"):
            write_tables({"t": np.arange(5.0), "z": bad}, [(path, ("t", "z"), " ", False)])
        assert not path.exists()
