"""Property tests on generated instances (hypothesis, few derandomized
examples, so tier-1 stays fast and repeatable)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from pwa_hier.simulator import run_scenario  # noqa: E402

from helpers import assert_matches_scalar_run, fan_scenario, rk4_oracle_run  # noqa: E402


class TestBatchedBisectionProperty:
    @settings(max_examples=5, derandomize=True, deadline=None, database=None)
    @given(cones=st.integers(16, 64), seed=st.integers(0, 2 ** 16))
    def test_run_matches_scalar_bisection_on_random_fans(self, cones, seed):
        """On a random fan of 16 to 64 cones over 0.2 s, the batched run
        equals a run whose crossings are localized by plain scalar
        bisection, in states, modes and every crossing event."""
        assert_matches_scalar_run([fan_scenario(cones, seed=seed, t_end=0.2)])


class TestRk4OracleProperty:
    @settings(max_examples=5, derandomize=True, deadline=None, database=None)
    @given(cones=st.integers(16, 64), seed=st.integers(0, 2 ** 16))
    def test_run_matches_step_by_step_oracle_on_random_fans(self, cones, seed):
        """On a random fan of 16 to 64 cones over 0.2 s, the batched run
        matches a step-by-step run of ``step_rk4`` steps whose crossings are
        split by scalar bisection: the same modes of both systems and the
        same crossings (labels and brackets), and states within 1e-12
        relative."""
        scen = fan_scenario(cones, seed=seed, t_end=0.2)
        traj = run_scenario(scen)
        states, labels, crossings = rk4_oracle_run(scen)
        np.testing.assert_array_equal(np.column_stack([traj.mode_i, traj.mode_j]), labels)
        assert len(crossings) >= 5
        assert [(ev.t_inside, ev.t_outside, ev.old_label, ev.new_label)
                for ev in traj.crossings] == crossings
        got = np.hstack([traj.x1, traj.x2])
        assert np.all(np.linalg.norm(got - states, axis=1)
                      <= 1e-12 * np.linalg.norm(states, axis=1))
