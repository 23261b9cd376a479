"""Property tests on generated instances (hypothesis, few derandomized
examples, so tier-1 stays fast and repeatable)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import assert_matches_scalar_run, fan_scenario  # noqa: E402


class TestBatchedBisectionProperty:
    @settings(max_examples=5, derandomize=True, deadline=None, database=None)
    @given(cones=st.integers(16, 64), seed=st.integers(0, 2 ** 16))
    def test_run_matches_scalar_bisection_on_random_fans(self, cones, seed):
        """On a random fan of 16 to 64 cones over 0.2 s, the batched run
        equals a run whose crossings are localized by plain scalar
        bisection, in states, modes and every crossing event."""
        assert_matches_scalar_run([fan_scenario(cones, seed=seed, t_end=0.2)])
