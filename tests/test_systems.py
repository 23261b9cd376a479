"""Plant/abstraction models, disturbance signals, input transformation,
the Frobenius norm."""

import warnings

import numpy as np
import pytest

from pwa_hier.errors import (
    DimensionMismatchError,
    ModelError,
    NonFiniteInputError,
    NotHurwitzError,
    PwaHierError,
)
from pwa_hier.linalg import as_matrix, as_vector, frobenius
from pwa_hier.systems import (
    HURWITZ_MARGIN,
    DisturbanceSignal,
    LinearAbstraction,
    PwaMode,
    assert_hurwitz,
    hurwitz_margin,
    transformed_abstraction_matrix,
)

I2 = np.eye(2)


class TestTransformedAbstraction:
    def test_single_integrator_with_unit_feedback(self):
        M = transformed_abstraction_matrix(np.zeros((2, 2)), I2, -I2)
        np.testing.assert_allclose(M, -I2)

    def test_case2_first_mode(self):
        M = transformed_abstraction_matrix(I2, I2, -3 * I2)
        np.testing.assert_allclose(M, -2 * I2)

    def test_already_stable(self):
        M = transformed_abstraction_matrix(-I2, I2, np.zeros((2, 2)))
        np.testing.assert_allclose(M, -I2)

    def test_unstable_rejected(self):
        with pytest.raises(NotHurwitzError):
            transformed_abstraction_matrix(I2, I2, np.zeros((2, 2)))

    def test_marginal_rejected(self):
        with pytest.raises(NotHurwitzError):
            transformed_abstraction_matrix(np.zeros((2, 2)), I2, np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            transformed_abstraction_matrix(np.zeros((2, 2)), np.ones((3, 1)), -I2)

    def test_case_study_gains_all_stabilize(self, case1, case2):
        absn = case1.abstraction
        np.testing.assert_allclose(transformed_abstraction_matrix(absn.F, absn.G, absn.L), -I2)
        for mode in case2.abstraction.modes:
            np.testing.assert_allclose(transformed_abstraction_matrix(mode.F, mode.G, mode.L),
                                       -2 * I2)


class TestDisturbance:
    def test_sinusoid_at_zero(self):
        d = DisturbanceSignal.sinusoid(-0.1, 0.05, 6)
        np.testing.assert_allclose(d.value(0.0), -0.1 * np.ones(6))

    def test_zero_signal(self):
        d = DisturbanceSignal.zero(4)
        np.testing.assert_allclose(d.value(17.3), np.zeros(4))
        assert d.sup_norm() == 0.0

    def test_sinusoid_sup(self):
        assert DisturbanceSignal.sinusoid(-0.1, 0.05, 6).sup_norm() == pytest.approx(0.15)

    def test_constant_sup(self):
        assert DisturbanceSignal.constant(0.2, 3).sup_norm() == pytest.approx(0.2)

    def test_values_never_exceed_sup(self):
        d = DisturbanceSignal.sinusoid(-0.1, 0.05, 6)
        sup = d.sup_norm()
        for t in np.linspace(0.0, 50.0, 10_000):
            assert np.max(np.abs(d.value(t))) <= sup + 1e-12

    def test_scaled_to(self):
        d = DisturbanceSignal.sinusoid(-0.1, 0.05, 6).scaled_to(0.05)
        assert d.sup_norm() == pytest.approx(0.05)
        assert d.offset / d.amplitude == pytest.approx(-2.0)

    def test_scaled_to_zero(self):
        d = DisturbanceSignal.sinusoid(-0.1, 0.05, 6).scaled_to(0.0)
        assert d.sup_norm() == 0.0

    @pytest.mark.parametrize("sup", [-0.1, -1e-300, np.nan, np.inf])
    def test_scaled_to_rejects_bad_target(self, sup):
        """A negative factor would flip the waveform and leave the sup-norm
        at |sup|; NaN and infinity are no sup-norm either."""
        with pytest.raises(ModelError, match="sup-norm target"):
            DisturbanceSignal.sinusoid(-0.1, 0.05, 6).scaled_to(sup)

    @pytest.mark.parametrize("kind, offset, amplitude, unused", [
        ("zero", 0.1, 0.0, "offset"),
        ("zero", 0.0, 0.05, "amplitude"),
        ("constant", 0.1, 0.05, "amplitude"),
    ])
    def test_kind_rejects_unused_terms(self, kind, offset, amplitude, unused):
        with pytest.raises(ModelError, match=f"{kind} disturbance takes no {unused}"):
            DisturbanceSignal(kind, np.ones(3), offset=offset, amplitude=amplitude)

    def test_value_is_scale_times_mask(self):
        """One waveform for every kind: ``scale`` is elementwise over an array
        of times, the constant kind is its offset and the zero kind zero."""
        t = np.linspace(0.0, 7.0, 71)
        for d in (DisturbanceSignal.sinusoid(-0.1, 0.05, 3),
                  DisturbanceSignal.constant(-0.2, 3), DisturbanceSignal.zero(3)):
            np.testing.assert_array_equal(d.scale(t), [d.scale(x) for x in t])
            for x in t:
                np.testing.assert_array_equal(d.value(x), d.scale(x) * d.mask)
        np.testing.assert_array_equal(DisturbanceSignal.constant(-0.2, 3).value(1.3),
                                      [-0.2] * 3)
        np.testing.assert_array_equal(DisturbanceSignal.zero(3).value(4.0), np.zeros(3))


@pytest.mark.parametrize("side, scale", [("inside", 1.0 + 1e-3), ("outside", 1.0 - 1e-3)])
def test_hurwitz_margin_boundary(side, scale):
    """A stack whose second matrix is ``diag(-h, -1)``, with ``h``
    ``HURWITZ_MARGIN`` scaled by 1 +- 1e-3: its eigenvalues are its diagonal
    exactly, and it is Hurwitz only when ``h`` exceeds the margin."""
    h = HURWITZ_MARGIN * scale
    stack = np.array([-I2, np.diag([-h, -1.0])])
    assert hurwitz_margin(stack[1]) == -h
    if side == "inside":
        assert_hurwitz(stack, "matrix {}")
    else:
        with pytest.raises(NotHurwitzError, match="^matrix 1 has eigenvalue real part"):
            assert_hurwitz(stack, "matrix {}")


class TestModelValidation:
    def test_mode_shape_check(self):
        with pytest.raises(DimensionMismatchError):
            PwaMode(A=np.zeros((3, 3)), B=np.zeros((2, 1)), C=np.zeros((1, 3)))

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            PwaMode(A=-I2, B=I2, C=I2, c_bound=-0.1)

    def test_negative_bound_is_package_error(self):
        with pytest.raises(ModelError, match="c_bound"):
            PwaMode(A=-I2, B=I2, C=I2, c_bound=-0.1)

    def test_unknown_disturbance_kind_is_package_error(self):
        with pytest.raises(ModelError, match="bogus"):
            DisturbanceSignal("bogus", np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_entries(self, bad):
        """Non-finite entries raise a package error that is still a
        ValueError, for matrices and vectors alike."""
        with pytest.raises(NonFiniteInputError, match="A has non-finite"):
            PwaMode(A=[[-1.0, bad], [0.0, -1.0]], B=I2, C=I2)
        with pytest.raises(NonFiniteInputError):
            as_matrix([[bad]], "M")
        with pytest.raises(NonFiniteInputError):
            as_vector([0.0, bad], "v")
        assert issubclass(NonFiniteInputError, PwaHierError)
        assert issubclass(NonFiniteInputError, ValueError)

    def test_abstraction_requires_stabilizing_L(self):
        with pytest.raises(NotHurwitzError):
            LinearAbstraction(F=I2, G=I2, H=I2, L=np.zeros((2, 2)))


class TestFrobenius:
    def test_bit_equal_in_range(self):
        """One matrix, or each of a stack, gives ``np.linalg.norm``'s bits
        over magnitudes from 1e-100 to 1e100."""
        rng = np.random.default_rng(3)
        for _ in range(500):
            X = rng.normal(size=tuple(rng.integers(1, 9, size=2))) * 10.0 ** rng.uniform(-100, 100)
            assert frobenius(X) == np.linalg.norm(X)
        S = rng.normal(size=(4, 3, 5, 5)) * 10.0 ** rng.uniform(-100, 100, size=(4, 3, 1, 1))
        want = [[np.linalg.norm(X) for X in row] for row in S]
        np.testing.assert_array_equal(frobenius(S), want)

    @pytest.mark.parametrize("entry, want", [(1e300, 3e300), (1e-200, 3e-200), (1.7e308, np.inf)],
                             ids=["huge", "tiny", "beyond-range"])
    def test_extreme_entries_without_warning(self, entry, want):
        """A norm is finite wherever the double range holds it, nonzero for
        a nonzero matrix, and inf beyond the range, with no RuntimeWarning,
        alone or in a stack whose other norms keep their plain bits."""
        X = np.full((3, 3), entry)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = frobenius(X)
            stacked = frobenius(np.stack([X, np.eye(3)]))
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
        np.testing.assert_array_equal(stacked, [got, np.linalg.norm(np.eye(3))])
