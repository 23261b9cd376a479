"""Kernel tests: frozen examples plus randomized oracle properties."""

import numpy as np
import pytest

from pwa_hier.errors import NonSquareError, NotSymmetricError
from pwa_hier.linalg import spectral_norm, sym_eigen


class TestSymEigen:
    def test_identity(self):
        e = sym_eigen(np.eye(2))
        np.testing.assert_allclose(e.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(np.abs(e.eigenvectors), np.eye(2), atol=1e-12)

    def test_two_by_two(self):
        # characteristic polynomial x^2 - 4x + 3 -> roots 1, 3
        e = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(e.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_diagonal(self):
        e = sym_eigen(np.diag([-1.0, 0.0, 5.0]))
        np.testing.assert_allclose(e.eigenvalues, [-1.0, 0.0, 5.0], atol=1e-14)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            sym_eigen(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            sym_eigen([[1.0, 2.0], [0.0, 1.0]])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for dim in range(1, 11):
            G = rng.normal(size=(dim, dim))
            S = 0.5 * (G + G.T)
            e = sym_eigen(S)
            Q, w = e.eigenvectors, e.eigenvalues
            assert np.all(np.diff(w) >= 0.0)
            rebuilt = (Q * w) @ Q.T
            assert np.linalg.norm(rebuilt - S) <= 1e-10 * (1 + np.linalg.norm(S))
            assert np.linalg.norm(Q.T @ Q - np.eye(dim)) <= 1e-10


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal_absolute_max(self):
        assert spectral_norm(np.diag([3.0, -7.0])) == pytest.approx(7.0)

    def test_nilpotent(self):
        # A^T A = diag(0, 4)
        assert spectral_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0)

    def test_dominates_random_unit_vectors(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 5))
        sigma = spectral_norm(A)
        for _ in range(1000):
            v = rng.normal(size=5)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(A @ v) <= sigma + 1e-6
