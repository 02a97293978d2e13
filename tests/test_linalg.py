from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpcolor.linalg import (
    min_eigenvalue,
    numerical_rank,
    require_symmetric,
    symmetrize,
)

RNG = np.random.default_rng(20240811)


def random_psd(dim, rank, rng=RNG):
    """Random PSD with exact rank and nonzero eigenvalues well above zero."""
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    vals = np.zeros(dim)
    vals[:rank] = rng.uniform(0.5, 4.0, size=rank)
    return symmetrize(q @ np.diag(vals) @ q.T)


class TestEigenSym:
    """The symmetric eigendecomposition inside numerical_rank and
    min_eigenvalue. For PSD a, factor(a) gives the numerical_rank(a) nonzero
    eigenvalues w, descending, and their orthonormal eigenvectors Q, with
    a = Q diag(w) Q^T."""

    @staticmethod
    def factor(a):
        w, q = np.linalg.eigh(require_symmetric(a))
        r = numerical_rank(a)
        return w[::-1][:r], q[:, ::-1][:, :r]

    @staticmethod
    def spectrum(a):
        return TestEigenSym.factor(a)[0]

    def test_identity(self):
        assert np.allclose(self.spectrum(np.eye(3)), [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_all_ones(self, k):
        w = self.spectrum(np.ones((k, k)))
        assert w.shape == (1,) and abs(w[0] - k) < 1e-12
        assert numerical_rank(np.ones((k, k)), tau=1e-13) == 1  # rest below k * 1e-13

    def test_two_by_two_hand_value(self):
        a = np.array([[1.0, -0.5], [-0.5, 1.0]])
        assert np.allclose(self.spectrum(a), [1.5, 0.5], atol=1e-14)

    def test_descending_order(self):
        w = self.spectrum(np.diag([3.0, 1.0, 7.0]))
        assert list(w) == sorted(w, reverse=True)

    @pytest.mark.parametrize("dim", [2, 5, 17, 40, 64])
    def test_reconstruction_and_orthonormality(self, dim):
        a = random_psd(dim, dim)
        w, q = self.factor(a)
        scale = 1.0 + np.max(np.abs(a))
        assert np.max(np.abs((q * w) @ q.T - a)) <= 1e-10 * scale
        assert np.max(np.abs(q.T @ q - np.eye(dim))) <= 1e-10

    def test_trace_matches_eigenvalue_sum(self):
        for dim in (3, 10, 30):
            a = random_psd(dim, dim)
            tol = 1e-9 * dim * np.max(np.abs(a))
            assert abs(self.spectrum(a).sum() - np.trace(a)) <= tol

    def test_two_by_two_determinant(self):
        a = random_psd(2, 2)
        tol = 1e-9 * 2 * np.max(np.abs(a))
        assert abs(self.spectrum(a).prod() - np.linalg.det(a)) <= tol

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        for fn in (numerical_rank, min_eigenvalue):
            with pytest.raises(ValueError):
                fn(a)


class TestNumericalRank:
    def test_all_ones_rank_one(self):
        assert numerical_rank(np.ones((4, 4))) == 1

    def test_reference_gram_k4(self):
        x = np.full((4, 4), -1.0 / 3.0)
        np.fill_diagonal(x, 1.0)
        assert numerical_rank(x) == 3

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), tau=2.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_scaling_invariance(self, dim, data):
        # spectra with a clean gap: nonzero eigenvalues lie in [0.1, 10],
        # so rank decisions survive positive rescaling through the relative
        # threshold
        rank = data.draw(st.integers(1, dim))
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        vals = np.zeros(dim)
        vals[:rank] = rng.uniform(0.1, 10.0, size=rank)
        a = symmetrize(q @ np.diag(vals) @ q.T)
        scale = data.draw(st.sampled_from([1.0, 7.0, 1e3, 1e6]))
        assert numerical_rank(a) == rank
        assert numerical_rank(scale * a) == rank


class TestMatrixText:
    def test_min_eigenvalue(self):
        assert abs(min_eigenvalue(np.diag([3.0, -2.0])) + 2.0) < 1e-14

    def test_symmetrize_exact(self):
        a = RNG.normal(size=(6, 6))
        s = symmetrize(a)
        assert np.array_equal(s, s.T)
        require_symmetric(s)
