from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpcolor.linalg import (
    eigen_sym,
    gram_factor,
    is_psd,
    min_eigenvalue,
    numerical_rank,
    require_symmetric,
    symmetrize,
)

RNG = np.random.default_rng(20240811)


def random_symmetric(dim, rng=RNG):
    a = rng.normal(size=(dim, dim))
    return symmetrize(a + a.T)


def random_psd(dim, rank, rng=RNG):
    """Random PSD with exact rank and nonzero eigenvalues well above zero."""
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    vals = np.zeros(dim)
    vals[:rank] = rng.uniform(0.5, 4.0, size=rank)
    return symmetrize(q @ np.diag(vals) @ q.T)


class TestEigenSym:
    def test_identity(self):
        dec = eigen_sym(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_all_ones(self, k):
        dec = eigen_sym(np.ones((k, k)))
        assert abs(dec.eigenvalues[0] - k) < 1e-12
        assert np.max(np.abs(dec.eigenvalues[1:])) < 1e-12

    def test_two_by_two_hand_value(self):
        a = np.array([[1.0, -0.5], [-0.5, 1.0]])
        dec = eigen_sym(a)
        assert np.allclose(dec.eigenvalues, [1.5, 0.5], atol=1e-14)

    def test_descending_order(self):
        dec = eigen_sym(np.diag([3.0, -1.0, 7.0]))
        assert list(dec.eigenvalues) == sorted(dec.eigenvalues, reverse=True)

    @pytest.mark.parametrize("dim", [2, 5, 17, 40, 64])
    def test_reconstruction_and_orthonormality(self, dim):
        a = random_symmetric(dim)
        dec = eigen_sym(a)
        scale = 1.0 + np.max(np.abs(a))
        assert np.max(np.abs(dec.reconstruct() - a)) <= 1e-10 * scale
        q = dec.eigenvectors
        assert np.max(np.abs(q.T @ q - np.eye(dim))) <= 1e-10

    def test_trace_matches_eigenvalue_sum(self):
        for dim in (3, 10, 30):
            a = random_symmetric(dim)
            dec = eigen_sym(a)
            tol = 1e-9 * dim * np.max(np.abs(a))
            assert abs(dec.eigenvalues.sum() - np.trace(a)) <= tol

    def test_two_by_two_determinant(self):
        a = random_symmetric(2)
        dec = eigen_sym(a)
        tol = 1e-9 * 2 * np.max(np.abs(a))
        assert abs(dec.eigenvalues.prod() - np.linalg.det(a)) <= tol

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigen_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestNumericalRank:
    def test_all_ones_rank_one(self):
        assert numerical_rank(np.ones((4, 4))) == 1

    def test_reference_gram_k4(self):
        x = np.full((4, 4), -1.0 / 3.0)
        np.fill_diagonal(x, 1.0)
        assert numerical_rank(x) == 3

    def test_accepts_decomposition(self):
        dec = eigen_sym(np.eye(5))
        assert numerical_rank(dec) == 5

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


class TestIsPsd:
    def test_all_ones(self):
        assert is_psd(np.ones((5, 5)))

    def test_indefinite(self):
        assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_near_zero_slack(self):
        a = np.diag([1.0, -1e-12])
        assert is_psd(a)
        assert not is_psd(a, eps=0.0)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            is_psd(np.eye(2), eps=-1.0)


class TestGramFactor:
    def test_identity(self):
        v = gram_factor(np.eye(2))
        assert np.allclose(v @ v.T, np.eye(2), atol=1e-12)

    def test_reference_simplex_dots(self):
        x = np.full((3, 3), -0.5)
        np.fill_diagonal(x, 1.0)
        v = gram_factor(x)
        assert v.shape == (3, 2)
        assert np.allclose(v @ v.T, x, atol=1e-10)

    def test_rank_one_all_ones(self):
        v = gram_factor(np.ones((3, 3)))
        assert v.shape == (3, 1)
        assert np.allclose(v, v[0], atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            gram_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_reconstruction_on_random_psd(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            dim = int(rng.integers(1, 21))
            rank = int(rng.integers(1, dim + 1))
            a = random_psd(dim, rank, rng)
            v = gram_factor(a)
            assert np.max(np.abs(v @ v.T - a)) <= 1e-8 * (1.0 + np.max(np.abs(a)))


class TestMatrixText:
    def test_min_eigenvalue(self):
        assert abs(min_eigenvalue(np.diag([3.0, -2.0])) + 2.0) < 1e-14

    def test_symmetrize_exact(self):
        a = RNG.normal(size=(6, 6))
        s = symmetrize(a)
        assert np.array_equal(s, s.T)
        require_symmetric(s)
