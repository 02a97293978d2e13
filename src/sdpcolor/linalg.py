"""Dense symmetric linear algebra shared by the SDP solver and certificates.

Matrices are plain float ndarrays kept exactly symmetric by construction;
`symmetrize` and `require_symmetric` are the entry/exit guards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_RANK_TAU = 1e-6


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of a (averaging is commutative entrywise)."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def require_symmetric(a: np.ndarray, tol: float = 0.0) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(a, a.T, rtol=0.0, atol=tol):
        raise ValueError("matrix is not symmetric")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a symmetric matrix, eigenvalues descending.

    eigenvectors[:, i] pairs with eigenvalues[i]; Q diag(w) Q^T reconstructs
    the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        q, w = self.eigenvectors, self.eigenvalues
        return symmetrize(q @ np.diag(w) @ q.T)


def eigen_sym(a: np.ndarray) -> EigenDecomposition:
    """Spectral decomposition of a symmetric matrix (LAPACK eigh, descending)."""
    a = require_symmetric(a)
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # never seen at this scale
        raise ArithmeticError(f"eigendecomposition failed: {exc}") from exc
    return EigenDecomposition(w[::-1].copy(), q[:, ::-1].copy())


def _eigenvalues(a) -> np.ndarray:
    if isinstance(a, EigenDecomposition):
        return a.eigenvalues
    return np.linalg.eigvalsh(require_symmetric(a))[::-1]


def numerical_rank(a, tau: float = DEFAULT_RANK_TAU) -> int:
    """Eigenvalues above the relative threshold tau * max(1, |lambda_1|).

    Accepts a symmetric matrix or a precomputed EigenDecomposition.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError("tau must lie in (0, 1)")
    w = _eigenvalues(a)
    if w.size == 0:
        return 0
    cut = tau * max(1.0, abs(w[0]))
    return int(np.sum(np.abs(w) > cut))


def is_psd(a, eps: float | None = None) -> bool:
    """True iff lambda_min >= -eps; default eps = 1e-9 * (1 + |lambda_1|)."""
    w = _eigenvalues(a)
    if w.size == 0:
        return True
    if eps is None:
        eps = 1e-9 * (1.0 + abs(w[0]))
    elif eps < 0:
        raise ValueError("eps must be nonnegative")
    return bool(w[-1] >= -eps)


def gram_factor(a: np.ndarray, rank_hint: int | None = None) -> np.ndarray:
    """Vectors v_i (rows) with v_i . v_j = a_ij, of dimension rank_hint.

    Built from the eigendecomposition by dropping near-zero eigenvalues.
    Raises ValueError if a is not PSD within tolerance.
    """
    dec = eigen_sym(a)
    w = dec.eigenvalues
    if w.size and w[-1] < -1e-9 * (1.0 + abs(w[0])):
        raise ValueError(f"matrix is not PSD (lambda_min={w[-1]:.3e})")
    r = numerical_rank(dec) if rank_hint is None else rank_hint
    scale = np.sqrt(np.clip(w[:r], 0.0, None))
    return dec.eigenvectors[:, :r] * scale


def min_eigenvalue(a) -> float:
    return float(_eigenvalues(a)[-1])
