"""Dense symmetric linear algebra shared by the SDP solver and certificates.

Matrices are plain float ndarrays kept exactly symmetric by construction;
`symmetrize` and `require_symmetric` are the entry/exit guards.
"""

from __future__ import annotations

import numpy as np

DEFAULT_RANK_TAU = 1e-6


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of the float array a (averaging is commutative
    entrywise)."""
    return (a + a.T) / 2.0


def require_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    return a


def numerical_rank(a: np.ndarray, tau: float = DEFAULT_RANK_TAU) -> int:
    """Number of eigenvalues of a above tau * max(1, |lambda_1|)."""
    if not (0.0 < tau < 1.0):
        raise ValueError("tau must lie in (0, 1)")
    w = np.linalg.eigvalsh(require_symmetric(a))[::-1]
    if w.size == 0:
        return 0
    cut = tau * max(1.0, abs(w[0]))
    return int(np.sum(np.abs(w) > cut))


def min_eigenvalue(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(require_symmetric(a))[0])
