"""Independent duality checks that tests run against solver output and the
closed-form certificates: dual feasibility of a given y, complementarity of a
primal-dual pair, and the cost SDP's dual vector of a (y, z) assignment."""

from __future__ import annotations

import numpy as np

from sdpcolor.linalg import min_eigenvalue, numerical_rank, require_symmetric, symmetrize

def check_complementarity(x, s, tol):
    """(verdict, ||X S||_max, rank X, rank S) of a primal-dual pair.

    The verdict holds when ||X S||_max <= tol and rank X + rank S <= dim.
    """
    x = require_symmetric(x)
    s = require_symmetric(s)
    if x.shape != s.shape:
        raise ValueError("dimension mismatch between X and S")
    product_norm = float(np.max(np.abs(x @ s)))
    rank_x = numerical_rank(x)
    rank_s = numerical_rank(s)
    verdict = rank_x + rank_s <= x.shape[0] and product_norm <= tol
    return verdict, product_norm, rank_x, rank_s


def verify_feasible_dual(ops, objective, y):
    """(S, psd, b^T y) for S = C - sum y_i A_i, the A_i those of the
    ConstraintMap ops; psd allows a relative 1e-9."""
    y = np.asarray(y, dtype=float)
    if y.shape != ops.b.shape:
        raise ValueError(f"expected {ops.b.size} dual values, got {y.shape}")
    s = symmetrize(objective - ops.scatter(y))
    lam = min_eigenvalue(s)
    slack = 1e-9 * (1.0 + abs(lam) + float(np.max(np.abs(s))))
    return s, lam >= -slack, float(ops.b @ y)


def dual_vector(g, assignment):
    """Map a (y, z) assignment onto the cost SDP's constraint order: z in
    g.edge_list() order, then y."""
    zs = [assignment.z[e] for e in g.edge_list()]
    return np.array(zs + list(assignment.y), dtype=float)
