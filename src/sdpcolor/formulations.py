"""The coloring SDPs: strict vector chromatic number and the cost variant.

The strict-vector-chromatic instance lives in dimension n+1; index 0 carries
the shared edge value (so the objective is -z_00 and every edge forces
z_ij = -z_00). The paper's form also fixes z_0i = 0 for every vertex; those
rows are left out, because the optimum and the solver's iterates have
z_0i = 0 without them (build_svcn says why). Rank reports follow the n x n
submatrix convention: row and column 0 are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .graphs import Coloring, Graph, enumerate_cliques, validate_coloring
from .linalg import DEFAULT_RANK_TAU, numerical_rank, require_symmetric, symmetrize
from .sdp import ConstraintMap, FaceMap, SdpSolution, solve

DEFAULT_EXTRACT_TOL = 1e-4


def build_svcn(g: Graph) -> tuple:
    """The constraints of the (n+1)-dimensional strict vector chromatic number SDP.

    Constraints, in order: z_ij + z_00 = 0 per edge of g.edge_list(), then
    z_ii = 1 per vertex; m = |E| + n. Minimizing -z_00 over them gives the
    strict vector chromatic number (solve_svcn). A graph without edges leaves
    z_00 free, so its SDP is unbounded, and it raises ValueError.

    The paper's z_0i = 0 rows are not built. With D = diag(-1, I), X -> DXD
    fixes the objective and every constraint above and negates X[0, 1:], so
    (X + DXD) / 2, which is X with row and column 0 zeroed off the diagonal,
    is feasible, PSD and as good as X: the optimum is unchanged. The solver
    starts from multiples of the identity, which D fixes, and every step
    keeps that: each Schur entry coupling a z_0i row to another row has a
    factor X_0i or (S^-1)_0i, so with the rows their multipliers are exactly
    0, and without them X[0, 1:] and S[0, 1:] stay exactly 0.
    """
    if not g.edges:
        raise ValueError("a graph without edges has an unbounded SVCN")
    constraints = [(((0, 0, 1.0), (i, j, 0.5)), 0.0) for i, j in g.edge_list()]
    constraints += [(((i, i, 1.0),), 1.0) for i in g.vertices()]
    return tuple(constraints)


def build_cost_sdp(g: Graph, k: int) -> tuple:
    """The constraints of the cost SDP: X_ij = -1/(k-1) on edges, unit diagonal.

    Constraints, in order: one per edge of g.edge_list(), then one per
    vertex. Each edge constraint is the entry pair X_ij = X_ji with
    coefficient 1 and right-hand side -2/(k-1), so the solver's dual values
    are exactly the z_e of the paper-form dual, and the dual objective is
    sum y_i - (2/(k-1)) sum z_e.

    This is the paper's unreduced SDP (dim n, m = |E| + n). For every K_k Q
    with indicator vector u_Q it forces u_Q^T X u_Q = k - k = 0, so every
    feasible X lies in the clique face {X : X u_Q = 0} and none is positive
    definite. solve_cost solves it restricted to that face (clique_face).
    """
    if k < 2:
        raise ValueError("palette size must be at least 2")
    constraints = [(((i - 1, j - 1, 1.0),), -2.0 / (k - 1)) for i, j in g.edge_list()]
    constraints += [(((i - 1, i - 1, 1.0),), 1.0) for i in g.vertices()]
    return tuple(constraints)


def chain_cost(n: int, classes) -> np.ndarray:
    """The n x n cost with -1 linking consecutive members of each class, as listed."""
    cost = np.zeros((n, n))
    for members in classes:
        for a, b in zip(members, members[1:]):
            cost[a - 1, b - 1] = cost[b - 1, a - 1] = -1.0
    return cost


def reference_solution(g: Graph, c: Coloring) -> np.ndarray:
    """Gram matrix of the recursively constructed simplex vectors.

    Unit diagonal, 1 for same-colored pairs, -1/(k-1) otherwise; PSD of rank
    k-1 when all k colors are used. Built directly as the Gram matrix, so the
    entries are exact.
    """
    if c.k < 2:
        raise ValueError("palette size must be at least 2")
    if not validate_coloring(g, c):
        raise ValueError("coloring is not proper for this graph")
    colors = np.array(c.assignment)
    same = colors[:, None] == colors[None, :]
    x = np.where(same, 1.0, -1.0 / (c.k - 1))
    np.fill_diagonal(x, 1.0)
    return x


def extract_coloring(x: np.ndarray, k: int,
                     tol: float = DEFAULT_EXTRACT_TOL) -> Coloring | None:
    """Read a coloring off a reference-shaped solution; None if it is not one.

    Vertices i, j share a class iff |x_ij - 1| <= tol. Returns a Coloring only
    when at most k classes emerge and they form a proper partition (every
    cross-class entry away from 1); anything else signals a non-reference
    solution, not an error.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if np.max(np.abs(np.diag(x) - 1.0)) > tol:
        return None
    reps: list = []  # first vertex of each class
    assignment = [0] * n
    for v in range(n):
        for color, rep in enumerate(reps, start=1):
            if abs(x[v, rep] - 1.0) <= tol:
                assignment[v] = color
                break
        else:
            reps.append(v)
            assignment[v] = len(reps)
    if len(reps) > k:
        return None
    labels = np.array(assignment)
    agree = labels[:, None] == labels[None, :]
    close = np.abs(x - 1.0) <= tol
    if np.triu(agree != close, 1).any():  # inconsistent grouping, i < j
        return None
    return Coloring(k, tuple(assignment))


@dataclass(frozen=True)
class SvcnSummary:
    objective: float  # the strict vector chromatic number (= -z_00)
    rank_primal: int  # n x n submatrix rank
    rank_dual: int
    solution: SdpSolution

    @property
    def X(self) -> np.ndarray:
        return self.solution.X[1:, 1:]


def solve_svcn(g: Graph, tau: float = DEFAULT_RANK_TAU) -> SvcnSummary:
    """Solve the strict vector chromatic number SDP; report submatrix ranks.

    The solve runs at sdp.DEFAULT_TOL; a rank counts the eigenvalues above
    tau * max(1, |lambda_1|).
    """
    dim = g.n + 1
    objective = np.zeros((dim, dim))
    objective[0, 0] = -1.0
    sol = solve(ConstraintMap(dim, build_svcn(g)), objective)
    return SvcnSummary(
        objective=sol.primal_obj,
        rank_primal=numerical_rank(sol.X[1:, 1:], tau),
        rank_dual=numerical_rank(sol.S[1:, 1:], tau),
        solution=sol,
    )


def clique_face(g: Graph, k: int) -> FaceMap:
    """Build the clique face of g's cost SDP for palette size k.

    Every K_k Q forces u_Q^T X u_Q = 0 (u_Q its indicator vector), so X u_Q = 0
    for every feasible X: the unreduced SDP has no interior, and interior-point
    steps toward it stall. V is an orthonormal basis of the complement of the
    u_Q (the identity when g has no K_k). On the face, u_Q e_i^T + e_i u_Q^T
    (i in Q), a constraint combination of b-weight 0, vanishes; FaceMap drops
    the constraints this makes dependent, which the zero b-weight makes sound.
    The face does not depend on the cost, so one serves every cost solve on
    (g, k).
    """
    constraints = build_cost_sdp(g, k)
    cliques = enumerate_cliques(g, k)
    u = np.zeros((g.n, len(cliques)))
    for col, q in enumerate(cliques):
        u[[v - 1 for v in q], col] = 1.0
    return FaceMap(sla.null_space(u.T), constraints)


@dataclass(frozen=True)
class CostSolution:
    """A cost SDP solve on the clique face X = V W V^T.

    X alone is lifted to order n. face is the solver's own solution in face
    coordinates: its X is W and its S the face slack S_W, both of order V's
    column count, and its y holds the kept constraints' duals.
    """

    X: np.ndarray
    face: SdpSolution


def solve_cost(face: FaceMap, cost: np.ndarray) -> CostSolution:
    """Solve the cost SDP with this cost on its clique face; lift X.

    Only the cost is new per solve: it is projected to V^T C V, and the
    solver reuses the face's operator. The face solve runs at
    sdp.DEFAULT_TOL. Its S_W stays in face coordinates: V S_W V^T need not be
    an unreduced dual slack, since that dual can recede along u_Q u_Q^T, a
    constraint combination of b-weight 0, without changing its objective, so
    its optimum need not be attained.
    """
    v = face.basis
    sol = solve(face, symmetrize(v.T @ require_symmetric(cost) @ v))
    return CostSolution(symmetrize(v @ sol.X @ v.T), sol)
